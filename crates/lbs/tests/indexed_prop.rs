//! The indexed-search contract: the landmark-pruned goal-directed
//! searches must return **exactly** the answers of a plain multi-source
//! Dijkstra — same POIs, same distances (order encodes them), same
//! tie-breaks — on arbitrary maps, stores, regions and radii. Only the
//! `segments_visited` work counter may differ (the indexed search does
//! less work; that is the point). The plain search lives here, as the
//! reference the library's searches are held to.

use lbs::{
    nearest_query_with, range_query_with, refine_nearest_with, CandidateAnswer, Poi, PoiCategory,
    PoiStore, SearchScratch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{
    grid_city, irregular_city, path, IrregularConfig, JunctionId, RoadNetwork, SegmentId,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic region: the BFS hop ball around a seed segment,
/// truncated — connected like real cloaking regions, and sorted like
/// the payloads the pipeline feeds the LBS.
fn region(net: &RoadNetwork, center: u32, hops: usize, take: usize) -> Vec<SegmentId> {
    let center = SegmentId(center % net.segment_count() as u32);
    let mut ball = path::segments_within_hops(net, center, hops);
    ball.truncate(take.max(1));
    ball.sort_unstable();
    ball
}

/// The reference search: a multi-source Dijkstra from every endpoint of
/// the region's segments (the user could be anywhere on a segment,
/// ends included), bounded by `limit`, with no landmark pruning.
/// Returns every junction's distance from the region (`None` when not
/// reached within `limit`) and the number of distinct segments incident
/// to a settled junction — the work counter the library reports.
fn region_distances(
    net: &RoadNetwork,
    region: &[SegmentId],
    limit: f64,
) -> (Vec<Option<f64>>, usize) {
    let mut dist = vec![None; net.junction_count()];
    let mut seen = vec![false; net.segment_count()];
    // Distances are finite and non-negative, so their bit patterns sort
    // like the values.
    let mut heap = BinaryHeap::new();
    for &s in region {
        let seg = net.segment(s);
        for j in [seg.a(), seg.b()] {
            if dist[j.index()].is_none() {
                dist[j.index()] = Some(0.0);
                heap.push(Reverse((0.0f64.to_bits(), j.0)));
            }
        }
    }
    let mut visited = 0;
    while let Some(Reverse((bits, j))) = heap.pop() {
        let (d, j) = (f64::from_bits(bits), JunctionId(j));
        if dist[j.index()].is_some_and(|cur| d > cur) || d > limit {
            continue;
        }
        for &s in net.incident_segments(j) {
            if !std::mem::replace(&mut seen[s.index()], true) {
                visited += 1;
            }
            let seg = net.segment(s);
            let other = seg.other_endpoint(j).expect("incident endpoint");
            let nd = d + seg.length();
            if nd <= limit && dist[other.index()].is_none_or(|cur| nd < cur) {
                dist[other.index()] = Some(nd);
                heap.push(Reverse((nd.to_bits(), other.0)));
            }
        }
    }
    (dist, visited)
}

/// Road distance from the region to a POI, given the junction distances
/// of [`region_distances`] (`None` when the POI is out of range).
fn poi_distance(
    net: &RoadNetwork,
    dist: &[Option<f64>],
    region: &[SegmentId],
    poi: &Poi,
) -> Option<f64> {
    if region.contains(&poi.segment) {
        return Some(0.0);
    }
    let seg = net.segment(poi.segment);
    let via_a = dist[seg.a().index()].map(|d| d + poi.offset);
    let via_b = dist[seg.b().index()].map(|d| d + (seg.length() - poi.offset).max(0.0));
    match (via_a, via_b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The reference range query: POIs of `category` within `radius` of the
/// region, in id order.
fn range_reference(
    net: &RoadNetwork,
    store: &PoiStore,
    region: &[SegmentId],
    category: PoiCategory,
    radius: f64,
) -> CandidateAnswer {
    let (dist, visited) = region_distances(net, region, radius);
    let mut candidates: Vec<Poi> = store
        .iter()
        .filter(|p| p.category == category)
        .filter(|p| poi_distance(net, &dist, region, p).is_some_and(|d| d <= radius))
        .copied()
        .collect();
    candidates.sort_by_key(|p| p.id);
    CandidateAnswer {
        candidates,
        segments_visited: visited,
    }
}

/// The reference nearest query: the limit starts at the region's
/// "diameter" (its total road length, at least 100 m) and doubles until
/// it covers `d* + diameter`, where `d*` is the nearest POI's distance;
/// after 24 doublings it gives up with an empty answer. Candidates come
/// by distance, ties by id.
fn nearest_reference(
    net: &RoadNetwork,
    store: &PoiStore,
    region: &[SegmentId],
    category: PoiCategory,
) -> CandidateAnswer {
    let diameter: f64 = region.iter().map(|&s| net.segment(s).length()).sum();
    let mut limit = diameter.max(100.0);
    for _ in 0..24 {
        let (dist, visited) = region_distances(net, region, limit);
        let mut with_d: Vec<(f64, Poi)> = store
            .iter()
            .filter(|p| p.category == category)
            .filter_map(|p| poi_distance(net, &dist, region, p).map(|d| (d, *p)))
            .collect();
        if let Some(d_star) = with_d.iter().map(|(d, _)| *d).min_by(f64::total_cmp) {
            let bound = d_star + diameter;
            if bound <= limit {
                with_d.retain(|(d, _)| *d <= bound);
                with_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
                return CandidateAnswer {
                    candidates: with_d.into_iter().map(|(_, p)| p).collect(),
                    segments_visited: visited,
                };
            }
        }
        limit *= 2.0;
    }
    CandidateAnswer::default()
}

/// The POI of `pois` nearest to `segment` by the reference search, ties
/// to the lower id (`None` when none is reachable).
fn nearest_to(net: &RoadNetwork, pois: &[Poi], segment: SegmentId) -> Option<Poi> {
    let (dist, _) = region_distances(net, &[segment], f64::INFINITY);
    pois.iter()
        .filter_map(|p| poi_distance(net, &dist, &[segment], p).map(|d| (d, *p)))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)))
        .map(|(_, p)| p)
}

fn irregular(seed: u64) -> RoadNetwork {
    irregular_city(&IrregularConfig {
        junctions: 90,
        segments: 120,
        seed,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn indexed_nearest_equals_reference(
        seed in any::<u64>(),
        center in 0u32..200,
        hops in 0usize..3,
        pois in 5usize..120,
        cat in 0usize..5,
    ) {
        let net = irregular(seed);
        let store = PoiStore::generate(&net, pois, &mut StdRng::seed_from_u64(seed ^ 0x90a1));
        let category = PoiCategory::ALL[cat];
        let region = region(&net, center, hops, 6);
        let indexed = nearest_query_with(&net, &store, &region, category, &mut SearchScratch::new());
        let reference = nearest_reference(&net, &store, &region, category);
        prop_assert_eq!(
            &indexed.candidates, &reference.candidates,
            "nearest candidates diverge (seed {}, region {:?}, {:?})",
            seed, region, category
        );
    }

    #[test]
    fn indexed_range_equals_reference(
        seed in any::<u64>(),
        center in 0u32..200,
        hops in 0usize..3,
        pois in 5usize..120,
        cat in 0usize..5,
        radius in 0.0f64..1500.0,
    ) {
        let net = irregular(seed);
        let store = PoiStore::generate(&net, pois, &mut StdRng::seed_from_u64(seed ^ 0x9a5));
        let category = PoiCategory::ALL[cat];
        let region = region(&net, center, hops, 6);
        let indexed =
            range_query_with(&net, &store, &region, category, radius, &mut SearchScratch::new());
        let reference = range_reference(&net, &store, &region, category, radius);
        prop_assert_eq!(
            &indexed.candidates, &reference.candidates,
            "range candidates diverge (seed {}, radius {}, region {:?}, {:?})",
            seed, radius, region, category
        );
    }

    /// The client's half of the nearest query: refining the indexed
    /// candidates from the true segment picks the candidate the
    /// reference search puts nearest, ties to the lower id — which is
    /// also the nearest POI of the category overall, because the
    /// candidate set covers every position in the region.
    #[test]
    fn refining_indexed_candidates_picks_the_reference_nearest(
        seed in any::<u64>(),
        center in 0u32..200,
        hops in 0usize..3,
        pois in 5usize..120,
        cat in 0usize..5,
        truth in 0usize..6,
    ) {
        let net = irregular(seed);
        let store = PoiStore::generate(&net, pois, &mut StdRng::seed_from_u64(seed ^ 0x7ef1));
        let category = PoiCategory::ALL[cat];
        let region = region(&net, center, hops, 6);
        let truth = region[truth % region.len()];
        let mut scratch = SearchScratch::new();
        let answer = nearest_query_with(&net, &store, &region, category, &mut scratch);
        let refined = refine_nearest_with(&net, &answer.candidates, truth, &mut scratch);
        prop_assert_eq!(
            refined, nearest_to(&net, &answer.candidates, truth),
            "refinement diverges (seed {}, truth {}, region {:?}, {:?})",
            seed, truth, region, category
        );
        let all: Vec<Poi> = store.iter().filter(|p| p.category == category).copied().collect();
        prop_assert_eq!(
            refined, nearest_to(&net, &all, truth),
            "candidates miss the nearest POI (seed {}, truth {}, region {:?}, {:?})",
            seed, truth, region, category
        );
    }
}

#[test]
fn indexed_equals_reference_on_grids_and_edge_cases() {
    let net = grid_city(10, 10, 100.0);
    let store = PoiStore::generate(&net, 60, &mut StdRng::seed_from_u64(7));
    let mut scratch = SearchScratch::new();
    let cases: Vec<Vec<SegmentId>> = vec![
        vec![],                      // empty region
        vec![SegmentId(0)],          // corner
        region(&net, 90, 2, 8),      // mid-map ball
        net.segment_ids().collect(), // whole map
    ];
    for region in &cases {
        for category in PoiCategory::ALL {
            let ni = nearest_query_with(&net, &store, region, category, &mut scratch);
            let nr = nearest_reference(&net, &store, region, category);
            assert_eq!(
                ni.candidates, nr.candidates,
                "nearest {region:?} {category:?}"
            );
            for radius in [0.0, 120.0, 5000.0] {
                let ri = range_query_with(&net, &store, region, category, radius, &mut scratch);
                let rr = range_reference(&net, &store, region, category, radius);
                assert_eq!(
                    ri.candidates, rr.candidates,
                    "range {region:?} {category:?} {radius}"
                );
            }
        }
    }
}

#[test]
fn indexed_does_less_work_on_sparse_goals() {
    // One far-away POI: the reference expands the whole radius ball,
    // the goal-directed search only the corridor the landmarks allow.
    let net = grid_city(14, 14, 100.0);
    let mut store = PoiStore::new(net.segment_count());
    store.add(SegmentId(0), 20.0, PoiCategory::Hospital);
    let region = region(&net, 300, 1, 4);
    let indexed = nearest_query_with(
        &net,
        &store,
        &region,
        PoiCategory::Hospital,
        &mut SearchScratch::new(),
    );
    let reference = nearest_reference(&net, &store, &region, PoiCategory::Hospital);
    assert_eq!(indexed.candidates, reference.candidates);
    assert!(
        indexed.segments_visited < reference.segments_visited,
        "indexed {} vs reference {}",
        indexed.segments_visited,
        reference.segments_visited
    );
}
