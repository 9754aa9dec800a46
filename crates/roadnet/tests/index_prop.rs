//! Property tests of the graph-index layer: landmark bounds must
//! bracket the true shortest-path metric, landmark selection must pick
//! what a full farthest-point search picks, and the word-packed
//! reachability masks must equal the BFS hop balls bit for bit — the
//! index is an accelerator, never an approximation.

use proptest::prelude::*;
use roadnet::{
    grid_city, irregular_city, path, IrregularConfig, JunctionId, LandmarkTable, Point, ReachIndex,
    RoadNetwork, RoadNetworkBuilder, SegmentId,
};

/// The farthest-point selection rule, computed the long way: a full
/// breadth-first search from every new landmark, folded into each
/// junction's hop distance to its nearest landmark. Up to `count`
/// landmarks, starting at junction 0; the farthest junction (lowest id
/// on ties, unreachable farthest of all) is the next pick; selection
/// stops early only when every junction is a landmark.
fn reference_landmarks(net: &RoadNetwork, count: usize) -> Vec<JunctionId> {
    let n = net.junction_count();
    let mut nearest = vec![u32::MAX; n];
    let mut picks = Vec::new();
    let mut pick = JunctionId(0);
    while picks.len() < count.min(n) {
        picks.push(pick);
        let mut hops = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::from([pick]);
        hops[pick.index()] = 0;
        while let Some(j) = queue.pop_front() {
            for &s in net.incident_segments(j) {
                let other = net.segment(s).other_endpoint(j).unwrap();
                if hops[other.index()] == u32::MAX {
                    hops[other.index()] = hops[j.index()] + 1;
                    queue.push_back(other);
                }
            }
        }
        for (m, h) in nearest.iter_mut().zip(hops) {
            *m = (*m).min(h);
        }
        let far = *nearest.iter().max().unwrap();
        if far == 0 {
            break;
        }
        pick = JunctionId(nearest.iter().position(|&m| m == far).unwrap() as u32);
    }
    picks
}

/// An irregular map with each road kept at one chance in `1 / keep`
/// against a seeded coin: `keep` = 1 keeps the map connected, larger
/// values break it into islands and lone junctions.
fn thinned_map(seed: u64, junctions: usize, keep: u64) -> RoadNetwork {
    let base = irregular_city(&IrregularConfig {
        junctions,
        segments: junctions * 13 / 10,
        seed,
        ..Default::default()
    });
    let mut b = RoadNetworkBuilder::new();
    for j in base.junctions() {
        b.add_junction(j.position());
    }
    let mut coin = seed | 1;
    for seg in base.segments() {
        coin ^= coin << 13;
        coin ^= coin >> 7;
        coin ^= coin << 17;
        if coin.is_multiple_of(keep) {
            b.add_segment(seg.a(), seg.b()).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn pruned_selection_picks_the_full_search_landmarks(
        seed in any::<u64>(),
        junctions in 20usize..700,
        keep in 1u64..4,
        count in 0usize..48,
    ) {
        let net = thinned_map(seed, junctions, keep);
        let table = LandmarkTable::build(&net, count);
        prop_assert_eq!(table.landmarks(), &reference_landmarks(&net, count)[..]);
    }

    #[test]
    fn landmark_bounds_bracket_true_distances(
        seed in any::<u64>(),
        a in 0u32..80,
        b in 0u32..80,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 80,
            segments: 104,
            seed,
            ..Default::default()
        });
        let table = net.landmark_table();
        let (a, b) = (JunctionId(a), JunctionId(b));
        let exact = path::shortest_path(&net, a, b).unwrap().length;
        let lb = table.lower_bound(a, b);
        let ub = table.upper_bound(a, b);
        prop_assert!(lb <= exact + 1e-6, "lower bound {lb} above exact {exact}");
        prop_assert!(ub >= exact - 1e-6, "upper bound {ub} below exact {exact}");
        prop_assert!(lb <= ub + 1e-6);
    }

    #[test]
    fn reach_masks_equal_bfs_hop_balls(
        seed in any::<u64>(),
        center in 0u32..100,
        hops in 0usize..5,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 80,
            segments: 104,
            seed,
            ..Default::default()
        });
        let center = SegmentId(center % net.segment_count() as u32);
        let reach = net.reach_index(hops);
        prop_assert_eq!(reach.hops(), hops);
        let ball: std::collections::HashSet<SegmentId> =
            path::segments_within_hops(&net, center, hops).into_iter().collect();
        for s in net.segment_ids() {
            prop_assert_eq!(
                reach.reaches(center, s),
                ball.contains(&s),
                "hop {} reachability of {} from {} disagrees with BFS",
                hops, s, center
            );
        }
    }

    #[test]
    fn union_mask_is_union_of_balls(
        seed in any::<u64>(),
        s0 in 0u32..100,
        s1 in 0u32..100,
        hops in 1usize..4,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 60,
            segments: 78,
            seed,
            ..Default::default()
        });
        let s0 = SegmentId(s0 % net.segment_count() as u32);
        let s1 = SegmentId(s1 % net.segment_count() as u32);
        let reach = net.reach_index(hops);
        let mut acc = Vec::new();
        reach.union_into([s0, s1], &mut acc);
        for s in net.segment_ids() {
            prop_assert_eq!(
                ReachIndex::mask_contains(&acc, s),
                reach.reaches(s0, s) || reach.reaches(s1, s)
            );
        }
    }
}

#[test]
fn landmarks_cover_every_component() {
    // Two disconnected islands: farthest-point sampling must land a
    // landmark on each before densifying either.
    let mut b = RoadNetworkBuilder::new();
    let j0 = b.add_junction(Point::new(0.0, 0.0));
    let j1 = b.add_junction(Point::new(100.0, 0.0));
    let j2 = b.add_junction(Point::new(5000.0, 0.0));
    let j3 = b.add_junction(Point::new(5100.0, 0.0));
    b.add_segment(j0, j1).unwrap();
    b.add_segment(j2, j3).unwrap();
    let net = b.build().unwrap();
    let table = LandmarkTable::build(&net, 2);
    for j in net.junction_ids() {
        let covered = table.at(j).iter().any(|d| d.is_finite());
        assert!(covered, "junction {j} unreachable from every landmark");
    }
    // Cross-island distances are provably infinite.
    assert_eq!(table.lower_bound(j0, j2), f64::INFINITY);
    // Same-island bounds are exact here (the landmark is an endpoint).
    assert!(table.upper_bound(j0, j1).is_finite());
}

#[test]
fn graph_index_is_shared_and_survives_clone() {
    let net = grid_city(5, 5, 100.0);
    let a = net.graph_index() as *const _;
    let b = net.graph_index() as *const _;
    assert_eq!(a, b, "second access reuses the built index");
    // A clone compares equal but rebuilds its own (empty) cache.
    let cloned = net.clone();
    assert_eq!(cloned, net);
    assert!(cloned.landmark_table().count() >= 1);
    // Cached reach indexes are shared per hop budget.
    let r1 = net.reach_index(3);
    let r2 = net.reach_index(3);
    assert!(std::sync::Arc::ptr_eq(&r1, &r2));
}
