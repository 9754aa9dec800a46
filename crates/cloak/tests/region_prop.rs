//! Equivalence of `RegionState` with a dense reference model.
//!
//! `RegionState` keeps an ascending member list beside its membership
//! bitset so every walk over the region costs `O(region)`. The model
//! below is the plain dense form: one `Vec<bool>` over the whole map,
//! scanned in id order whenever a member list is needed. Seeded random
//! insert / remove / `reset_for` sequences drive both, and every
//! observable of the region must agree exactly — down to the bits of
//! the total length and the bounding box, whose values depend on the
//! order members are summed and expanded in.
//!
//! One `RegionState` is reused across maps: a 3×3 grid, a 2,000-segment
//! city, a different city with the same segment count (so `reset_for`
//! resizes nothing and only its member-by-member clear empties the
//! bitset), back to the first city, back to the grid, and a small map
//! whose coordinates carry signed zeros and a NaN. Deterministic per
//! `PROPTEST_SEED`; CI sweeps several seeds in its `fuzz-smoke` job.

use cloak::frontier::{candidates, sort_by_length};
use cloak::RegionState;
use mobisim::OccupancySnapshot;
use proptest::prelude::*;
use roadnet::builder::RoadNetworkBuilder;
use roadnet::{city_map, grid_city, BoundingBox, Point, RoadNetwork, SegmentId};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    ((splitmix(state) as u128 * n as u128) >> 64) as usize
}

/// The dense reference: membership over every segment, totals kept the
/// way the protocol defines them (the total length summed over the
/// members in ascending id order, box expanded on insert and rebuilt in
/// ascending id order on remove).
struct Dense {
    members: Vec<bool>,
    bbox: BoundingBox,
}

impl Dense {
    fn new(net: &RoadNetwork) -> Self {
        Dense {
            members: vec![false; net.segment_count()],
            bbox: BoundingBox::empty(),
        }
    }

    fn total_length(&self, net: &RoadNetwork) -> f64 {
        self.ids()
            .into_iter()
            .fold(0.0, |total, s| total + net.segment(s).length())
    }

    fn ids(&self) -> Vec<SegmentId> {
        (0..self.members.len())
            .filter(|&i| self.members[i])
            .map(|i| SegmentId(i as u32))
            .collect()
    }

    fn contains(&self, s: SegmentId) -> bool {
        self.members.get(s.index()).copied().unwrap_or(false)
    }

    fn insert(&mut self, net: &RoadNetwork, s: SegmentId) -> bool {
        if self.members[s.index()] {
            return false;
        }
        self.members[s.index()] = true;
        let seg = net.segment(s);
        self.bbox.expand(net.junction(seg.a()).position());
        self.bbox.expand(net.junction(seg.b()).position());
        true
    }

    fn remove(&mut self, net: &RoadNetwork, s: SegmentId) -> bool {
        if !self.contains(s) {
            return false;
        }
        self.members[s.index()] = false;
        self.bbox = BoundingBox::empty();
        for m in self.ids() {
            let seg = net.segment(m);
            self.bbox.expand(net.junction(seg.a()).position());
            self.bbox.expand(net.junction(seg.b()).position());
        }
        true
    }

    /// Every non-member sharing a junction with a member, by `(length, id)`.
    fn frontier(&self, net: &RoadNetwork) -> Vec<SegmentId> {
        let mut out: Vec<SegmentId> = net
            .segment_ids()
            .filter(|&c| {
                !self.contains(c)
                    && net
                        .neighbor_segments_csr(c)
                        .iter()
                        .any(|&n| self.contains(n))
            })
            .collect();
        sort_by_length(net, &mut out);
        out
    }
}

fn box_bits(b: &BoundingBox) -> [u64; 4] {
    [
        b.min.x.to_bits(),
        b.min.y.to_bits(),
        b.max.x.to_bits(),
        b.max.y.to_bits(),
    ]
}

/// A four-segment path whose coordinates mix `0.0`, `-0.0` and a NaN,
/// so the box's bits depend on the order endpoints are expanded in.
fn signed_zero_map() -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    let js: Vec<_> = [
        Point::new(0.0, -0.0),
        Point::new(-0.0, 0.0),
        Point::new(f64::NAN, 3.0),
        Point::new(2.0, -0.0),
        Point::new(-0.0, f64::NAN),
    ]
    .into_iter()
    .map(|p| b.add_junction(p))
    .collect();
    for w in js.windows(2) {
        b.add_segment(w[0], w[1]).unwrap();
    }
    b.build().unwrap()
}

/// Checks every observable of `region` against the model. `full` also
/// sweeps `contains` over every segment of the map.
fn agree(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    region: &RegionState,
    model: &Dense,
    full: bool,
) -> Result<(), TestCaseError> {
    let ids = model.ids();
    prop_assert_eq!(region.len(), ids.len());
    prop_assert_eq!(region.is_empty(), ids.is_empty());
    prop_assert_eq!(region.iter_ids().collect::<Vec<_>>(), ids.clone());
    prop_assert_eq!(region.to_sorted_ids(), ids.clone());
    let mut by_length = ids.clone();
    sort_by_length(net, &mut by_length);
    prop_assert_eq!(region.sorted_by_length(net), by_length);
    prop_assert_eq!(region.users(snapshot), snapshot.users_in(ids));
    prop_assert_eq!(candidates(net, region), model.frontier(net));
    prop_assert_eq!(
        region.total_length().to_bits(),
        model.total_length(net).to_bits()
    );
    prop_assert_eq!(box_bits(region.bounding_box()), box_bits(&model.bbox));
    if full {
        for s in net.segment_ids() {
            prop_assert_eq!(region.contains(s), model.contains(s), "contains({})", s);
        }
    }
    Ok(())
}

/// One phase: `reset_for(net)`, then `ops` random operations, checking
/// the region against a fresh model after each.
fn run_phase(
    net: &RoadNetwork,
    region: &mut RegionState,
    rng: &mut u64,
    ops: usize,
) -> Result<(), TestCaseError> {
    let n = net.segment_count();
    let counts = (0..n).map(|_| below(rng, 4) as u32).collect();
    let snapshot = OccupancySnapshot::from_counts(counts);
    region.reset_for(net);
    let mut model = Dense::new(net);
    agree(net, &snapshot, region, &model, true)?;
    for _ in 0..ops {
        let roll = below(rng, 100);
        if roll < 45 {
            // Grow like the engines do: a frontier segment, or a fresh
            // seed when the region is empty or closed.
            let frontier = model.frontier(net);
            let s = if frontier.is_empty() {
                SegmentId(below(rng, n) as u32)
            } else {
                frontier[below(rng, frontier.len())]
            };
            prop_assert_eq!(region.insert(net, s), model.insert(net, s));
        } else if roll < 60 {
            let s = SegmentId(below(rng, n) as u32);
            prop_assert_eq!(region.insert(net, s), model.insert(net, s));
        } else if roll < 85 {
            let ids = model.ids();
            if !ids.is_empty() {
                let s = ids[below(rng, ids.len())];
                prop_assert_eq!(region.remove(net, s), model.remove(net, s));
            }
        } else if roll < 95 {
            // Any id, including ones past the end of the map.
            let s = SegmentId(below(rng, n + 4) as u32);
            prop_assert_eq!(region.remove(net, s), model.remove(net, s));
        } else {
            region.reset_for(net);
            model = Dense::new(net);
        }
        let probe = SegmentId(below(rng, n + 4) as u32);
        prop_assert_eq!(region.contains(probe), model.contains(probe));
        agree(net, &snapshot, region, &model, roll >= 95)?;
    }
    agree(net, &snapshot, region, &model, true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn region_state_matches_the_dense_model_across_maps(seed in any::<u64>()) {
        let grid = grid_city(3, 3, 100.0);
        let city_a = city_map(seed % 97, 2000);
        let city_b = city_map(seed % 97 + 1, 2000);
        prop_assert_eq!(city_a.segment_count(), city_b.segment_count());
        let odd = signed_zero_map();
        let mut rng = seed;
        let mut region = RegionState::default();
        for net in [&grid, &city_a, &city_b, &city_a, &grid, &odd] {
            run_phase(net, &mut region, &mut rng, 120)?;
        }
    }
}

/// The total length is a function of the member set: insertion order and
/// removals do not move its bits. A running sum reads
/// `(0.1 + 0.2) + 0.3 = 0.6000000000000001` in one order and
/// `(0.3 + 0.2) + 0.1 = 0.6` in the other, and
/// `((100.1 + 200.7) + 0.3) − 200.7 = 100.39999999999998` after a
/// removal, where `100.1 + 0.3 = 100.39999999999999`.
#[test]
fn total_length_ignores_insertion_order_and_removals() {
    let mut b = RoadNetworkBuilder::new();
    let js: Vec<_> = (0..7)
        .map(|i| b.add_junction(Point::new(i as f64, 0.0)))
        .collect();
    let lengths = [0.1, 0.2, 0.3, 100.1, 200.7, 0.3];
    let ids: Vec<SegmentId> = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| b.add_segment_with_length(js[i], js[i + 1], len).unwrap())
        .collect();
    let net = b.build().unwrap();
    let bits = |order: &[usize], removed: &[usize]| {
        let mut region = RegionState::new(&net);
        for &i in order {
            region.insert(&net, ids[i]);
        }
        for &i in removed {
            region.remove(&net, ids[i]);
        }
        region.total_length().to_bits()
    };
    assert_eq!(bits(&[0, 1, 2], &[]), bits(&[2, 1, 0], &[]));
    assert_eq!(bits(&[0, 1, 2], &[]), ((0.1f64 + 0.2) + 0.3).to_bits());
    assert_eq!(bits(&[3, 4, 5], &[4]), bits(&[5, 3], &[]));
    assert_eq!(bits(&[3, 4, 5], &[4]), (100.1f64 + 0.3).to_bits());
    assert_eq!(bits(&[3], &[3]), 0.0f64.to_bits());
}
