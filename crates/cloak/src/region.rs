//! The evolving cloaking region during (de)anonymization.

use roadnet::{BoundingBox, RoadNetwork, SegmentId};

/// A mutable cloaking region: a set of segments with cached totals.
///
/// Both directions of the protocol walk through *identical* region states
/// (forward step `t` starts from the same state backward step `t` ends
/// at), so all derived quantities — sorted orders, frontier, totals — are
/// pure functions of the member set.
///
/// Membership is held twice: a dense bitset for `O(1)` [`contains`]
/// and an ascending member list that every walk over the region reads,
/// so a step costs `O(region)`, not `O(segments)`.
/// [`reset_for`](RegionState::reset_for) clears only the listed bits.
/// The list stays in ascending id order because the payload's segment
/// order (which the top level's encrypted anchor position indexes) and
/// the bounding box's expansion order both follow it.
///
/// The bitset stays because `contains` is the engines' innermost test.
/// A list-only variant that binary-searches the list measured within
/// 3 % on the `grid` and `city` benchmark workloads (5–8-segment
/// regions), but it ticked ≈1.8× slower (≈750 → ≈1,380 ms) on the
/// `city_scale` bench's 100k-segment, 10k-car cell, whose regions
/// average ≈73 segments (2-vCPU x86-64 VM).
///
/// [`contains`]: RegionState::contains
#[derive(Debug, Clone)]
pub struct RegionState {
    members: Vec<bool>,
    ids: Vec<SegmentId>,
    total_length: f64,
    bbox: BoundingBox,
}

impl Default for RegionState {
    /// An empty region over no network; size it with
    /// [`reset_for`](RegionState::reset_for) before use (scratch reuse).
    fn default() -> Self {
        RegionState {
            members: Vec::new(),
            ids: Vec::new(),
            total_length: 0.0,
            bbox: BoundingBox::empty(),
        }
    }
}

impl RegionState {
    /// An empty region over a network with `segment_count` segments.
    pub fn new(net: &RoadNetwork) -> Self {
        let mut r = Self::default();
        r.reset_for(net);
        r
    }

    /// Empties the region and (re)sizes it for `net`, reusing the
    /// membership buffers — the scratch-pool path that avoids the
    /// per-request `vec![false; n]` of [`new`](RegionState::new). Clears
    /// only the current members' bits, after which every bit is false,
    /// so the resize to `net`'s segment count costs only the change in
    /// size: `O(region + |Δsegments|)`.
    pub fn reset_for(&mut self, net: &RoadNetwork) {
        for s in &self.ids {
            self.members[s.index()] = false;
        }
        self.members.resize(net.segment_count(), false);
        self.ids.clear();
        self.total_length = 0.0;
        self.bbox = BoundingBox::empty();
    }

    /// A region seeded with the given segments.
    ///
    /// # Panics
    ///
    /// Panics if a segment id is out of range for the network.
    pub fn from_segments<I: IntoIterator<Item = SegmentId>>(net: &RoadNetwork, ids: I) -> Self {
        let mut r = Self::new(net);
        for s in ids {
            r.insert(net, s);
        }
        r
    }

    /// Whether `s` is in the region.
    pub fn contains(&self, s: SegmentId) -> bool {
        self.members.get(s.index()).copied().unwrap_or(false)
    }

    /// Number of segments in the region (`δl` check).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total road length of the region in meters, summed in ascending
    /// id order (as [`RegionQuality`](crate::metrics::RegionQuality)
    /// sums a payload's segments), so it depends on the member set alone.
    pub fn total_length(&self) -> f64 {
        self.total_length
    }

    /// Bounding box of the region.
    pub fn bounding_box(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Adds a segment. Returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn insert(&mut self, net: &RoadNetwork, s: SegmentId) -> bool {
        assert!(
            s.index() < self.members.len(),
            "segment {s} out of range for this network"
        );
        if self.members[s.index()] {
            return false;
        }
        self.members[s.index()] = true;
        let at = self.ids.partition_point(|&m| m < s);
        self.ids.insert(at, s);
        let seg = net.segment(s);
        self.total_length = if at + 1 == self.ids.len() {
            // The largest id adds the id-order sum's last term.
            self.total_length + seg.length()
        } else {
            self.sum_lengths(net)
        };
        self.bbox.expand(net.junction(seg.a()).position());
        self.bbox.expand(net.junction(seg.b()).position());
        true
    }

    /// Removes a segment. Returns whether it was present.
    ///
    /// The bounding box is recomputed from the remaining members (boxes do
    /// not shrink incrementally).
    pub fn remove(&mut self, net: &RoadNetwork, s: SegmentId) -> bool {
        if s.index() >= self.members.len() || !self.members[s.index()] {
            return false;
        }
        self.members[s.index()] = false;
        let at = self.ids.partition_point(|&m| m < s);
        self.ids.remove(at);
        self.total_length = self.sum_lengths(net);
        self.bbox = net.segments_bounding_box(self.iter_ids());
        true
    }

    /// The members' lengths summed in ascending id order. A running sum
    /// would depend on the order segments came and went, and the forward
    /// walk inserts in chain order while the backward walk starts from
    /// the payload's id order, so a tolerance check within an ulp of its
    /// limit could decide differently on the two walks.
    fn sum_lengths(&self, net: &RoadNetwork) -> f64 {
        self.ids
            .iter()
            .fold(0.0, |total, &m| total + net.segment(m).length())
    }

    /// Member ids in ascending id order (the public, chain-order-free view
    /// that goes into the payload).
    pub fn iter_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.ids.iter().copied()
    }

    /// Member ids collected in ascending id order.
    pub fn to_sorted_ids(&self) -> Vec<SegmentId> {
        self.ids.clone()
    }

    /// Members sorted by `(length, id)` — the row order of the RGE
    /// transition table ("in the order of segment length so that the
    /// shortest segments are mapped to the 1st row").
    pub fn sorted_by_length(&self, net: &RoadNetwork) -> Vec<SegmentId> {
        let mut v = Vec::new();
        self.sorted_by_length_into(net, &mut v);
        v
    }

    /// Like [`sorted_by_length`](RegionState::sorted_by_length), writing
    /// into a caller-owned buffer (cleared first) — the zero-allocation
    /// path engine steps use.
    pub fn sorted_by_length_into(&self, net: &RoadNetwork, out: &mut Vec<SegmentId>) {
        out.clear();
        out.extend_from_slice(&self.ids);
        out.sort_by(|&a, &b| {
            net.segment(a)
                .length()
                .total_cmp(&net.segment(b).length())
                .then(a.cmp(&b))
        });
    }

    /// Total users currently in the region (`δk` check).
    pub fn users(&self, snapshot: &mobisim::OccupancySnapshot) -> u64 {
        snapshot.users_in(self.iter_ids())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisim::OccupancySnapshot;
    use roadnet::grid_city;

    #[test]
    fn insert_remove_roundtrip() {
        let net = grid_city(3, 3, 100.0);
        let mut r = RegionState::new(&net);
        assert!(r.is_empty());
        assert!(r.insert(&net, SegmentId(0)));
        assert!(!r.insert(&net, SegmentId(0)), "double insert is a no-op");
        assert!(r.insert(&net, SegmentId(1)));
        assert_eq!(r.len(), 2);
        assert!((r.total_length() - 200.0).abs() < 1e-9);
        assert!(r.remove(&net, SegmentId(0)));
        assert!(!r.remove(&net, SegmentId(0)), "double remove is a no-op");
        assert_eq!(r.len(), 1);
        assert!((r.total_length() - 100.0).abs() < 1e-9);
        assert!(!r.contains(SegmentId(0)));
        assert!(r.contains(SegmentId(1)));
    }

    #[test]
    fn bbox_shrinks_after_remove() {
        let net = grid_city(3, 3, 100.0);
        let mut r = RegionState::new(&net);
        r.insert(&net, SegmentId(0));
        let small = *r.bounding_box();
        let far = net.segment_ids().last().unwrap();
        r.insert(&net, far);
        assert!(r.bounding_box().diagonal() > small.diagonal());
        r.remove(&net, far);
        assert_eq!(r.bounding_box().diagonal(), small.diagonal());
    }

    #[test]
    fn sorted_orders() {
        let net = grid_city(2, 4, 100.0);
        let mut r = RegionState::new(&net);
        for s in [SegmentId(3), SegmentId(0), SegmentId(5)] {
            r.insert(&net, s);
        }
        assert_eq!(
            r.to_sorted_ids(),
            vec![SegmentId(0), SegmentId(3), SegmentId(5)]
        );
        // Equal lengths: ties broken by id => same order here.
        assert_eq!(
            r.sorted_by_length(&net),
            vec![SegmentId(0), SegmentId(3), SegmentId(5)]
        );
    }

    #[test]
    fn sorted_by_length_orders_short_first() {
        use roadnet::{builder::RoadNetworkBuilder, Point};
        let mut b = RoadNetworkBuilder::new();
        let j0 = b.add_junction(Point::new(0.0, 0.0));
        let j1 = b.add_junction(Point::new(50.0, 0.0));
        let j2 = b.add_junction(Point::new(250.0, 0.0));
        let j3 = b.add_junction(Point::new(260.0, 0.0));
        let s_long = b.add_segment(j1, j2).unwrap(); // 200 m
        let s_mid = b.add_segment(j0, j1).unwrap(); // 50 m
        let s_short = b.add_segment(j2, j3).unwrap(); // 10 m
        let net = b.build().unwrap();
        let r = RegionState::from_segments(&net, [s_long, s_mid, s_short]);
        assert_eq!(r.sorted_by_length(&net), vec![s_short, s_mid, s_long]);
    }

    #[test]
    fn users_from_snapshot() {
        let net = grid_city(3, 3, 100.0);
        let mut counts = vec![0u32; net.segment_count()];
        counts[0] = 4;
        counts[2] = 1;
        let snap = OccupancySnapshot::from_counts(counts);
        let r = RegionState::from_segments(&net, [SegmentId(0), SegmentId(1)]);
        assert_eq!(r.users(&snap), 4);
        let r2 = RegionState::from_segments(&net, [SegmentId(0), SegmentId(2)]);
        assert_eq!(r2.users(&snap), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let net = grid_city(2, 2, 10.0);
        let mut r = RegionState::new(&net);
        r.insert(&net, SegmentId(999));
    }

    #[test]
    fn remove_out_of_range_is_false() {
        let net = grid_city(2, 2, 10.0);
        let mut r = RegionState::new(&net);
        assert!(!r.remove(&net, SegmentId(999)));
    }
}
