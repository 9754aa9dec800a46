//! The road-network graph model: junctions (intersections) connected by
//! road segments.
//!
//! This mirrors the paper's Figure 1 model: "a set of segments as the
//! connections of adjacent junctions and a set of junctions as the
//! intersections of segments". Cloaking regions are *sets of segments*, so
//! the segment-adjacency relation (two segments sharing a junction) is the
//! workhorse of the whole system.

use crate::geometry::{BoundingBox, Point};
use crate::index::{GraphIndex, IndexCell, LandmarkTable, ReachIndex};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a junction (graph vertex). Dense, assigned by the builder.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JunctionId(pub u32);

/// Identifier of a road segment (graph edge). Dense, assigned by the builder.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SegmentId(pub u32);

impl JunctionId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SegmentId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A junction: an intersection point of road segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Junction {
    id: JunctionId,
    position: Point,
    /// Segments incident to this junction, in insertion order.
    incident: Vec<SegmentId>,
}

impl Junction {
    pub(crate) fn new(id: JunctionId, position: Point) -> Self {
        Junction {
            id,
            position,
            incident: Vec::new(),
        }
    }

    /// Like [`new`](Self::new) but with the incidence list preallocated to
    /// its exact final size (generators that count degrees up front avoid
    /// regrowing one small `Vec` per junction on 100k-segment maps).
    pub(crate) fn with_capacity(id: JunctionId, position: Point, degree: usize) -> Self {
        Junction {
            id,
            position,
            incident: Vec::with_capacity(degree),
        }
    }

    /// The junction id.
    pub fn id(&self) -> JunctionId {
        self.id
    }

    /// The junction position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Segments meeting at this junction.
    pub fn incident_segments(&self) -> &[SegmentId] {
        &self.incident
    }

    /// Number of incident segments (the junction degree).
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    pub(crate) fn push_incident(&mut self, s: SegmentId) {
        self.incident.push(s);
    }
}

/// A road segment connecting two adjacent junctions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    id: SegmentId,
    a: JunctionId,
    b: JunctionId,
    length: f64,
}

impl Segment {
    pub(crate) fn new(id: SegmentId, a: JunctionId, b: JunctionId, length: f64) -> Self {
        Segment { id, a, b, length }
    }

    /// The segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// First endpoint junction.
    pub fn a(&self) -> JunctionId {
        self.a
    }

    /// Second endpoint junction.
    pub fn b(&self) -> JunctionId {
        self.b
    }

    /// Both endpoints as a pair.
    pub fn endpoints(&self) -> (JunctionId, JunctionId) {
        (self.a, self.b)
    }

    /// Road length of the segment in meters.
    ///
    /// This may exceed the straight-line distance between the endpoints
    /// (curvy roads); generators produce lengths ≥ the Euclidean distance.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Given one endpoint, returns the other.
    ///
    /// Returns `None` if `j` is not an endpoint of this segment.
    pub fn other_endpoint(&self, j: JunctionId) -> Option<JunctionId> {
        if j == self.a {
            Some(self.b)
        } else if j == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Whether `j` is an endpoint of this segment.
    pub fn touches(&self, j: JunctionId) -> bool {
        j == self.a || j == self.b
    }
}

/// An immutable road network: junctions, segments and their incidence.
///
/// Construct one through [`crate::builder::RoadNetworkBuilder`] or a
/// generator in [`crate::generate`].
///
/// Besides the per-junction incidence lists, the network carries two
/// flat index structures built once at construction and shared by every
/// reader:
///
/// * a CSR (compressed-sparse-row) **segment adjacency** table, so
///   [`neighbor_segments_csr`](RoadNetwork::neighbor_segments_csr)
///   returns a borrowed slice instead of allocating a fresh `Vec` on
///   every cloak-region expansion step;
/// * a flat **junction → incident segments** view
///   ([`incident_segments`](RoadNetwork::incident_segments)) backing the
///   Dijkstra/BFS loops with one contiguous array.
///
/// ```
/// use roadnet::generate::grid_city;
/// let net = roadnet::RoadNetwork::from(grid_city(4, 4, 100.0));
/// assert_eq!(net.junction_count(), 16);
/// assert_eq!(net.segment_count(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadNetwork {
    junctions: Vec<Junction>,
    segments: Vec<Segment>,
    // The four index fields below are derived state: when the serde
    // shim is swapped for the real crate, they must be `#[serde(skip)]`
    // and rebuilt through `from_parts` on deserialize — accepting them
    // from the wire would let a crafted payload desynchronize the CSR
    // table from the junction incidence lists.
    /// CSR offsets into `adj_list`: the neighbors of segment `s` are
    /// `adj_list[adj_offsets[s] .. adj_offsets[s + 1]]`.
    adj_offsets: Vec<u32>,
    /// CSR payload: neighbor segments, in the same deterministic order
    /// (by endpoint, then insertion order, first occurrence wins) the
    /// allocating `neighbor_segments` historically produced.
    adj_list: Vec<SegmentId>,
    /// Flat offsets into `inc_list`: segments incident to junction `j`
    /// are `inc_list[inc_offsets[j] .. inc_offsets[j + 1]]`.
    inc_offsets: Vec<u32>,
    /// Flat payload of the junction → incident-segments view.
    inc_list: Vec<SegmentId>,
    /// Lazily built [`GraphIndex`] (landmark distances + packed
    /// reachability), shared by every reader of this network. Derived
    /// state like the CSR tables: clones start empty and rebuild on
    /// demand, equality ignores it, and with the real serde it must be
    /// `#[serde(skip)]` like the fields above.
    graph_index: IndexCell,
}

impl RoadNetwork {
    pub(crate) fn from_parts(junctions: Vec<Junction>, segments: Vec<Segment>) -> Self {
        // Flat junction → incident view.
        let mut inc_offsets = Vec::with_capacity(junctions.len() + 1);
        let mut inc_list = Vec::with_capacity(segments.len() * 2);
        inc_offsets.push(0u32);
        for j in &junctions {
            inc_list.extend_from_slice(j.incident_segments());
            inc_offsets.push(inc_list.len() as u32);
        }
        // CSR segment adjacency. The order must stay bit-identical to
        // the historical `neighbor_segments` walk (endpoint a then b,
        // incidence order, duplicates dropped at first occurrence):
        // RPLE pre-assignment consumes neighbors in this order, so any
        // reordering would silently change every RPLE receipt.
        let mut adj_offsets = Vec::with_capacity(segments.len() + 1);
        let mut adj_list = Vec::new();
        let mut mark = vec![u32::MAX; segments.len()];
        adj_offsets.push(0u32);
        for seg in &segments {
            let s = seg.id();
            for j in [seg.a, seg.b] {
                for &n in junctions[j.index()].incident_segments() {
                    if n != s && mark[n.index()] != s.0 {
                        mark[n.index()] = s.0;
                        adj_list.push(n);
                    }
                }
            }
            adj_offsets.push(adj_list.len() as u32);
        }
        RoadNetwork {
            junctions,
            segments,
            adj_offsets,
            adj_list,
            inc_offsets,
            inc_list,
            graph_index: IndexCell::default(),
        }
    }

    /// The network's [`GraphIndex`] (landmark distance table + packed
    /// bounded-hop reachability), built once on first use and shared by
    /// every subsequent caller.
    ///
    /// The index is read-only derived state: it accelerates queries
    /// (goal-directed LBS search, the [`TripRouter`](crate::TripRouter)'s
    /// landmark bound, adversary movement pruning) without influencing
    /// any cloaking draw or any route, so receipt streams are
    /// byte-identical with or without it.
    ///
    /// ```
    /// use roadnet::{grid_city, JunctionId};
    /// let net = grid_city(4, 4, 100.0);
    /// let lm = net.graph_index().landmarks();
    /// assert!(lm.count() >= 1);
    /// assert_eq!(lm.lower_bound(JunctionId(2), JunctionId(2)), 0.0);
    /// ```
    pub fn graph_index(&self) -> &GraphIndex {
        self.graph_index_arc()
    }

    pub(crate) fn graph_index_arc(&self) -> &Arc<GraphIndex> {
        self.graph_index
            .0
            .get_or_init(|| Arc::new(GraphIndex::build(self)))
    }

    /// Installs an explicitly built [`GraphIndex`] (e.g. one built with
    /// an explicit worker count and a city-scale [`crate::IndexBudget`])
    /// into this network's lazy cell. Returns `false` — and changes
    /// nothing — if an index was already built or installed.
    pub fn install_graph_index(&self, index: GraphIndex) -> bool {
        self.graph_index.0.set(Arc::new(index)).is_ok()
    }

    /// A copy of this network whose clone *shares* the already-built
    /// [`GraphIndex`] instead of rebuilding it from scratch on first
    /// use (plain `clone()` starts with an empty index cell — at city
    /// scale that rebuild costs seconds per clone). Builds the index
    /// first if this network has none yet. Equality and serialization
    /// semantics are unchanged: the shared index is derived state that
    /// never feeds a cloaking draw.
    pub fn share_index(&self) -> RoadNetwork {
        let index = Arc::clone(self.graph_index_arc());
        let mut copy = self.clone();
        copy.graph_index = IndexCell::prebuilt(index);
        copy
    }

    /// Shorthand for [`graph_index`](Self::graph_index)`().landmarks()`.
    pub fn landmark_table(&self) -> &LandmarkTable {
        self.graph_index().landmarks()
    }

    /// The packed reachability index for a hop budget, built on first
    /// use and cached per budget (see [`GraphIndex::reach`]). Beyond
    /// the index budget's hop cap this still builds — uncached, every
    /// call — so prefer [`cached_reach_index`](Self::cached_reach_index)
    /// where a fallback path exists.
    pub fn reach_index(&self, hops: usize) -> Arc<ReachIndex> {
        self.graph_index().reach(self, hops)
    }

    /// The packed reachability index for a hop budget, or `None` when
    /// `hops` exceeds the budget the index was built with (see
    /// [`GraphIndex::reach_cached`]) — the signal to use a BFS fallback
    /// instead of paying a quadratic-memory packed build.
    pub fn cached_reach_index(&self, hops: usize) -> Option<Arc<ReachIndex>> {
        self.graph_index().reach_cached(self, hops)
    }

    /// Number of junctions.
    pub fn junction_count(&self) -> usize {
        self.junctions.len()
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Looks up a junction.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from this network never are).
    pub fn junction(&self, id: JunctionId) -> &Junction {
        &self.junctions[id.index()]
    }

    /// Looks up a segment.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from this network never are).
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// Fallible junction lookup.
    pub fn get_junction(&self, id: JunctionId) -> Option<&Junction> {
        self.junctions.get(id.index())
    }

    /// Fallible segment lookup.
    pub fn get_segment(&self, id: SegmentId) -> Option<&Segment> {
        self.segments.get(id.index())
    }

    /// Iterates over all junctions.
    pub fn junctions(&self) -> impl ExactSizeIterator<Item = &Junction> {
        self.junctions.iter()
    }

    /// Iterates over all segments.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = &Segment> {
        self.segments.iter()
    }

    /// Iterates over all segment ids.
    pub fn segment_ids(&self) -> impl ExactSizeIterator<Item = SegmentId> {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Iterates over all junction ids.
    pub fn junction_ids(&self) -> impl ExactSizeIterator<Item = JunctionId> {
        (0..self.junctions.len() as u32).map(JunctionId)
    }

    /// Segments adjacent to `s`: all segments sharing a junction with `s`,
    /// excluding `s` itself. Order is deterministic (by endpoint, then
    /// insertion order); duplicates are removed.
    ///
    /// This relation defines the candidate frontier of a cloaking region.
    /// Allocates a fresh `Vec`; hot paths should use
    /// [`neighbor_segments_csr`](Self::neighbor_segments_csr), which
    /// returns the same ids in the same order as a borrowed slice.
    pub fn neighbor_segments(&self, s: SegmentId) -> Vec<SegmentId> {
        self.neighbor_segments_csr(s).to_vec()
    }

    /// Segments adjacent to `s`, served from the CSR adjacency table
    /// built at construction: zero allocation, same ids and order as
    /// [`neighbor_segments`](Self::neighbor_segments).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from this network never are).
    pub fn neighbor_segments_csr(&self, s: SegmentId) -> &[SegmentId] {
        let i = s.index();
        let (lo, hi) = (self.adj_offsets[i], self.adj_offsets[i + 1]);
        &self.adj_list[lo as usize..hi as usize]
    }

    /// Segments incident to junction `j`, served from the flat
    /// junction → incidence view (equivalent to
    /// `self.junction(j).incident_segments()` without the per-junction
    /// pointer chase).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from this network never are).
    pub fn incident_segments(&self, j: JunctionId) -> &[SegmentId] {
        let i = j.index();
        let (lo, hi) = (self.inc_offsets[i], self.inc_offsets[i + 1]);
        &self.inc_list[lo as usize..hi as usize]
    }

    /// Whether two distinct segments share a junction.
    pub fn segments_adjacent(&self, a: SegmentId, b: SegmentId) -> bool {
        if a == b {
            return false;
        }
        let sa = self.segment(a);
        let sb = self.segment(b);
        sb.touches(sa.a) || sb.touches(sa.b)
    }

    /// Midpoint of a segment in the plane (used for rendering and for
    /// placing users along roads).
    pub fn segment_midpoint(&self, s: SegmentId) -> Point {
        let seg = self.segment(s);
        self.junction(seg.a)
            .position()
            .midpoint(self.junction(seg.b).position())
    }

    /// A point at fraction `t ∈ [0,1]` along segment `s` from endpoint `a`.
    pub fn point_along(&self, s: SegmentId, t: f64) -> Point {
        let seg = self.segment(s);
        self.junction(seg.a)
            .position()
            .lerp(self.junction(seg.b).position(), t.clamp(0.0, 1.0))
    }

    /// Bounding box around a set of segments (their endpoints).
    pub fn segments_bounding_box<I: IntoIterator<Item = SegmentId>>(&self, ids: I) -> BoundingBox {
        let mut bb = BoundingBox::empty();
        for s in ids {
            let seg = self.segment(s);
            bb.expand(self.junction(seg.a).position());
            bb.expand(self.junction(seg.b).position());
        }
        bb
    }

    /// Bounding box of the whole network.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::around(self.junctions.iter().map(|j| j.position()))
    }

    /// Sum of the lengths of the given segments.
    pub fn total_length<I: IntoIterator<Item = SegmentId>>(&self, ids: I) -> f64 {
        ids.into_iter().map(|s| self.segment(s).length()).sum()
    }

    /// Whether the sub-graph induced by `ids` (as segments) is connected
    /// under the shared-junction relation. An empty set is considered
    /// connected.
    pub fn segments_connected(&self, ids: &[SegmentId]) -> bool {
        if ids.len() <= 1 {
            return true;
        }
        // Memory stays O(|ids|), not O(segment_count): small regions on
        // large networks are the common caller (cloak peeling probes).
        let inset: std::collections::HashSet<SegmentId> = ids.iter().copied().collect();
        let mut seen = std::collections::HashSet::with_capacity(inset.len());
        let mut stack = vec![ids[0]];
        seen.insert(ids[0]);
        while let Some(s) = stack.pop() {
            for &nb in self.neighbor_segments_csr(s) {
                if inset.contains(&nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.len() == ids.len()
    }

    /// Connected components of the whole network, as sets of junction ids.
    pub fn junction_components(&self) -> Vec<Vec<JunctionId>> {
        let n = self.junctions.len();
        let mut comp = vec![usize::MAX; n];
        let mut components = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let cid = components.len();
            let mut members = Vec::new();
            let mut stack = vec![start];
            comp[start] = cid;
            while let Some(j) = stack.pop() {
                members.push(JunctionId(j as u32));
                for &s in self.junctions[j].incident_segments() {
                    let seg = self.segment(s);
                    let other = if seg.a.index() == j { seg.b } else { seg.a };
                    if comp[other.index()] == usize::MAX {
                        comp[other.index()] = cid;
                        stack.push(other.index());
                    }
                }
            }
            components.push(members);
        }
        components
    }

    /// Whether the whole network is a single connected component.
    pub fn is_connected(&self) -> bool {
        self.junction_components().len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;

    /// A triangle with a tail:  j0-j1, j1-j2, j2-j0, j2-j3.
    fn triangle_with_tail() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let j0 = b.add_junction(Point::new(0.0, 0.0));
        let j1 = b.add_junction(Point::new(100.0, 0.0));
        let j2 = b.add_junction(Point::new(50.0, 80.0));
        let j3 = b.add_junction(Point::new(50.0, 200.0));
        b.add_segment(j0, j1).unwrap();
        b.add_segment(j1, j2).unwrap();
        b.add_segment(j2, j0).unwrap();
        b.add_segment(j2, j3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let net = triangle_with_tail();
        assert_eq!(net.junction_count(), 4);
        assert_eq!(net.segment_count(), 4);
        assert_eq!(
            net.segment(SegmentId(0)).endpoints(),
            (JunctionId(0), JunctionId(1))
        );
        assert!(net.get_segment(SegmentId(99)).is_none());
        assert!(net.get_junction(JunctionId(99)).is_none());
    }

    #[test]
    fn neighbor_segments_share_a_junction() {
        let net = triangle_with_tail();
        // s0 = j0-j1 touches s1 (j1-j2) and s2 (j2-j0).
        let n0 = net.neighbor_segments(SegmentId(0));
        assert_eq!(n0.len(), 2);
        assert!(n0.contains(&SegmentId(1)));
        assert!(n0.contains(&SegmentId(2)));
        // s3 = j2-j3 touches s1 and s2 through j2.
        let n3 = net.neighbor_segments(SegmentId(3));
        assert_eq!(n3.len(), 2);
        for n in n3 {
            assert!(net.segments_adjacent(SegmentId(3), n));
        }
    }

    #[test]
    fn neighbor_list_has_no_duplicates_or_self() {
        let net = triangle_with_tail();
        for s in net.segment_ids() {
            let ns = net.neighbor_segments(s);
            let mut dedup = ns.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), ns.len(), "duplicates in neighbors of {s}");
            assert!(!ns.contains(&s));
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let net = triangle_with_tail();
        for a in net.segment_ids() {
            for b in net.segment_ids() {
                assert_eq!(
                    net.segments_adjacent(a, b),
                    net.segments_adjacent(b, a),
                    "asymmetric adjacency {a} {b}"
                );
            }
        }
    }

    #[test]
    fn self_adjacency_is_false() {
        let net = triangle_with_tail();
        for s in net.segment_ids() {
            assert!(!net.segments_adjacent(s, s));
        }
    }

    #[test]
    fn other_endpoint_roundtrip() {
        let net = triangle_with_tail();
        for seg in net.segments() {
            assert_eq!(seg.other_endpoint(seg.a()), Some(seg.b()));
            assert_eq!(seg.other_endpoint(seg.b()), Some(seg.a()));
        }
        assert_eq!(
            net.segment(SegmentId(0)).other_endpoint(JunctionId(3)),
            None
        );
    }

    #[test]
    fn lengths_match_geometry_for_straight_segments() {
        let net = triangle_with_tail();
        let s0 = net.segment(SegmentId(0));
        assert!((s0.length() - 100.0).abs() < 1e-9);
        let total = net.total_length(net.segment_ids());
        assert!(total > 0.0);
    }

    #[test]
    fn midpoint_and_point_along() {
        let net = triangle_with_tail();
        let mid = net.segment_midpoint(SegmentId(0));
        assert_eq!(mid, Point::new(50.0, 0.0));
        assert_eq!(net.point_along(SegmentId(0), 0.0), Point::new(0.0, 0.0));
        assert_eq!(net.point_along(SegmentId(0), 1.0), Point::new(100.0, 0.0));
        // Clamped.
        assert_eq!(net.point_along(SegmentId(0), 2.0), Point::new(100.0, 0.0));
    }

    #[test]
    fn connectivity_checks() {
        let net = triangle_with_tail();
        assert!(net.is_connected());
        assert!(net.segments_connected(&[]));
        assert!(net.segments_connected(&[SegmentId(3)]));
        assert!(net.segments_connected(&[SegmentId(0), SegmentId(1)]));
        // s0 (j0-j1) and s3 (j2-j3) do not touch.
        assert!(!net.segments_connected(&[SegmentId(0), SegmentId(3)]));
        assert!(net.segments_connected(&[SegmentId(0), SegmentId(1), SegmentId(3)]));
    }

    #[test]
    fn junction_components_on_disconnected_graph() {
        let mut b = RoadNetworkBuilder::new();
        let j0 = b.add_junction(Point::new(0.0, 0.0));
        let j1 = b.add_junction(Point::new(1.0, 0.0));
        let j2 = b.add_junction(Point::new(10.0, 0.0));
        let j3 = b.add_junction(Point::new(11.0, 0.0));
        b.add_segment(j0, j1).unwrap();
        b.add_segment(j2, j3).unwrap();
        let net = b.build().unwrap();
        assert!(!net.is_connected());
        assert_eq!(net.junction_components().len(), 2);
    }

    #[test]
    fn bounding_boxes() {
        let net = triangle_with_tail();
        let bb = net.bounding_box();
        assert_eq!(bb.min, Point::new(0.0, 0.0));
        assert_eq!(bb.max, Point::new(100.0, 200.0));
        let partial = net.segments_bounding_box([SegmentId(0)]);
        assert_eq!(partial.max, Point::new(100.0, 0.0));
    }

    #[test]
    fn display_ids() {
        assert_eq!(SegmentId(18).to_string(), "s18");
        assert_eq!(JunctionId(3).to_string(), "j3");
    }

    #[test]
    fn share_index_reuses_the_built_index_while_plain_clone_does_not() {
        let net = triangle_with_tail();
        let _ = net.graph_index();
        let shared = net.share_index();
        // Same Arc, no rebuild.
        assert!(std::sync::Arc::ptr_eq(
            net.graph_index_arc(),
            shared.graph_index_arc()
        ));
        // A plain clone starts with an empty cell (it would rebuild on
        // demand) and still compares equal: the index is derived state.
        let plain = net.clone();
        assert!(plain.graph_index.0.get().is_none());
        assert_eq!(plain, net);
        assert_eq!(shared, net);
    }

    #[test]
    fn share_index_builds_first_when_needed() {
        let net = triangle_with_tail();
        assert!(net.graph_index.0.get().is_none());
        let shared = net.share_index();
        assert!(net.graph_index.0.get().is_some());
        assert!(std::sync::Arc::ptr_eq(
            net.graph_index_arc(),
            shared.graph_index_arc()
        ));
    }

    #[test]
    fn install_graph_index_is_first_writer_wins() {
        let net = triangle_with_tail();
        let custom = GraphIndex::build_with(
            &net,
            &crate::index::IndexBudget {
                landmarks: 2,
                reach_hop_cap: 1,
            },
            1,
        );
        assert!(net.install_graph_index(custom));
        assert_eq!(net.graph_index().landmarks().count(), 2);
        assert!(net.cached_reach_index(1).is_some());
        assert!(net.cached_reach_index(2).is_none());
        // Second install is rejected, first index stays.
        let other = GraphIndex::build(&net);
        assert!(!net.install_graph_index(other));
        assert_eq!(net.graph_index().landmarks().count(), 2);
    }
}
