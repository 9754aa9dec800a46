//! Shortest-path routing over the road network.
//!
//! GTMobiSim-style trip planning uses length-weighted Dijkstra between
//! junctions: [`shortest_path`] is the one-shot form, [`TripRouter`]
//! answers repeated queries on one map with the same routes while
//! searching a fraction of it, and on a small map [`SourceTrees`] keeps
//! each source's whole shortest-path tree and reads the same routes
//! back without searching. The cloaking algorithms additionally use
//! unweighted segment-hop BFS distances for analysis.

use crate::geometry::{BoundingBox, Point};
use crate::graph::{JunctionId, RoadNetwork, SegmentId};
use crate::index::GraphIndex;
use radix::RadixHeap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

mod radix;
mod trees;

pub use trees::SourceTrees;

/// A shortest route between two junctions.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Junctions visited, from source to destination inclusive.
    pub junctions: Vec<JunctionId>,
    /// Segments traversed, one fewer than `junctions`.
    pub segments: Vec<SegmentId>,
    /// Total length in meters.
    pub length: f64,
}

impl Route {
    /// Number of segments on the route.
    pub fn hop_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether the route is a single point (source == destination).
    pub fn is_trivial(&self) -> bool {
        self.segments.is_empty()
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    junction: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite non-NaN by
        // construction (segment lengths are finite and non-negative).
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.junction.cmp(&self.junction))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Length-weighted Dijkstra shortest path from `src` to `dst`.
///
/// Returns `None` when `dst` is unreachable from `src`.
///
/// ```
/// use roadnet::{generate::grid_city, path::shortest_path, RoadNetwork, JunctionId};
/// let net = RoadNetwork::from(grid_city(3, 3, 100.0));
/// let r = shortest_path(&net, JunctionId(0), JunctionId(8)).unwrap();
/// assert_eq!(r.hop_count(), 4); // two right + two up in any order
/// assert!((r.length - 400.0).abs() < 1e-9);
/// ```
pub fn shortest_path(net: &RoadNetwork, src: JunctionId, dst: JunctionId) -> Option<Route> {
    let n = net.junction_count();
    if src.index() >= n || dst.index() >= n {
        return None;
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(JunctionId, SegmentId)>> = vec![None; n];
    let roads = |j: u32| {
        let j = JunctionId(j);
        net.incident_segments(j).iter().map(move |&s| {
            let seg = net.segment(s);
            let other = seg.other_endpoint(j).expect("incident segment endpoint");
            (other.0, seg.length())
        })
    };
    let reached = |w: u32, v: u32, i: usize| {
        let v = JunctionId(v);
        prev[w as usize] = Some((v, net.incident_segments(v)[i]));
    };
    dijkstra(
        &mut BinaryHeap::new(),
        &mut dist,
        src.0,
        Some(dst.0),
        roads,
        reached,
    );
    if dist[dst.index()].is_infinite() {
        return None;
    }
    // Reconstruct.
    let mut junctions = vec![dst];
    let mut segments = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, s) = prev[cur.index()].expect("path predecessor");
        junctions.push(p);
        segments.push(s);
        cur = p;
    }
    junctions.reverse();
    segments.reverse();
    Some(Route {
        junctions,
        segments,
        length: dist[dst.index()],
    })
}

/// Dijkstra's loop from `src`, shared by [`shortest_path`] and
/// [`SourceTrees`]: it pops `(distance, junction)` entries from a binary
/// heap, skips stale ones, stops when `dst` pops (with `None`, when the
/// heap is empty), and relaxes each popped junction's roads strictly, in
/// the order `roads` lists them as `(neighbour, length)`. `reached(w, v,
/// i)` records that `v`'s `i`-th road now gives `w` its distance. `dist`
/// must read `f64::INFINITY` for every junction.
///
/// A junction's distance and predecessor are final once it pops: every
/// later key is at least its distance, lengths are never negative, and
/// an equal distance does not relax. A road of infinite length, or one
/// whose sum overflows, never relaxes.
fn dijkstra<R: Iterator<Item = (u32, f64)>>(
    heap: &mut BinaryHeap<HeapEntry>,
    dist: &mut [f64],
    src: u32,
    dst: Option<u32>,
    roads: impl Fn(u32) -> R,
    mut reached: impl FnMut(u32, u32, usize),
) {
    heap.clear();
    dist[src as usize] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        junction: src,
    });
    while let Some(HeapEntry { dist: d, junction }) = heap.pop() {
        if d > dist[junction as usize] {
            continue;
        }
        if Some(junction) == dst {
            break;
        }
        for (i, (other, length)) in roads(junction).enumerate() {
            let nd = d + length;
            if nd < dist[other as usize] {
                dist[other as usize] = nd;
                reached(other, junction, i);
                heap.push(HeapEntry {
                    dist: nd,
                    junction: other,
                });
            }
        }
    }
}

/// Relative amount both bounds are shrunk by (`m` in [`TripRouter`]'s
/// Bound rule), so rounding in chords, ratios and landmark rows cannot
/// make a bound change across a road by more than the road's length.
const BOUND_MARGIN: f64 = 1e-9;

/// Relative float slack on the target's distance in the stopping rule:
/// it covers the rounding of distances summed along a route.
const SETTLE_SLACK: f64 = 1e-9;

/// Marks a label with no predecessor (the source, or not yet reached).
const NO_PREV: u32 = u32::MAX;

/// One direction of a segment in the router's packed adjacency.
#[derive(Clone, Copy)]
struct Edge {
    to: u32,
    segment: u32,
    length: f64,
}

/// A junction's search state. It belongs to the current query only when
/// `generation` matches the router's; any other label reads as unreached.
#[derive(Clone, Copy, Default)]
struct Label {
    generation: u32,
    closed: bool,
    prev: u32,
    prev_edge: u32,
    dist: f64,
    bound: f64,
}

/// A reusable router that returns exactly the segments [`shortest_path`]
/// returns, built once per map for many queries.
///
/// It searches goal-directed over a packed per-junction edge array
/// (neighbour junction, segment, length). A query's heap entries are
/// keyed by `(f64 bits, junction id)`: non-negative finite `f64`s order
/// like their bits. The heap is a radix heap over those bits that pops
/// entries in the order a `BinaryHeap` of the same entries would, for
/// any sequence of keys. Per-junction labels are generation-stamped and the
/// heap is kept, so a query neither allocates nor clears per-junction
/// state; only the returned route is allocated, and
/// [`route_into`](Self::route_into) appends to a caller's buffer instead.
///
/// The edge array, positions, bound scale, index share and component
/// labels are built once and never change; [`share`](Self::share) hands
/// them to another router, which brings only its own labels and heap.
/// The component labels cover the same finite-length edges the search
/// relaxes, so [`connected`](Self::connected) answers reachability
/// without a search.
///
/// Three rules keep every route byte-identical to Dijkstra's, ties
/// included:
///
/// * **Bound.** A junction's key is its distance plus the larger of two
///   lower bounds on its road distance to the target `t`. Each is
///   consistent: across a road of length `ℓ` it changes by at most `ℓ`,
///   and it is 0 at `t`. The larger of two consistent bounds is
///   consistent too. Both are computed once per junction per query.
///   - *Euclidean:* `s` times the straight-line distance to `t`, where
///     `s` is the map's smallest segment length/chord ratio, capped at 1
///     and shrunk by a relative `m` = 1e-9, so `s · chord` never exceeds
///     a road's length.
///   - *Landmark* (ALT; Goldberg & Harrelson, SODA 2005):
///     `(1 − m) · max_l |D_l(v) − D_l(t)|` over the landmarks `l` of the
///     map's [`GraphIndex`] landmark table ([`RoadNetwork::graph_index`],
///     built on first use), read in place: the table keeps each
///     junction's distances to every landmark side by side, the router
///     reads the target's once per query and folds each junction's
///     against it, and it holds the map's shared index and copies
///     nothing.
///     The rows carry float rounding, so consistency needs an argument.
///     With `u` = 2⁻⁵³ the unit roundoff and `D` the largest landmark
///     distance: the index's Dijkstra expands each junction once, at its
///     final float distance, and relaxes every road from it, so across a
///     road `(x, y)` each row keeps `|D_l(x) − D_l(y)| ≤ ℓ(1 + u) + u·D`.
///     The subtraction and the `1 − m` scaling round once more each, so
///     the term changes across the road by at most
///     `ℓ(1 − m + 3u) + 6u·D`. That is at most `ℓ` whenever
///     `m·ℓ ≥ 3u·ℓ + 6u·D`, and because `3u < m / 2`, the check
///     `m·ℓ_min ≥ 12u·D` on the map's shortest road implies it for every
///     road.
///   - The landmark term is off, leaving the Euclidean bound alone, when
///     the router runs plain Dijkstra (below), the index has no
///     landmarks, a landmark distance is not finite (a disconnected
///     map), the table does not hold one row per junction of the map (an
///     index installed from another map), or the shortest road fails the
///     check above. Nothing else selects it: no setting and no map size.
///
///   The router falls back to plain Dijkstra, which stops at the
///   target's first pop exactly as [`shortest_path`] does, when a
///   coordinate or the map's extent is not finite, a segment has zero
///   length, or a length is so small next to the map's total that adding
///   it to a distance could round away. Without those, Dijkstra settles
///   junctions in `(distance, id)` order, which the tie rule relies on.
/// * **Stopping.** The search settles junctions until the smallest
///   queued key exceeds the target's distance plus a relative 1e-9
///   slack, not at the target's first pop. That settles every junction
///   on every shortest path to a route junction, at its exact distance.
/// * **Ties.** On an equal relaxation, the predecessor becomes the one
///   Dijkstra keeps: the smaller (distance of `u`, junction id of `u`,
///   position in `u`'s incidence list).
///
/// ```
/// use roadnet::{city_map, path::shortest_path, JunctionId, TripRouter};
/// let net = city_map(7, 2000);
/// let mut router = TripRouter::new(&net);
/// let (a, b) = (JunctionId(3), JunctionId(500));
/// let route = router.route(a, b).unwrap();
/// assert_eq!(route, shortest_path(&net, a, b).unwrap().segments);
/// assert!(router.settled() < net.junction_count());
/// ```
pub struct TripRouter {
    graph: Arc<RouterGraph>,
    labels: Vec<Label>,
    generation: u32,
    heap: RadixHeap,
    settled: usize,
}

/// The read-only part of a [`TripRouter`], shared by every router made
/// with [`TripRouter::share`].
struct RouterGraph {
    /// Edges leaving junction `j` are
    /// `edges[offsets[j] .. offsets[j + 1]]`, in incidence order.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
    positions: Vec<Point>,
    /// The bound scale `s`; 0 selects plain Dijkstra.
    scale: f64,
    /// The map's index, read for the landmark term; `None` turns the
    /// term off.
    index: Option<Arc<GraphIndex>>,
    /// Each junction's connected component over `edges`, numbered in
    /// order of each component's smallest junction id.
    components: Vec<u32>,
}

impl TripRouter {
    /// Builds the router's packed adjacency, bound scale and component
    /// labels from `net`, and takes a share of the map's [`GraphIndex`],
    /// building it on first use, unless the map runs plain Dijkstra.
    pub fn new(net: &RoadNetwork) -> TripRouter {
        let n = net.junction_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(2 * net.segment_count());
        offsets.push(0u32);
        for j in net.junction_ids() {
            for &s in net.incident_segments(j) {
                let seg = net.segment(s);
                // A non-finite length never relaxes a junction in
                // Dijkstra (`d + length` is never below a distance), so
                // dropping it changes no route; order stays incidence
                // order.
                if seg.length().is_finite() {
                    edges.push(Edge {
                        to: seg.other_endpoint(j).expect("incident segment endpoint").0,
                        segment: s.0,
                        length: seg.length(),
                    });
                }
            }
            offsets.push(edges.len() as u32);
        }
        let positions: Vec<Point> = net.junctions().map(|j| j.position()).collect();
        let scale = bound_scale(net, &positions);
        let index = if scale > 0.0 {
            landmark_index(net, &edges)
        } else {
            None
        };
        let components = component_labels(&offsets, &edges);
        TripRouter::over(Arc::new(RouterGraph {
            offsets,
            edges,
            positions,
            scale,
            index,
            components,
        }))
    }

    /// A router over this router's map with search state of its own: it
    /// shares the adjacency, bounds, index and component labels instead
    /// of building them again, so routers on several threads can answer
    /// queries on one map at once.
    pub fn share(&self) -> TripRouter {
        TripRouter::over(Arc::clone(&self.graph))
    }

    fn over(graph: Arc<RouterGraph>) -> TripRouter {
        TripRouter {
            labels: vec![Label::default(); graph.positions.len()],
            graph,
            generation: 0,
            heap: RadixHeap::default(),
            settled: 0,
        }
    }

    /// The segments of the route from `src` to `dst`: exactly
    /// `shortest_path(net, src, dst).map(|r| r.segments)` on the map the
    /// router was built from. `None` when `dst` is unreachable or an id
    /// is out of range; empty when `src == dst`.
    pub fn route(&mut self, src: JunctionId, dst: JunctionId) -> Option<Vec<SegmentId>> {
        let mut segments = Vec::new();
        self.route_into(src, dst, &mut segments).then_some(segments)
    }

    /// Like [`route`](Self::route), appending the route's segments to
    /// `out` instead of allocating; returns whether `dst` was reached.
    /// `out` is left as it was when it was not.
    pub fn route_into(
        &mut self,
        src: JunctionId,
        dst: JunctionId,
        out: &mut Vec<SegmentId>,
    ) -> bool {
        let n = self.labels.len();
        self.settled = 0;
        if src.index() >= n || dst.index() >= n {
            return false;
        }
        if src == dst {
            return true;
        }
        if !self.search(src.0, dst.0) {
            return false;
        }
        let first = out.len();
        let mut cur = dst.index();
        while cur != src.index() {
            let label = &self.labels[cur];
            out.push(SegmentId(
                self.graph.edges[label.prev_edge as usize].segment,
            ));
            cur = label.prev as usize;
        }
        out[first..].reverse();
        true
    }

    /// Whether roads of finite length join `a` and `b` (false for an id
    /// out of range), read from labels computed once per map. It agrees
    /// with `route(a, b).is_some()` except where the float length of a
    /// path overflows to infinity, which only a map that runs plain
    /// Dijkstra can hold: there Dijkstra, and so the router, finds no
    /// route although one exists.
    pub fn connected(&self, a: JunctionId, b: JunctionId) -> bool {
        let components = &self.graph.components;
        match (components.get(a.index()), components.get(b.index())) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Whether [`connected`](Self::connected) agrees with
    /// `route(a, b).is_some()` for every pair of junctions. True on every
    /// map that keeps the goal-directed bound: its total road length
    /// stays finite even four times over, so no route's float length can
    /// overflow. False on a map that runs plain Dijkstra.
    pub fn connected_matches_route(&self) -> bool {
        self.graph.scale > 0.0
    }

    /// Junctions the last [`route`](Self::route) query settled.
    pub fn settled(&self) -> usize {
        self.settled
    }

    /// Runs one search from `src`; whether it reached `dst`.
    fn search(&mut self, src: u32, dst: u32) -> bool {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: clear every label once so none reads as current.
            self.labels.fill(Label::default());
            self.generation = 1;
        }
        let generation = self.generation;
        let graph = &*self.graph;
        let goal = graph.scale > 0.0;
        let target = graph.positions[dst as usize];
        let table = graph.index.as_deref().map(GraphIndex::landmarks);
        let target_row = table.map_or(&[][..], |t| t.at(JunctionId(dst)));
        let bound = |v: usize| {
            if !goal {
                return 0.0;
            }
            let alt = table.map_or(0.0, |t| {
                landmark_gap(t.at(JunctionId(v as u32)), target_row)
            });
            (graph.scale * graph.positions[v].distance_sq(target).sqrt())
                .max(alt * (1.0 - BOUND_MARGIN))
        };
        let unreached = |bound: f64| Label {
            generation,
            closed: false,
            prev: NO_PREV,
            prev_edge: NO_PREV,
            dist: f64::INFINITY,
            bound,
        };
        let src_bound = bound(src as usize);
        self.labels[dst as usize] = unreached(0.0);
        self.labels[src as usize] = Label {
            dist: 0.0,
            ..unreached(src_bound)
        };
        self.heap.clear();
        self.heap.push(src_bound.to_bits(), src);
        while let Some((key, v)) = self.heap.pop() {
            if goal {
                let target_dist = self.labels[dst as usize].dist;
                if f64::from_bits(key) > target_dist + target_dist * SETTLE_SLACK {
                    break;
                }
            }
            let label = &mut self.labels[v as usize];
            if label.closed {
                continue;
            }
            if !goal && v == dst {
                break;
            }
            label.closed = true;
            let dist = label.dist;
            self.settled += 1;
            for e in graph.offsets[v as usize]..graph.offsets[v as usize + 1] {
                let edge = graph.edges[e as usize];
                let next = dist + edge.length;
                let w = edge.to as usize;
                if self.labels[w].generation != generation {
                    self.labels[w] = unreached(bound(w));
                }
                let label = &mut self.labels[w];
                if next < label.dist {
                    label.dist = next;
                    label.prev = v;
                    label.prev_edge = e;
                    label.closed = false;
                    self.heap.push((next + label.bound).to_bits(), edge.to);
                } else if goal && next == label.dist {
                    // Only reached junctions tie: lengths are positive
                    // and never round away in goal mode.
                    let (p, pe) = (label.prev, label.prev_edge);
                    if (dist, v, e) < (self.labels[p as usize].dist, p, pe) {
                        let label = &mut self.labels[w];
                        label.prev = v;
                        label.prev_edge = e;
                    }
                }
            }
        }
        self.labels[dst as usize].dist.is_finite()
    }
}

impl fmt::Debug for TripRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let graph = &*self.graph;
        f.debug_struct("TripRouter")
            .field("junctions", &self.labels.len())
            .field("edges", &graph.edges.len())
            .field("scale", &graph.scale)
            .field(
                "landmarks",
                &graph.index.as_ref().map_or(0, |i| i.landmarks().count()),
            )
            .finish()
    }
}

/// `max_l |row[l] − target[l]|` over two landmark rows, 0 for none: the
/// landmark term before its margin. The rows are read in groups of four
/// into four running maxima, one per lane, then the tail, so the fold
/// compiles to vector max. On the finite rows the router reads, every
/// gap is a non-negative finite `f64`, and their max has the same bits
/// in any order.
fn landmark_gap(row: &[f64], target: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let (rows, targets) = (row.chunks_exact(4), target.chunks_exact(4));
    let tail = rows.remainder().iter().zip(targets.remainder());
    for (r, t) in rows.zip(targets) {
        for lane in 0..4 {
            let gap = (r[lane] - t[lane]).abs();
            if gap > lanes[lane] {
                lanes[lane] = gap;
            }
        }
    }
    for (lane, (&r, &t)) in tail.enumerate() {
        let gap = (r - t).abs();
        if gap > lanes[lane] {
            lanes[lane] = gap;
        }
    }
    lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]))
}

/// The router's bound scale `s` (see [`TripRouter`]), or 0 when no bound
/// keeps the goal-directed search exact on this map.
fn bound_scale(net: &RoadNetwork, positions: &[Point]) -> f64 {
    let finite = positions.iter().all(|p| p.x.is_finite() && p.y.is_finite());
    let extent = BoundingBox::around(positions.iter().copied());
    if !finite || !extent.min.distance_sq(extent.max).is_finite() {
        return 0.0;
    }
    let mut ratio = 1.0f64;
    let mut total = 0.0f64;
    let mut shortest = f64::INFINITY;
    for seg in net.segments().filter(|s| !s.length().is_infinite()) {
        let length = seg.length();
        total += length;
        shortest = shortest.min(length);
        let chord = positions[seg.a().index()]
            .distance_sq(positions[seg.b().index()])
            .sqrt();
        if chord > 0.0 {
            ratio = ratio.min(length / chord);
        }
    }
    // Distances stay below twice the total length, where one ulp is
    // under `total · 2^-51`: a length above `total · 2^-50` never rounds
    // away when added, so Dijkstra settles junctions in `(distance, id)`
    // order. A zero length fails this too.
    if !(4.0 * total).is_finite() || shortest <= total * 4.0 * f64::EPSILON {
        return 0.0;
    }
    ratio * (1.0 - BOUND_MARGIN)
}

/// A share of `net`'s index when its landmark term can be shown exact
/// (see [`TripRouter`]), or `None`. `edges` are the roads the router
/// relaxes.
fn landmark_index(net: &RoadNetwork, edges: &[Edge]) -> Option<Arc<GraphIndex>> {
    let index = Arc::clone(net.graph_index_arc());
    let table = index.landmarks();
    let rows = table.rows();
    let n = net.junction_count();
    if table.count() == 0 || rows.len() != table.count() * n {
        return None;
    }
    // `D`: infinite where a junction is unreachable from a landmark.
    let farthest = rows.iter().copied().fold(0.0, f64::max);
    let shortest = edges.iter().map(|e| e.length).fold(f64::INFINITY, f64::min);
    // `m·ℓ_min ≥ 12u·D`, with `f64::EPSILON` = 2u.
    if !farthest.is_finite() || BOUND_MARGIN * shortest < 6.0 * f64::EPSILON * farthest {
        return None;
    }
    Some(index)
}

/// Connected-component labels over a packed adjacency: each junction's
/// component, numbered in order of each component's smallest junction.
fn component_labels(offsets: &[u32], edges: &[Edge]) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut labels = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut next = 0;
    for root in 0..n {
        if labels[root] != u32::MAX {
            continue;
        }
        labels[root] = next;
        stack.push(root);
        while let Some(j) = stack.pop() {
            for edge in &edges[offsets[j] as usize..offsets[j + 1] as usize] {
                let to = edge.to as usize;
                if labels[to] == u32::MAX {
                    labels[to] = next;
                    stack.push(to);
                }
            }
        }
        next += 1;
    }
    labels
}

/// Unweighted hop distance between two segments under the shared-junction
/// adjacency (0 for the same segment). `None` when unreachable.
pub fn segment_hop_distance(net: &RoadNetwork, from: SegmentId, to: SegmentId) -> Option<usize> {
    if from == to {
        return Some(0);
    }
    let n = net.segment_count();
    if from.index() >= n || to.index() >= n {
        return None;
    }
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[from.index()] = 0;
    queue.push_back(from);
    while let Some(s) = queue.pop_front() {
        let d = dist[s.index()];
        for &nb in net.neighbor_segments_csr(s) {
            if dist[nb.index()] == usize::MAX {
                dist[nb.index()] = d + 1;
                if nb == to {
                    return Some(d + 1);
                }
                queue.push_back(nb);
            }
        }
    }
    None
}

/// All segments within `hops` segment-adjacency steps of `center`
/// (including `center` itself). Deterministic BFS order.
pub fn segments_within_hops(net: &RoadNetwork, center: SegmentId, hops: usize) -> Vec<SegmentId> {
    let n = net.segment_count();
    if center.index() >= n {
        return Vec::new();
    }
    let mut dist = vec![usize::MAX; n];
    let mut order = vec![center];
    let mut queue = std::collections::VecDeque::new();
    dist[center.index()] = 0;
    queue.push_back(center);
    while let Some(s) = queue.pop_front() {
        let d = dist[s.index()];
        if d == hops {
            continue;
        }
        for &nb in net.neighbor_segments_csr(s) {
            if dist[nb.index()] == usize::MAX {
                dist[nb.index()] = d + 1;
                order.push(nb);
                queue.push_back(nb);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;
    use crate::generate::grid_city;
    use crate::geometry::Point;

    #[test]
    fn trivial_path() {
        let net = grid_city(2, 2, 50.0);
        let r = shortest_path(&net, JunctionId(0), JunctionId(0)).unwrap();
        assert!(r.is_trivial());
        assert_eq!(r.length, 0.0);
        assert_eq!(r.junctions, vec![JunctionId(0)]);
    }

    #[test]
    fn grid_path_length() {
        let net = grid_city(4, 4, 100.0);
        // Corner to corner: 3 + 3 hops of 100 m.
        let r = shortest_path(&net, JunctionId(0), JunctionId(15)).unwrap();
        assert_eq!(r.hop_count(), 6);
        assert!((r.length - 600.0).abs() < 1e-9);
        // Junction list is consistent with segment list.
        assert_eq!(r.junctions.len(), r.segments.len() + 1);
        for (i, &s) in r.segments.iter().enumerate() {
            let seg = net.segment(s);
            assert!(seg.touches(r.junctions[i]));
            assert!(seg.touches(r.junctions[i + 1]));
        }
    }

    #[test]
    fn prefers_shorter_detour() {
        // j0 --100-- j1 --100-- j2, plus a direct long road j0-j2 of 350.
        let mut b = RoadNetworkBuilder::new();
        let j0 = b.add_junction(Point::new(0.0, 0.0));
        let j1 = b.add_junction(Point::new(100.0, 0.0));
        let j2 = b.add_junction(Point::new(200.0, 0.0));
        b.add_segment(j0, j1).unwrap();
        b.add_segment(j1, j2).unwrap();
        b.add_segment_with_length(j0, j2, 350.0).unwrap();
        let net = b.build().unwrap();
        let r = shortest_path(&net, j0, j2).unwrap();
        assert_eq!(r.hop_count(), 2);
        assert!((r.length - 200.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = RoadNetworkBuilder::new();
        let j0 = b.add_junction(Point::new(0.0, 0.0));
        let j1 = b.add_junction(Point::new(1.0, 0.0));
        let j2 = b.add_junction(Point::new(10.0, 0.0));
        let j3 = b.add_junction(Point::new(11.0, 0.0));
        b.add_segment(j0, j1).unwrap();
        b.add_segment(j2, j3).unwrap();
        let net = b.build().unwrap();
        assert!(shortest_path(&net, j0, j3).is_none());
        assert!(segment_hop_distance(&net, SegmentId(0), SegmentId(1)).is_none());
    }

    #[test]
    fn out_of_range_ids_return_none() {
        let net = grid_city(2, 2, 10.0);
        assert!(shortest_path(&net, JunctionId(0), JunctionId(99)).is_none());
        assert!(segment_hop_distance(&net, SegmentId(99), SegmentId(0)).is_none());
    }

    #[test]
    fn segment_hops_on_grid() {
        let net = grid_city(3, 3, 100.0);
        assert_eq!(
            segment_hop_distance(&net, SegmentId(0), SegmentId(0)),
            Some(0)
        );
        for nb in net.neighbor_segments(SegmentId(0)) {
            assert_eq!(segment_hop_distance(&net, SegmentId(0), nb), Some(1));
        }
    }

    #[test]
    fn within_hops_monotone_growth() {
        let net = grid_city(5, 5, 100.0);
        let center = SegmentId(0);
        let mut prev = 0;
        for h in 0..5 {
            let got = segments_within_hops(&net, center, h).len();
            assert!(got >= prev, "hop ball must grow");
            prev = got;
        }
        assert_eq!(segments_within_hops(&net, center, 0), vec![center]);
        // Large radius covers the whole (connected) network.
        assert_eq!(
            segments_within_hops(&net, center, 100).len(),
            net.segment_count()
        );
    }

    #[test]
    fn router_forgets_old_labels_when_generations_wrap() {
        let net = grid_city(5, 5, 100.0);
        let mut router = TripRouter::new(&net);
        let check = |router: &mut TripRouter, a: u32, b: u32| {
            let (a, b) = (JunctionId(a), JunctionId(b));
            assert_eq!(
                router.route(a, b),
                shortest_path(&net, a, b).map(|r| r.segments)
            );
        };
        // The first query stamps its labels with generation 1; after the
        // wrap, generation 1 comes round again and must not see them.
        check(&mut router, 0, 24);
        router.generation = u32::MAX;
        for (a, b) in [(24, 0), (3, 21), (20, 4)] {
            check(&mut router, a, b);
        }
        assert_eq!(router.generation, 3);
    }

    #[test]
    fn landmark_term_is_off_where_it_cannot_be_shown_exact() {
        use crate::citygen::city_map;
        use crate::index::{GraphIndex, IndexBudget};
        let term = |net: &RoadNetwork| {
            let router = TripRouter::new(net);
            assert!(router.graph.scale > 0.0, "the Euclidean bound stays on");
            let index = router.graph.index.as_ref();
            index.map_or(0, |i| i.landmarks().count())
        };
        let index = |net: &RoadNetwork, landmarks: usize| {
            let budget = IndexBudget {
                landmarks,
                reach_hop_cap: 0,
            };
            GraphIndex::build_with(net, &budget, 1)
        };

        // Disconnected: two 3 × 3 grids side by side.
        let mut b = RoadNetworkBuilder::new();
        for island in [0.0, 1_000.0] {
            let base = grid_city(3, 3, 100.0);
            let first = b.junction_count() as u32;
            for j in base.junctions() {
                let p = j.position();
                b.add_junction(Point::new(p.x + island, p.y));
            }
            for seg in base.segments() {
                let (a, c) = (JunctionId(seg.a().0 + first), JunctionId(seg.b().0 + first));
                b.add_segment(a, c).unwrap();
            }
        }
        assert_eq!(term(&b.build().unwrap()), 0);

        // An index built with no landmarks.
        let net = grid_city(5, 5, 100.0);
        assert!(net.install_graph_index(index(&net, 0)));
        assert_eq!(term(&net), 0);

        // An index from a map with another junction count.
        let net = grid_city(5, 5, 100.0);
        assert!(net.install_graph_index(index(&grid_city(6, 6, 100.0), 4)));
        assert_eq!(term(&net), 0);

        // A 1 mm road at the end of a 10 km street: `m·ℓ` = 1e-12 is
        // below `12u·D` ≈ 1.3e-11.
        let mut b = RoadNetworkBuilder::new();
        let mut prev = b.add_junction(Point::new(0.0, 0.0));
        for i in 1..=100 {
            let next = b.add_junction(Point::new(i as f64 * 100.0, 0.0));
            b.add_segment(prev, next).unwrap();
            prev = next;
        }
        let end = b.add_junction(Point::new(10_000.001, 0.0));
        b.add_segment_with_length(prev, end, 0.001).unwrap();
        assert_eq!(term(&b.build().unwrap()), 0);

        // The same street without it keeps every landmark.
        let net = grid_city(1, 101, 100.0);
        assert!(term(&net) > 0);
        let net = city_map(7, 2_000);
        assert_eq!(term(&net), crate::index::DEFAULT_LANDMARKS);
    }

    #[test]
    fn landmark_gap_lanes_fold_like_one_running_max() {
        // Rows of every length from 0 to 40, values drawn from a few
        // levels so gaps tie, vanish and repeat their maximum; the lane
        // fold must return the bits of the sequential `gap > alt` fold.
        let levels = [0.0, 0.5, 1.0, 100.0, 100.5, 2_500.25, 1e6];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            levels[(state % levels.len() as u64) as usize]
        };
        for len in 0..=40 {
            for _ in 0..50 {
                let row: Vec<f64> = (0..len).map(|_| draw()).collect();
                let target: Vec<f64> = (0..len).map(|_| draw()).collect();
                let mut alt = 0.0f64;
                for (&r, &t) in row.iter().zip(&target) {
                    let gap = (r - t).abs();
                    if gap > alt {
                        alt = gap;
                    }
                }
                assert_eq!(
                    landmark_gap(&row, &target).to_bits(),
                    alt.to_bits(),
                    "{row:?}"
                );
                assert_eq!(landmark_gap(&row, &row).to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn within_hops_matches_hop_distance() {
        let net = grid_city(4, 4, 100.0);
        let center = SegmentId(5);
        let ball = segments_within_hops(&net, center, 2);
        for s in net.segment_ids() {
            let d = segment_hop_distance(&net, center, s).unwrap();
            assert_eq!(ball.contains(&s), d <= 2, "segment {s} distance {d}");
        }
    }
}
