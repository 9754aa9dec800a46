//! Per-source shortest-path trees for maps small enough to keep them all.

use super::{dijkstra, Heap, RouterGraph, TripRouter};
use crate::graph::{JunctionId, RoadNetwork, SegmentId};
use std::fmt;
use std::sync::Arc;

/// The tree byte of a junction the source does not reach, and of every
/// junction of a tree not built yet.
const UNREACHED: u8 = u8::MAX;

/// The tree byte of a built tree's own source. Where trees fit, a
/// junction has at most 254 finite-length roads, so no road position
/// reaches this value.
const ROOT: u8 = u8::MAX - 1;

/// Every shortest-path tree of a small map: each built on its source's
/// first route, then read for every later route from that source. A
/// route is exactly [`shortest_path`](super::shortest_path)'s segments,
/// as [`TripRouter`]'s are, found by walking predecessors instead of
/// searching.
///
/// A tree is one byte per junction: the position of the road that
/// junction's predecessor reached it by, counted in the junction's own
/// list of finite-length roads (the router's packed edges, in incidence
/// order, which the trees share instead of copying the map). A route is
/// read back by walking predecessors from the destination, then
/// reversing.
///
/// A tree is built by running [`shortest_path`](super::shortest_path)'s
/// loop from the source until its heap is empty. That gives every route
/// from the source byte for byte:
///
/// * the full run pops the same entries as `shortest_path(src, dst)` up
///   to `dst`'s pop, since the loop, the heap and the roads' order are
///   the same;
/// * a junction's predecessor is final once it pops, because every later
///   key is at least its distance and relaxation is strict;
/// * every junction on `dst`'s predecessor chain pops before `dst`;
/// * so ties and float sums come out the same, and a junction that
///   `shortest_path` cannot reach (another component, or a float
///   overflow on a map that runs plain Dijkstra) is unreached in the
///   tree too. Roads of infinite length, which the packed edges leave
///   out, never relax in either loop.
///
/// The trees take `n²` bytes for `n` junctions, so
/// [`new`](Self::new) offers them only where they are no larger than
/// the map's landmark table.
///
/// ```
/// use roadnet::{grid_city, path::shortest_path, JunctionId, SourceTrees, TripRouter};
/// let net = grid_city(12, 12, 100.0);
/// let router = TripRouter::new(&net);
/// let mut trees = SourceTrees::new(&net, &router).expect("144 junctions fit");
/// let (a, b) = (JunctionId(3), JunctionId(140));
/// assert_eq!(trees.route(a, b), shortest_path(&net, a, b).map(|r| r.segments));
/// ```
pub struct SourceTrees {
    graph: Arc<RouterGraph>,
    /// `n × n` tree bytes: row `s` is source `s`'s tree, all
    /// [`UNREACHED`] until it is built.
    trees: Vec<u8>,
    /// A build's distances.
    dist: Vec<f64>,
    /// During a build, the packed edge that last gave each junction its
    /// distance.
    reached_by: Vec<u32>,
    heap: Heap,
}

impl SourceTrees {
    /// Trees over the packed edges of `router`, which must have been
    /// built from `net`, or `None` where they do not fit the map. They
    /// fit when both of these hold:
    ///
    /// * `n²` bytes of trees are no more than the `n · L · 8` bytes of
    ///   the landmark table, i.e. `n ≤ 8 · L`, where `L` is the landmark
    ///   count of `net`'s [`GraphIndex`](crate::GraphIndex) (built on
    ///   first use);
    /// * every junction has fewer than 255 finite-length roads, so a
    ///   road's position fits in a byte beside the two markers.
    ///
    /// Nothing else selects them: no setting. A 12 × 12 grid (144
    /// junctions, 32 landmarks) takes them; `city_map(7, 5000)` (3,793
    /// junctions) does not.
    ///
    /// # Panics
    ///
    /// Panics if `router` was built from a map with another junction
    /// count.
    pub fn new(net: &RoadNetwork, router: &TripRouter) -> Option<SourceTrees> {
        let graph = &router.graph;
        let n = graph.positions.len();
        assert_eq!(n, net.junction_count(), "router built from another map");
        let narrow = graph
            .offsets
            .windows(2)
            .all(|w| w[1] - w[0] <= u32::from(ROOT));
        if !narrow || n > 8 * net.graph_index().landmarks().count() {
            return None;
        }
        Some(SourceTrees {
            graph: Arc::clone(graph),
            trees: vec![UNREACHED; n * n],
            dist: vec![f64::INFINITY; n],
            reached_by: vec![0; n],
            heap: Heap::new(),
        })
    }

    /// The segments of the route from `src` to `dst`: exactly
    /// `shortest_path(net, src, dst).map(|r| r.segments)`. `None` when
    /// `dst` is unreachable or an id is out of range; empty when
    /// `src == dst`.
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
        let n = self.dist.len();
        if src.index() >= n || dst.index() >= n {
            return false;
        }
        if src == dst {
            return true;
        }
        let row = src.index() * n;
        if self.trees[row + src.index()] != ROOT {
            self.grow(src.index());
        }
        let tree = &self.trees[row..row + n];
        if tree[dst.index()] == UNREACHED {
            return false;
        }
        let graph = &*self.graph;
        let first = out.len();
        let mut cur = dst.index();
        while cur != src.index() {
            let edge = graph.edges[graph.offsets[cur] as usize + usize::from(tree[cur])];
            out.push(SegmentId(edge.segment));
            cur = edge.to as usize;
        }
        out[first..].reverse();
        true
    }

    /// Builds `src`'s tree: Dijkstra's full run, then each reached
    /// junction's predecessor road located in its own list.
    fn grow(&mut self, src: usize) {
        let SourceTrees {
            graph,
            trees,
            dist,
            reached_by,
            heap,
        } = self;
        let (offsets, edges) = (&graph.offsets, &graph.edges);
        let roads = |j: u32| {
            let own = &edges[offsets[j as usize] as usize..offsets[j as usize + 1] as usize];
            own.iter().map(|e| (e.to, e.length))
        };
        let reached = |w: u32, v: u32, i: usize| {
            reached_by[w as usize] = offsets[v as usize] + i as u32;
        };
        dist.fill(f64::INFINITY);
        dijkstra(heap, dist, src as u32, None, roads, reached);
        let n = dist.len();
        for (w, byte) in trees[src * n..(src + 1) * n].iter_mut().enumerate() {
            *byte = if w == src {
                ROOT
            } else if dist[w].is_finite() {
                // The road joins `w` to its predecessor; maps have no
                // self-loops, so `w` lists it once.
                let segment = edges[reached_by[w] as usize].segment;
                let own = &edges[offsets[w] as usize..offsets[w + 1] as usize];
                let at = own.iter().position(|e| e.segment == segment);
                at.expect("a road is listed at both of its ends") as u8
            } else {
                UNREACHED
            };
        }
    }
}

impl fmt::Debug for SourceTrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.dist.len();
        let built = (0..n).filter(|&s| self.trees[s * n + s] == ROOT).count();
        f.debug_struct("SourceTrees")
            .field("junctions", &n)
            .field("built", &built)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;
    use crate::citygen::city_map;
    use crate::generate::grid_city;
    use crate::geometry::Point;
    use crate::path::shortest_path;

    fn trees(net: &RoadNetwork) -> Option<SourceTrees> {
        SourceTrees::new(net, &TripRouter::new(net))
    }

    /// A junction at the origin with `roads` roads to junctions on a
    /// circle around it, `infinite` of them infinitely long.
    fn star(roads: usize, infinite: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let hub = b.add_junction(Point::new(0.0, 0.0));
        for i in 0..roads {
            let angle = i as f64 * std::f64::consts::TAU / roads as f64;
            let leaf = b.add_junction(Point::new(100.0 * angle.cos(), 100.0 * angle.sin()));
            let length = if i < infinite { f64::INFINITY } else { 100.0 };
            b.add_segment_with_length(hub, leaf, length).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn trees_fit_small_maps_and_narrow_junctions_only() {
        // The benchmark's two maps sit on either side of the rule.
        let grid = grid_city(12, 12, 100.0);
        assert_eq!(grid.graph_index().landmarks().count(), 32);
        assert!(trees(&grid).is_some(), "144 ≤ 8 · 32");
        let city = city_map(7, 5_000);
        assert_eq!(city.junction_count(), 3_793);
        assert!(trees(&city).is_none(), "3,793 > 8 · 32");
        // 256 junctions, 32 landmarks: the size rule holds, so the hub's
        // roads decide. 255 roads leave no byte for the markers.
        let wide = star(255, 0);
        assert_eq!(
            wide.junction_count(),
            8 * wide.graph_index().landmarks().count()
        );
        assert!(trees(&wide).is_none());
        assert!(trees(&star(254, 0)).is_some());
        // Only finite-length roads count.
        assert!(trees(&star(255, 1)).is_some());
    }

    #[test]
    fn a_wide_junction_routes_through_its_last_road() {
        // The hub's 254th road sits at position 253, next to `ROOT`.
        let net = star(254, 0);
        let mut trees = trees(&net).unwrap();
        for (a, b) in [(254, 1), (0, 254), (254, 0), (253, 254)] {
            let (a, b) = (JunctionId(a), JunctionId(b));
            let expected = shortest_path(&net, a, b).map(|r| r.segments);
            assert_eq!(trees.route(a, b), expected, "{a} -> {b}");
        }
    }
}
