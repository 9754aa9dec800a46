//! Spatial and graph indexes over a road network.
//!
//! Two families live here:
//!
//! * [`SegmentIndex`] — a uniform-grid *spatial* index that snaps a
//!   point to its nearest road, used by `mobisim`'s Gaussian car
//!   placement;
//! * [`GraphIndex`] — a read-only, built-once *graph* index: an
//!   ALT-style [`LandmarkTable`] of exact road distances from 32
//!   far-apart junctions, stored junction by junction, and word-packed
//!   bounded-hop [`ReachIndex`] reachability masks. Query-time
//!   consumers (the LBS candidate search, the trip router's landmark
//!   bound, the temporal adversary's movement model) trade per-query
//!   graph traversals for lookups into these tables — the
//!   amortize-the-setup pattern the ROADMAP's hardware-speed goal calls
//!   for. The index is derived state: it never feeds the cloaking
//!   draws, so receipts are byte-identical with or without it.
//!
//! [`RoadNetwork::graph_index`] builds the graph index lazily (behind a
//! `OnceLock`) on first use and shares it with every reader.

use crate::fanout;
use crate::geometry::{point_segment_distance, BoundingBox, Point};
use crate::graph::{JunctionId, RoadNetwork, SegmentId};
use crate::path::{dijkstra, Heap};
use std::sync::{Arc, OnceLock};

/// Most grid cells a [`SegmentIndex`] holds per road: the cell size is
/// raised until the grid fits, whatever size was asked for.
const CELLS_PER_ROAD: usize = 4;

/// Relative width of the registration margin and of the walk's stopping
/// slack: far above the rounding of a span, a cell edge or a distance.
const INDEX_SLACK: f64 = 1e-9;

/// A uniform-grid spatial index over the segments of a road network.
///
/// The cells are two flat arrays (CSR): cell `i` holds
/// `entries[offsets[i] .. offsets[i + 1]]`, in segment id order. A road
/// is registered only in the cells it passes through: row by row, the
/// span of columns it covers, widened by a margin that outgrows any
/// rounding, so every point of a road lies inside its registered cells.
/// The grid never holds more than four cells per road.
///
/// [`nearest_segment`](Self::nearest_segment) walks square rings of
/// cells outward from the query point and returns exactly the
/// brute-force minimum by `(distance, segment id)`.
///
/// ```
/// use roadnet::{generate::grid_city, index::SegmentIndex, geometry::Point};
/// let net = grid_city(5, 5, 100.0);
/// let idx = SegmentIndex::new(&net);
/// let (seg, d) = idx.nearest_segment(Point::new(151.0, 207.0)).unwrap();
/// assert!(d <= 10.0);
/// # let _ = seg;
/// ```
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    bounds: BoundingBox,
    cell: f64,
    cols: usize,
    rows: usize,
    /// How far past a road's exact span its registration reaches.
    margin: f64,
    /// Each segment's endpoints, by segment id.
    ends: Vec<[Point; 2]>,
    /// Cell `i` (row-major) holds `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<SegmentId>,
}

impl SegmentIndex {
    /// Builds the index with a cell size picked from the map: half the
    /// mean straight-line length of a road, raised as
    /// [`build`](Self::build) raises any cell size.
    pub fn new(net: &RoadNetwork) -> Self {
        SegmentIndex::with_cell(net, None)
    }

    /// Builds the index with cells of `cell_size` meters, raised where
    /// needed so the grid holds at most four cells per road.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive or the network has no
    /// junctions.
    pub fn build(net: &RoadNetwork, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        SegmentIndex::with_cell(net, Some(cell_size))
    }

    /// Builds with the requested cell size, or with half the mean road
    /// length for `None`, raised until the grid fits.
    fn with_cell(net: &RoadNetwork, requested: Option<f64>) -> Self {
        let bounds = net.bounding_box();
        assert!(!bounds.is_empty(), "cannot index an empty network");
        let ends: Vec<[Point; 2]> = net
            .segments()
            .map(|s| {
                [
                    net.junction(s.a()).position(),
                    net.junction(s.b()).position(),
                ]
            })
            .collect();
        let requested = requested.unwrap_or_else(|| {
            let chords: f64 = ends.iter().map(|&[a, b]| a.distance(b)).sum();
            chords / ends.len().max(1) as f64 / 2.0
        });
        let (w, h) = (bounds.width(), bounds.height());
        let limit = CELLS_PER_ROAD * net.segment_count().max(1);
        let span = |cell: f64| ((w / cell).ceil().max(1.0), (h / cell).ceil().max(1.0));
        let (mut cell, mut cols, mut rows) = (f64::INFINITY, 1.0, 1.0);
        if w.is_finite() && h.is_finite() {
            // The smallest cell whose grid could fit, before rounding up.
            let fits = (w * h / limit as f64).sqrt().max(w.max(h) / limit as f64);
            cell = requested.max(fits);
            if cell == 0.0 {
                // A map that is a single point: any cell holds it.
                cell = 1.0;
            }
            (cols, rows) = span(cell);
            while cols * rows > limit as f64 {
                cell *= 1.25;
                (cols, rows) = span(cell);
            }
        }
        let extent = [bounds.min.x, bounds.min.y, bounds.max.x, bounds.max.y]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let mut index = SegmentIndex {
            bounds,
            cell,
            cols: cols as usize,
            rows: rows as usize,
            margin: INDEX_SLACK * (extent + cell),
            ends,
            offsets: Vec::new(),
            entries: Vec::new(),
        };
        // Count each cell's roads, turn the counts into offsets, then
        // fill: roads go in id order, so every cell lists them ascending.
        let mut counts = vec![0u32; index.cols * index.rows + 1];
        for &[a, b] in &index.ends {
            index.for_each_cell(a, b, |i| counts[i + 1] += 1);
        }
        for i in 1..counts.len() {
            counts[i] = counts[i]
                .checked_add(counts[i - 1])
                .expect("index entries fit in u32");
        }
        let mut fill = counts.clone();
        let mut entries = vec![SegmentId(0); counts[counts.len() - 1] as usize];
        for (s, &[a, b]) in index.ends.iter().enumerate() {
            index.for_each_cell(a, b, |i| {
                entries[fill[i] as usize] = SegmentId(s as u32);
                fill[i] += 1;
            });
        }
        index.offsets = counts;
        index.entries = entries;
        index
    }

    /// The indexed area.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn grid_size(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The grid column holding `x`, clamped to the grid.
    fn col_of(&self, x: f64) -> usize {
        let c = ((x - self.bounds.min.x) / self.cell).floor();
        (c.max(0.0) as usize).min(self.cols - 1)
    }

    /// The grid row holding `y`, clamped to the grid.
    fn row_of(&self, y: f64) -> usize {
        let r = ((y - self.bounds.min.y) / self.cell).floor();
        (r.max(0.0) as usize).min(self.rows - 1)
    }

    /// Calls `visit` with every cell the road from `a` to `b` passes
    /// through, widened by the margin: for each row band it crosses, the
    /// columns its part inside the band covers.
    fn for_each_cell(&self, a: Point, b: Point, mut visit: impl FnMut(usize)) {
        let m = self.margin;
        let (lo, hi) = if a.y <= b.y { (a, b) } else { (b, a) };
        let (x_min, x_max) = (lo.x.min(hi.x), lo.x.max(hi.x));
        let dy = hi.y - lo.y;
        for r in self.row_of(lo.y - m)..=self.row_of(hi.y + m) {
            let (x0, x1) = if dy > 0.0 {
                let band = self.bounds.min.y + r as f64 * self.cell;
                let at = |y: f64| {
                    let t = (y.clamp(lo.y, hi.y) - lo.y) / dy;
                    lo.x + t * (hi.x - lo.x)
                };
                let (xa, xb) = (at(band - m), at(band + self.cell + m));
                (xa.min(xb).max(x_min), xa.max(xb).min(x_max))
            } else {
                (x_min, x_max)
            };
            let row = r * self.cols;
            for c in self.col_of(x0 - m)..=self.col_of(x1 + m) {
                visit(row + c);
            }
        }
    }

    /// The segment nearest to `p` by `(distance, segment id)` and its
    /// distance, or `None` for a network with no segments.
    ///
    /// Walks square rings of cells outward from `p`'s cell, allocating
    /// nothing, so the cost follows the local road density rather than
    /// the network size. A road not yet seen lies wholly outside the
    /// scanned block, so the distance from `p` to the block's open sides
    /// bounds it from below; the walk stops once the best distance is
    /// strictly below that bound, less a relative slack for rounding, so
    /// no unseen road can tie or win.
    pub fn nearest_segment(&self, p: Point) -> Option<(SegmentId, f64)> {
        if self.ends.is_empty() {
            return None;
        }
        let (pc, pr) = (self.col_of(p.x), self.row_of(p.y));
        let slack = INDEX_SLACK * (p.x.abs() + p.y.abs());
        let mut best: Option<(SegmentId, f64)> = None;
        let scan = |cell: usize, best: &mut Option<(SegmentId, f64)>| {
            let (first, last) = (self.offsets[cell], self.offsets[cell + 1]);
            for &s in &self.entries[first as usize..last as usize] {
                let [a, b] = self.ends[s.index()];
                let d = point_segment_distance(p, a, b);
                if best.is_none_or(|(bs, bd)| d < bd || (d == bd && s < bs)) {
                    *best = Some((s, d));
                }
            }
        };
        for ring in 0.. {
            // The block of rings 0..=ring, clipped to the grid.
            let (c0, c1) = (pc.saturating_sub(ring), (pc + ring).min(self.cols - 1));
            let (r0, r1) = (pr.saturating_sub(ring), (pr + ring).min(self.rows - 1));
            for r in r0..=r1 {
                let row = r * self.cols;
                if r + ring == pr || r == pr + ring {
                    (c0..=c1).for_each(|c| scan(row + c, &mut best));
                } else {
                    if pc >= ring {
                        scan(row + pc - ring, &mut best);
                    }
                    if ring > 0 && pc + ring < self.cols {
                        scan(row + pc + ring, &mut best);
                    }
                }
            }
            // Distance from `p` to the nearest cell outside the block.
            let edge = |i: usize, origin: f64| origin + i as f64 * self.cell;
            let mut bound = f64::INFINITY;
            if c0 > 0 {
                bound = bound.min(p.x - edge(c0, self.bounds.min.x));
            }
            if c1 + 1 < self.cols {
                bound = bound.min(edge(c1 + 1, self.bounds.min.x) - p.x);
            }
            if r0 > 0 {
                bound = bound.min(p.y - edge(r0, self.bounds.min.y));
            }
            if r1 + 1 < self.rows {
                bound = bound.min(edge(r1 + 1, self.bounds.min.y) - p.y);
            }
            if bound == f64::INFINITY {
                break;
            }
            if best.is_some_and(|(_, d)| d < bound - slack - INDEX_SLACK * bound) {
                break;
            }
        }
        best
    }
}

/// Landmarks a [`GraphIndex`] selects by default (fewer only on maps
/// with fewer junctions). The table holds `count × junction_count`
/// doubles.
pub const DEFAULT_LANDMARKS: usize = 32;

/// Hop counts up to this value get their [`ReachIndex`] cached inside
/// the [`GraphIndex`]; larger (pathological) hop budgets are built on
/// demand without caching.
pub const MAX_CACHED_HOPS: usize = 16;

/// Build budget for a [`GraphIndex`]: how many landmarks to select at
/// most and up to which hop count reach masks may be cached.
///
/// The defaults reproduce the unbudgeted build
/// ([`DEFAULT_LANDMARKS`] / [`MAX_CACHED_HOPS`]). City-scale maps cap
/// these explicitly instead of timing out or ballooning memory: a
/// packed reach mask costs `segment_count² / 8` bytes, which at 100k
/// segments is 1.25 GB per hop budget — capping `reach_hop_cap` (even
/// to 0) makes consumers fall back to their BFS paths instead of
/// silently building such a mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexBudget {
    /// Most landmarks the [`LandmarkTable`] selects; fewer only on maps
    /// with fewer junctions.
    pub landmarks: usize,
    /// Largest hop count for which [`GraphIndex::reach_cached`] will
    /// build and cache a [`ReachIndex`].
    pub reach_hop_cap: usize,
}

impl Default for IndexBudget {
    fn default() -> Self {
        IndexBudget {
            landmarks: DEFAULT_LANDMARKS,
            reach_hop_cap: MAX_CACHED_HOPS,
        }
    }
}

/// ALT-style landmark distance table: exact road distances from a small
/// set of far-apart junctions (selected by farthest-point sampling) to
/// every junction of the network, stored junction by junction.
///
/// By the triangle inequality, for any landmark `l` and junctions `a`,
/// `b`: `|d(l,a) − d(l,b)| ≤ d(a,b) ≤ d(l,a) + d(l,b)` — so the table
/// yields instant lower *and* upper bounds on any road distance, which
/// the LBS candidate search uses to direct and terminate its Dijkstra
/// early without changing any answer.
///
/// Farthest-point sampling treats unreachable junctions as infinitely
/// far, so on a disconnected map each component receives a landmark
/// before any component gets its second (up to the landmark budget).
///
/// ```
/// use roadnet::{grid_city, index::LandmarkTable, path::shortest_path, JunctionId};
/// let net = grid_city(6, 6, 100.0);
/// let table = LandmarkTable::build(&net, 8);
/// let (a, b) = (JunctionId(3), JunctionId(31));
/// let exact = shortest_path(&net, a, b).unwrap().length;
/// assert!(table.lower_bound(a, b) <= exact + 1e-9);
/// assert!(table.upper_bound(a, b) >= exact - 1e-9);
/// assert_eq!(table.at(JunctionId(0))[0], 0.0); // junction 0 is the first landmark
/// ```
#[derive(Debug, Clone)]
pub struct LandmarkTable {
    landmarks: Vec<JunctionId>,
    /// Junction-major `junction_count × landmarks.len()` distances:
    /// junction `j`'s row is `dist[j * count .. (j + 1) * count]`;
    /// `f64::INFINITY` marks a junction unreachable from the landmark.
    dist: Vec<f64>,
}

impl LandmarkTable {
    /// Builds a table of (at most) `count` landmarks with a single
    /// worker; see [`build_with`](Self::build_with).
    pub fn build(net: &RoadNetwork, count: usize) -> Self {
        Self::build_with(net, count, 1)
    }

    /// Builds a table of at most `count` landmarks by farthest-point
    /// sampling: the first landmark is junction 0, each next one is the
    /// junction farthest (in hops) from all landmarks chosen so far
    /// (unreachable counts as farthest, covering disconnected
    /// components first, and the lowest id wins a tie), so a larger
    /// `count` never changes the first picks.
    ///
    /// The build is two-phase over one packed `(neighbour, length)`
    /// adjacency. Selection is sequential, since each pick depends on
    /// the previous one, and uses the hop metric (selection only needs
    /// *far apart*, not exact meters). Each pick's breadth-first search
    /// visits only the junctions it brings closer to their nearest
    /// landmark: that distance changes by at most one across a road, so
    /// every junction on a shortest hop path to a lowered junction is
    /// lowered too, and the search finds them all. The exact
    /// length-weighted Dijkstra rows are then computed on
    /// [`fan_out`](fanout::fan_out) with `workers` workers (`0` = one
    /// per core), one task per landmark, each junction expanded once at
    /// its final distance; the table is bit-identical regardless of the
    /// worker count.
    pub fn build_with(net: &RoadNetwork, count: usize, workers: usize) -> Self {
        let roads = Adjacency::new(net);
        let landmarks = roads.farthest_points(count);
        // Each row gets a heap of its own: heaps kept side by side in
        // the worker states would share a cache line between workers.
        let mut states = vec![(); fanout::workers(workers)];
        let rows = fanout::fan_out(&mut states, landmarks.len(), |_, l| {
            roads.distances_from(landmarks[l])
        });
        // Rows come back in landmark order whichever worker ran them;
        // store them junction by junction.
        let mut dist = Vec::with_capacity(landmarks.len() * roads.len());
        for j in 0..roads.len() {
            dist.extend(rows.iter().map(|row| row[j]));
        }
        LandmarkTable { landmarks, dist }
    }

    /// Number of landmarks actually selected.
    pub fn count(&self) -> usize {
        self.landmarks.len()
    }

    /// The selected landmark junctions.
    pub fn landmarks(&self) -> &[JunctionId] {
        &self.landmarks
    }

    /// Exact road distances from every landmark to junction `j`, in
    /// [`landmarks`](Self::landmarks) order; `f64::INFINITY` where a
    /// landmark cannot reach `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for a table with landmarks.
    pub fn at(&self, j: JunctionId) -> &[f64] {
        let count = self.landmarks.len();
        &self.dist[j.index() * count..(j.index() + 1) * count]
    }

    /// Every junction's row of [`at`](Self::at), junction-major, in one
    /// slice.
    pub(crate) fn rows(&self) -> &[f64] {
        &self.dist
    }

    /// A lower bound on the road distance between two junctions:
    /// `max_l |d(l,a) − d(l,b)|`. Returns `f64::INFINITY` exactly when
    /// some landmark proves the junctions lie in different components.
    pub fn lower_bound(&self, a: JunctionId, b: JunctionId) -> f64 {
        let mut lb = 0.0f64;
        for (&da, &db) in self.at(a).iter().zip(self.at(b)) {
            match (da.is_finite(), db.is_finite()) {
                (true, true) => lb = lb.max((da - db).abs()),
                // One side reachable from the landmark, the other not:
                // different components, the true distance is infinite.
                (true, false) | (false, true) => return f64::INFINITY,
                // The landmark sees neither: no information.
                (false, false) => {}
            }
        }
        lb
    }

    /// An upper bound on the road distance between two junctions:
    /// `min_l d(l,a) + d(l,b)` (`f64::INFINITY` when no landmark
    /// reaches both).
    pub fn upper_bound(&self, a: JunctionId, b: JunctionId) -> f64 {
        self.at(a)
            .iter()
            .zip(self.at(b))
            .fold(f64::INFINITY, |ub, (&da, &db)| ub.min(da + db))
    }
}

/// A packed `(neighbour, length)` adjacency for the landmark build:
/// junction `j`'s roads are `roads[offsets[j] .. offsets[j + 1]]`, in
/// incidence order, every road of the map included.
struct Adjacency {
    offsets: Vec<u32>,
    roads: Vec<(u32, f64)>,
}

impl Adjacency {
    fn new(net: &RoadNetwork) -> Self {
        let mut offsets = Vec::with_capacity(net.junction_count() + 1);
        let mut roads = Vec::with_capacity(2 * net.segment_count());
        offsets.push(0);
        for j in net.junction_ids() {
            for &s in net.incident_segments(j) {
                let seg = net.segment(s);
                let other = seg.other_endpoint(j).expect("incident endpoint");
                roads.push((other.0, seg.length()));
            }
            offsets.push(roads.len() as u32);
        }
        Adjacency { offsets, roads }
    }

    /// Number of junctions.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn roads(&self, j: u32) -> &[(u32, f64)] {
        &self.roads[self.offsets[j as usize] as usize..self.offsets[j as usize + 1] as usize]
    }

    /// Up to `count` landmarks by hop-metric farthest-point sampling
    /// (see [`LandmarkTable::build_with`]).
    fn farthest_points(&self, count: usize) -> Vec<JunctionId> {
        let n = self.len();
        let cap = count.min(n);
        let mut landmarks = Vec::with_capacity(cap);
        if cap == 0 {
            return landmarks;
        }
        // Each junction's hop distance to its nearest landmark so far
        // (`u32::MAX` = no landmark reaches it).
        let mut nearest = vec![u32::MAX; n];
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        let mut pick = 0u32;
        loop {
            landmarks.push(JunctionId(pick));
            nearest[pick as usize] = 0;
            frontier.push(pick);
            let mut depth = 0u32;
            while !frontier.is_empty() {
                depth += 1;
                for &j in &frontier {
                    for &(to, _) in self.roads(j) {
                        if depth < nearest[to as usize] {
                            nearest[to as usize] = depth;
                            next.push(to);
                        }
                    }
                }
                frontier.clear();
                std::mem::swap(&mut frontier, &mut next);
            }
            if landmarks.len() == cap {
                break;
            }
            // Strict `>` keeps the pick deterministic (first max wins);
            // u32::MAX (unreachable) beats any finite hop count, so
            // uncovered components are landmarked before covered ones
            // densify.
            let mut farthest = (0u32, 0u32);
            for (j, &d) in nearest.iter().enumerate() {
                if d > farthest.0 {
                    farthest = (d, j as u32);
                }
            }
            // Every junction is already a landmark (tiny maps).
            if farthest.0 == 0 {
                break;
            }
            pick = farthest.1;
        }
        landmarks
    }

    /// Length-weighted Dijkstra distances from `src`, one slot per
    /// junction (unreachable = ∞), by [`shortest_path`]'s own loop.
    ///
    /// [`shortest_path`]: crate::shortest_path
    fn distances_from(&self, src: JunctionId) -> Vec<f64> {
        let mut out = vec![f64::INFINITY; self.len()];
        let roads = |j| self.roads(j).iter().copied();
        dijkstra(&mut Heap::new(), &mut out, src.0, None, roads, |_, _, _| {});
        out
    }
}

/// Word-packed bounded-hop reachability: for every segment, a `u64`
/// bitmask of the segments within `hops` adjacency steps (including the
/// segment itself).
///
/// The temporal adversary's movement model asks "which observed
/// segments are within `h` hops of yesterday's candidate set?" — with
/// this index that is an OR of candidate masks followed by single-bit
/// tests, instead of a breadth-first expansion per owner per tick.
///
/// ```
/// use roadnet::{grid_city, index::ReachIndex, path::segments_within_hops, SegmentId};
/// let net = grid_city(5, 5, 100.0);
/// let reach = ReachIndex::build(&net, 2);
/// let ball = segments_within_hops(&net, SegmentId(7), 2);
/// for s in net.segment_ids() {
///     assert_eq!(reach.reaches(SegmentId(7), s), ball.contains(&s));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ReachIndex {
    hops: usize,
    words: usize,
    /// Segment-major: the mask of segment `s` is
    /// `bits[s·words .. (s+1)·words]`.
    bits: Vec<u64>,
}

impl ReachIndex {
    /// Builds the index for a fixed hop budget by `hops` rounds of
    /// bit-parallel dilation (`mask[s] |= mask[n]` for every neighbor).
    pub fn build(net: &RoadNetwork, hops: usize) -> Self {
        let s_count = net.segment_count();
        let words = s_count.div_ceil(64);
        let mut cur = vec![0u64; s_count * words];
        for i in 0..s_count {
            cur[i * words + i / 64] |= 1u64 << (i % 64);
        }
        let mut next = cur.clone();
        for _ in 0..hops {
            // Each row is its own mask, then ORs in its CSR neighbors'.
            for seg in 0..s_count {
                let dst = seg * words;
                next[dst..dst + words].copy_from_slice(&cur[dst..dst + words]);
                for &n in net.neighbor_segments_csr(SegmentId(seg as u32)) {
                    let src = n.index() * words;
                    for w in 0..words {
                        next[dst + w] |= cur[src + w];
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        ReachIndex {
            hops,
            words,
            bits: cur,
        }
    }

    /// The hop budget the index was built for.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Byte size of the packed mask matrix (`segment_count² / 8`,
    /// rounded up to whole words per row) — what a budget decision at
    /// city scale is really about.
    pub fn packed_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Words per mask (`ceil(segment_count / 64)`).
    pub fn words_per_mask(&self) -> usize {
        self.words
    }

    /// The packed mask of segments within the hop budget of `s`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from the indexed network
    /// never are).
    pub fn mask(&self, s: SegmentId) -> &[u64] {
        &self.bits[s.index() * self.words..(s.index() + 1) * self.words]
    }

    /// Whether `to` is within the hop budget of `from`.
    pub fn reaches(&self, from: SegmentId, to: SegmentId) -> bool {
        Self::mask_contains(self.mask(from), to)
    }

    /// Tests one bit of a packed mask (e.g. an OR-accumulated union of
    /// per-segment masks). Out-of-range ids test false.
    pub fn mask_contains(mask: &[u64], s: SegmentId) -> bool {
        mask.get(s.index() / 64)
            .is_some_and(|&w| w & (1u64 << (s.index() % 64)) != 0)
    }

    /// ORs the masks of `sources` into `acc` (cleared and resized to
    /// [`words_per_mask`](Self::words_per_mask) first): the packed set
    /// of segments within the hop budget of *any* source.
    pub fn union_into<I: IntoIterator<Item = SegmentId>>(&self, sources: I, acc: &mut Vec<u64>) {
        acc.clear();
        acc.resize(self.words, 0);
        for s in sources {
            for (a, &w) in acc.iter_mut().zip(self.mask(s)) {
                *a |= w;
            }
        }
    }
}

/// The built-once graph index of a [`RoadNetwork`]: a [`LandmarkTable`]
/// plus a per-hop-budget cache of [`ReachIndex`]es. Obtain one through
/// [`RoadNetwork::graph_index`] (built lazily, shared by every reader)
/// or build standalone with [`GraphIndex::build`].
///
/// Every [`TripRouter`](crate::TripRouter), and so every
/// `mobisim::Simulation`, reads the landmark table through
/// [`RoadNetwork::graph_index`]; [`RoadNetwork::share_index`] lets a
/// simulation and the services beside it use one index.
#[derive(Debug)]
pub struct GraphIndex {
    landmarks: LandmarkTable,
    /// Lazily built reach indexes for hop budgets `0..=MAX_CACHED_HOPS`.
    reach: Vec<OnceLock<Arc<ReachIndex>>>,
}

impl GraphIndex {
    /// Builds with the default [`IndexBudget`] and one worker per core
    /// (the parallel build is bit-identical to the serial one); reach
    /// masks are built per hop budget on first use.
    pub fn build(net: &RoadNetwork) -> Self {
        Self::build_with(net, &IndexBudget::default(), 0)
    }

    /// Builds the landmark table eagerly under an explicit budget,
    /// fanning the per-landmark Dijkstras out to `workers` workers
    /// (`0` = one per core; output is bit-identical at every worker
    /// count). Reach masks are built lazily for hop budgets up
    /// to `budget.reach_hop_cap` and never cached beyond it.
    pub fn build_with(net: &RoadNetwork, budget: &IndexBudget, workers: usize) -> Self {
        GraphIndex {
            landmarks: LandmarkTable::build_with(net, budget.landmarks, workers),
            reach: (0..=budget.reach_hop_cap)
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The landmark distance table.
    pub fn landmarks(&self) -> &LandmarkTable {
        &self.landmarks
    }

    /// The largest hop count this index will cache a [`ReachIndex`]
    /// for ([`MAX_CACHED_HOPS`] unless built with a tighter
    /// [`IndexBudget`]).
    pub fn reach_hop_cap(&self) -> usize {
        self.reach.len().saturating_sub(1)
    }

    /// The reachability index for `hops` if it fits the build budget:
    /// built on first use, cached, shared. Returns `None` beyond the
    /// budget's hop cap — the signal for consumers (the temporal
    /// adversary's movement model) to take their BFS fallback instead
    /// of forcing a quadratic-memory build on a huge map.
    pub fn reach_cached(&self, net: &RoadNetwork, hops: usize) -> Option<Arc<ReachIndex>> {
        self.reach
            .get(hops)
            .map(|cell| Arc::clone(cell.get_or_init(|| Arc::new(ReachIndex::build(net, hops)))))
    }

    /// The reachability index for `hops`, cached within the budget's
    /// hop cap and built uncached (every call pays the full build)
    /// beyond it. `net` must be the network this index was built from
    /// (callers going through [`RoadNetwork::reach_index`] get that for
    /// free).
    pub fn reach(&self, net: &RoadNetwork, hops: usize) -> Arc<ReachIndex> {
        self.reach_cached(net, hops)
            .unwrap_or_else(|| Arc::new(ReachIndex::build(net, hops)))
    }
}

/// Lazy [`GraphIndex`] cell embedded in [`RoadNetwork`]. Purely derived
/// state: plain clones start empty (the clone rebuilds on demand) and
/// every cell compares equal, so the network's `Clone`/`PartialEq`
/// semantics are unchanged by the cache. The index sits behind an
/// `Arc` so [`RoadNetwork::share_index`] can hand an already-built
/// index to a copy without rebuilding (seconds per clone at city
/// scale).
#[derive(Default)]
pub(crate) struct IndexCell(pub(crate) OnceLock<Arc<GraphIndex>>);

impl IndexCell {
    /// A cell pre-seeded with an already-built shared index.
    pub(crate) fn prebuilt(index: Arc<GraphIndex>) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(index);
        IndexCell(cell)
    }
}

impl Clone for IndexCell {
    fn clone(&self) -> Self {
        IndexCell::default()
    }
}

impl PartialEq for IndexCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for IndexCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IndexCell({})",
            if self.0.get().is_some() {
                "built"
            } else {
                "empty"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{grid_city, irregular_city, IrregularConfig};

    /// The brute-force nearest segment by `(distance, segment id)`.
    fn brute_nearest(net: &RoadNetwork, p: Point) -> (SegmentId, f64) {
        net.segments()
            .map(|seg| {
                let a = net.junction(seg.a()).position();
                let b = net.junction(seg.b()).position();
                (seg.id(), point_segment_distance(p, a, b))
            })
            .min_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)))
            .unwrap()
    }

    #[test]
    fn nearest_matches_brute_force() {
        // Irregular roads, a grid whose ties are everywhere, and a city
        // with long roads; query points run past the bounding box, and
        // the cells run from tiny (raised by the cap) to map-sized.
        let maps = [
            irregular_city(&IrregularConfig {
                junctions: 120,
                segments: 160,
                seed: 3,
                ..Default::default()
            }),
            grid_city(7, 5, 100.0),
            crate::citygen::city_map(7, 2000),
        ];
        for net in &maps {
            let bb = net.bounding_box();
            let size = bb.width().max(bb.height());
            let mut indexes = vec![SegmentIndex::new(net)];
            for scale in [1e-4, 0.013, 0.08, 0.5, 1.0, 3.0] {
                indexes.push(SegmentIndex::build(net, size * scale));
            }
            let mut x = 0.37_f64;
            for i in 0..120 {
                // Cheap deterministic pseudo-random points, a fifth of
                // a map's extent past each side; every fourth point
                // sits on a grid line, where roads tie.
                x = (x * 997.0 + i as f64).fract();
                let y = (x * 13.7).fract();
                let mut p = Point::new(
                    bb.min.x + (x * 1.4 - 0.2) * bb.width(),
                    bb.min.y + (y * 1.4 - 0.2) * bb.height(),
                );
                if i % 4 == 0 {
                    p = Point::new((p.x / 50.0).round() * 50.0, (p.y / 50.0).round() * 50.0);
                }
                let expected = brute_nearest(net, p);
                for idx in &indexes {
                    assert_eq!(
                        idx.nearest_segment(p),
                        Some(expected),
                        "{p} with {:?} cells",
                        idx.grid_size()
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_breaks_ties_on_cell_edges() {
        // Grid roads on cell edges and query points on a 25 m lattice,
        // inside and around the map: many roads tie, some of them
        // exactly at the bound where the walk could stop.
        let net = grid_city(6, 5, 100.0);
        for cell in [25.0, 50.0, 100.0, 200.0] {
            let idx = SegmentIndex::build(&net, cell);
            for i in -8..=28 {
                for j in -8..=24 {
                    let p = Point::new(f64::from(i) * 25.0, f64::from(j) * 25.0);
                    assert_eq!(
                        idx.nearest_segment(p),
                        Some(brute_nearest(&net, p)),
                        "{p} with {cell} m cells"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_from_far_away_still_works() {
        // Two corner roads tie exactly at (-5000, -5000): the smaller id
        // wins, as in the brute force.
        let net = grid_city(3, 3, 100.0);
        let p = Point::new(-5000.0, -5000.0);
        for idx in [SegmentIndex::new(&net), SegmentIndex::build(&net, 64.0)] {
            let (seg, d) = idx.nearest_segment(p).unwrap();
            assert!((d - (5000.0_f64.powi(2) * 2.0).sqrt()).abs() < 1.0);
            assert_eq!((seg, d), brute_nearest(&net, p));
        }
    }

    #[test]
    fn grid_size_sane() {
        let net = grid_city(5, 5, 100.0);
        let idx = SegmentIndex::build(&net, 100.0);
        let (c, r) = idx.grid_size();
        assert!(c >= 4 && r >= 4);
        assert_eq!(idx.bounds(), net.bounding_box());
    }

    #[test]
    fn roads_register_only_in_cells_they_cross() {
        // A diagonal road across a 100 × 100 grid of 1 m cells, among
        // 2,500 short roads: it runs through cell corners, so it covers
        // the diagonal and, within the margin, its neighbours, not the
        // 10,000 cells of its bounding box.
        let mut b = crate::RoadNetworkBuilder::new();
        let (j0, j1) = (
            b.add_junction(Point::new(0.0, 0.0)),
            b.add_junction(Point::new(100.0, 100.0)),
        );
        b.add_segment(j0, j1).unwrap();
        for i in 0..2_500 {
            let (x, y) = (f64::from(i % 50) * 2.0 + 0.2, f64::from(i / 50) * 2.0 + 0.5);
            let a = b.add_junction(Point::new(x, y));
            let c = b.add_junction(Point::new(x + 0.5, y));
            b.add_segment(a, c).unwrap();
        }
        let net = b.build().unwrap();
        let idx = SegmentIndex::build(&net, 1.0);
        assert_eq!(idx.grid_size(), (100, 100));
        let diagonal = idx.entries.iter().filter(|s| s.0 == 0).count();
        assert!((100..=3 * 100 + 2).contains(&diagonal), "{diagonal} cells");
        // Each short road lies inside one cell.
        assert_eq!(idx.entries.len(), diagonal + 2_500);
    }

    #[test]
    fn map_without_roads_has_no_nearest_segment() {
        let mut b = crate::RoadNetworkBuilder::new();
        b.add_junction(Point::new(3.0, 4.0));
        let idx = SegmentIndex::new(&b.build().unwrap());
        assert_eq!(idx.grid_size(), (1, 1));
        assert_eq!(idx.nearest_segment(Point::new(0.0, 0.0)), None);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let net = grid_city(2, 2, 10.0);
        let _ = SegmentIndex::build(&net, 0.0);
    }

    #[test]
    fn parallel_landmark_build_is_bit_identical_at_every_worker_count() {
        // Property over several map shapes and seeds: the scoped-thread
        // build must write the same bytes as the serial one, bit for
        // bit (f64 compared through to_bits, not ==).
        let maps = [
            crate::citygen::city_map(5, 2000),
            irregular_city(&IrregularConfig {
                junctions: 300,
                segments: 400,
                seed: 17,
                ..Default::default()
            }),
            grid_city(9, 13, 80.0),
            two_islands(),
        ];
        for net in &maps {
            let serial = LandmarkTable::build_with(net, DEFAULT_LANDMARKS, 1);
            for workers in [2usize, 3, 5, 8, 32] {
                let par = LandmarkTable::build_with(net, DEFAULT_LANDMARKS, workers);
                assert_eq!(par.landmarks, serial.landmarks, "workers={workers}");
                assert_eq!(par.dist.len(), serial.dist.len(), "workers={workers}");
                for (i, (a, b)) in serial.dist.iter().zip(par.dist.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "row slot {i} at workers={workers}"
                    );
                }
            }
        }
    }

    /// Two 3 × 4 grids 10 km apart: no road joins them.
    fn two_islands() -> RoadNetwork {
        let mut b = crate::RoadNetworkBuilder::new();
        for island in [0.0, 10_000.0] {
            let base = grid_city(3, 4, 100.0);
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
        b.build().unwrap()
    }

    #[test]
    fn landmark_rows_stay_exact_shortest_distances() {
        // Every row slot has the bits of Dijkstra's length, or is
        // infinite where no route exists.
        let maps = [
            grid_city(6, 6, 100.0),
            crate::citygen::city_map(7, 500),
            two_islands(),
        ];
        for net in &maps {
            let table = LandmarkTable::build(net, DEFAULT_LANDMARKS);
            assert!(table.count() >= 2);
            for (l, &lm) in table.landmarks().iter().enumerate() {
                for j in net.junction_ids() {
                    let row = table.at(j);
                    match crate::path::shortest_path(net, lm, j) {
                        Some(r) => assert_eq!(row[l].to_bits(), r.length.to_bits(), "{lm} -> {j}"),
                        None => assert_eq!(row[l], f64::INFINITY, "{lm} -> {j}"),
                    }
                }
            }
        }
    }

    #[test]
    fn more_landmarks_keep_the_first_sixteen() {
        // Selection is greedy, so the first 16 picks of a 32-landmark
        // table, and their rows, are the 16-landmark table's.
        let net = crate::citygen::city_map(7, 1000);
        let wide = LandmarkTable::build(&net, 32);
        let narrow = LandmarkTable::build(&net, 16);
        assert_eq!((wide.count(), narrow.count()), (32, 16));
        assert_eq!(&wide.landmarks()[..16], narrow.landmarks());
        for j in net.junction_ids() {
            let (w, n) = (&wide.at(j)[..16], narrow.at(j));
            assert!(
                w.iter().zip(n).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{j}"
            );
        }
    }

    #[test]
    fn budget_caps_reach_caching_and_landmark_count() {
        let net = grid_city(8, 8, 100.0);
        let budget = IndexBudget {
            landmarks: 4,
            reach_hop_cap: 2,
        };
        let index = GraphIndex::build_with(&net, &budget, 2);
        assert_eq!(index.landmarks().count(), 4);
        assert_eq!(
            GraphIndex::build(&net).landmarks().count(),
            DEFAULT_LANDMARKS
        );
        // Fewer junctions than the budget: every one becomes a landmark.
        assert_eq!(
            LandmarkTable::build(&two_islands(), DEFAULT_LANDMARKS).count(),
            24
        );
        assert_eq!(index.reach_hop_cap(), 2);
        assert!(index.reach_cached(&net, 2).is_some());
        assert!(index.reach_cached(&net, 3).is_none());
        // Beyond the cap `reach` still answers (uncached).
        assert_eq!(index.reach(&net, 3).hops(), 3);
        assert!(index.reach(&net, 1).packed_bytes() > 0);
    }
}
