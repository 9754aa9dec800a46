//! Spatial and graph indexes over a road network.
//!
//! Two families live here:
//!
//! * [`SegmentIndex`] — a uniform-grid *spatial* index, used by the trace
//!   generator (snap a Gaussian sample to the nearest road) and the
//!   renderers (cull segments outside the viewport);
//! * [`GraphIndex`] — a read-only, built-once *graph* index: an
//!   ALT-style [`LandmarkTable`] of exact road distances from a handful
//!   of far-apart junctions, and word-packed bounded-hop
//!   [`ReachIndex`] reachability masks. Query-time consumers (the LBS
//!   candidate search, the trip router's landmark bound, the temporal
//!   adversary's movement model) trade per-query graph traversals for
//!   lookups into these tables — the
//!   amortize-the-setup pattern the ROADMAP's hardware-speed goal calls
//!   for. The index is derived state: it never feeds the cloaking
//!   draws, so receipts are byte-identical with or without it.
//!
//! [`RoadNetwork::graph_index`] builds the graph index lazily (behind a
//! `OnceLock`) on first use and shares it with every reader.

use crate::geometry::{point_segment_distance, BoundingBox, Point};
use crate::graph::{JunctionId, RoadNetwork, SegmentId};
use std::sync::{Arc, OnceLock};

/// A uniform-grid spatial index over the segments of a road network.
///
/// ```
/// use roadnet::{generate::grid_city, index::SegmentIndex, geometry::Point};
/// let net = grid_city(5, 5, 100.0);
/// let idx = SegmentIndex::build(&net, 64.0);
/// let (seg, d) = idx.nearest_segment(&net, Point::new(151.0, 207.0)).unwrap();
/// assert!(d <= 10.0);
/// # let _ = seg;
/// ```
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    bounds: BoundingBox,
    cell: f64,
    cols: usize,
    rows: usize,
    /// For each grid cell, the segments whose bounding box overlaps it.
    cells: Vec<Vec<SegmentId>>,
}

impl SegmentIndex {
    /// Builds the index with the given cell size in meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive or the network has no
    /// junctions.
    pub fn build(net: &RoadNetwork, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let bounds = net.bounding_box();
        assert!(!bounds.is_empty(), "cannot index an empty network");
        let cols = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        let mut cells = vec![Vec::new(); cols * rows];
        let mut index = SegmentIndex {
            bounds,
            cell: cell_size,
            cols,
            rows,
            cells: Vec::new(),
        };
        for seg in net.segments() {
            let pa = net.junction(seg.a()).position();
            let pb = net.junction(seg.b()).position();
            let bb = BoundingBox::from_corners(pa, pb);
            let (c0, r0) = index.cell_of(bb.min);
            let (c1, r1) = index.cell_of(bb.max);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    cells[r * cols + c].push(seg.id());
                }
            }
        }
        index.cells = cells;
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

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let c = ((p.x - self.bounds.min.x) / self.cell).floor();
        let r = ((p.y - self.bounds.min.y) / self.cell).floor();
        (
            (c.max(0.0) as usize).min(self.cols - 1),
            (r.max(0.0) as usize).min(self.rows - 1),
        )
    }

    /// Segments whose bounding boxes intersect the query box. May contain
    /// duplicates-free deterministic order.
    pub fn segments_in_box(&self, query: BoundingBox) -> Vec<SegmentId> {
        if query.is_empty() {
            return Vec::new();
        }
        let (c0, r0) = self.cell_of(query.min);
        let (c1, r1) = self.cell_of(query.max);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for r in r0..=r1 {
            for c in c0..=c1 {
                for &s in &self.cells[r * self.cols + c] {
                    if seen.insert(s) {
                        out.push(s);
                    }
                }
            }
        }
        out
    }

    /// The segment nearest to `p` and its distance, or `None` for a network
    /// with no segments.
    ///
    /// Searches outward ring by ring, so the cost is proportional to the
    /// local density rather than the network size.
    pub fn nearest_segment(&self, net: &RoadNetwork, p: Point) -> Option<(SegmentId, f64)> {
        if net.segment_count() == 0 {
            return None;
        }
        let (pc, pr) = self.cell_of(p);
        let max_ring = self.cols.max(self.rows);
        let mut best: Option<(SegmentId, f64)> = None;
        for ring in 0..=max_ring {
            // Once we have a candidate, one extra ring is enough to make the
            // result exact (a closer segment can only live one ring further
            // than the ring where the candidate was found).
            if let Some((_, d)) = best {
                if d <= (ring.saturating_sub(1)) as f64 * self.cell {
                    break;
                }
            }
            let mut any_cell = false;
            for (c, r) in ring_cells(pc, pr, ring, self.cols, self.rows) {
                any_cell = true;
                for &s in &self.cells[r * self.cols + c] {
                    let seg = net.segment(s);
                    let d = point_segment_distance(
                        p,
                        net.junction(seg.a()).position(),
                        net.junction(seg.b()).position(),
                    );
                    if best.is_none_or(|(bs, bd)| d < bd || (d == bd && s < bs)) {
                        best = Some((s, d));
                    }
                }
            }
            if !any_cell && ring > 0 && best.is_some() {
                break;
            }
        }
        best
    }
}

/// The cells on the square ring at Chebyshev distance `ring` from `(pc,
/// pr)`, clipped to the grid.
fn ring_cells(pc: usize, pr: usize, ring: usize, cols: usize, rows: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (pc, pr, ring) = (pc as isize, pr as isize, ring as isize);
    let inside =
        |c: isize, r: isize| c >= 0 && r >= 0 && (c as usize) < cols && (r as usize) < rows;
    if ring == 0 {
        if inside(pc, pr) {
            out.push((pc as usize, pr as usize));
        }
        return out;
    }
    for c in (pc - ring)..=(pc + ring) {
        for r in [pr - ring, pr + ring] {
            if inside(c, r) {
                out.push((c as usize, r as usize));
            }
        }
    }
    for r in (pr - ring + 1)..=(pr + ring - 1) {
        for c in [pc - ring, pc + ring] {
            if inside(c, r) {
                out.push((c as usize, r as usize));
            }
        }
    }
    out
}

/// Number of landmarks a [`GraphIndex`] selects by default. Sixteen
/// far-apart junctions give tight triangle-inequality bounds on maps up
/// to the paper's Atlanta-scale evaluation network while keeping the
/// table at `16 × junction_count` doubles.
pub const DEFAULT_LANDMARKS: usize = 16;

/// Hop counts up to this value get their [`ReachIndex`] cached inside
/// the [`GraphIndex`]; larger (pathological) hop budgets are built on
/// demand without caching.
pub const MAX_CACHED_HOPS: usize = 16;

/// Build budget for a [`GraphIndex`]: how many landmarks to select and
/// up to which hop count reach masks may be cached.
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
    /// Landmarks the [`LandmarkTable`] selects (farthest-point sampling
    /// stops early on tiny maps regardless).
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

/// Resolves a worker-count knob: `0` means one worker per available
/// core; the result is clamped to `[1, jobs]`.
fn effective_workers(requested: usize, jobs: usize) -> usize {
    let req = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    };
    req.clamp(1, jobs.max(1))
}

/// ALT-style landmark distance table: exact road distances from a small
/// set of far-apart junctions (selected by farthest-point sampling) to
/// every junction of the network.
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
/// ```
#[derive(Debug, Clone)]
pub struct LandmarkTable {
    landmarks: Vec<JunctionId>,
    /// Row-major `landmarks.len() × junction_count` distances;
    /// `f64::INFINITY` marks a junction unreachable from the landmark.
    dist: Vec<f64>,
    junctions: usize,
}

impl LandmarkTable {
    /// Builds a table of (at most) `count` landmarks with a single
    /// worker; see [`build_with`](Self::build_with).
    pub fn build(net: &RoadNetwork, count: usize) -> Self {
        Self::build_with(net, count, 1)
    }

    /// Builds a table of (at most) `count` landmarks by farthest-point
    /// sampling: the first landmark is junction 0, each next one is the
    /// junction farthest (in hops) from all landmarks chosen so far
    /// (unreachable counts as farthest, covering disconnected
    /// components first).
    ///
    /// The build is two-phase. Selection runs a cheap serial BFS pass
    /// per landmark (hop metric — selection only needs *far apart*, not
    /// exact meters, and each pick depends on the previous one, so this
    /// phase is inherently sequential). The exact length-weighted
    /// Dijkstra rows — the build-time bottleneck at city scale — are
    /// then computed across `workers` scoped threads (`0` = one per
    /// core), each writing its own disjoint row of the flat distance
    /// arena: the table is bit-identical regardless of the worker
    /// count.
    pub fn build_with(net: &RoadNetwork, count: usize, workers: usize) -> Self {
        let n = net.junction_count();
        let mut table = LandmarkTable {
            landmarks: Vec::new(),
            dist: Vec::new(),
            junctions: n,
        };
        if n == 0 || count == 0 {
            return table;
        }
        // Phase 1: serial hop-metric farthest-point selection.
        let mut row = vec![u32::MAX; n];
        let mut min_to_landmarks = vec![u32::MAX; n];
        let mut next = JunctionId(0);
        for _ in 0..count.min(n) {
            hop_bfs(net, next, &mut row);
            table.landmarks.push(next);
            let mut best = (0u32, None);
            for (i, (&d, m)) in row.iter().zip(min_to_landmarks.iter_mut()).enumerate() {
                *m = (*m).min(d);
                // Strict `>` keeps the pick deterministic (first max wins);
                // u32::MAX (unreachable) beats any finite hop count, so
                // uncovered components are landmarked before covered ones
                // densify.
                if *m > best.0 {
                    best = (*m, Some(JunctionId(i as u32)));
                }
            }
            match best.1 {
                Some(j) if best.0 > 0 => next = j,
                // Every junction is already a landmark (tiny maps).
                _ => break,
            }
        }
        // Phase 2: exact Dijkstra rows, one per landmark, across the
        // worker pool. Rows are disjoint `n`-sized slices of the flat
        // arena claimed through an atomic cursor, so every schedule
        // writes identical bytes.
        let picked = table.landmarks.len();
        table.dist = vec![f64::INFINITY; picked * n];
        let workers = effective_workers(workers, picked);
        if workers <= 1 {
            for (l, chunk) in table.dist.chunks_mut(n).enumerate() {
                sssp(net, table.landmarks[l], chunk);
            }
        } else {
            let landmarks = &table.landmarks;
            let mut buckets: Vec<Vec<(usize, &mut [f64])>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (l, row) in table.dist.chunks_mut(n).enumerate() {
                buckets[l % workers].push((l, row));
            }
            std::thread::scope(|scope| {
                for bucket in buckets {
                    scope.spawn(move || {
                        for (l, row) in bucket {
                            sssp(net, landmarks[l], row);
                        }
                    });
                }
            });
        }
        table
    }

    /// Number of landmarks actually selected.
    pub fn count(&self) -> usize {
        self.landmarks.len()
    }

    /// The selected landmark junctions.
    pub fn landmarks(&self) -> &[JunctionId] {
        &self.landmarks
    }

    /// Exact road distances from landmark `l` (an index into
    /// [`landmarks`](Self::landmarks)) to every junction, indexed by
    /// junction id; `f64::INFINITY` for unreachable junctions.
    ///
    /// # Panics
    ///
    /// Panics if `l ≥ count()`.
    pub fn distances(&self, l: usize) -> &[f64] {
        &self.dist[l * self.junctions..(l + 1) * self.junctions]
    }

    /// Every row of [`distances`](Self::distances), landmark-major, in
    /// one slice.
    pub(crate) fn rows(&self) -> &[f64] {
        &self.dist
    }

    /// A lower bound on the road distance between two junctions:
    /// `max_l |d(l,a) − d(l,b)|`. Returns `f64::INFINITY` exactly when
    /// some landmark proves the junctions lie in different components.
    pub fn lower_bound(&self, a: JunctionId, b: JunctionId) -> f64 {
        let mut lb = 0.0f64;
        for l in 0..self.count() {
            let row = self.distances(l);
            let (da, db) = (row[a.index()], row[b.index()]);
            match (da.is_finite(), db.is_finite()) {
                (true, true) => lb = lb.max((da - db).abs()),
                // One side reachable from `l`, the other not: different
                // components, the true distance is infinite.
                (true, false) | (false, true) => return f64::INFINITY,
                // `l` sees neither: no information.
                (false, false) => {}
            }
        }
        lb
    }

    /// An upper bound on the road distance between two junctions:
    /// `min_l d(l,a) + d(l,b)` (`f64::INFINITY` when no landmark
    /// reaches both).
    pub fn upper_bound(&self, a: JunctionId, b: JunctionId) -> f64 {
        let mut ub = f64::INFINITY;
        for l in 0..self.count() {
            let row = self.distances(l);
            ub = ub.min(row[a.index()] + row[b.index()]);
        }
        ub
    }
}

/// Single-source breadth-first hop distances from `src` into `out`
/// (`u32::MAX` = unreachable). The landmark-selection metric: two
/// orders of magnitude cheaper than a Dijkstra and good enough to find
/// far-apart junctions.
fn hop_bfs(net: &RoadNetwork, src: JunctionId, out: &mut [u32]) {
    out.fill(u32::MAX);
    let mut frontier = vec![src];
    let mut next = Vec::new();
    out[src.index()] = 0;
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        for &j in &frontier {
            for &s in net.incident_segments(j) {
                let other = net.segment(s).other_endpoint(j).expect("incident endpoint");
                if out[other.index()] == u32::MAX {
                    out[other.index()] = depth;
                    next.push(other);
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// Single-source shortest-path distances (length-weighted Dijkstra) from
/// `src` into `out` (one slot per junction; unreachable = ∞).
fn sssp(net: &RoadNetwork, src: JunctionId, out: &mut [f64]) {
    use std::collections::BinaryHeap;
    out.fill(f64::INFINITY);
    // (negated distance, junction) so the max-heap pops nearest first;
    // distances are finite non-NaN by construction.
    #[derive(PartialEq)]
    struct Entry(f64, u32);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .partial_cmp(&self.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut heap = BinaryHeap::new();
    out[src.index()] = 0.0;
    heap.push(Entry(0.0, src.0));
    while let Some(Entry(d, j)) = heap.pop() {
        let j = JunctionId(j);
        if d > out[j.index()] {
            continue;
        }
        for &s in net.incident_segments(j) {
            let seg = net.segment(s);
            let other = seg.other_endpoint(j).expect("incident endpoint");
            let nd = d + seg.length();
            if nd < out[other.index()] {
                out[other.index()] = nd;
                heap.push(Entry(nd, other.0));
            }
        }
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
    /// Builds the index for a fixed hop budget with a single worker;
    /// see [`build_with`](Self::build_with).
    pub fn build(net: &RoadNetwork, hops: usize) -> Self {
        Self::build_with(net, hops, 1)
    }

    /// Builds the index for a fixed hop budget by `hops` rounds of
    /// bit-parallel dilation (`mask[s] |= mask[n]` for every neighbor).
    ///
    /// Each dilation round writes disjoint row chunks of the `next`
    /// buffer from the read-only `cur` buffer, so the rounds fan out
    /// across `workers` scoped threads (`0` = one per core) with
    /// bit-identical output at every worker count.
    pub fn build_with(net: &RoadNetwork, hops: usize, workers: usize) -> Self {
        let s_count = net.segment_count();
        let words = s_count.div_ceil(64);
        if s_count == 0 {
            return ReachIndex {
                hops,
                words,
                bits: Vec::new(),
            };
        }
        let mut cur = vec![0u64; s_count * words];
        for i in 0..s_count {
            cur[i * words + i / 64] |= 1u64 << (i % 64);
        }
        let workers = effective_workers(workers, s_count);
        let chunk_rows = s_count.div_ceil(workers).max(1);
        let mut next = cur.clone();
        for _ in 0..hops {
            if workers <= 1 {
                dilate_rows(net, &cur, &mut next, 0, s_count, words);
            } else {
                let cur_ref = &cur;
                std::thread::scope(|scope| {
                    for (c, chunk) in next.chunks_mut(chunk_rows * words).enumerate() {
                        let first = c * chunk_rows;
                        let count = chunk.len() / words.max(1);
                        scope.spawn(move || {
                            dilate_rows(net, cur_ref, chunk, first, count, words);
                        });
                    }
                });
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

/// One dilation round over rows `[first, first + rows)`: copy each row
/// from `cur`, then OR in the `cur` rows of its CSR neighbors. `out` is
/// the (worker-local) destination slice whose row 0 is global row
/// `first`.
fn dilate_rows(
    net: &RoadNetwork,
    cur: &[u64],
    out: &mut [u64],
    first: usize,
    rows: usize,
    words: usize,
) {
    for r in 0..rows {
        let seg = first + r;
        let dst = r * words;
        out[dst..dst + words].copy_from_slice(&cur[seg * words..(seg + 1) * words]);
        for &n in net.neighbor_segments_csr(SegmentId(seg as u32)) {
            let src = n.index() * words;
            for w in 0..words {
                out[dst + w] |= cur[src + w];
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
    /// fanning the per-landmark Dijkstras across `workers` scoped
    /// threads (`0` = one per core; output is bit-identical at every
    /// worker count). Reach masks are built lazily for hop budgets up
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

    #[test]
    fn nearest_matches_brute_force() {
        let net = irregular_city(&IrregularConfig {
            junctions: 120,
            segments: 160,
            seed: 3,
            ..Default::default()
        });
        let idx = SegmentIndex::build(&net, 80.0);
        let bb = net.bounding_box();
        let mut rng_x = 0.37_f64;
        for i in 0..50 {
            // Cheap deterministic pseudo-random points.
            rng_x = (rng_x * 997.0 + i as f64).fract();
            let p = Point::new(
                bb.min.x + rng_x * bb.width(),
                bb.min.y + ((rng_x * 13.7).fract()) * bb.height(),
            );
            let (got, gd) = idx.nearest_segment(&net, p).unwrap();
            // Brute force.
            let mut best = None;
            for seg in net.segments() {
                let d = point_segment_distance(
                    p,
                    net.junction(seg.a()).position(),
                    net.junction(seg.b()).position(),
                );
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((seg.id(), d));
                }
            }
            let (_, bd) = best.unwrap();
            assert!(
                (gd - bd).abs() < 1e-9,
                "index found distance {gd}, brute force {bd} for {p} (segment {got})"
            );
        }
    }

    #[test]
    fn query_box_returns_overlapping_segments() {
        let net = grid_city(5, 5, 100.0);
        let idx = SegmentIndex::build(&net, 50.0);
        let q = BoundingBox::from_corners(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let found = idx.segments_in_box(q);
        // The 2x2 corner block has 4 horizontal + 4 vertical candidate
        // segments overlapping the box (by bounding boxes, a superset is
        // allowed but every true overlap must be present).
        for seg in net.segments() {
            let pa = net.junction(seg.a()).position();
            let pb = net.junction(seg.b()).position();
            if BoundingBox::from_corners(pa, pb).intersects(&q) {
                assert!(found.contains(&seg.id()), "missing {}", seg.id());
            }
        }
        assert!(idx.segments_in_box(BoundingBox::empty()).is_empty());
    }

    #[test]
    fn nearest_from_far_away_still_works() {
        let net = grid_city(3, 3, 100.0);
        let idx = SegmentIndex::build(&net, 64.0);
        let (_, d) = idx
            .nearest_segment(&net, Point::new(-5000.0, -5000.0))
            .unwrap();
        assert!((d - (5000.0_f64.powi(2) * 2.0).sqrt()).abs() < 1.0);
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

    #[test]
    fn parallel_reach_build_is_bit_identical_at_every_worker_count() {
        let net = crate::citygen::city_map(8, 1500);
        for hops in [1usize, 3, 5] {
            let serial = ReachIndex::build_with(&net, hops, 1);
            for workers in [2usize, 4, 7, 16] {
                let par = ReachIndex::build_with(&net, hops, workers);
                assert_eq!(par.bits, serial.bits, "hops={hops} workers={workers}");
            }
        }
    }

    #[test]
    fn landmark_rows_stay_exact_shortest_distances() {
        // The two-phase build must still produce exact Dijkstra rows.
        let net = grid_city(6, 6, 100.0);
        let table = LandmarkTable::build(&net, 4);
        for (l, &lm) in table.landmarks().iter().enumerate() {
            let row = table.distances(l);
            for j in net.junction_ids() {
                let exact = crate::path::shortest_path(&net, lm, j).map(|r| r.length);
                match exact {
                    Some(d) => assert!((row[j.index()] - d).abs() < 1e-9),
                    None => assert!(row[j.index()].is_infinite()),
                }
            }
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
        assert_eq!(index.reach_hop_cap(), 2);
        assert!(index.reach_cached(&net, 2).is_some());
        assert!(index.reach_cached(&net, 3).is_none());
        // Beyond the cap `reach` still answers (uncached).
        assert_eq!(index.reach(&net, 3).hops(), 3);
        assert!(index.reach(&net, 1).packed_bytes() > 0);
    }
}
