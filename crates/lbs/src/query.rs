//! Anonymous query processing over cloaked regions.
//!
//! The paper bounds region size (`σs`) because it "has a direct influence
//! on the performance of the anonymous query processing technique
//! \[7\], \[9\]". This module is that technique, in the Casper/road-network
//! style: the LBS receives a *cloaking region* instead of a point, returns
//! a **candidate answer set** that is correct for *every* possible user
//! position in the region, and the client (who knows its true position)
//! refines locally.
//!
//! Two query types:
//! * [`range_query`] — POIs of a category within road distance `r` of any
//!   possible user position,
//! * [`nearest_query`] — candidate set guaranteed to contain the true
//!   nearest POI for every possible position.
//!
//! # Indexed search
//!
//! The pooled entry points ([`nearest_query_with`], [`range_query_with`])
//! consult the network's [`roadnet::LandmarkTable`] (built once, behind
//! the network's lazy [`roadnet::GraphIndex`]): landmark *upper* bounds
//! turn the nearest search's doubling multi-source Dijkstra into a
//! single goal-directed bounded search, and landmark *lower* bounds to
//! the category's POI endpoints prune frontier junctions that provably
//! cannot reach any relevant POI in budget. The pruning is conservative
//! (triangle inequality), so **candidate sets, distances and tie-breaks
//! are exactly those of a plain multi-source Dijkstra** with a doubling
//! limit; `tests/indexed_prop.rs` keeps that search as its reference
//! and property-tests the two equal. Only the
//! [`CandidateAnswer::segments_visited`] work counter differs (it
//! reports the work actually done, which is the point).

use crate::poi::{Poi, PoiCategory, PoiStore};
use roadnet::{JunctionId, LandmarkTable, RoadNetwork, SegmentId};
use std::collections::BinaryHeap;

/// The LBS answer: candidates plus the work the server did (the paper's
/// query-processing cost axes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateAnswer {
    /// POIs that could be the answer for some position in the region.
    pub candidates: Vec<Poi>,
    /// Segments the server expanded while processing.
    pub segments_visited: usize,
}

impl CandidateAnswer {
    /// Number of candidate POIs.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no POI qualified.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Running aggregate over many [`CandidateAnswer`]s — the LBS-side cost
/// rollup (candidate-set size, expansion work) a streaming pipeline
/// reports per tick, mirroring the paper's query-processing cost axes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    queries: u64,
    sum_candidates: u64,
    sum_visited: u64,
    max_candidates: usize,
}

impl QueryStats {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one answer in.
    pub fn record(&mut self, answer: &CandidateAnswer) {
        self.queries += 1;
        self.sum_candidates += answer.len() as u64;
        self.sum_visited += answer.segments_visited as u64;
        self.max_candidates = self.max_candidates.max(answer.len());
    }

    /// Answers recorded.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Mean candidate-set size (0 when empty).
    pub fn mean_candidates(&self) -> f64 {
        self.mean(self.sum_candidates)
    }

    /// Mean segments the server expanded per query (0 when empty).
    pub fn mean_segments_visited(&self) -> f64 {
        self.mean(self.sum_visited)
    }

    /// Largest candidate set seen.
    pub fn max_candidates(&self) -> usize {
        self.max_candidates
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.sum_candidates += other.sum_candidates;
        self.sum_visited += other.sum_visited;
        self.max_candidates = self.max_candidates.max(other.max_candidates);
    }

    fn mean(&self, sum: u64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            sum as f64 / self.queries as f64
        }
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries: {:.1} candidates mean (max {}), {:.1} segments visited mean",
            self.queries,
            self.mean_candidates(),
            self.max_candidates,
            self.mean_segments_visited()
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    d: f64,
    j: u32,
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .d
            .partial_cmp(&self.d)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.j.cmp(&self.j))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Pooled buffers for the LBS region-distance search: a flat distance
/// array keyed by junction index (generation-stamped, so resets are
/// `O(1)`), a segment-visit stamp array, a reusable binary heap, and the
/// per-query landmark buffers of the indexed searches.
///
/// # Reuse contract
///
/// One scratch per query-processing thread; results are bit-identical
/// for any scratch state (each search restarts the generation and the
/// heap before reading them). Reused across queries, the steady-state
/// search allocates nothing — the buffers grow once to the network's
/// size and the heap to the search's high-water mark.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    search: Search,
    landmarks: Landmarks,
}

impl SearchScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Dijkstra state of one region-distance search.
#[derive(Debug, Clone, Default)]
struct Search {
    dist: Vec<f64>,
    dist_stamp: Vec<u32>,
    seg_stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
}

impl Search {
    /// Starts a new search from the region: every endpoint of a region
    /// segment is a possible exit at distance 0 (the user could be
    /// anywhere on the segment, including its ends).
    fn start(&mut self, net: &RoadNetwork, region: &[SegmentId]) {
        let (junctions, segments) = (net.junction_count(), net.segment_count());
        if self.dist.len() < junctions {
            self.dist.resize(junctions, 0.0);
            self.dist_stamp.resize(junctions, 0);
        }
        if self.seg_stamp.len() < segments {
            self.seg_stamp.resize(segments, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.dist_stamp.fill(0);
            self.seg_stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
        for &s in region {
            let seg = net.segment(s);
            for j in [seg.a(), seg.b()] {
                if self.get(j).is_none_or(|d| d > 0.0) {
                    self.set(j, 0.0);
                    self.heap.push(HeapEntry { d: 0.0, j: j.0 });
                }
            }
        }
    }

    fn get(&self, j: JunctionId) -> Option<f64> {
        (self.dist_stamp[j.index()] == self.epoch).then(|| self.dist[j.index()])
    }

    fn set(&mut self, j: JunctionId, d: f64) {
        self.dist[j.index()] = d;
        self.dist_stamp[j.index()] = self.epoch;
    }

    /// Marks a segment visited; returns whether it was new this search.
    fn visit_segment(&mut self, s: SegmentId) -> bool {
        if self.seg_stamp[s.index()] == self.epoch {
            false
        } else {
            self.seg_stamp[s.index()] = self.epoch;
            true
        }
    }
}

/// The per-query landmark buffers of the indexed searches.
#[derive(Debug, Clone, Default)]
struct Landmarks {
    /// Per-landmark min/max distance to the query region's junctions.
    region_min: Vec<f64>,
    region_max: Vec<f64>,
    /// Per-landmark min/max distance to the queried category's POI
    /// segment endpoints (the goal set of the directed search).
    target_min: Vec<f64>,
    target_max: Vec<f64>,
    /// The landmarks that actually discriminate region from goal set
    /// for this query (checked per popped junction, so kept few).
    selected: Vec<u32>,
    /// The goal set's junction ids (two per category POI, in store
    /// order) and their landmark-routed distance upper bounds.
    endpoints: Vec<u32>,
    endpoint_ub: Vec<f64>,
}

/// How many landmarks the per-junction pruning bound consults. The
/// selection keeps only the most discriminating ones, so the check
/// stays a handful of flops on the Dijkstra's hottest line.
const SELECTED_LANDMARKS: usize = 4;

impl Landmarks {
    /// Profiles the goal set — the endpoints of every segment carrying a
    /// POI of `category` — and the region against the landmark table,
    /// then selects the landmarks that separate the two. Returns whether
    /// the category has any POI at all (the region is left unprofiled
    /// when it has none).
    fn profile(
        &mut self,
        net: &RoadNetwork,
        table: &LandmarkTable,
        store: &PoiStore,
        category: PoiCategory,
        region: &[SegmentId],
    ) -> bool {
        reset_envelope(table, &mut self.target_min, &mut self.target_max);
        // Gather the goal junctions once (the endpoint upper bounds reuse
        // the list), widening the envelope by each one's row.
        self.endpoints.clear();
        for poi in store.iter().filter(|p| p.category == category) {
            let seg = net.segment(poi.segment);
            for j in [seg.a(), seg.b()] {
                self.endpoints.push(j.0);
                envelope(table.at(j), &mut self.target_min, &mut self.target_max);
            }
        }
        if self.endpoints.is_empty() {
            return false;
        }
        reset_envelope(table, &mut self.region_min, &mut self.region_max);
        for &s in region {
            let seg = net.segment(s);
            for j in [seg.a(), seg.b()] {
                envelope(table.at(j), &mut self.region_min, &mut self.region_max);
            }
        }
        if region.is_empty() {
            self.region_max.fill(f64::INFINITY);
        }
        self.select();
        true
    }

    /// Picks up to [`SELECTED_LANDMARKS`] landmarks that separate the
    /// region envelope from the goal envelope — the only ones whose
    /// triangle bound can ever prune anything for this query. Using a
    /// subset is always sound (the bound over fewer landmarks is merely
    /// weaker).
    fn select(&mut self) {
        let (r_min, r_max) = (&self.region_min, &self.region_max);
        let (t_min, t_max) = (&self.target_min, &self.target_max);
        let mut scored: [(f64, u32); SELECTED_LANDMARKS] = [(0.0, u32::MAX); SELECTED_LANDMARKS];
        for l in 0..r_min.len() {
            let mut score = 0.0f64;
            if t_min[l].is_finite() && r_max[l].is_finite() {
                score = score.max(t_min[l] - r_max[l]);
            }
            if t_max[l].is_finite() {
                if r_min[l].is_finite() {
                    score = score.max(r_min[l] - t_max[l]);
                } else {
                    // The landmark reaches every goal endpoint but no
                    // region junction: the strongest possible
                    // discriminator.
                    score = f64::INFINITY;
                }
            }
            if score > scored[SELECTED_LANDMARKS - 1].0 {
                scored[SELECTED_LANDMARKS - 1] = (score, l as u32);
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            }
        }
        self.selected.clear();
        self.selected.extend(
            scored
                .iter()
                .filter(|&&(score, l)| score > 0.0 && l != u32::MAX)
                .map(|&(_, l)| l),
        );
    }

    /// Landmark lower bound on the distance from junction `j` to the
    /// profiled goal set, over the selected landmarks. Infinite when some
    /// landmark proves every goal endpoint unreachable from `j`; `0.0`
    /// when the landmarks say nothing.
    fn goal_lower_bound(&self, table: &LandmarkTable, j: JunctionId) -> f64 {
        let mut lb = 0.0f64;
        let row = table.at(j);
        for &l in &self.selected {
            let l = l as usize;
            let (tmin, tmax) = (self.target_min[l], self.target_max[l]);
            let dj = row[l];
            if dj.is_finite() {
                if tmin.is_finite() {
                    lb = lb.max(tmin - dj);
                }
                if tmax.is_finite() {
                    lb = lb.max(dj - tmax);
                }
            } else if tmax.is_finite() {
                // The landmark reaches every goal endpoint but not `j`:
                // `j` lies in a different component from the whole goal
                // set.
                return f64::INFINITY;
            }
        }
        lb
    }

    /// A landmark upper bound on the nearest-POI distance: region →
    /// landmark → POI endpoint (+ the POI's offset along its segment).
    /// Only worth its per-POI scan when the landmarks discriminate
    /// region from goal set (some landmark selected) — with goals
    /// surrounding the region the first real hit lands long before any
    /// bound would matter, so it is ∞ otherwise.
    fn nearest_upper_bound(
        &mut self,
        net: &RoadNetwork,
        table: &LandmarkTable,
        store: &PoiStore,
        category: PoiCategory,
    ) -> f64 {
        let mut best = f64::INFINITY;
        if self.selected.is_empty() {
            return best;
        }
        // ub[e] = min over landmarks of d(region, landmark) +
        // d(landmark, endpoint e), one endpoint's row at a time.
        let r_min = &self.region_min;
        self.endpoint_ub.clear();
        self.endpoint_ub.extend(self.endpoints.iter().map(|&j| {
            let row = table.at(JunctionId(j));
            r_min
                .iter()
                .zip(row)
                .filter(|(rm, _)| rm.is_finite())
                .fold(f64::INFINITY, |ub, (&rm, &d)| ub.min(rm + d))
        }));
        for (poi, ub) in store
            .iter()
            .filter(|p| p.category == category)
            .zip(self.endpoint_ub.chunks_exact(2))
        {
            let seg = net.segment(poi.segment);
            let via_a = ub[0] + poi.offset;
            let via_b = ub[1] + (seg.length() - poi.offset).max(0.0);
            best = best.min(via_a.min(via_b));
        }
        best
    }
}

/// Empties a per-landmark `min`/`max` envelope (∞/−∞ for every
/// landmark).
fn reset_envelope(table: &LandmarkTable, min: &mut Vec<f64>, max: &mut Vec<f64>) {
    min.clear();
    min.resize(table.count(), f64::INFINITY);
    max.clear();
    max.resize(table.count(), f64::NEG_INFINITY);
}

/// Widens the per-landmark `min`/`max` envelope by one junction's row.
/// Min and max are exact in any order, so sweeping junction by junction
/// gives the same envelope as sweeping landmark by landmark.
fn envelope(row: &[f64], min: &mut [f64], max: &mut [f64]) {
    for ((mn, mx), &d) in min.iter_mut().zip(max.iter_mut()).zip(row) {
        *mn = mn.min(d);
        *mx = mx.max(d);
    }
}

/// Multi-source Dijkstra from all junctions of the region's segments;
/// leaves road distance from the *nearest region segment* to every
/// junction reached within `limit` meters in `search`, returning the
/// number of segments the search expanded.
///
/// `goal_lower_bound(j)` bounds from below the distance from junction
/// `j` to any junction whose distance the caller reads. A popped
/// junction whose distance plus that bound overshoots `limit` is not
/// relaxed: no path through it can change a distance the answer reads. Its incident
/// segments still count as examined (the server looked at them),
/// keeping the work metric monotone in the budget. `|_| 0.0` never
/// prunes, because a popped junction is already within `limit`.
fn region_distances(
    net: &RoadNetwork,
    region: &[SegmentId],
    limit: f64,
    goal_lower_bound: impl Fn(JunctionId) -> f64,
    search: &mut Search,
) -> usize {
    search.start(net, region);
    let mut visited_segments = 0usize;
    while let Some(HeapEntry { d, j }) = search.heap.pop() {
        let j = JunctionId(j);
        if search.get(j).is_some_and(|cur| d > cur) {
            continue;
        }
        if d > limit {
            continue;
        }
        let prune = d + goal_lower_bound(j) > limit;
        for &s in net.incident_segments(j) {
            if search.visit_segment(s) {
                visited_segments += 1;
            }
            if prune {
                continue;
            }
            let seg = net.segment(s);
            let other = seg.other_endpoint(j).expect("incident endpoint");
            let nd = d + seg.length();
            if nd <= limit && search.get(other).is_none_or(|cur| nd < cur) {
                search.set(other, nd);
                search.heap.push(HeapEntry { d: nd, j: other.0 });
            }
        }
    }
    visited_segments
}

/// The nearest-search core: one goal-directed Dijkstra from the region
/// that *discovers its own budget*. Every settled junction scores the
/// POIs of `category` on its incident segments, shrinking the running
/// best-distance `d*`; the search stops as soon as the frontier passes
/// `d* + diameter` (the expansion bound every answer candidate must lie
/// within) and prunes junctions whose landmark lower bound to the goal
/// set overshoots the running budget. Distances of every junction the
/// answer can read are exactly those a plain doubling search reads in
/// its final iteration — without its restarts.
///
/// Returns the segments examined and the exact nearest-POI distance
/// (∞ when no POI of the category is reachable).
///
/// `best_seed` is any upper bound on the nearest-POI distance
/// ([`Landmarks::nearest_upper_bound`]); the running best only shrinks
/// from there as real hits are scored, so the search never explores past
/// the true expansion bound plus the seed's slack.
#[allow(clippy::too_many_arguments)]
fn region_distances_nearest_goal(
    net: &RoadNetwork,
    table: &LandmarkTable,
    store: &PoiStore,
    category: PoiCategory,
    region: &[SegmentId],
    diameter: f64,
    best_seed: f64,
    landmarks: &Landmarks,
    search: &mut Search,
) -> (usize, f64) {
    search.start(net, region);
    // A category POI on a region segment pins d* to 0 immediately (the
    // same short-circuit `poi_distance` applies).
    let mut best = if store
        .iter()
        .any(|p| p.category == category && region.contains(&p.segment))
    {
        0.0
    } else {
        best_seed
    };
    let mut visited_segments = 0usize;
    while let Some(HeapEntry { d, j }) = search.heap.pop() {
        let j = JunctionId(j);
        if search.get(j).is_some_and(|cur| d > cur) {
            continue;
        }
        // Keys pop in non-decreasing order: once the frontier passes the
        // running bound, no remaining entry can improve any candidate.
        let bound = best + diameter;
        if d > bound {
            break;
        }
        let prune = d + landmarks.goal_lower_bound(table, j) > bound;
        for &s in net.incident_segments(j) {
            if search.visit_segment(s) {
                visited_segments += 1;
            }
            let seg = net.segment(s);
            // Score this junction's POIs: the other endpoint contributes
            // when (and if) it settles.
            for poi in store.on_segment(s) {
                if poi.category == category {
                    let tail = if j == seg.a() {
                        poi.offset
                    } else {
                        (seg.length() - poi.offset).max(0.0)
                    };
                    best = best.min(d + tail);
                }
            }
            if prune {
                continue;
            }
            let other = seg.other_endpoint(j).expect("incident endpoint");
            let nd = d + seg.length();
            if nd <= bound && search.get(other).is_none_or(|cur| nd < cur) {
                search.set(other, nd);
                search.heap.push(HeapEntry { d: nd, j: other.0 });
            }
        }
    }
    (visited_segments, best)
}

/// Shortest road distance from the region to a POI, given the junction
/// distances left in `search` (`None` when the POI is out of range).
fn poi_distance(
    net: &RoadNetwork,
    search: &Search,
    region: &[SegmentId],
    poi: &Poi,
) -> Option<f64> {
    if region.contains(&poi.segment) {
        return Some(0.0);
    }
    let seg = net.segment(poi.segment);
    let via_a = search.get(seg.a()).map(|d| d + poi.offset);
    let via_b = search
        .get(seg.b())
        .map(|d| d + (seg.length() - poi.offset).max(0.0));
    match (via_a, via_b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// Range query: all POIs of `category` within road distance `radius` of
/// **any** possible user position in `region`.
///
/// The answer over-approximates the point-query answer (that is the
/// anonymity trade-off); the client refines with its true position.
pub fn range_query(
    net: &RoadNetwork,
    store: &PoiStore,
    region: &[SegmentId],
    category: PoiCategory,
    radius: f64,
) -> CandidateAnswer {
    range_query_with(
        net,
        store,
        region,
        category,
        radius,
        &mut SearchScratch::new(),
    )
}

/// [`range_query`] with caller-owned search buffers (see
/// [`SearchScratch`]); bit-identical candidates for any scratch state.
///
/// Uses the network's landmark table to prune frontier junctions that
/// provably cannot reach any POI of `category` within `radius`; the
/// candidate set is exactly that of a radius-bounded Dijkstra without
/// pruning.
pub fn range_query_with(
    net: &RoadNetwork,
    store: &PoiStore,
    region: &[SegmentId],
    category: PoiCategory,
    radius: f64,
    scratch: &mut SearchScratch,
) -> CandidateAnswer {
    let table = net.landmark_table();
    let SearchScratch { search, landmarks } = scratch;
    if !landmarks.profile(net, table, store, category, region) {
        // No POI of the category exists: an unpruned search would
        // expand the whole radius ball only to filter everything out.
        return CandidateAnswer::default();
    }
    let visited = region_distances(
        net,
        region,
        radius,
        |j| landmarks.goal_lower_bound(table, j),
        search,
    );
    let mut candidates: Vec<Poi> = store
        .iter()
        .filter(|p| p.category == category)
        .filter(|p| poi_distance(net, search, region, p).is_some_and(|d| d <= radius))
        .copied()
        .collect();
    candidates.sort_by_key(|p| p.id);
    CandidateAnswer {
        candidates,
        segments_visited: visited,
    }
}

/// Nearest-POI query: a candidate set guaranteed to contain the nearest
/// POI of `category` for **every** possible user position in `region`.
///
/// Uses the classic expansion bound: find the nearest POI at distance `d*`
/// from the region boundary, then return every POI within
/// `d* + region diameter` — any user position's nearest POI must lie
/// within that bound.
pub fn nearest_query(
    net: &RoadNetwork,
    store: &PoiStore,
    region: &[SegmentId],
    category: PoiCategory,
) -> CandidateAnswer {
    nearest_query_with(net, store, region, category, &mut SearchScratch::new())
}

/// [`nearest_query`] with caller-owned search buffers (see
/// [`SearchScratch`]) — the per-tick query loop of a streaming pipeline
/// reuses one scratch across every probe; bit-identical candidates for
/// any scratch state.
///
/// Goal-directed via the network's landmark table: one self-bounding
/// Dijkstra discovers the nearest-POI distance as it runs and stops at
/// the exact expansion bound, while landmark *lower* bounds prune
/// frontier junctions that cannot reach any POI of the category in
/// budget. The candidate set, the distances and the tie-breaks equal
/// those of a plain multi-source Dijkstra whose limit starts at
/// `max(diameter, 100 m)` and doubles until it covers the bound —
/// including its empty answer when 24 doublings do not cover it.
pub fn nearest_query_with(
    net: &RoadNetwork,
    store: &PoiStore,
    region: &[SegmentId],
    category: PoiCategory,
    scratch: &mut SearchScratch,
) -> CandidateAnswer {
    let table = net.landmark_table();
    let SearchScratch { search, landmarks } = scratch;
    if !landmarks.profile(net, table, store, category, region) {
        // No POI of the category at all: the answer is empty.
        return CandidateAnswer::default();
    }
    // Region "diameter" upper bound: total road length of the region (a
    // safe overestimate of the longest internal detour).
    let diameter: f64 = region.iter().map(|&s| net.segment(s).length()).sum();
    let best_seed = landmarks.nearest_upper_bound(net, table, store, category);
    let (visited, d_star) = region_distances_nearest_goal(
        net, table, store, category, region, diameter, best_seed, landmarks, search,
    );
    if !d_star.is_finite() {
        // No reachable POI of the category: a doubling search exhausts
        // its 24 doublings and answers empty.
        return CandidateAnswer::default();
    }
    let mut with_d: Vec<(f64, Poi)> = store
        .iter()
        .filter(|p| p.category == category)
        .filter_map(|p| poi_distance(net, search, region, p).map(|d| (d, *p)))
        .collect();
    let bound = d_star + diameter;
    // Keep the doubling schedule's answer: a doubling search answers
    // only once its growing limit covers `bound`, and gives up (empty
    // answer) after 24 doublings. The doubling is exact in f64, so the
    // replicated schedule agrees bit for bit.
    let mut limit = diameter.max(100.0);
    let mut covered = false;
    for _ in 0..24 {
        if bound <= limit {
            covered = true;
            break;
        }
        limit *= 2.0;
    }
    if !covered {
        return CandidateAnswer::default();
    }
    with_d.retain(|(d, _)| *d <= bound);
    with_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
    CandidateAnswer {
        candidates: with_d.into_iter().map(|(_, p)| p).collect(),
        segments_visited: visited,
    }
}

/// Client-side refinement: given the true segment, pick the actual
/// nearest candidate (what a real client does after receiving the
/// candidate set).
pub fn refine_nearest(
    net: &RoadNetwork,
    candidates: &[Poi],
    true_segment: SegmentId,
) -> Option<Poi> {
    refine_nearest_with(net, candidates, true_segment, &mut SearchScratch::new())
}

/// [`refine_nearest`] with caller-owned search buffers (see
/// [`SearchScratch`]).
pub fn refine_nearest_with(
    net: &RoadNetwork,
    candidates: &[Poi],
    true_segment: SegmentId,
    scratch: &mut SearchScratch,
) -> Option<Poi> {
    let search = &mut scratch.search;
    region_distances(net, &[true_segment], f64::INFINITY, |_| 0.0, search);
    candidates
        .iter()
        .filter_map(|p| poi_distance(net, search, &[true_segment], p).map(|d| (d, *p)))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)))
        .map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use roadnet::grid_city;

    fn store_with(net: &RoadNetwork, pois: &[(u32, f64, PoiCategory)]) -> PoiStore {
        let mut store = PoiStore::new(net.segment_count());
        for &(s, off, cat) in pois {
            store.add(SegmentId(s), off, cat);
        }
        store
    }

    #[test]
    fn range_query_finds_nearby_pois_only() {
        let net = grid_city(5, 5, 100.0);
        // s0 is the bottom-left horizontal segment.
        let store = store_with(
            &net,
            &[
                (0, 50.0, PoiCategory::GasStation),  // on the region itself
                (2, 50.0, PoiCategory::GasStation),  // a block away
                (39, 50.0, PoiCategory::GasStation), // far corner
                (2, 10.0, PoiCategory::Restaurant),  // wrong category
            ],
        );
        let region = vec![SegmentId(0)];
        let near = range_query(&net, &store, &region, PoiCategory::GasStation, 150.0);
        assert_eq!(near.len(), 2, "{:?}", near.candidates);
        assert!(near
            .candidates
            .iter()
            .all(|p| p.category == PoiCategory::GasStation));
        // Radius 0: only on-region POIs.
        let zero = range_query(&net, &store, &region, PoiCategory::GasStation, 0.0);
        assert_eq!(zero.len(), 1);
        assert_eq!(zero.candidates[0].segment, SegmentId(0));
    }

    #[test]
    fn range_query_larger_region_is_superset() {
        let net = grid_city(6, 6, 100.0);
        let mut rng = StdRng::seed_from_u64(2);
        let store = PoiStore::generate(&net, 200, &mut rng);
        let small = vec![SegmentId(0)];
        let big: Vec<SegmentId> = [0u32, 1, 2, 11, 12].iter().map(|&i| SegmentId(i)).collect();
        let a = range_query(&net, &store, &small, PoiCategory::Restaurant, 300.0);
        let b = range_query(&net, &store, &big, PoiCategory::Restaurant, 300.0);
        for p in &a.candidates {
            assert!(
                b.candidates.iter().any(|q| q.id == p.id),
                "bigger region must cover the smaller one's answers"
            );
        }
        assert!(b.len() >= a.len());
    }

    #[test]
    fn nearest_query_candidates_contain_true_nearest_for_every_position() {
        let net = grid_city(6, 6, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let store = PoiStore::generate(&net, 120, &mut rng);
        let region: Vec<SegmentId> = [5u32, 6, 16].iter().map(|&i| SegmentId(i)).collect();
        let answer = nearest_query(&net, &store, &region, PoiCategory::Other);
        assert!(!answer.is_empty());
        // For every possible user segment, the refined nearest must be in
        // the candidate set.
        let all: Vec<Poi> = store
            .iter()
            .filter(|p| p.category == PoiCategory::Other)
            .copied()
            .collect();
        for &true_seg in &region {
            let true_nearest = refine_nearest(&net, &all, true_seg).unwrap();
            assert!(
                answer.candidates.iter().any(|p| p.id == true_nearest.id),
                "candidates missing true nearest for {true_seg}"
            );
        }
    }

    #[test]
    fn refinement_picks_the_closest_candidate() {
        let net = grid_city(4, 4, 100.0);
        let store = store_with(
            &net,
            &[
                (1, 50.0, PoiCategory::Hospital),
                (10, 50.0, PoiCategory::Hospital),
            ],
        );
        let candidates: Vec<Poi> = store.iter().copied().collect();
        let nearest = refine_nearest(&net, &candidates, SegmentId(0)).unwrap();
        assert_eq!(nearest.segment, SegmentId(1));
    }

    #[test]
    fn empty_category_yields_empty_answers() {
        let net = grid_city(3, 3, 100.0);
        let store = store_with(&net, &[(0, 10.0, PoiCategory::Other)]);
        let region = vec![SegmentId(4)];
        assert!(range_query(&net, &store, &region, PoiCategory::Hospital, 1e6).is_empty());
        assert!(nearest_query(&net, &store, &region, PoiCategory::Hospital).is_empty());
    }

    #[test]
    fn query_stats_aggregate_answers() {
        let net = grid_city(6, 6, 100.0);
        let mut rng = StdRng::seed_from_u64(5);
        let store = PoiStore::generate(&net, 150, &mut rng);
        let mut stats = QueryStats::new();
        assert_eq!(stats.queries(), 0);
        assert_eq!(stats.mean_candidates(), 0.0);
        for s in [0u32, 10, 20] {
            let region = vec![SegmentId(s), SegmentId(s + 1)];
            stats.record(&nearest_query(&net, &store, &region, PoiCategory::Other));
        }
        assert_eq!(stats.queries(), 3);
        assert!(stats.mean_candidates() >= 1.0);
        assert!(stats.max_candidates() as f64 >= stats.mean_candidates());
        assert!(stats.mean_segments_visited() >= 1.0);
        let mut merged = QueryStats::new();
        merged.merge(&stats);
        assert_eq!(merged, stats);
        assert!(merged.to_string().contains("3 queries"));
    }

    #[test]
    fn visited_segments_grow_with_radius() {
        let net = grid_city(8, 8, 100.0);
        let store = store_with(&net, &[(0, 10.0, PoiCategory::Parking)]);
        let region = vec![SegmentId(60)];
        let near = range_query(&net, &store, &region, PoiCategory::Parking, 100.0);
        let far = range_query(&net, &store, &region, PoiCategory::Parking, 800.0);
        assert!(far.segments_visited > near.segments_visited);
    }
}
