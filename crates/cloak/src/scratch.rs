//! Reusable scratch buffers for the cloaking hot path.
//!
//! Every expansion step historically allocated: a fresh candidate
//! frontier `Vec`, a fresh `(length, id)`-sorted region list, a fresh
//! draw-cache `Vec`, and fresh context byte strings for the keyed
//! streams. [`CloakScratch`] owns all of those buffers so a worker that
//! cloaks N owners performs no steady-state heap traffic: buffers grow
//! to the high-water mark of the workload once and are then reused.
//!
//! # Reuse contract
//!
//! * A scratch is **plain state, not configuration** — any scratch
//!   (including `CloakScratch::default()`) produces bit-identical
//!   results for the same inputs; the scratch-taking entry points
//!   ([`crate::multilevel::anonymize_with_scratch`],
//!   [`crate::multilevel::deanonymize_with_scratch`]) clear every
//!   buffer they use before reading it.
//! * A scratch is `Send` but not shareable: use one per worker thread,
//!   not one behind a lock.
//! * Buffers are sized lazily against the network they first see; a
//!   scratch may be reused across networks (it resizes), though keeping
//!   one scratch per network avoids re-growing.

use crate::frontier::{candidates_into, insert_sorted, remove_sorted, sort_by_length};
use crate::region::RegionState;
use roadnet::{RoadNetwork, SegmentId};

/// A generation-stamped membership set over dense indices: `O(1)` insert
/// and reset without clearing the backing array (the epoch bump
/// invalidates every stale stamp at once).
#[derive(Debug, Clone, Default)]
pub struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl StampSet {
    /// Starts a fresh set covering indices `0..n`.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One clear every 2^32 generations keeps stale stamps from
            // aliasing a recycled epoch value.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Inserts `i`; returns whether it was newly inserted this
    /// generation.
    pub fn insert(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }

    /// Whether `i` is a member of the current generation. Indices beyond
    /// the last [`StampSet::begin`] bound are simply absent.
    pub fn contains(&self, i: usize) -> bool {
        self.stamp.get(i).copied() == Some(self.epoch)
    }
}

/// Per-step buffers threaded through
/// [`ReversibleEngine`](crate::engine::ReversibleEngine) steps: the RGE
/// table's row/column lists, the frontier dedup stamps, the draw cache
/// shared by hypothesis replays, and RPLE's predecessor-hypothesis list.
///
/// A scratch built by a caller rebuilds the RGE rows and columns from
/// the whole region at every step. Inside the multi-level protocol's own
/// walks they are *tracked* instead: seeded on a walk's first step and
/// then updated by the one segment each step added or removed.
///
/// See the [module docs](self) for the reuse contract.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// `(length, id)`-sorted region members — RGE table rows.
    pub(crate) rows: Vec<SegmentId>,
    /// Sorted candidate frontier — RGE table columns.
    pub(crate) cols: Vec<SegmentId>,
    /// One slot per segment: frontier dedup stamps when the RGE lists
    /// are rebuilt, and which `adjacent` counts belong to the walk when
    /// they are tracked (a scratch does one or the other).
    pub(crate) stamp: StampSet,
    /// Materialized draws of the step substream, replayed across
    /// hypothesis simulations.
    pub(crate) draws: Vec<u64>,
    /// RPLE predecessor hypotheses.
    pub(crate) hyp: Vec<SegmentId>,
    /// Whether `rows` and `cols` follow the current walk.
    tables: Tables,
    /// Per segment, how many region members share a junction with it;
    /// an entry counts only while `stamp` holds its index.
    adjacent: Vec<u32>,
}

/// How [`StepScratch::rge_tables`] brings the RGE rows and columns to
/// the step's region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Tables {
    /// Rebuilt from the whole region at every step.
    #[default]
    Rebuilt,
    /// Tracked across a walk that has not taken its first step.
    Unseeded,
    /// Tracked, and equal to the previous step's region's tables.
    Seeded,
}

impl StepScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracks the RGE rows and columns across the walk that starts with
    /// the next step (see [`rge_tables`](Self::rge_tables)). Only the
    /// multi-level protocol calls this, once per walk after it resets
    /// the region, so every step of a tracked walk moves the region by
    /// exactly the one segment the protocol added or removed.
    pub(crate) fn begin_walk(&mut self) {
        self.tables = Tables::Unseeded;
    }

    /// Brings `rows` and `cols` to `region`'s RGE table: the members and
    /// the frontier, each in `(length, id)` order.
    ///
    /// `change` is the one segment the walk changed since its previous
    /// step: the anchor `last` the protocol inserted (forward), or the
    /// segment it `removed` (backward). An untracked scratch rebuilds
    /// both lists from the whole region. A tracked one seeds them, and a
    /// count of adjacent members per segment, on its walk's first step,
    /// and after that only inserts or removes `change` and updates its
    /// neighbours. Each list is the canonical order of a set defined by
    /// membership alone, so the tracked lists equal the rebuilt ones.
    /// A tracked step whose region is not one segment larger (with
    /// `change`) or smaller (without it) than the previous step's seeds
    /// again, so a step repeated on one region stays exact.
    pub(crate) fn rge_tables(
        &mut self,
        net: &RoadNetwork,
        region: &RegionState,
        change: SegmentId,
    ) {
        let (rows, members) = (self.rows.len(), region.len());
        match self.tables {
            Tables::Rebuilt => {
                candidates_into(net, region, &mut self.stamp, &mut self.cols);
                region.sorted_by_length_into(net, &mut self.rows);
            }
            Tables::Seeded if region.contains(change) && rows + 1 == members => {
                self.add(net, region, change);
            }
            Tables::Seeded if !region.contains(change) && rows == members + 1 => {
                self.remove(net, region, change);
            }
            Tables::Unseeded | Tables::Seeded => {
                self.seed(net, region);
                self.tables = Tables::Seeded;
            }
        }
    }

    fn seed(&mut self, net: &RoadNetwork, region: &RegionState) {
        let n = net.segment_count();
        if self.adjacent.len() < n {
            self.adjacent.resize(n, 0);
        }
        self.stamp.begin(n);
        self.cols.clear();
        for m in region.iter_ids() {
            for &s in net.neighbor_segments_csr(m) {
                if self.bump(s) == 1 && !region.contains(s) {
                    self.cols.push(s);
                }
            }
        }
        sort_by_length(net, &mut self.cols);
        region.sorted_by_length_into(net, &mut self.rows);
    }

    /// `s` joined the region: it leaves the frontier, and each neighbour
    /// that no member touched before joins it.
    fn add(&mut self, net: &RoadNetwork, region: &RegionState, s: SegmentId) {
        remove_sorted(net, &mut self.cols, s);
        insert_sorted(net, &mut self.rows, s);
        for &n in net.neighbor_segments_csr(s) {
            if self.bump(n) == 1 && !region.contains(n) {
                insert_sorted(net, &mut self.cols, n);
            }
        }
    }

    /// `s` left the region: each neighbour no member touches any more
    /// leaves the frontier, and `s` joins it if a member still touches it.
    fn remove(&mut self, net: &RoadNetwork, region: &RegionState, s: SegmentId) {
        remove_sorted(net, &mut self.rows, s);
        for &n in net.neighbor_segments_csr(s) {
            self.adjacent[n.index()] -= 1;
            if self.adjacent[n.index()] == 0 && !region.contains(n) {
                remove_sorted(net, &mut self.cols, n);
            }
        }
        if self.stamp.contains(s.index()) && self.adjacent[s.index()] > 0 {
            insert_sorted(net, &mut self.cols, s);
        }
    }

    /// Counts one more member next to `s`; returns the new count.
    fn bump(&mut self, s: SegmentId) -> u32 {
        let count = &mut self.adjacent[s.index()];
        if self.stamp.insert(s.index()) {
            *count = 0;
        }
        *count += 1;
        *count
    }
}

/// Per-worker buffers for whole (de)anonymization runs: the cloaking
/// region, the engine [`StepScratch`], the keyed-stream
/// context byte buffer, and the per-level round/hint buffers.
///
/// One `CloakScratch` per worker thread makes the anonymize → verify
/// hot path allocation-free at steady state; see the
/// [module docs](self) for the reuse contract.
#[derive(Debug, Clone, Default)]
pub struct CloakScratch {
    /// The evolving cloaking region (membership bitset, ascending member
    /// list, cached totals).
    pub(crate) region: RegionState,
    /// Engine per-step buffers.
    pub(crate) step: StepScratch,
    /// Plain (decrypted) per-step accepting rounds of one level.
    pub(crate) rounds: Vec<u32>,
    /// Plain (decrypted) quotient hints of one level.
    pub(crate) hints: Vec<u32>,
    /// One level's draws, replayed forward for its backward walk.
    pub(crate) draws: Vec<u64>,
}

impl CloakScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stamp_set_dedups_within_a_generation() {
        let mut s = StampSet::default();
        s.begin(4);
        assert!(s.insert(2));
        assert!(!s.insert(2));
        assert!(s.insert(0));
        // A new generation forgets everything without clearing.
        s.begin(4);
        assert!(s.insert(2));
    }

    #[test]
    fn stamp_set_grows() {
        let mut s = StampSet::default();
        s.begin(2);
        assert!(s.insert(1));
        s.begin(10);
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }

    #[test]
    fn scratches_construct() {
        let c = CloakScratch::new();
        assert!(c.draws.is_empty() && c.rounds.is_empty());
        let s = StepScratch::new();
        assert!(s.rows.is_empty() && s.cols.is_empty() && s.hyp.is_empty());
    }

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

    /// One step on both scratches: the tracked lists must equal the
    /// rebuilt ones, which must equal the public builders'.
    fn step_agrees(
        net: &RoadNetwork,
        region: &RegionState,
        change: SegmentId,
        tracked: &mut StepScratch,
        rebuilt: &mut StepScratch,
    ) -> Result<(), TestCaseError> {
        tracked.rge_tables(net, region, change);
        rebuilt.rge_tables(net, region, change);
        prop_assert_eq!(&tracked.rows, &rebuilt.rows);
        prop_assert_eq!(&tracked.cols, &rebuilt.cols);
        prop_assert_eq!(&rebuilt.rows, &region.sorted_by_length(net));
        prop_assert_eq!(&rebuilt.cols, &crate::frontier::candidates(net, region));
        Ok(())
    }

    /// Random walks on one tracked scratch, reused across walks and
    /// maps: growth from the frontier (now and then from anywhere on the
    /// map), steps repeated on one region, then peels in reverse chain
    /// order with now and then an arbitrary member instead, and walks
    /// dropped part-way. The tracked lists must equal the rebuilt ones
    /// after every insert and remove.
    fn tracked_lists_match_rebuilt(seed: u64) -> Result<(), TestCaseError> {
        use roadnet::{city_map, grid_city};
        let maps = [
            grid_city(4, 4, 100.0),
            city_map(seed % 31, 600),
            grid_city(3, 5, 80.0),
        ];
        let mut rng = seed;
        let mut tracked = StepScratch::default();
        let mut rebuilt = StepScratch::default();
        for net in &maps {
            let n = net.segment_count();
            for _ in 0..6 {
                let mut region = RegionState::new(net);
                let first = SegmentId(below(&mut rng, n) as u32);
                region.insert(net, first);
                tracked.begin_walk();
                let mut chain = vec![first];
                let mut change = first;
                for _ in 0..below(&mut rng, 40) {
                    step_agrees(net, &region, change, &mut tracked, &mut rebuilt)?;
                    if below(&mut rng, 8) == 0 {
                        step_agrees(net, &region, change, &mut tracked, &mut rebuilt)?;
                    }
                    let cols = &tracked.cols;
                    let next = if cols.is_empty() || below(&mut rng, 10) == 0 {
                        SegmentId(below(&mut rng, n) as u32)
                    } else {
                        cols[below(&mut rng, cols.len())]
                    };
                    if region.insert(net, next) {
                        chain.push(next);
                        change = next;
                    }
                }
                step_agrees(net, &region, change, &mut tracked, &mut rebuilt)?;
                if below(&mut rng, 6) == 0 {
                    // A walk that fails part-way: the next one starts over.
                    continue;
                }
                // The peel starts its own walk, or (now and then) the
                // tracked lists run straight on from growth into removal.
                if below(&mut rng, 2) == 0 {
                    tracked.begin_walk();
                }
                while region.len() > 1 {
                    let s = if below(&mut rng, 4) == 0 {
                        chain[below(&mut rng, chain.len())]
                    } else {
                        *chain.last().expect("members left")
                    };
                    chain.retain(|&c| c != s);
                    region.remove(net, s);
                    step_agrees(net, &region, s, &mut tracked, &mut rebuilt)?;
                    if below(&mut rng, 8) == 0 {
                        step_agrees(net, &region, s, &mut tracked, &mut rebuilt)?;
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tracked_rge_tables_match_rebuilt_ones(seed in any::<u64>()) {
            tracked_lists_match_rebuilt(seed)?;
        }
    }
}
