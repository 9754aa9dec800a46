//! The reversible expansion engines: RGE and RPLE.
//!
//! Both engines implement one *forward step* (select the next segment to
//! add, driven by a keyed draw stream) and one *backward step* (given the
//! segment just removed, identify its predecessor in the chain). The
//! protocol follows the paper's de-anonymization discipline directly:
//!
//! 1. **One sequence per level.** A level's steps read one keyed stream
//!    `R_1, R_2, …` in order, as the paper's walk does: a forward step
//!    reads exactly the draws of its rounds, and the next step goes on
//!    from there. Each step's draw count travels encrypted in the
//!    payload, so the backward walk replays the level's draws forward
//!    once and hands each step exactly its own
//!    ([`ReversibleEngine::backward_from_draws`]).
//! 2. **Deterministic core selection.** `forward_core(anchor)` consumes
//!    draws in rounds; a round is *voided* when its candidate is
//!    inadmissible (empty RPLE slot, already in the region, spatial
//!    tolerance, RGE quotient-band mismatch) and the first admissible
//!    round's candidate is selected. No other state enters the decision,
//!    so anyone with the key can replay it for any hypothetical anchor.
//! 3. **Backward hypothesis testing.** The paper: "the algorithm checks
//!    which road segment is linked with S′ to narrow down the options and
//!    whether segment S′ can be deterministically selected with the access
//!    key if we assume a segment is S." The backward step enumerates the
//!    possible predecessors and keeps the one whose simulated
//!    `forward_core` selects exactly the removed segment *at the step's
//!    recorded accepting round* (carried encrypted in the payload).
//! 4. **No collisions, by construction.** Filtering hypotheses by exact
//!    round makes ambiguity structurally impossible: two anchors
//!    accepting the same segment at the same round would need the same
//!    table column (RGE: "no repeated transition value in each row and
//!    column") or the same `BT` cell (RPLE: the pre-assignment duality).
//!    This is this implementation's resolution of the paper's "collision"
//!    issue; [`StepFailure::Collision`] remains as the wrong-key /
//!    tampered-payload error. Voided-round counts are an experiment
//!    output (B8).

use crate::error::StepFailure;
use crate::preassign::PreassignedTables;
use crate::profile::SpatialTolerance;
use crate::region::RegionState;
use crate::scratch::StepScratch;
use crate::table::TableView;
use keystream::DrawStream;
use roadnet::{RoadNetwork, SegmentId};

/// Upper bound on draw rounds per step. Exhausting it fails the request
/// (counted in the success-rate metric); it can only happen when the
/// tolerance rejects nearly every candidate or an RPLE row has no usable
/// slot.
pub const MAX_REDRAWS: usize = 1024;

/// A successfully selected forward transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAccept {
    /// The segment to add to the region.
    pub segment: SegmentId,
    /// The quotient hint to record for the backward walk, when the step
    /// needed one (RGE with `|CloakA| > |CanA|`).
    pub hint: Option<u32>,
    /// Draw rounds consumed by this step's own selection.
    pub draws: u32,
    /// Rounds voided before acceptance (tolerance, empty slots, quotient
    /// mismatches).
    pub voided: u32,
}

/// A stack of recorded quotient hints consumed by the backward walk.
///
/// Hints are recorded in forward step order; the backward walk visits
/// steps in reverse, so it pops from the end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintStack(Vec<u32>);

impl HintStack {
    /// Wraps hints recorded in forward order.
    pub fn new(hints: Vec<u32>) -> Self {
        HintStack(hints)
    }

    /// Pops the most recently recorded hint.
    pub fn pop(&mut self) -> Option<u32> {
        self.0.pop()
    }

    /// Unwraps the remaining hints (scratch-buffer reclamation).
    pub fn into_inner(self) -> Vec<u32> {
        self.0
    }

    /// Remaining hints.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the stack is exhausted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The draws one step reads. A forward step or an ambiguity probe pulls
/// them from its stream as first needed and keeps them, so several
/// hypothesis simulations replay the same rounds (the buffer is borrowed
/// from the caller's [`StepScratch`], so steps allocate nothing at steady
/// state). A backward step reads the step's recorded draws and nothing
/// beyond: a hypothesis that needs more rounds than the step used cannot
/// be the step's.
enum StepDraws<'a> {
    Stream {
        stream: &'a mut DrawStream,
        cache: &'a mut Vec<u64>,
    },
    Recorded(&'a [u64]),
}

impl<'a> StepDraws<'a> {
    fn stream(stream: &'a mut DrawStream, cache: &'a mut Vec<u64>) -> Self {
        cache.clear();
        StepDraws::Stream { stream, cache }
    }

    fn get(&mut self, i: usize) -> Option<u64> {
        match self {
            StepDraws::Stream { stream, cache } => {
                while cache.len() <= i {
                    cache.push(stream.next_u64());
                }
                Some(cache[i])
            }
            StepDraws::Recorded(draws) => draws.get(i).copied(),
        }
    }
}

/// A reversible cloaking engine (RGE or RPLE).
///
/// The trait is object-safe so services can hold `&dyn ReversibleEngine`,
/// and requires `Send + Sync`: every step works from `&self`, so one
/// engine instance (including RPLE's pre-assigned tables) serves all
/// worker threads concurrently without locks.
pub trait ReversibleEngine: Send + Sync {
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Wire identifier stored in payloads (1 = RGE, 2 = RPLE).
    fn algorithm_id(&self) -> u8;

    /// One forward transition from the region state `CloakA_t`, anchored
    /// at the chain's last segment. `scratch` provides the step's reusable
    /// buffers ([`StepScratch`]); any scratch yields identical results.
    ///
    /// # Errors
    ///
    /// [`StepFailure::NoCandidates`] when nothing admissible is reachable,
    /// [`StepFailure::RedrawBudgetExhausted`] when every round voided, and
    /// [`StepFailure::Collision`] when the selection would be ambiguous to
    /// reverse (the caller should retry the request under a fresh nonce).
    #[allow(clippy::too_many_arguments)]
    fn forward_step(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        last: SegmentId,
        stream: &mut DrawStream,
        tolerance: &SpatialTolerance,
        scratch: &mut StepScratch,
    ) -> Result<StepAccept, StepFailure>;

    /// One backward transition: the region is `CloakA_t` (the removed
    /// segment already taken out), `removed` is the segment step `t`
    /// added, and `draws` are exactly the draws step `t` read, so their
    /// count is the forward step's accepting round. Returns the chain's
    /// previous segment.
    ///
    /// # Errors
    ///
    /// Fails when no predecessor is consistent (wrong key or corrupted
    /// payload) or required hints are missing.
    #[allow(clippy::too_many_arguments)]
    fn backward_from_draws(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        removed: SegmentId,
        draws: &[u64],
        tolerance: &SpatialTolerance,
        hints: &mut HintStack,
        scratch: &mut StepScratch,
    ) -> Result<SegmentId, StepFailure>;

    /// Ablation probe: how many predecessor hypotheses are consistent with
    /// `removed` when the backward walk may **not** filter by accepting
    /// round — the paper's "collision" count. A value above 1 means a
    /// design without per-step round metadata could not reverse this step
    /// unambiguously.
    #[allow(clippy::too_many_arguments)]
    fn ambiguous_predecessors(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        removed: SegmentId,
        stream: &mut DrawStream,
        tolerance: &SpatialTolerance,
        hints: &mut HintStack,
        scratch: &mut StepScratch,
    ) -> usize;
}

/// Reversible Global Expansion: per-step transition tables over the whole
/// cloak × frontier (paper §III-A). Their rows and columns come from the
/// step's [`StepScratch`]: rebuilt from the region at every step, or
/// tracked across the multi-level protocol's own walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RgeEngine;

impl RgeEngine {
    /// Creates the engine (stateless).
    pub fn new() -> Self {
        RgeEngine
    }

    /// Simulates the deterministic core selection for the hypothesis that
    /// the chain anchor is row `i_s`. Returns `(round, candidate)` of the
    /// first admissible round, or `None` if the budget voids out.
    #[allow(clippy::too_many_arguments)]
    fn simulate_row(
        net: &RoadNetwork,
        region: &RegionState,
        table: TableView<'_>,
        tolerance: &SpatialTolerance,
        draws: &mut StepDraws<'_>,
        i_s: usize,
    ) -> Option<(usize, SegmentId)> {
        let (m, n) = (table.row_count(), table.col_count());
        let q_mod = table.hint_modulus();
        let band = i_s / n;
        for r in 0..MAX_REDRAWS {
            let rv = draws.get(r)?;
            if m > n && ((rv / n as u64) % q_mod as u64) as usize != band {
                continue;
            }
            let p = (rv % n as u64) as usize;
            let j = table.forward_col(i_s, p);
            let cand = table.cols()[j];
            if !tolerance.allows_extended(net, region.total_length(), region.bounding_box(), cand) {
                continue;
            }
            return Some((r, cand));
        }
        None
    }
}

impl ReversibleEngine for RgeEngine {
    fn name(&self) -> &'static str {
        "RGE"
    }

    fn algorithm_id(&self) -> u8 {
        1
    }

    fn forward_step(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        last: SegmentId,
        stream: &mut DrawStream,
        tolerance: &SpatialTolerance,
        scratch: &mut StepScratch,
    ) -> Result<StepAccept, StepFailure> {
        scratch.rge_tables(net, region, last);
        let StepScratch {
            rows, cols, draws, ..
        } = scratch;
        if cols.is_empty() {
            return Err(StepFailure::NoCandidates);
        }
        let table = TableView::new(rows, cols);
        let i0 = table
            .row_of(net, last)
            .expect("chain anchor must be in the region");
        let mut draws = StepDraws::stream(stream, draws);
        let (round, cand) = Self::simulate_row(net, region, table, tolerance, &mut draws, i0)
            .ok_or(StepFailure::RedrawBudgetExhausted)?;
        let band = i0 / table.col_count();
        Ok(StepAccept {
            segment: cand,
            hint: table.needs_hint().then_some(band as u32),
            draws: round as u32 + 1,
            voided: round as u32,
        })
    }

    fn backward_from_draws(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        removed: SegmentId,
        draws: &[u64],
        tolerance: &SpatialTolerance,
        hints: &mut HintStack,
        scratch: &mut StepScratch,
    ) -> Result<SegmentId, StepFailure> {
        scratch.rge_tables(net, region, removed);
        let StepScratch { rows, cols, .. } = scratch;
        if cols.is_empty() {
            return Err(StepFailure::NoCandidates);
        }
        let table = TableView::new(rows, cols);
        if table.col_of(net, removed).is_none() {
            // The removed segment is not on this state's frontier: the
            // payload/keys are inconsistent.
            return Err(StepFailure::Collision);
        }
        let n = table.col_count();
        let band = if table.needs_hint() {
            match hints.pop() {
                Some(h) => h as usize,
                None => return Err(StepFailure::Collision),
            }
        } else {
            0
        };
        if band >= table.hint_modulus() {
            return Err(StepFailure::Collision);
        }
        let band_rows = (band * n)..((band * n + n).min(table.row_count()));
        let expected_round = draws.len();
        let mut draws = StepDraws::Recorded(draws);
        // Exactly one row of the band can first-accept `removed` at the
        // expected round: same-round selections of distinct rows hit
        // distinct columns (the table's no-collision property).
        for i_s in band_rows {
            if let Some((r, cand)) =
                Self::simulate_row(net, region, table, tolerance, &mut draws, i_s)
            {
                if cand == removed && r + 1 == expected_round {
                    return Ok(table.rows()[i_s]);
                }
            }
        }
        Err(StepFailure::Collision)
    }

    fn ambiguous_predecessors(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        removed: SegmentId,
        stream: &mut DrawStream,
        tolerance: &SpatialTolerance,
        hints: &mut HintStack,
        scratch: &mut StepScratch,
    ) -> usize {
        scratch.rge_tables(net, region, removed);
        let StepScratch {
            rows, cols, draws, ..
        } = scratch;
        if cols.is_empty() {
            return 0;
        }
        let table = TableView::new(rows, cols);
        let n = table.col_count();
        let band = if table.needs_hint() {
            match hints.pop() {
                Some(h) => h as usize,
                None => return 0,
            }
        } else {
            0
        };
        if band >= table.hint_modulus() {
            return 0;
        }
        let band_rows = (band * n)..((band * n + n).min(table.row_count()));
        let mut draws = StepDraws::stream(stream, draws);
        band_rows
            .filter(|&i_s| {
                matches!(
                    Self::simulate_row(net, region, table, tolerance, &mut draws, i_s),
                    Some((_, cand)) if cand == removed
                )
            })
            .count()
    }
}

/// Reversible Pre-assignment-based Local Expansion: per-segment
/// pre-assigned transition lists (paper §III-B, Algorithm 1).
#[derive(Debug, Clone)]
pub struct RpleEngine {
    tables: PreassignedTables,
}

impl RpleEngine {
    /// Creates the engine from pre-assigned tables (run Algorithm 1 via
    /// [`PreassignedTables::build`]).
    pub fn new(tables: PreassignedTables) -> Self {
        RpleEngine { tables }
    }

    /// Builds the tables and the engine in one call.
    pub fn build(net: &RoadNetwork, t_len: usize) -> Self {
        Self::new(PreassignedTables::build(net, t_len))
    }

    /// The pre-assigned tables (for inspection and the B4 experiment).
    pub fn tables(&self) -> &PreassignedTables {
        &self.tables
    }

    /// Simulates the deterministic core selection for the hypothesis that
    /// the chain anchor is `s`.
    fn simulate_anchor(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        tolerance: &SpatialTolerance,
        draws: &mut StepDraws<'_>,
        s: SegmentId,
    ) -> Option<(usize, SegmentId)> {
        let t_len = self.tables.t_len();
        let ft = self.tables.forward_list(s);
        for r in 0..MAX_REDRAWS {
            let rv = draws.get(r)?;
            let idx = (rv % t_len as u64) as usize;
            let cand = match ft[idx] {
                Some(c) if !region.contains(c) => c,
                _ => continue,
            };
            if !tolerance.allows_extended(net, region.total_length(), region.bounding_box(), cand) {
                continue;
            }
            return Some((r, cand));
        }
        None
    }

    /// Predecessor hypotheses for `removed`: in-region segments linked to
    /// it through the backward table. Written into a caller-owned buffer
    /// (cleared first).
    fn hypotheses_into(&self, region: &RegionState, removed: SegmentId, out: &mut Vec<SegmentId>) {
        out.clear();
        out.extend(
            self.tables
                .backward_list(removed)
                .iter()
                .flatten()
                .copied()
                .filter(|s| region.contains(*s)),
        );
        out.sort_unstable();
        out.dedup();
    }
}

impl ReversibleEngine for RpleEngine {
    fn name(&self) -> &'static str {
        "RPLE"
    }

    fn algorithm_id(&self) -> u8 {
        2
    }

    fn forward_step(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        last: SegmentId,
        stream: &mut DrawStream,
        tolerance: &SpatialTolerance,
        scratch: &mut StepScratch,
    ) -> Result<StepAccept, StepFailure> {
        // Local expansion can only move to a pre-assigned neighbor of the
        // anchor; fail fast when no slot could ever be accepted.
        let any_admissible = self.tables.forward_list(last).iter().flatten().any(|&c| {
            !region.contains(c)
                && tolerance.allows_extended(net, region.total_length(), region.bounding_box(), c)
        });
        if !any_admissible {
            return Err(StepFailure::NoCandidates);
        }
        let mut draws = StepDraws::stream(stream, &mut scratch.draws);
        let (round, cand) = self
            .simulate_anchor(net, region, tolerance, &mut draws, last)
            .ok_or(StepFailure::RedrawBudgetExhausted)?;
        Ok(StepAccept {
            segment: cand,
            hint: None,
            draws: round as u32 + 1,
            voided: round as u32,
        })
    }

    fn backward_from_draws(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        removed: SegmentId,
        draws: &[u64],
        tolerance: &SpatialTolerance,
        _hints: &mut HintStack,
        scratch: &mut StepScratch,
    ) -> Result<SegmentId, StepFailure> {
        let hyp = &mut scratch.hyp;
        self.hypotheses_into(region, removed, hyp);
        let expected_round = draws.len();
        let mut draws = StepDraws::Recorded(draws);
        // Exactly one predecessor can first-accept `removed` at the
        // expected round: two anchors accepting at the same round would
        // need the same `BT[removed]` cell (the pre-assignment duality).
        for &s in hyp.iter() {
            if let Some((r, cand)) = self.simulate_anchor(net, region, tolerance, &mut draws, s) {
                if cand == removed && r + 1 == expected_round {
                    return Ok(s);
                }
            }
        }
        Err(StepFailure::Collision)
    }

    fn ambiguous_predecessors(
        &self,
        net: &RoadNetwork,
        region: &RegionState,
        removed: SegmentId,
        stream: &mut DrawStream,
        tolerance: &SpatialTolerance,
        _hints: &mut HintStack,
        scratch: &mut StepScratch,
    ) -> usize {
        let StepScratch { draws, hyp, .. } = scratch;
        self.hypotheses_into(region, removed, hyp);
        let mut draws = StepDraws::stream(stream, draws);
        hyp.iter()
            .filter(|&&s| {
                matches!(
                    self.simulate_anchor(net, region, tolerance, &mut draws, s),
                    Some((_, cand)) if cand == removed
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystream::Key256;
    use roadnet::grid_city;

    fn stream(seed: u64, step: u32) -> DrawStream {
        DrawStream::new(Key256::from_seed(seed), &step.to_le_bytes())
    }

    /// Drives `engine` forward `steps` times and then backward, asserting
    /// exact chain recovery. Returns `None` if a collision aborted the
    /// forward walk (callers assert collisions are rare).
    fn roundtrip(
        engine: &dyn ReversibleEngine,
        net: &RoadNetwork,
        seed_segment: SegmentId,
        steps: usize,
        key_seed: u64,
        tolerance: SpatialTolerance,
    ) -> Option<Vec<SegmentId>> {
        let mut scratch = StepScratch::default();
        let mut region = RegionState::from_segments(net, [seed_segment]);
        let mut last = seed_segment;
        let mut chain = Vec::new();
        let mut hints = Vec::new();
        let mut rounds = Vec::new();
        for t in 0..steps {
            let mut s = stream(key_seed, t as u32);
            // Local expansion can dead-end and tolerance can void a walk
            // out; callers assert such walks are rare and retry under a
            // fresh key at the request level.
            let acc =
                match engine.forward_step(net, &region, last, &mut s, &tolerance, &mut scratch) {
                    Ok(a) => a,
                    Err(_) => return None,
                };
            region.insert(net, acc.segment);
            if let Some(h) = acc.hint {
                hints.push(h);
            }
            rounds.push(acc.draws);
            chain.push(acc.segment);
            last = acc.segment;
        }
        // Backward: remove in reverse, recovering each predecessor.
        let mut hint_stack = HintStack::new(hints);
        let mut current = *chain.last().expect("at least one step");
        for t in (0..steps).rev() {
            region.remove(net, current);
            let draws = stream(key_seed, t as u32).take_draws(rounds[t] as usize);
            let prev = engine
                .backward_from_draws(
                    net,
                    &region,
                    current,
                    &draws,
                    &tolerance,
                    &mut hint_stack,
                    &mut scratch,
                )
                .unwrap_or_else(|e| panic!("backward step {t} failed: {e}"));
            let expected = if t == 0 { seed_segment } else { chain[t - 1] };
            assert_eq!(prev, expected, "backward step {t} recovered wrong segment");
            current = prev;
        }
        assert_eq!(region.len(), 1);
        assert!(region.contains(seed_segment));
        Some(chain)
    }

    /// The protocol's tracked walk, with the ambiguity probe run on the
    /// same scratch before every backward step: the probe must leave the
    /// tracked tables exact, so the walk recovers the untracked chain.
    #[test]
    fn tracked_walks_survive_ambiguity_probes_between_steps() {
        let net = grid_city(6, 6, 100.0);
        let tolerance = SpatialTolerance::Unlimited;
        let engine = RgeEngine::new();
        for key_seed in 0..12 {
            let steps = 14;
            let untracked = roundtrip(&engine, &net, SegmentId(20), steps, key_seed, tolerance)
                .expect("RGE forward walks do not dead-end here");
            let mut scratch = StepScratch::default();
            let mut region = RegionState::from_segments(&net, [SegmentId(20)]);
            let (mut last, mut chain, mut hints, mut rounds) =
                (SegmentId(20), vec![], vec![], vec![]);
            scratch.begin_walk();
            for t in 0..steps {
                let mut s = stream(key_seed, t as u32);
                let acc = engine
                    .forward_step(&net, &region, last, &mut s, &tolerance, &mut scratch)
                    .unwrap();
                region.insert(&net, acc.segment);
                hints.extend(acc.hint);
                rounds.push(acc.draws);
                chain.push(acc.segment);
                last = acc.segment;
            }
            assert_eq!(chain, untracked, "key {key_seed}: tracked forward walk");
            let mut hint_stack = HintStack::new(hints);
            let mut current = last;
            scratch.begin_walk();
            for t in (0..steps).rev() {
                region.remove(&net, current);
                let mut probe_hints = hint_stack.clone();
                let probes = engine.ambiguous_predecessors(
                    &net,
                    &region,
                    current,
                    &mut stream(key_seed, t as u32),
                    &tolerance,
                    &mut probe_hints,
                    &mut scratch,
                );
                assert!(probes >= 1, "key {key_seed} step {t}: the true predecessor");
                current = engine
                    .backward_from_draws(
                        &net,
                        &region,
                        current,
                        &stream(key_seed, t as u32).take_draws(rounds[t] as usize),
                        &tolerance,
                        &mut hint_stack,
                        &mut scratch,
                    )
                    .unwrap();
                let expected = if t == 0 { SegmentId(20) } else { chain[t - 1] };
                assert_eq!(current, expected, "key {key_seed} step {t}");
            }
        }
    }

    #[test]
    fn rge_roundtrip_many_keys() {
        let net = grid_city(6, 6, 100.0);
        let engine = RgeEngine::new();
        let mut ok = 0;
        for key_seed in 0..30 {
            if roundtrip(
                &engine,
                &net,
                SegmentId(20),
                12,
                key_seed,
                SpatialTolerance::Unlimited,
            )
            .is_some()
            {
                ok += 1;
            }
        }
        assert_eq!(ok, 30, "forward walks must never collide now");
    }

    #[test]
    fn rge_roundtrip_with_large_cloak_needs_hints() {
        // Grow the region beyond the frontier size so |CloakA| > |CanA|
        // and quotient hints kick in.
        let net = grid_city(5, 5, 100.0);
        let engine = RgeEngine::new();
        let mut ok = 0;
        for key_seed in 0..12 {
            if let Some(chain) = roundtrip(
                &engine,
                &net,
                SegmentId(0),
                30, // 31 of 40 segments: cloak far exceeds the frontier
                key_seed,
                SpatialTolerance::Unlimited,
            ) {
                assert_eq!(chain.len(), 30);
                ok += 1;
            }
        }
        assert_eq!(ok, 12, "forward walks must never collide now");
    }

    #[test]
    fn rple_roundtrip_many_keys() {
        let net = grid_city(6, 6, 100.0);
        let engine = RpleEngine::build(&net, 8);
        let mut ok = 0;
        for key_seed in 0..30 {
            if roundtrip(
                &engine,
                &net,
                SegmentId(20),
                10,
                key_seed,
                SpatialTolerance::Unlimited,
            )
            .is_some()
            {
                ok += 1;
            }
        }
        assert!(ok >= 25, "too many dead-ended walks: {ok}/30");
    }

    #[test]
    fn rple_roundtrip_small_t() {
        let net = grid_city(6, 6, 100.0);
        let engine = RpleEngine::build(&net, 4);
        let mut ok = 0;
        for key_seed in 0..12 {
            if roundtrip(
                &engine,
                &net,
                SegmentId(12),
                6,
                key_seed,
                SpatialTolerance::Unlimited,
            )
            .is_some()
            {
                ok += 1;
            }
        }
        assert!(ok >= 8, "too many dead-ended walks: {ok}/12");
    }

    #[test]
    fn roundtrip_under_tolerance_pressure() {
        // A tolerance close to the region size forces voided rounds; the
        // hypothesis test must still keep the walk reversible whenever the
        // forward walk completes.
        let net = grid_city(6, 6, 100.0);
        let tolerance = SpatialTolerance::TotalLength(900.0); // 9 segments max
        let rge = RgeEngine::new();
        let rple = RpleEngine::build(&net, 8);
        let mut ok = 0;
        for key_seed in 100..130 {
            if roundtrip(&rge, &net, SegmentId(20), 7, key_seed, tolerance).is_some() {
                ok += 1;
            }
            if roundtrip(&rple, &net, SegmentId(20), 7, key_seed, tolerance).is_some() {
                ok += 1;
            }
        }
        assert!(
            ok >= 45,
            "too many dead-ended walks under tolerance: {ok}/60"
        );
    }

    #[test]
    fn forward_fails_when_tolerance_blocks_everything() {
        let net = grid_city(4, 4, 100.0);
        let tolerance = SpatialTolerance::TotalLength(100.0); // no room to grow
        let region = RegionState::from_segments(&net, [SegmentId(0)]);
        let mut scratch = StepScratch::default();
        let mut s = stream(1, 0);
        let rge = RgeEngine::new();
        assert_eq!(
            rge.forward_step(
                &net,
                &region,
                SegmentId(0),
                &mut s,
                &tolerance,
                &mut scratch
            ),
            Err(StepFailure::RedrawBudgetExhausted)
        );
        let rple = RpleEngine::build(&net, 8);
        let mut s = stream(1, 0);
        assert_eq!(
            rple.forward_step(
                &net,
                &region,
                SegmentId(0),
                &mut s,
                &tolerance,
                &mut scratch
            ),
            Err(StepFailure::NoCandidates)
        );
    }

    #[test]
    fn forward_fails_with_empty_frontier() {
        let net = grid_city(2, 2, 100.0);
        let all = RegionState::from_segments(&net, net.segment_ids());
        let mut s = stream(1, 0);
        assert_eq!(
            RgeEngine::new().forward_step(
                &net,
                &all,
                SegmentId(0),
                &mut s,
                &SpatialTolerance::Unlimited,
                &mut StepScratch::default(),
            ),
            Err(StepFailure::NoCandidates)
        );
    }

    #[test]
    fn backward_with_wrong_key_does_not_recover_chain() {
        let net = grid_city(6, 6, 100.0);
        let engine = RgeEngine::new();
        let tolerance = SpatialTolerance::Unlimited;
        let mut scratch = StepScratch::default();
        // Forward with key 7.
        let mut region = RegionState::from_segments(&net, [SegmentId(20)]);
        let mut last = SegmentId(20);
        let mut chain = vec![];
        for t in 0..8 {
            let mut s = stream(7, t);
            let acc = engine
                .forward_step(&net, &region, last, &mut s, &tolerance, &mut scratch)
                .unwrap();
            region.insert(&net, acc.segment);
            chain.push(acc.segment);
            last = acc.segment;
        }
        // Backward with key 8: walk completes or fails, but must diverge.
        let mut hint_stack = HintStack::default();
        let mut current = *chain.last().unwrap();
        let mut recovered = vec![];
        for t in (0..8).rev() {
            region.remove(&net, current);
            match engine.backward_from_draws(
                &net,
                &region,
                current,
                &stream(8, t as u32).take_draws(1),
                &tolerance,
                &mut hint_stack,
                &mut scratch,
            ) {
                Ok(prev) => {
                    recovered.push(prev);
                    current = prev;
                }
                Err(_) => break,
            }
        }
        let expected: Vec<SegmentId> = chain[..7]
            .iter()
            .rev()
            .copied()
            .chain([SegmentId(20)])
            .collect();
        assert_ne!(recovered, expected, "wrong key must not reverse the chain");
    }

    #[test]
    fn rge_same_round_selection_is_injective_across_rows() {
        // Distinct rows of the same band map the same draw to distinct
        // columns — the structural reason same-round collisions cannot
        // happen (paper: "no repeated transition value in each row and
        // column").
        let net = grid_city(5, 5, 100.0);
        let region = RegionState::from_segments(
            &net,
            [SegmentId(0), SegmentId(1), SegmentId(2), SegmentId(9)],
        );
        let (rows, cols) = (
            region.sorted_by_length(&net),
            crate::frontier::candidates(&net, &region),
        );
        let table = TableView::new(&rows, &cols);
        for pick in 0..table.col_count() {
            let mut seen = std::collections::HashSet::new();
            for i in 0..table.row_count().min(table.col_count()) {
                assert!(seen.insert(table.forward_col(i, pick)));
            }
        }
    }

    #[test]
    fn hint_stack_pops_in_reverse() {
        let mut hs = HintStack::new(vec![1, 2, 3]);
        assert_eq!(hs.len(), 3);
        assert!(!hs.is_empty());
        assert_eq!(hs.pop(), Some(3));
        assert_eq!(hs.pop(), Some(2));
        assert_eq!(hs.pop(), Some(1));
        assert_eq!(hs.pop(), None);
        assert!(hs.is_empty());
    }

    #[test]
    fn engines_report_identity() {
        assert_eq!(RgeEngine::new().name(), "RGE");
        assert_eq!(RgeEngine::new().algorithm_id(), 1);
        let net = grid_city(2, 2, 10.0);
        let rple = RpleEngine::build(&net, 4);
        assert_eq!(rple.name(), "RPLE");
        assert_eq!(rple.algorithm_id(), 2);
        assert_eq!(rple.tables().t_len(), 4);
    }
}
