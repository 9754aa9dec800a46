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

use crate::region::RegionState;
use roadnet::SegmentId;

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
/// See the [module docs](self) for the reuse contract.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// `(length, id)`-sorted region members — RGE table rows.
    pub(crate) rows: Vec<SegmentId>,
    /// Sorted candidate frontier — RGE table columns.
    pub(crate) cols: Vec<SegmentId>,
    /// Frontier dedup stamps (one slot per segment).
    pub(crate) stamp: StampSet,
    /// Materialized draws of the step substream, replayed across
    /// hypothesis simulations.
    pub(crate) draws: Vec<u64>,
    /// RPLE predecessor hypotheses.
    pub(crate) hyp: Vec<SegmentId>,
}

impl StepScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
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
    /// Context bytes for deriving keyed streams (`rc/step/…` etc.).
    pub(crate) ctx: Vec<u8>,
    /// Plain (decrypted) per-step accepting rounds of one level.
    pub(crate) rounds: Vec<u32>,
    /// Plain (decrypted) quotient hints of one level.
    pub(crate) hints: Vec<u32>,
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
        assert!(c.ctx.is_empty());
        let s = StepScratch::new();
        assert!(s.rows.is_empty() && s.cols.is_empty() && s.hyp.is_empty());
    }
}
