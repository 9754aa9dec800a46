//! Deterministic, seeded fault injection for the continuous pipeline.
//!
//! Durability claims are only as good as the failures they were tested
//! under. This module injects the failures a deployed anonymizer
//! actually meets — journal write errors, snapshot-capture failures,
//! per-owner cloak failures, and a simulated crash between
//! ratchet-advance and receipt-issue — *deterministically*: every
//! injection decision is a pure function of the [`FaultPlan`] seed and a
//! per-category draw counter, so a failing run replays exactly.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — what to inject, with per-category probabilities;
//! * [`FaultInjector`] — the seeded coin, shared between the pipeline
//!   and the store wrapper;
//! * [`FaultyStore`] — wraps any [`ChainStore`] and refuses journal
//!   writes when the injector says so (the pipeline installs it
//!   automatically when a plan is configured);
//! * [`FaultPolicy`] — the tick-level degradation ladder the pipeline
//!   applies to persistence failures: retry, then skip the owner and
//!   count it, then abort the tick once the skip budget is blown;
//! * [`TickHealth`] — the per-tick health counters surfaced in
//!   [`crate::TickReport::health`].
//!
//! Because the service commits a ratchet advance only after the store
//! acknowledged it, a retry after an injected journal failure re-derives
//! the *same* epoch — so a run whose retries all succeed is
//! receipt-for-receipt identical to the fault-free run.

use crate::service::splitmix64;
use keystream::{ChainState, ChainStore, JournalError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to inject, with per-category probabilities in `[0, 1]`.
///
/// The default plan injects nothing; a zero probability never draws from
/// the injector's counter stream, so enabling one category does not
/// shift another's decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a [`ChainStore::record`] write fails.
    pub journal_write_fail: f64,
    /// Probability that a cadence snapshot capture fails (the pipeline
    /// keeps serving the stale snapshot and counts the fault).
    pub snapshot_capture_fail: f64,
    /// Probability that an owner's cloak fails this tick (the receipt is
    /// dropped as if the walk dead-ended).
    pub cloak_fail: f64,
    /// Simulate a crash at this tick, after every owner's ratchet
    /// advance was journaled but before any receipt is issued — the
    /// window a write-ahead log exists for.
    pub crash_at_tick: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xfa_017,
            journal_write_fail: 0.0,
            snapshot_capture_fail: 0.0,
            cloak_fail: 0.0,
            crash_at_tick: None,
        }
    }
}

/// The tick-level degradation ladder for persistence failures:
/// retry → skip-owner-and-count → abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Re-anonymization attempts per owner after a persistence failure
    /// (the chain did not advance, so a retry re-derives the same epoch).
    pub journal_retries: u32,
    /// Owners that may be skipped in one tick after exhausting retries
    /// before the tick aborts with a [`crate::PipelineError`].
    pub max_skipped_owners: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            journal_retries: 2,
            max_skipped_owners: usize::MAX,
        }
    }
}

impl FaultPolicy {
    /// A zero-tolerance policy: no retries, no skips — the first
    /// unrecovered persistence failure aborts the tick.
    pub fn strict() -> Self {
        FaultPolicy {
            journal_retries: 0,
            max_skipped_owners: 0,
        }
    }
}

/// Per-tick health counters, surfaced in [`crate::TickReport::health`].
///
/// All zeros ([`is_clean`](Self::is_clean)) on every tick of a
/// fault-free run; under a [`FaultPlan`] they account for exactly what
/// was injected and how the degradation ladder absorbed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickHealth {
    /// Re-anonymization retries after journal write failures.
    pub journal_retries: u64,
    /// Owners skipped this tick after exhausting journal retries.
    pub journal_skips: u64,
    /// Cadence snapshot captures that failed (stale snapshot served).
    pub snapshot_faults: u64,
    /// Receipts dropped by injected per-owner cloak failures.
    pub injected_cloak_failures: u64,
}

impl TickHealth {
    /// Whether the tick ran with no degradation at all.
    pub fn is_clean(&self) -> bool {
        *self == TickHealth::default()
    }
}

/// Per-category draw domains: decisions in one category never perturb
/// another's stream.
const DOMAIN_JOURNAL: u64 = 0x6a75_726e;
const DOMAIN_SNAPSHOT: u64 = 0x736e_6170;
const DOMAIN_CLOAK: u64 = 0x636c_6f61;

/// The seeded coin behind every injection decision.
///
/// Each category keeps its own atomic draw counter; decision `n` of a
/// category is `splitmix64(seed ⊕ domain ⊕ n·φ) < p·2⁶⁴` — deterministic
/// under any thread interleaving as long as draws happen in a
/// deterministic order (the pipeline draws only from its sequential
/// sections: the batch key pre-pass and the tick report loop).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    journal_draws: AtomicU64,
    snapshot_draws: AtomicU64,
    cloak_draws: AtomicU64,
    injected_journal: AtomicU64,
}

impl FaultInjector {
    /// Builds the injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            journal_draws: AtomicU64::new(0),
            snapshot_draws: AtomicU64::new(0),
            cloak_draws: AtomicU64::new(0),
            injected_journal: AtomicU64::new(0),
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn roll(&self, domain: u64, counter: &AtomicU64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            counter.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let n = counter.fetch_add(1, Ordering::Relaxed);
        let x = splitmix64(self.plan.seed ^ domain ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Compare in the integer domain: x < p·2⁶⁴.
        (x as f64) < p * (u64::MAX as f64)
    }

    /// Should the next journal write fail?
    pub fn journal_write_fault(&self) -> bool {
        let hit = self.roll(
            DOMAIN_JOURNAL,
            &self.journal_draws,
            self.plan.journal_write_fail,
        );
        if hit {
            self.injected_journal.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this cadence snapshot capture fail?
    pub fn snapshot_fault(&self) -> bool {
        self.roll(
            DOMAIN_SNAPSHOT,
            &self.snapshot_draws,
            self.plan.snapshot_capture_fail,
        )
    }

    /// Should this owner's cloak fail this tick?
    pub fn cloak_fault(&self) -> bool {
        self.roll(DOMAIN_CLOAK, &self.cloak_draws, self.plan.cloak_fail)
    }

    /// Is the simulated crash due at `tick`?
    pub fn crash_due(&self, tick: u64) -> bool {
        self.plan.crash_at_tick == Some(tick)
    }

    /// Journal write failures injected so far.
    pub fn injected_journal_faults(&self) -> u64 {
        self.injected_journal.load(Ordering::Relaxed)
    }
}

/// A [`ChainStore`] wrapper that consults a [`FaultInjector`] before
/// each journal write — the harness's stand-in for a flaky disk. Loads
/// always pass through: recovery reads are the thing being tested, not
/// the thing being broken. Compactions pass through too: neither the
/// service nor the pipeline calls [`ChainStore::compact`], and a
/// compacting store compacts inside its own `record`.
pub struct FaultyStore {
    inner: Arc<dyn ChainStore>,
    injector: Arc<FaultInjector>,
}

impl std::fmt::Debug for FaultyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStore")
            .field("injector", &self.injector)
            .finish_non_exhaustive()
    }
}

impl FaultyStore {
    /// Wraps `inner` under `injector`'s plan.
    pub fn new(inner: Arc<dyn ChainStore>, injector: Arc<FaultInjector>) -> Self {
        FaultyStore { inner, injector }
    }
}

impl ChainStore for FaultyStore {
    fn record(&self, owner: &str, state: &ChainState) -> Result<(), JournalError> {
        if self.injector.journal_write_fault() {
            return Err(JournalError::Injected(format!(
                "journal write refused for owner {owner}"
            )));
        }
        self.inner.record(owner, state)
    }

    fn load(&self) -> Result<Vec<(String, ChainState)>, JournalError> {
        self.inner.load()
    }

    fn compact(&self) -> Result<(), JournalError> {
        self.inner.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystream::{Key256, MemStore};

    #[test]
    fn injection_is_deterministic_per_seed_and_draw_index() {
        let plan = FaultPlan {
            seed: 42,
            journal_write_fail: 0.3,
            ..Default::default()
        };
        let a: Vec<bool> = {
            let inj = FaultInjector::new(plan.clone());
            (0..64).map(|_| inj.journal_write_fault()).collect()
        };
        let b: Vec<bool> = {
            let inj = FaultInjector::new(plan);
            (0..64).map(|_| inj.journal_write_fault()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.3 over 64 draws injects some");
        assert!(a.iter().any(|&x| !x), "…but not all");
    }

    #[test]
    fn categories_draw_independently() {
        let plan = FaultPlan {
            seed: 7,
            journal_write_fail: 0.5,
            cloak_fail: 0.5,
            ..Default::default()
        };
        // Interleaving draws across categories must not change either
        // category's sequence.
        let solo: Vec<bool> = {
            let inj = FaultInjector::new(plan.clone());
            (0..32).map(|_| inj.cloak_fault()).collect()
        };
        let interleaved: Vec<bool> = {
            let inj = FaultInjector::new(plan);
            (0..32)
                .map(|_| {
                    let _ = inj.journal_write_fault();
                    inj.cloak_fault()
                })
                .collect()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn zero_probability_never_fires_and_never_draws() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..100 {
            assert!(!inj.journal_write_fault());
            assert!(!inj.snapshot_fault());
            assert!(!inj.cloak_fault());
        }
        assert_eq!(inj.injected_journal_faults(), 0);
    }

    #[test]
    fn faulty_store_refuses_per_plan_and_passes_loads() {
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            seed: 1,
            journal_write_fail: 1.0,
            ..Default::default()
        }));
        let store = FaultyStore::new(Arc::new(MemStore::new()), Arc::clone(&injector));
        let mut chain = ChainState::genesis("alice", &Key256::from_seed(1));
        chain.ratchet();
        assert!(matches!(
            store.record("alice", &chain),
            Err(JournalError::Injected(_))
        ));
        assert_eq!(injector.injected_journal_faults(), 1);
        assert!(store.load().unwrap().is_empty(), "nothing was recorded");
        assert!(store.compact().is_ok(), "compactions pass through");
    }

    #[test]
    fn crash_is_a_tick_trigger_not_a_coin() {
        let inj = FaultInjector::new(FaultPlan {
            crash_at_tick: Some(3),
            ..Default::default()
        });
        assert!(!inj.crash_due(2));
        assert!(inj.crash_due(3));
        assert!(!inj.crash_due(4));
    }
}
