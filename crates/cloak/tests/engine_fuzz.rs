//! Seeded mutation fuzzing of the engine state machine.
//!
//! `payload_fuzz.rs` sweeps the *decode* surface; this file points the
//! same offline idiom (seeded splitmix corpus + bounded proptest sweep)
//! at the *engine* surface: randomized forward / backward / ambiguity
//! sequences driven over mutated region states — disconnected islands,
//! duplicate inserts, hostile rounds and hint stacks — against both
//! engines. The properties:
//!
//! * no call ever panics: every outcome is a [`StepAccept`] or a
//!   structured [`StepFailure`], whatever state the region was left in;
//! * **forward ∘ backward round-trips whenever forward succeeded** —
//!   from *any* mutated starting region, a chain of accepted forward
//!   steps reversed with the recorded rounds/hints recovers the exact
//!   chain, because forward acceptance already proved the transition
//!   unambiguous;
//! * hostile backward inputs (wrong round, wrong removed segment, empty
//!   or garbage hint stack) fail closed: `Err`, or an `Ok` that is a
//!   genuine consistent predecessor — never an out-of-region segment.
//!
//! Deterministic by test name; override with `PROPTEST_SEED` to widen
//! the sweep (CI's `fuzz-smoke` job does).

use cloak::{
    HintStack, RegionState, ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance, StepAccept,
    StepScratch,
};
use keystream::{DrawStream, Key256};
use proptest::prelude::*;
use roadnet::{grid_city, RoadNetwork, SegmentId};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn stream(seed: u64, step: u32) -> DrawStream {
    DrawStream::new(Key256::from_seed(seed), &step.to_le_bytes())
}

fn engines(net: &RoadNetwork) -> Vec<Box<dyn ReversibleEngine>> {
    vec![
        Box::new(RgeEngine::new()),
        Box::new(RpleEngine::build(net, 8)),
    ]
}

fn tolerance_from(seed: u64) -> SpatialTolerance {
    let mut s = seed;
    match splitmix(&mut s) % 3 {
        0 => SpatialTolerance::Unlimited,
        1 => SpatialTolerance::TotalLength(100.0 + (splitmix(&mut s) % 4000) as f64),
        _ => SpatialTolerance::BboxDiagonal(150.0 + (splitmix(&mut s) % 4000) as f64),
    }
}

/// A mutated region state: a random base segment plus a handful of
/// random extra segments — possibly disconnected from the base, possibly
/// duplicated (duplicate inserts are no-ops). Exactly the shape a
/// corrupted snapshot or a truncated restore would leave behind.
fn mutated_region(net: &RoadNetwork, seed: u64) -> (RegionState, SegmentId) {
    let mut s = seed;
    let n = net.segment_count() as u64;
    let base = SegmentId((splitmix(&mut s) % n) as u32);
    let mut region = RegionState::from_segments(net, [base]);
    for _ in 0..splitmix(&mut s) % 8 {
        region.insert(net, SegmentId((splitmix(&mut s) % n) as u32));
    }
    (region, base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Forward walks started from mutated regions round-trip exactly:
    /// every accepted forward step reverses to its predecessor with the
    /// recorded round and hints, for both engines, under every tolerance
    /// kind. Walks that fail forward (dead ends, voided budgets) are
    /// skipped — acceptance is the precondition of reversibility.
    #[test]
    fn forward_backward_round_trips_from_mutated_regions(
        seed in any::<u64>(),
        key_seed in any::<u64>(),
        steps in 1usize..10,
    ) {
        let net = grid_city(5, 5, 100.0);
        let tolerance = tolerance_from(seed ^ 0x701e);
        for engine in engines(&net) {
            let (mut region, base) = mutated_region(&net, seed);
            let mut scratch = StepScratch::default();
            let mut last = base;
            let mut chain = Vec::new();
            let mut hints = Vec::new();
            let mut rounds = Vec::new();
            for t in 0..steps {
                let mut s = stream(key_seed, t as u32);
                let Ok(acc) = engine.forward_step(
                    &net, &region, last, &mut s, &tolerance, &mut scratch,
                ) else {
                    break;
                };
                prop_assert!(
                    !region.contains(acc.segment),
                    "{}: accepted a segment already in the region",
                    engine.name()
                );
                region.insert(&net, acc.segment);
                if let Some(h) = acc.hint {
                    hints.push(h);
                }
                rounds.push(acc.draws);
                chain.push(acc.segment);
                last = acc.segment;
            }
            // Reverse whatever prefix was accepted.
            let mut hint_stack = HintStack::new(hints);
            for t in (0..chain.len()).rev() {
                let removed = chain[t];
                region.remove(&net, removed);
                let draws = stream(key_seed, t as u32).take_draws(rounds[t] as usize);
                let prev = engine
                    .backward_from_draws(
                        &net, &region, removed, &draws, &tolerance, &mut hint_stack,
                        &mut scratch,
                    )
                    .unwrap_or_else(|e| {
                        panic!("{}: accepted step {t} failed to reverse: {e}", engine.name())
                    });
                let expected = if t == 0 { base } else { chain[t - 1] };
                prop_assert_eq!(
                    prev, expected,
                    "{}: backward step {} recovered the wrong predecessor",
                    engine.name(), t
                );
            }
        }
    }

    /// Random operation soup over mutated regions: interleaved forward,
    /// backward, and ambiguity calls with hostile arguments (random
    /// removed segments, random expected rounds, garbage hint stacks).
    /// Nothing panics; backward either fails closed or returns a segment
    /// of the network; ambiguity counts are finite.
    #[test]
    fn random_operation_sequences_never_panic(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let net = grid_city(4, 4, 100.0);
        let n = net.segment_count() as u64;
        let tolerance = tolerance_from(seed);
        for engine in engines(&net) {
            let (mut region, base) = mutated_region(&net, seed);
            let mut scratch = StepScratch::default();
            let mut last = base;
            for (i, &op) in ops.iter().enumerate() {
                let mut s = stream(seed ^ op, i as u32);
                match op % 3 {
                    0 => {
                        if let Ok(StepAccept { segment, .. }) = engine.forward_step(
                            &net, &region, last, &mut s, &tolerance, &mut scratch,
                        ) {
                            region.insert(&net, segment);
                            last = segment;
                        }
                    }
                    1 => {
                        // Hostile backward: random removed segment (not
                        // necessarily ever added), random round, garbage
                        // hints. The region must survive untouched.
                        let removed = SegmentId((op % n) as u32);
                        let was_in = region.remove(&net, removed);
                        let mut hints =
                            HintStack::new(vec![(op >> 7) as u32; (op % 3) as usize]);
                        let before = region.len();
                        let draws = s.take_draws((op >> 11) as usize % 64);
                        let result = engine.backward_from_draws(
                            &net, &region, removed, &draws, &tolerance, &mut hints,
                            &mut scratch,
                        );
                        prop_assert_eq!(region.len(), before);
                        if let Ok(prev) = result {
                            prop_assert!((prev.0 as u64) < n);
                        }
                        if was_in {
                            region.insert(&net, removed);
                        }
                    }
                    _ => {
                        let removed = SegmentId((op % n) as u32);
                        let was_in = region.remove(&net, removed);
                        let mut hints =
                            HintStack::new(vec![(op >> 9) as u32; (op % 2) as usize]);
                        let count = engine.ambiguous_predecessors(
                            &net, &region, removed, &mut s, &tolerance, &mut hints,
                            &mut scratch,
                        );
                        prop_assert!(count <= net.segment_count());
                        if was_in {
                            region.insert(&net, removed);
                        }
                    }
                }
            }
        }
    }

    /// A wrong expected round must not silently alias to the right
    /// predecessor *chain*: reversing an accepted step with a mutated
    /// round either fails, or recovers some consistent predecessor — and
    /// with the *correct* round it always recovers the true one (the
    /// determinism the receipt's encrypted round metadata buys).
    #[test]
    fn mutated_rounds_never_break_determinism_of_the_true_round(
        seed in any::<u64>(),
        key_seed in any::<u64>(),
        round_delta in 1u32..16,
    ) {
        let net = grid_city(5, 5, 100.0);
        let tolerance = SpatialTolerance::Unlimited;
        for engine in engines(&net) {
            let (mut region, base) = mutated_region(&net, seed);
            let mut scratch = StepScratch::default();
            let mut s = stream(key_seed, 0);
            let Ok(acc) = engine.forward_step(
                &net, &region, base, &mut s, &tolerance, &mut scratch,
            ) else {
                continue;
            };
            // True round: exact recovery, twice (stateless determinism).
            for _ in 0..2 {
                let mut hints = HintStack::new(acc.hint.into_iter().collect());
                let draws = stream(key_seed, 0).take_draws(acc.draws as usize);
                let prev = engine.backward_from_draws(
                    &net, &region, acc.segment, &draws, &tolerance, &mut hints, &mut scratch,
                );
                prop_assert_eq!(prev.ok(), Some(base), "{}", engine.name());
            }
            // Mutated round: fail closed or land on a real segment.
            let mut hints = HintStack::new(acc.hint.into_iter().collect());
            let draws = stream(key_seed, 0).take_draws((acc.draws + round_delta) as usize);
            if let Ok(prev) = engine.backward_from_draws(
                &net, &region, acc.segment, &draws, &tolerance, &mut hints, &mut scratch,
            ) {
                prop_assert!((prev.0 as usize) < net.segment_count());
            }
            region.insert(&net, acc.segment);
        }
    }
}

/// The degenerate states a fuzzer finds first: a single-segment region
/// (nothing to remove), and backward over an empty hint stack where the
/// engine required hints. All fail closed.
#[test]
fn degenerate_states_fail_closed() {
    let net = grid_city(3, 3, 100.0);
    let tolerance = SpatialTolerance::Unlimited;
    for engine in engines(&net) {
        let region = RegionState::from_segments(&net, [SegmentId(0)]);
        let mut scratch = StepScratch::default();
        // Backward with `removed` never in the region, no draws, no
        // hints: must not panic, must not invent mass.
        let mut hints = HintStack::new(Vec::new());
        let _ = engine.backward_from_draws(
            &net,
            &region,
            SegmentId(5),
            &[],
            &tolerance,
            &mut hints,
            &mut scratch,
        );
        let mut s = stream(7, 0);
        let mut hints = HintStack::new(Vec::new());
        let count = engine.ambiguous_predecessors(
            &net,
            &region,
            SegmentId(5),
            &mut s,
            &tolerance,
            &mut hints,
            &mut scratch,
        );
        assert!(count <= net.segment_count());
    }
}
