//! Engine-level property tests on irregular (non-grid) maps: the
//! step-by-step reversibility contract must hold on realistic street
//! topology, not only on lattices.

use cloak::{
    HintStack, RegionState, ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance, StepScratch,
};
use keystream::{DrawStream, Key256};
use proptest::prelude::*;
use roadnet::{irregular_city, IrregularConfig, RoadNetwork, SegmentId};

fn step_stream(key_seed: u64, step: u32) -> DrawStream {
    DrawStream::new(Key256::from_seed(key_seed), &step.to_le_bytes())
}

/// Walks forward `steps` times and back, asserting exact recovery.
/// Returns false when the walk dead-ended (skipped case).
fn roundtrip(
    engine: &dyn ReversibleEngine,
    net: &RoadNetwork,
    seed_segment: SegmentId,
    steps: usize,
    key_seed: u64,
    tolerance: SpatialTolerance,
) -> Result<bool, TestCaseError> {
    let mut scratch = StepScratch::default();
    let mut region = RegionState::from_segments(net, [seed_segment]);
    let mut last = seed_segment;
    let mut chain = Vec::new();
    let mut hints = Vec::new();
    let mut rounds = Vec::new();
    for t in 0..steps {
        let mut s = step_stream(key_seed, t as u32);
        match engine.forward_step(net, &region, last, &mut s, &tolerance, &mut scratch) {
            Ok(acc) => {
                region.insert(net, acc.segment);
                if let Some(h) = acc.hint {
                    hints.push(h);
                }
                rounds.push(acc.draws);
                chain.push(acc.segment);
                last = acc.segment;
            }
            Err(_) => return Ok(false),
        }
    }
    let mut hint_stack = HintStack::new(hints);
    let mut current = *chain.last().expect("steps >= 1");
    for t in (0..steps).rev() {
        region.remove(net, current);
        let draws = step_stream(key_seed, t as u32).take_draws(rounds[t] as usize);
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
            .map_err(|e| TestCaseError::fail(format!("backward step {t}: {e}")))?;
        let expected = if t == 0 { seed_segment } else { chain[t - 1] };
        prop_assert_eq!(prev, expected, "backward step {} diverged", t);
        current = prev;
    }
    prop_assert_eq!(region.len(), 1);
    prop_assert!(region.contains(seed_segment));
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn rge_reversible_on_irregular_maps(
        map_seed in any::<u64>(),
        key_seed in any::<u64>(),
        seg in 0u32..150,
        steps in 1usize..25,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 120,
            segments: 150,
            seed: map_seed,
            ..Default::default()
        });
        let engine = RgeEngine::new();
        roundtrip(
            &engine,
            &net,
            SegmentId(seg % net.segment_count() as u32),
            steps,
            key_seed,
            SpatialTolerance::Unlimited,
        )?;
    }

    #[test]
    fn rple_reversible_on_irregular_maps(
        map_seed in any::<u64>(),
        key_seed in any::<u64>(),
        seg in 0u32..150,
        steps in 1usize..15,
        t_len in 6usize..14,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 120,
            segments: 150,
            seed: map_seed,
            ..Default::default()
        });
        let engine = RpleEngine::build(&net, t_len);
        // Dead-ends are allowed (local expansion); completed walks must
        // reverse exactly, which `roundtrip` asserts internally.
        let _ = roundtrip(
            &engine,
            &net,
            SegmentId(seg % net.segment_count() as u32),
            steps,
            key_seed,
            SpatialTolerance::Unlimited,
        )?;
    }

    #[test]
    fn rge_reversible_under_random_tolerances(
        map_seed in any::<u64>(),
        key_seed in any::<u64>(),
        seg in 0u32..150,
        steps in 1usize..12,
        tol_m in 500f64..4000.0,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 120,
            segments: 150,
            seed: map_seed,
            ..Default::default()
        });
        let engine = RgeEngine::new();
        let _ = roundtrip(
            &engine,
            &net,
            SegmentId(seg % net.segment_count() as u32),
            steps,
            key_seed,
            SpatialTolerance::TotalLength(tol_m),
        )?;
    }

    #[test]
    fn forward_steps_always_extend_connected_regions(
        map_seed in any::<u64>(),
        key_seed in any::<u64>(),
        seg in 0u32..150,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 100,
            segments: 130,
            seed: map_seed,
            ..Default::default()
        });
        let engine = RgeEngine::new();
        let seed_segment = SegmentId(seg % net.segment_count() as u32);
        let mut scratch = StepScratch::default();
        let mut region = RegionState::from_segments(&net, [seed_segment]);
        let mut last = seed_segment;
        for t in 0..10u32 {
            let mut s = step_stream(key_seed, t);
            match engine.forward_step(
                &net,
                &region,
                last,
                &mut s,
                &SpatialTolerance::Unlimited,
                &mut scratch,
            ) {
                Ok(acc) => {
                    // The new segment touches the region.
                    prop_assert!(!region.contains(acc.segment));
                    let touches = region
                        .iter_ids()
                        .any(|m| net.segments_adjacent(m, acc.segment));
                    prop_assert!(touches, "selected segment is not on the frontier");
                    region.insert(&net, acc.segment);
                    let ids = region.to_sorted_ids();
                    prop_assert!(net.segments_connected(&ids));
                    last = acc.segment;
                }
                Err(_) => break,
            }
        }
    }
}
