//! Property tests for scratch reuse and the owner-batched adversary.
//!
//! * A run of requests cloaked through one reused [`CloakScratch`]
//!   ([`cloak::anonymize_with_retry_scratch`], the path every service
//!   request takes) must match a fresh scratch per request, for both
//!   engines and owner counts of 0, 1 and sizes that are not a multiple
//!   of any SIMD lane width: no state leaks from one request to the
//!   next, also after a failed one.
//! * The batched adversary evaluation
//!   ([`cloak::attack::temporal::TemporalAdversary::begin_tick_population`])
//!   must be bit-identical to the per-owner path for every adversary
//!   mode.

use cloak::attack::temporal::{
    AdversaryConfig, AdversaryMode, Observation, ReplayProbe, TemporalAdversary,
};
use cloak::{
    anonymize_with_retry_scratch, random_expansion, CloakError, CloakScratch, LevelRequirement,
    PrivacyProfile, ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance,
};
use keystream::{Key256, Level};
use mobisim::OccupancySnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{grid_city, SegmentId};

/// No request, a single one, and two run lengths that are not a
/// multiple of any power-of-two lane width.
const OWNER_COUNTS: &[usize] = &[0, 1, 5, 17];

const MAX_ATTEMPTS: u32 = 4;

fn reused_scratch_matches_fresh(engine: &dyn ReversibleEngine) {
    let net = grid_city(8, 8, 100.0);
    let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
    let profile = PrivacyProfile::builder()
        .level(LevelRequirement::with_k(5))
        .level(LevelRequirement::with_k(9))
        .build()
        .unwrap();
    // Grows a few segments, then dead-ends on its tolerance: the walk
    // fails part-way and leaves its state in the scratch.
    let cramped = PrivacyProfile::builder()
        .level(LevelRequirement::with_k(3))
        .level(LevelRequirement::with_k(30).tolerance(SpatialTolerance::TotalLength(600.0)))
        .build()
        .unwrap();
    let mut scratch = CloakScratch::new();
    for &n in OWNER_COUNTS {
        for i in 0..n {
            // One unknown segment and one walk that fails part-way in the
            // middle of the run exercise the error paths.
            let segment = if i == 3 {
                SegmentId(9999)
            } else {
                SegmentId((i as u32 * 7) % 100)
            };
            let profile = if i == 2 { &cramped } else { &profile };
            let keys = [
                Key256::from_seed(3 * i as u64),
                Key256::from_seed(3 * i as u64 + 1),
            ];
            let nonce = 0xabc ^ i as u64;
            let cloak = |scratch: &mut CloakScratch| {
                anonymize_with_retry_scratch(
                    &net,
                    &snapshot,
                    segment,
                    profile,
                    &keys,
                    nonce,
                    engine,
                    MAX_ATTEMPTS,
                    scratch,
                )
            };
            let reused = cloak(&mut scratch);
            let fresh = cloak(&mut CloakScratch::new());
            if i == 2 {
                assert!(
                    matches!(
                        reused,
                        Err(CloakError::CloakingFailed {
                            level: Level(2),
                            ..
                        })
                    ),
                    "the cramped walk must fail after growing level 1: {reused:?}"
                );
            }
            match (reused, fresh) {
                (Ok((out_r, attempts_r)), Ok((out_f, attempts_f))) => {
                    assert_eq!(
                        out_r.payload.encode(),
                        out_f.payload.encode(),
                        "request {i} of {n}: payload bytes diverge"
                    );
                    assert_eq!(out_r.chain, out_f.chain, "request {i} of {n}");
                    assert_eq!(attempts_r, attempts_f, "request {i} of {n}");
                }
                (Err(e_r), Err(e_f)) => assert_eq!(e_r, e_f, "request {i} of {n}"),
                (r, f) => panic!("request {i} of {n}: reused {r:?} vs fresh {f:?}"),
            }
        }
    }
}

#[test]
fn rge_reused_scratch_matches_fresh_scratch() {
    reused_scratch_matches_fresh(&RgeEngine::new());
}

#[test]
fn rple_reused_scratch_matches_fresh_scratch() {
    reused_scratch_matches_fresh(&RpleEngine::build(&grid_city(8, 8, 100.0), 10));
}

#[test]
fn batched_adversary_observe_matches_per_owner() {
    let net = grid_city(8, 8, 100.0);
    let req = LevelRequirement::with_k(6);
    for mode in [
        AdversaryMode::Peel,
        AdversaryMode::Correlate,
        AdversaryMode::Move,
        AdversaryMode::All,
    ] {
        for &n in OWNER_COUNTS {
            let cfg = AdversaryConfig {
                mode,
                ..Default::default()
            };
            let mut batched = TemporalAdversary::new(&net, cfg.clone());
            let mut solo = TemporalAdversary::new(&net, cfg);
            let owners: Vec<String> = (0..n).map(|i| format!("owner-{i}")).collect();
            for tick in 1..=4u64 {
                let fresh = tick % 2 == 1;
                let snapshot =
                    OccupancySnapshot::uniform(net.segment_count(), ((tick % 3) + 1) as u32);
                // The batched adversary packs the whole population's
                // reachability masks up front; the per-owner adversary
                // computes each mask inside `observe`.
                batched.begin_tick_population(&snapshot, fresh, owners.iter().map(String::as_str));
                solo.begin_tick(&snapshot, fresh);
                for (i, owner) in owners.iter().enumerate() {
                    let seed = tick * 1000 + i as u64;
                    let true_segment = SegmentId(((i * 11 + tick as usize) % 100) as u32);
                    let region = random_expansion(
                        &net,
                        &snapshot,
                        true_segment,
                        &req,
                        &mut StdRng::seed_from_u64(seed),
                    )
                    .unwrap()
                    .segments;
                    let a = batched.observe(
                        &net,
                        owner,
                        Observation {
                            tick,
                            region: &region,
                            snapshot: &snapshot,
                            snapshot_fresh: fresh,
                        },
                        Some(ReplayProbe {
                            requirement: &req,
                            seed,
                        }),
                        Some(true_segment),
                    );
                    let b = solo.observe(
                        &net,
                        owner,
                        Observation {
                            tick,
                            region: &region,
                            snapshot: &snapshot,
                            snapshot_fresh: fresh,
                        },
                        Some(ReplayProbe {
                            requirement: &req,
                            seed,
                        }),
                        Some(true_segment),
                    );
                    assert_eq!(a, b, "mode {mode:?}, {n} owners, tick {tick}, {owner}");
                }
            }
        }
    }
}
