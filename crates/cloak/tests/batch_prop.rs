//! Property tests for scratch reuse.
//!
//! A run of requests cloaked through one reused [`CloakScratch`]
//! ([`cloak::anonymize_with_retry_scratch`], the path every service
//! request takes) must match a fresh scratch per request, for both
//! engines and owner counts of 0, 1 and sizes that are not a multiple of
//! any SIMD lane width: no state leaks from one request to the next,
//! also after a failed one.

use cloak::{
    anonymize_with_retry_scratch, deanonymize_with_scratch, CloakError, CloakScratch,
    LevelRequirement, PrivacyProfile, ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance,
};
use keystream::{Key256, KeyManager, Level};
use mobisim::OccupancySnapshot;
use roadnet::{city_map, grid_city, RoadNetwork, SegmentId};

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
                    i as u64,
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

/// Cloaks and peels a run of requests through one reused
/// [`CloakScratch`], as a pipeline worker does, and checks every receipt
/// and every peel against a fresh scratch per call. Tight tolerances make
/// some walks fail part-way through a level (a retry then starts a new
/// walk on the same scratch, and some requests fail outright), and a
/// tampered copy of some receipts fails its peel part-way, so the
/// tracked RGE tables are left mid-walk before the next call reuses
/// them.
fn tracked_tables_survive_reuse(engine: &dyn ReversibleEngine, net: &RoadNetwork) {
    let counts = (0..net.segment_count() as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 30)
        .collect();
    let snapshot = OccupancySnapshot::from_counts(counts);
    let profiles = [
        PrivacyProfile::builder()
            .level(LevelRequirement::with_k(4))
            .level(LevelRequirement::with_k(12))
            .level(LevelRequirement::with_k(20))
            .build()
            .unwrap(),
        PrivacyProfile::builder()
            .level(LevelRequirement::with_k(4))
            .level(LevelRequirement::with_k(14).tolerance(SpatialTolerance::TotalLength(900.0)))
            .build()
            .unwrap(),
        PrivacyProfile::builder()
            .level(LevelRequirement::with_k(5).tolerance(SpatialTolerance::BboxDiagonal(330.0)))
            .level(LevelRequirement::with_k(10).tolerance(SpatialTolerance::BboxDiagonal(420.0)))
            .build()
            .unwrap(),
    ];
    let mut scratch = CloakScratch::new();
    let (mut retried, mut refused, mut tampered) = (0, 0, 0);
    for i in 0..60u64 {
        let profile = &profiles[i as usize % profiles.len()];
        let keys = KeyManager::from_seed(profile.level_count(), 0x5eed ^ i);
        let level_keys: Vec<Key256> = keys.iter().map(|(_, k)| k).collect();
        let segment = SegmentId((i as u32 * 37) % net.segment_count() as u32);
        let cloak = |scratch: &mut CloakScratch| {
            anonymize_with_retry_scratch(
                net,
                &snapshot,
                segment,
                profile,
                &level_keys,
                0x1d ^ i,
                i,
                engine,
                MAX_ATTEMPTS,
                scratch,
            )
        };
        let (out, attempts) = match (cloak(&mut scratch), cloak(&mut CloakScratch::new())) {
            (Ok(reused), Ok(fresh)) => {
                assert_eq!(
                    reused.0.payload.encode(),
                    fresh.0.payload.encode(),
                    "request {i}"
                );
                assert_eq!(reused.0.chain, fresh.0.chain, "request {i}");
                assert_eq!(reused.1, fresh.1, "request {i}");
                reused
            }
            (Err(reused), Err(fresh)) => {
                assert_eq!(reused, fresh, "request {i}");
                refused += 1;
                continue;
            }
            (r, f) => panic!("request {i}: reused {r:?} vs fresh {f:?}"),
        };
        retried += usize::from(attempts > 1);
        if i % 4 == 1 {
            let mut bad = out.payload.clone();
            let top = bad.levels.len() - 1;
            if let Some(round) = bad.levels[top].enc_rounds.first_mut() {
                *round ^= 1;
                let all = keys.keys_down_to(Level(0)).unwrap();
                let reused = deanonymize_with_scratch(net, &bad, &all, engine, &mut scratch);
                let fresh =
                    deanonymize_with_scratch(net, &bad, &all, engine, &mut CloakScratch::new());
                assert_eq!(reused, fresh, "request {i}: tampered peel");
                tampered += usize::from(reused.is_err());
            }
        }
        for level in (0..profile.level_count() as u8).rev() {
            let down = keys.keys_down_to(Level(level)).unwrap();
            let reused = deanonymize_with_scratch(net, &out.payload, &down, engine, &mut scratch);
            let fresh = deanonymize_with_scratch(
                net,
                &out.payload,
                &down,
                engine,
                &mut CloakScratch::new(),
            );
            assert_eq!(reused, fresh, "request {i}: peel to L{level}");
            let view = reused.unwrap_or_else(|e| panic!("request {i}: peel to L{level}: {e}"));
            if level == 0 {
                assert_eq!(view.segments, vec![segment], "request {i}");
            }
        }
    }
    assert!(retried > 0, "no request needed a retry");
    assert!(refused > 0, "no request failed every attempt");
    assert!(tampered > 0, "no tampered peel failed");
}

#[test]
fn rge_tracked_tables_survive_reused_scratch_and_failed_walks() {
    let net = city_map(5, 1500);
    tracked_tables_survive_reuse(&RgeEngine::new(), &net);
}

#[test]
fn rple_reused_scratch_survives_failed_walks() {
    let net = city_map(5, 1500);
    tracked_tables_survive_reuse(&RpleEngine::build(&net, 8), &net);
}
