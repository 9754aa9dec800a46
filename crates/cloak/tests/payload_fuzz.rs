//! Structure-aware mutation fuzzing of the payload decoder.
//!
//! The container has no `cargo-fuzz`, so this is the offline stand-in
//! (the routinator `fuzz/` idiom recast as seeded proptest): generate a
//! corpus of *valid* wire-v3 payloads, then sweep the mutations an
//! adversary actually gets to make — bit flips, truncations, and hostile
//! length-field splices — and assert the decoder never panics, never
//! sizes an allocation from a hostile count, and accepts only canonical
//! bytes (anything it accepts must re-encode to the exact input).
//!
//! The second half runs on *real* receipts, cloaked under real keys:
//! every single bit flip, and every splice of headers, regions, anchors,
//! levels or byte ranges between two receipts under one key set, must be
//! rejected by decode or, with the right keys, by the peel, before it
//! walks (wire v3 authenticates the whole receipt under the top key).
//!
//! Deterministic by test name; override with `PROPTEST_SEED` to widen
//! the sweep. CI runs this at a fixed case budget (`fuzz-smoke`).

use cloak::{
    anonymize_with_retry_scratch, deanonymize, CloakPayload, CloakScratch, DecodeError, LevelMeta,
    LevelRequirement, PrivacyProfile, ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance,
};
use keystream::{Key256, KeyManager, Level, Tag128};
use mobisim::OccupancySnapshot;
use proptest::prelude::*;
use roadnet::{grid_city, RoadNetwork, SegmentId};
use std::sync::OnceLock;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a structurally valid payload from a seed: 0–3 levels, 0–5
/// segments per level, hints bounded by steps, mixed tolerance kinds.
fn corpus_payload(seed: u64) -> CloakPayload {
    let mut s = seed;
    let level_count = (splitmix(&mut s) % 4) as usize;
    let mut levels = Vec::with_capacity(level_count);
    let mut total = 0u32;
    for _ in 0..level_count {
        let count = (splitmix(&mut s) % 6) as u32;
        total += count;
        let mut tag = [0u8; 16];
        for b in tag.iter_mut() {
            *b = splitmix(&mut s) as u8;
        }
        let tolerance = match splitmix(&mut s) % 3 {
            0 => SpatialTolerance::Unlimited,
            1 => SpatialTolerance::TotalLength((splitmix(&mut s) % 100_000) as f64 / 7.0),
            _ => SpatialTolerance::BboxDiagonal((splitmix(&mut s) % 100_000) as f64 / 3.0),
        };
        let enc_rounds = (0..count).map(|_| splitmix(&mut s) as u32).collect();
        let hint_count = if count == 0 {
            0
        } else {
            splitmix(&mut s) % (count as u64 + 1)
        };
        let enc_hints = (0..hint_count).map(|_| splitmix(&mut s) as u32).collect();
        levels.push(LevelMeta {
            count,
            tag: Tag128(tag),
            tolerance,
            enc_rounds,
            enc_hints,
        });
    }
    // Region = seed segment + every added segment, strictly ascending.
    let mut segments = Vec::with_capacity(total as usize + 1);
    let mut id = splitmix(&mut s) % 1000;
    for _ in 0..=total {
        segments.push(SegmentId(id as u32));
        id += 1 + splitmix(&mut s) % 9;
    }
    let enc_anchor = if levels.is_empty() {
        0
    } else {
        splitmix(&mut s) as u32
    };
    CloakPayload {
        algorithm: 1 + (splitmix(&mut s) % 2) as u8,
        nonce: splitmix(&mut s),
        epoch: splitmix(&mut s),
        segments,
        enc_anchor,
        levels,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bit flips anywhere in a valid payload: decode never panics, and
    /// any mutant it *accepts* is canonical — it re-encodes to exactly
    /// the mutated bytes, so no two distinct byte strings alias to the
    /// same accepted payload.
    #[test]
    fn bit_flipped_payloads_never_panic_and_accepts_are_canonical(
        seed in any::<u64>(),
        flips in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        let mut bytes = corpus_payload(seed).encode().to_vec();
        for &f in &flips {
            let idx = (f >> 3) as usize % bytes.len();
            bytes[idx] ^= 1 << (f & 7);
        }
        if let Ok(decoded) = CloakPayload::decode(&bytes) {
            prop_assert_eq!(decoded.encode().to_vec(), bytes);
        }
    }

    /// Every strict prefix of a valid payload must be rejected — the
    /// format is self-delimiting, so a truncation can never parse.
    #[test]
    fn every_truncation_of_a_valid_payload_is_rejected(seed in any::<u64>()) {
        let bytes = corpus_payload(seed).encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                CloakPayload::decode(&bytes[..cut]).is_err(),
                "decode accepted a {}-byte prefix of a {}-byte payload",
                cut, bytes.len()
            );
        }
    }

    /// Hostile length splice: overwrite the segment-count field with an
    /// arbitrary inflated value. Decode must reject it as hostile (or as
    /// a downstream structural error) without allocating toward it.
    #[test]
    fn spliced_segment_counts_never_over_allocate(
        seed in any::<u64>(),
        hostile in any::<u32>(),
    ) {
        let payload = corpus_payload(seed);
        let mut bytes = payload.encode().to_vec();
        bytes[22..26].copy_from_slice(&hostile.to_le_bytes());
        let real = payload.segments.len() as u32;
        match CloakPayload::decode(&bytes) {
            Ok(p) => prop_assert_eq!(p.segments.len() as u32, real),
            Err(e) => {
                if (hostile as u64) * 4 > bytes.len() as u64 {
                    // Truly unsatisfiable counts must be classified as
                    // hostile — proof the cap fired before allocation.
                    prop_assert_eq!(e, DecodeError::HostileLength {
                        field: "segment",
                        claimed: hostile as u64,
                        available: bytes.len() - 26,
                    });
                }
            }
        }
    }

    /// Random byte soup prefixed with valid magic+version: never panics,
    /// and almost surely rejects (if it accepts, it must be canonical).
    #[test]
    fn arbitrary_bytes_after_valid_header_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = b"RCLK\x03".to_vec();
        bytes.extend_from_slice(&body);
        if let Ok(decoded) = CloakPayload::decode(&bytes) {
            prop_assert_eq!(decoded.encode().to_vec(), bytes);
        }
    }
}

/// The mutation sweep above plus the unit suite must hold for the empty
/// and near-empty inputs a fuzzer always finds first.
#[test]
fn degenerate_inputs_are_rejected_without_panic() {
    for input in [&[][..], b"R", b"RCLK", b"RCLK\x03", b"RCLK\x03\x01"] {
        assert!(CloakPayload::decode(input).is_err());
    }
}

/// The map, traffic and engines every real receipt is cloaked on.
struct World {
    net: RoadNetwork,
    snapshot: OccupancySnapshot,
    rge: RgeEngine,
    rple: RpleEngine,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let net = grid_city(8, 8, 100.0);
        let counts = (0..net.segment_count() as u64)
            .map(|i| (splitmix(&mut (i * 31)) % 3) as u32)
            .collect();
        let rple = RpleEngine::build(&net, 8);
        World {
            net,
            snapshot: OccupancySnapshot::from_counts(counts),
            rge: RgeEngine::new(),
            rple,
        }
    })
}

/// Two receipts cloaked from one seed under one key set (one owner's
/// keys, as one epoch's grant holds them): same engine and profile,
/// different nonces, epochs and segments. Returns both, the peel's keys
/// and the engine.
fn receipt_pair(
    seed: u64,
) -> (
    CloakPayload,
    CloakPayload,
    Vec<(Level, Key256)>,
    &'static dyn ReversibleEngine,
) {
    let w = world();
    let mut s = seed;
    let engine: &dyn ReversibleEngine = if splitmix(&mut s).is_multiple_of(2) {
        &w.rge
    } else {
        &w.rple
    };
    let levels = 1 + (splitmix(&mut s) % 3) as u32;
    let mut profile = PrivacyProfile::builder();
    for i in 0..levels {
        profile = profile.level(LevelRequirement::with_k(3 + 3 * i));
    }
    let profile = profile.build().expect("k grows with the level");
    let manager = KeyManager::from_seed(levels as usize, splitmix(&mut s));
    let keys: Vec<Key256> = manager.iter().map(|(_, k)| k).collect();
    let cloak = |s: &mut u64| loop {
        let segment = SegmentId((splitmix(s) % w.net.segment_count() as u64) as u32);
        if let Ok((out, _)) = anonymize_with_retry_scratch(
            &w.net,
            &w.snapshot,
            segment,
            &profile,
            &keys,
            splitmix(s),
            splitmix(s) % 1_000,
            engine,
            8,
            &mut CloakScratch::new(),
        ) {
            return out.payload;
        }
    };
    let (a, b) = (cloak(&mut s), cloak(&mut s));
    (a, b, manager.keys_down_to(Level(0)).unwrap(), engine)
}

/// Whether decode, or else the peel with `keys`, refuses `bytes`.
fn rejected(bytes: &[u8], keys: &[(Level, Key256)], engine: &dyn ReversibleEngine) -> bool {
    match CloakPayload::decode(bytes) {
        Err(_) => true,
        Ok(p) => deanonymize(&world().net, &p, keys, engine).is_err(),
    }
}

/// Every way to splice one field group of `b` into `a`, at the struct
/// level: header, region, anchor, and each level's metadata.
fn struct_splices(a: &CloakPayload, b: &CloakPayload) -> Vec<(String, CloakPayload)> {
    let mut out = vec![
        (
            "header".to_string(),
            CloakPayload {
                algorithm: b.algorithm,
                nonce: b.nonce,
                epoch: b.epoch,
                ..a.clone()
            },
        ),
        (
            "nonce".to_string(),
            CloakPayload {
                nonce: b.nonce,
                ..a.clone()
            },
        ),
        (
            "epoch".to_string(),
            CloakPayload {
                epoch: b.epoch,
                ..a.clone()
            },
        ),
        (
            "segments".to_string(),
            CloakPayload {
                segments: b.segments.clone(),
                ..a.clone()
            },
        ),
        (
            "anchor".to_string(),
            CloakPayload {
                enc_anchor: b.enc_anchor,
                ..a.clone()
            },
        ),
    ];
    for i in 0..a.levels.len().min(b.levels.len()) {
        let mut level = a.clone();
        level.levels[i] = b.levels[i].clone();
        out.push((format!("level {}", i + 1), level));
        let mut tag = a.clone();
        tag.levels[i].tag = b.levels[i].tag;
        out.push((format!("level {} tag", i + 1), tag));
        let mut rounds = a.clone();
        rounds.levels[i].enc_rounds = b.levels[i].enc_rounds.clone();
        rounds.levels[i].enc_hints = b.levels[i].enc_hints.clone();
        out.push((format!("level {} metadata", i + 1), rounds));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every single bit flip of a real receipt, in every field, is
    /// rejected by decode or by the peel with the receipt's own keys.
    #[test]
    fn every_single_bit_flip_of_a_real_receipt_is_rejected(seed in any::<u64>()) {
        let (a, _, keys, engine) = receipt_pair(seed);
        let bytes = a.encode().to_vec();
        prop_assert!(deanonymize(&world().net, &a, &keys, engine).is_ok());
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                rejected(&flipped, &keys, engine),
                "flipping bit {} of byte {} was accepted", bit % 8, bit / 8
            );
        }
    }

    /// Splices between two receipts under one key set, of headers,
    /// regions, anchors, whole levels, tags, encrypted metadata, and of
    /// byte ranges at any cut: rejected unless the splice is one of the
    /// two receipts unchanged.
    #[test]
    fn spliced_receipts_are_rejected(seed in any::<u64>(), cut in any::<u32>()) {
        let (a, b, keys, engine) = receipt_pair(seed);
        let (a_bytes, b_bytes) = (a.encode().to_vec(), b.encode().to_vec());
        for (what, spliced) in struct_splices(&a, &b).into_iter().chain(struct_splices(&b, &a)) {
            let bytes = spliced.encode().to_vec();
            if bytes != a_bytes && bytes != b_bytes {
                prop_assert!(rejected(&bytes, &keys, engine), "{} splice accepted", what);
            }
        }
        let cut = cut as usize % (a_bytes.len().min(b_bytes.len()) + 1);
        for (head, tail) in [(&a_bytes, &b_bytes), (&b_bytes, &a_bytes)] {
            let bytes: Vec<u8> = head[..cut].iter().chain(&tail[cut..]).copied().collect();
            if &bytes != head && &bytes != tail {
                prop_assert!(rejected(&bytes, &keys, engine), "byte splice at {} accepted", cut);
            }
        }
    }
}
