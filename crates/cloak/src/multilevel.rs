//! Multi-level anonymization and selective de-anonymization — the
//! ReverseCloak protocol itself (paper §II-B and Figure 1).
//!
//! Anonymization grows one contiguous chain `c_1 … c_n` of segment
//! additions from the user's segment `c_0`, with level `Li`'s span driven
//! by `Key_i`. De-anonymization peels levels top-down: within a level it
//! removes segments in reverse chain order, each backward step revealing
//! the previous chain segment; undoing a level's first step reveals the
//! anchor — which is the next level down's last-added segment, so peeling
//! is self-bootstrapping below the top level.

use crate::engine::{HintStack, ReversibleEngine};
use crate::error::{CloakError, DeanonError};
use crate::payload::{CloakPayload, LevelMeta};
use crate::profile::PrivacyProfile;
use crate::region::RegionState;
use crate::scratch::CloakScratch;
use keystream::{DrawStream, Key256, Level, Tag128};
use mobisim::OccupancySnapshot;
use roadnet::{RoadNetwork, SegmentId};

/// Hard cap on expansion steps per level (defense against degenerate
/// profiles; practical regions are orders of magnitude smaller).
pub const MAX_STEPS_PER_LEVEL: usize = 100_000;

/// Per-level statistics from an anonymization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelStats {
    /// The level.
    pub level: Level,
    /// Segments added by this level.
    pub added: u32,
    /// Total keyed draws consumed.
    pub draws: u32,
    /// Draws voided (tolerance, collisions avoided, quotient mismatches).
    pub voided: u32,
}

/// The outcome of a successful anonymization.
#[derive(Debug, Clone)]
pub struct AnonymizationOutcome {
    /// The public payload to upload to the LBS provider.
    pub payload: CloakPayload,
    /// The secret chain (additions in order, excluding the seed segment).
    /// Held by the trusted anonymizer only; exposed here for testing and
    /// experimentation.
    pub chain: Vec<SegmentId>,
    /// Per-level accounting.
    pub per_level: Vec<LevelStats>,
}

/// The outcome of a (possibly partial) de-anonymization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeanonymizedView {
    /// The reduced region, sorted by segment id.
    pub segments: Vec<SegmentId>,
    /// The privacy level the region was reduced to.
    pub level: Level,
    /// The chain segment the walk ended at: the last-added segment of
    /// `level` (for `level == L0`, the user's own segment).
    pub anchor: SegmentId,
}

/// The 12-byte context of a level's stream, so its absorption is one
/// permutation: everything a request varies (algorithm, level, nonce)
/// sits in it, and everything a level varies after that sits in the
/// block counter (its draw position, metadata lane or tagged segment).
fn level_stream(key: Key256, algorithm: u8, level: Level, nonce: u64) -> DrawStream {
    let mut ctx = [0u8; 12];
    ctx[..2].copy_from_slice(b"rc");
    ctx[2] = algorithm;
    ctx[3] = level.0;
    ctx[4..].copy_from_slice(&nonce.to_le_bytes());
    DrawStream::new(key, &ctx)
}

/// Fork lanes of a level's stream beside its draws, which are the
/// parent lane: the metadata keystream, and one tag block per segment.
const META_LANE: u32 = 0;
const TAG_LANE: u32 = 1;

/// A level's metadata keystream, 32-bit words in order (low half of each
/// draw first): the top level's anchor position, then the rounds, then
/// the hints.
struct MetaMask {
    stream: DrawStream,
    high: Option<u32>,
}

impl MetaMask {
    fn new(level: &DrawStream) -> MetaMask {
        MetaMask {
            stream: level.fork(META_LANE),
            high: None,
        }
    }

    fn next(&mut self) -> u32 {
        match self.high.take() {
            Some(high) => high,
            None => {
                let draw = self.stream.next_u64();
                self.high = Some((draw >> 32) as u32);
                draw as u32
            }
        }
    }

    /// XORs `words` with the next keystream words into `out` (cleared
    /// first): encryption and decryption alike.
    fn apply_into(&mut self, out: &mut Vec<u32>, words: &[u32]) {
        out.clear();
        out.extend(words.iter().map(|w| w ^ self.next()));
    }

    fn apply(&mut self, words: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(words.len());
        self.apply_into(&mut out, words);
        out
    }
}

/// The top level's tag: a MAC, keyed by its stream, over every byte of
/// the encoded payload except that tag.
fn authenticate(top: &DrawStream, payload: &CloakPayload) -> Tag128 {
    let mut mac = top.authenticator();
    payload.emit(&mut |bytes| mac.absorb(bytes), false);
    mac.finish()
}

/// Anonymizes `user_segment` under `profile`, driving level `Li` with
/// `keys[i-1]`.
///
/// The `nonce` must be fresh per request (it domain-separates the keyed
/// streams so repeated requests from the same segment do not reuse
/// randomness).
///
/// Allocating convenience over
/// [`anonymize_with_scratch`] (one throwaway [`CloakScratch`] per call).
///
/// # Errors
///
/// Fails when the profile/keys disagree, the segment is unknown, or a
/// level's requirement cannot be met within its spatial tolerance.
pub fn anonymize(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    profile: &PrivacyProfile,
    keys: &[Key256],
    nonce: u64,
    engine: &dyn ReversibleEngine,
) -> Result<AnonymizationOutcome, CloakError> {
    anonymize_with_scratch(
        net,
        snapshot,
        user_segment,
        profile,
        keys,
        nonce,
        engine,
        &mut CloakScratch::default(),
    )
}

/// [`anonymize`] with caller-owned scratch buffers: a worker that keeps
/// one [`CloakScratch`] per thread cloaks request after request with no
/// steady-state heap traffic beyond the returned outcome itself. Results
/// are bit-identical to [`anonymize`] for any scratch state.
///
/// # Errors
///
/// As [`anonymize`].
#[allow(clippy::too_many_arguments)]
pub fn anonymize_with_scratch(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    profile: &PrivacyProfile,
    keys: &[Key256],
    nonce: u64,
    engine: &dyn ReversibleEngine,
    scratch: &mut CloakScratch,
) -> Result<AnonymizationOutcome, CloakError> {
    anonymize_at_epoch(
        net,
        snapshot,
        user_segment,
        profile,
        keys,
        nonce,
        0,
        engine,
        scratch,
    )
}

/// [`anonymize_with_scratch`] for a receipt of chain `epoch`: the epoch
/// is bound into the top level's tag with every other byte, so it is
/// stamped before the tag is computed.
#[allow(clippy::too_many_arguments)]
fn anonymize_at_epoch(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    profile: &PrivacyProfile,
    keys: &[Key256],
    nonce: u64,
    epoch: u64,
    engine: &dyn ReversibleEngine,
    scratch: &mut CloakScratch,
) -> Result<AnonymizationOutcome, CloakError> {
    if keys.len() != profile.level_count() {
        return Err(CloakError::KeyCountMismatch {
            expected: profile.level_count(),
            got: keys.len(),
        });
    }
    if net.get_segment(user_segment).is_none() {
        return Err(CloakError::UnknownSegment(user_segment));
    }
    let CloakScratch {
        region,
        step,
        rounds,
        hints,
        ..
    } = scratch;
    let algorithm = engine.algorithm_id();
    region.reset_for(net);
    region.insert(net, user_segment);
    step.begin_walk();
    // The snapshot is fixed for the walk, so the region's users are a
    // running sum over the segments it gains.
    let mut users = u64::from(snapshot.users_on(user_segment));
    let mut last = user_segment;
    let mut chain = Vec::new();
    let mut level_metas = Vec::new();
    let mut per_level = Vec::new();
    let mut top = None;

    for (idx, req) in profile.requirements().iter().enumerate() {
        let level = Level(idx as u8 + 1);
        let mut added = 0u32;
        let mut draws = 0u32;
        let mut voided = 0u32;
        rounds.clear();
        hints.clear();
        let base = level_stream(keys[idx], algorithm, level, nonce);
        // The level's one sequence: each step reads on from the last.
        let mut stream = base.clone();
        while users < req.k as u64 || region.len() < req.l as usize {
            if added as usize >= MAX_STEPS_PER_LEVEL {
                return Err(CloakError::CloakingFailed {
                    level,
                    reason: crate::error::StepFailure::StepLimit,
                });
            }
            let accept = engine
                .forward_step(net, region, last, &mut stream, &req.tolerance, step)
                .map_err(|reason| CloakError::CloakingFailed { level, reason })?;
            if region.insert(net, accept.segment) {
                users += u64::from(snapshot.users_on(accept.segment));
            }
            chain.push(accept.segment);
            last = accept.segment;
            added += 1;
            draws += accept.draws;
            voided += accept.voided;
            rounds.push(accept.draws);
            if let Some(h) = accept.hint {
                hints.push(h);
            }
        }
        debug_assert_eq!(stream.draws_consumed(), u64::from(draws));
        let mut meta = LevelMeta {
            count: added,
            tag: Tag128([0; 16]),
            tolerance: req.tolerance,
            enc_rounds: Vec::new(),
            enc_hints: Vec::new(),
        };
        if idx + 1 < profile.level_count() {
            let mut mask = MetaMask::new(&base);
            meta.enc_rounds = mask.apply(rounds);
            meta.enc_hints = mask.apply(hints);
            meta.tag = base.tag(TAG_LANE, last.0);
        } else {
            // The top level's metadata opens with the anchor position,
            // known once the region is: sealed below.
            top = Some(base);
        }
        level_metas.push(meta);
        per_level.push(LevelStats {
            level,
            added,
            draws,
            voided,
        });
    }

    let segments = region.to_sorted_ids();
    let mut payload = CloakPayload {
        algorithm,
        nonce,
        epoch,
        segments,
        enc_anchor: 0,
        levels: level_metas,
    };
    if let Some(base) = top {
        let anchor = payload
            .segments
            .binary_search(&last)
            .expect("the chain's last segment is in the region");
        let mut mask = MetaMask::new(&base);
        payload.enc_anchor = anchor as u32 ^ mask.next();
        let meta = payload.levels.last_mut().expect("a top level");
        meta.enc_rounds = mask.apply(rounds);
        meta.enc_hints = mask.apply(hints);
        let tag = authenticate(&base, &payload);
        payload.levels.last_mut().expect("a top level").tag = tag;
    }
    Ok(AnonymizationOutcome {
        payload,
        chain,
        per_level,
    })
}

/// Like [`anonymize`], but retries under derived nonces when a walk
/// dead-ends (RPLE local expansion ran out of admissible pre-assigned
/// neighbors, or the tolerance voided a step's budget) — a fresh nonce
/// gives a fresh walk. Returns the outcome and the number of attempts
/// used.
///
/// # Errors
///
/// Propagates the last error after `max_attempts` failed walks, and any
/// non-retryable error immediately.
#[allow(clippy::too_many_arguments)]
pub fn anonymize_with_retry(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    profile: &PrivacyProfile,
    keys: &[Key256],
    nonce: u64,
    engine: &dyn ReversibleEngine,
    max_attempts: u32,
) -> Result<(AnonymizationOutcome, u32), CloakError> {
    anonymize_with_retry_scratch(
        net,
        snapshot,
        user_segment,
        profile,
        keys,
        nonce,
        0,
        engine,
        max_attempts,
        &mut CloakScratch::default(),
    )
}

/// [`anonymize_with_retry`] with caller-owned scratch buffers (see
/// [`anonymize_with_scratch`]), for a receipt of the owner's chain
/// `epoch` (0 outside a chain): the epoch is authenticated with the rest
/// of the receipt, so it is fixed before the cloak, not stamped after.
///
/// # Errors
///
/// As [`anonymize_with_retry`].
#[allow(clippy::too_many_arguments)]
pub fn anonymize_with_retry_scratch(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    profile: &PrivacyProfile,
    keys: &[Key256],
    nonce: u64,
    epoch: u64,
    engine: &dyn ReversibleEngine,
    max_attempts: u32,
    scratch: &mut CloakScratch,
) -> Result<(AnonymizationOutcome, u32), CloakError> {
    let mut last_err = None;
    for attempt in 0..max_attempts.max(1) {
        let derived = nonce.wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match anonymize_at_epoch(
            net,
            snapshot,
            user_segment,
            profile,
            keys,
            derived,
            epoch,
            engine,
            scratch,
        ) {
            Ok(out) => return Ok((out, attempt + 1)),
            Err(
                e @ CloakError::CloakingFailed {
                    reason:
                        crate::error::StepFailure::NoCandidates
                        | crate::error::StepFailure::RedrawBudgetExhausted
                        | crate::error::StepFailure::Collision,
                    ..
                },
            ) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("loop ran at least once"))
}

/// Selectively de-anonymizes `payload` using `keys`, which must peel
/// levels contiguously from the payload's top level downward (e.g. to
/// reduce an `L3` payload to `L1`, supply `[(L3, Key3), (L2, Key2)]`).
///
/// Passing no keys returns the payload's region unchanged at its top
/// level.
///
/// Allocating convenience over [`deanonymize_with_scratch`] (one
/// throwaway [`CloakScratch`] per call).
///
/// # Errors
///
/// Fails on malformed payloads, non-contiguous keys, keys that do not
/// match the payload's tags, or an engine mismatch.
pub fn deanonymize(
    net: &RoadNetwork,
    payload: &CloakPayload,
    keys: &[(Level, Key256)],
    engine: &dyn ReversibleEngine,
) -> Result<DeanonymizedView, DeanonError> {
    deanonymize_with_scratch(net, payload, keys, engine, &mut CloakScratch::default())
}

/// [`deanonymize`] with caller-owned scratch buffers: the verification
/// loop of a streaming pipeline peels receipt after receipt without
/// re-allocating the region, draw cache, or metadata buffers. Results
/// are bit-identical to [`deanonymize`] for any scratch state.
///
/// # Errors
///
/// As [`deanonymize`].
pub fn deanonymize_with_scratch(
    net: &RoadNetwork,
    payload: &CloakPayload,
    keys: &[(Level, Key256)],
    engine: &dyn ReversibleEngine,
    scratch: &mut CloakScratch,
) -> Result<DeanonymizedView, DeanonError> {
    if payload.algorithm != engine.algorithm_id() {
        return Err(DeanonError::MalformedPayload(format!(
            "payload algorithm {} does not match engine {}",
            payload.algorithm,
            engine.name()
        )));
    }
    for s in &payload.segments {
        if net.get_segment(*s).is_none() {
            return Err(DeanonError::MalformedPayload(format!(
                "segment {s} not in the network"
            )));
        }
    }
    let CloakScratch {
        region,
        step,
        rounds,
        hints,
        draws,
    } = scratch;
    region.reset_for(net);
    for &s in &payload.segments {
        region.insert(net, s);
    }
    step.begin_walk();
    let mut current_level = payload.top_level();
    let mut anchor: Option<SegmentId> = None;

    for &(level, key) in keys {
        if level != current_level || level.0 == 0 {
            return Err(DeanonError::NonContiguousKeys {
                expected: current_level,
                got: level,
            });
        }
        let meta = &payload.levels[level.index() - 1];
        let base = level_stream(key, payload.algorithm, level, payload.nonce);
        let mut mask = MetaMask::new(&base);

        // Identify the level's last-added segment. Below the top, check
        // the anchor the level above handed down against the level's
        // tag. At the top, the tag authenticates the whole receipt, and
        // the metadata names the anchor's position in the region.
        let last = match anchor {
            Some(a) => {
                if base.tag(TAG_LANE, a.0) != meta.tag {
                    return Err(DeanonError::WrongKey(level));
                }
                a
            }
            None => {
                if authenticate(&base, payload) != meta.tag {
                    return Err(DeanonError::WrongKey(level));
                }
                let position = mask.next() ^ payload.enc_anchor;
                *payload.segments.get(position as usize).ok_or_else(|| {
                    DeanonError::MalformedPayload("anchor outside the region".into())
                })?
            }
        };

        // Decrypt the level's draw counts and quotient hints, replay its
        // draws forward once, then walk backward, handing each step
        // exactly the draws it read.
        mask.apply_into(rounds, &meta.enc_rounds);
        mask.apply_into(hints, &meta.enc_hints);
        if let Some(t) = rounds
            .iter()
            .rposition(|&r| r == 0 || r as usize > crate::engine::MAX_REDRAWS)
        {
            return Err(DeanonError::ReversalFailed { level, step: t + 1 });
        }
        let total: usize = rounds.iter().map(|&r| r as usize).sum();
        let mut stream = base;
        draws.clear();
        draws.extend((0..total).map(|_| stream.next_u64()));
        let mut hint_stack = HintStack::new(std::mem::take(hints));
        let mut current = last;
        let mut end = total;
        let mut walk = || -> Result<SegmentId, DeanonError> {
            for t in (1..=meta.count).rev() {
                region.remove(net, current);
                let start = end - rounds[t as usize - 1] as usize;
                current = engine
                    .backward_from_draws(
                        net,
                        region,
                        current,
                        &draws[start..end],
                        &meta.tolerance,
                        &mut hint_stack,
                        step,
                    )
                    .map_err(|_| DeanonError::ReversalFailed {
                        level,
                        step: t as usize,
                    })?;
                end = start;
            }
            Ok(current)
        };
        let walked = walk();
        // Reclaim the hint buffer before propagating any walk error so
        // the scratch keeps its capacity across calls.
        *hints = hint_stack.into_inner();
        anchor = Some(walked?);
        current_level = Level(level.0 - 1);
    }

    let anchor = match anchor {
        Some(a) => a,
        None => {
            // No keys: the anchor is unknown; report the region as-is. Use
            // the first segment as a placeholder only when the region is a
            // single segment (L0 payloads), otherwise there is no anchor
            // to report — pick the smallest id deterministically.
            payload.segments[0]
        }
    };
    Ok(DeanonymizedView {
        segments: region.to_sorted_ids(),
        level: current_level,
        anchor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RgeEngine, RpleEngine};
    use crate::profile::{LevelRequirement, PrivacyProfile, SpatialTolerance};
    use keystream::KeyManager;
    use roadnet::grid_city;

    fn setup() -> (RoadNetwork, OccupancySnapshot, PrivacyProfile, KeyManager) {
        let net = grid_city(7, 7, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(4))
            .level(LevelRequirement::with_k(8))
            .level(LevelRequirement::with_k(14))
            .build()
            .unwrap();
        let mgr = KeyManager::from_seed(3, 99);
        (net, snapshot, profile, mgr)
    }

    fn keys_of(mgr: &KeyManager) -> Vec<Key256> {
        mgr.iter().map(|(_, k)| k).collect()
    }

    #[test]
    fn full_roundtrip_rge_and_rple() {
        let (net, snapshot, profile, mgr) = setup();
        let engines: Vec<Box<dyn ReversibleEngine>> = vec![
            Box::new(RgeEngine::new()),
            Box::new(RpleEngine::build(&net, 8)),
        ];
        for engine in &engines {
            let user = SegmentId(40);
            let out = anonymize(
                &net,
                &snapshot,
                user,
                &profile,
                &keys_of(&mgr),
                7,
                engine.as_ref(),
            )
            .unwrap();
            // Region covers seed + chain.
            assert_eq!(out.payload.region_size(), out.chain.len() + 1);
            assert!(out.payload.contains(user));
            // k satisfied at the top level (uniform 1 user/segment).
            assert!(out.payload.region_size() >= 14);

            // Peel all the way to L0.
            let all_keys = mgr.keys_down_to(Level(0)).unwrap();
            let view = deanonymize(&net, &out.payload, &all_keys, engine.as_ref()).unwrap();
            assert_eq!(view.level, Level(0));
            assert_eq!(view.segments, vec![user]);
            assert_eq!(view.anchor, user, "{}", engine.name());
        }
    }

    #[test]
    fn partial_peeling_matches_intermediate_regions() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        let user = SegmentId(30);
        let out = anonymize(&net, &snapshot, user, &profile, &keys_of(&mgr), 11, &engine).unwrap();

        // Reconstruct intermediate region sets from the secret chain.
        let counts: Vec<u32> = out.payload.levels.iter().map(|l| l.count).collect();
        let l2_size = 1 + counts[0] as usize + counts[1] as usize;
        let mut expect_l2: Vec<SegmentId> = std::iter::once(user)
            .chain(out.chain[..l2_size - 1].iter().copied())
            .collect();
        expect_l2.sort();

        let keys = mgr.keys_down_to(Level(2)).unwrap();
        let view = deanonymize(&net, &out.payload, &keys, &engine).unwrap();
        assert_eq!(view.level, Level(2));
        assert_eq!(view.segments, expect_l2);
        // The anchor is the last chain segment of level 2.
        assert_eq!(view.anchor, out.chain[l2_size - 2]);
    }

    #[test]
    fn no_keys_returns_top_level() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        let out = anonymize(
            &net,
            &snapshot,
            SegmentId(10),
            &profile,
            &keys_of(&mgr),
            3,
            &engine,
        )
        .unwrap();
        let view = deanonymize(&net, &out.payload, &[], &engine).unwrap();
        assert_eq!(view.level, Level(3));
        assert_eq!(view.segments, out.payload.segments);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        let out = anonymize(
            &net,
            &snapshot,
            SegmentId(10),
            &profile,
            &keys_of(&mgr),
            5,
            &engine,
        )
        .unwrap();
        let bogus = Key256::from_seed(123456);
        let err = deanonymize(&net, &out.payload, &[(Level(3), bogus)], &engine).unwrap_err();
        assert_eq!(err, DeanonError::WrongKey(Level(3)));
    }

    #[test]
    fn non_contiguous_keys_rejected() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        let out = anonymize(
            &net,
            &snapshot,
            SegmentId(10),
            &profile,
            &keys_of(&mgr),
            5,
            &engine,
        )
        .unwrap();
        // Supplying Key2 first (should be Key3).
        let k2 = mgr.key_for(Level(2)).unwrap();
        let err = deanonymize(&net, &out.payload, &[(Level(2), k2)], &engine).unwrap_err();
        assert_eq!(
            err,
            DeanonError::NonContiguousKeys {
                expected: Level(3),
                got: Level(2)
            }
        );
    }

    #[test]
    fn engine_mismatch_rejected() {
        let (net, snapshot, profile, mgr) = setup();
        let rge = RgeEngine::new();
        let out = anonymize(
            &net,
            &snapshot,
            SegmentId(10),
            &profile,
            &keys_of(&mgr),
            5,
            &rge,
        )
        .unwrap();
        let rple = RpleEngine::build(&net, 8);
        assert!(matches!(
            deanonymize(&net, &out.payload, &[], &rple),
            Err(DeanonError::MalformedPayload(_))
        ));
    }

    #[test]
    fn key_count_mismatch_rejected() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        let mut keys = keys_of(&mgr);
        keys.pop();
        assert_eq!(
            anonymize(&net, &snapshot, SegmentId(0), &profile, &keys, 1, &engine).unwrap_err(),
            CloakError::KeyCountMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn unknown_segment_rejected() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        assert_eq!(
            anonymize(
                &net,
                &snapshot,
                SegmentId(9999),
                &profile,
                &keys_of(&mgr),
                1,
                &engine
            )
            .unwrap_err(),
            CloakError::UnknownSegment(SegmentId(9999))
        );
    }

    #[test]
    fn impossible_tolerance_fails_cloaking() {
        let (net, snapshot, _, mgr) = setup();
        let engine = RgeEngine::new();
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(10).tolerance(SpatialTolerance::TotalLength(150.0)))
            .build()
            .unwrap();
        let keys: Vec<Key256> = mgr.iter().map(|(_, k)| k).take(1).collect();
        let err =
            anonymize(&net, &snapshot, SegmentId(0), &profile, &keys, 1, &engine).unwrap_err();
        assert!(matches!(err, CloakError::CloakingFailed { .. }), "{err}");
    }

    #[test]
    fn distinct_nonces_produce_distinct_regions() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RgeEngine::new();
        let a = anonymize(
            &net,
            &snapshot,
            SegmentId(20),
            &profile,
            &keys_of(&mgr),
            1,
            &engine,
        )
        .unwrap();
        let b = anonymize(
            &net,
            &snapshot,
            SegmentId(20),
            &profile,
            &keys_of(&mgr),
            2,
            &engine,
        )
        .unwrap();
        assert_ne!(
            a.payload.segments, b.payload.segments,
            "nonces must freshen the expansion"
        );
        // Same nonce: fully deterministic.
        let c = anonymize(
            &net,
            &snapshot,
            SegmentId(20),
            &profile,
            &keys_of(&mgr),
            1,
            &engine,
        )
        .unwrap();
        assert_eq!(a.payload, c.payload);
    }

    #[test]
    fn already_satisfied_level_adds_nothing() {
        let (net, _, _, mgr) = setup();
        let engine = RgeEngine::new();
        // 30 users on the seed segment: k=5 needs l=1 satisfied instantly.
        let mut counts = vec![0u32; net.segment_count()];
        counts[0] = 30;
        let snapshot = OccupancySnapshot::from_counts(counts);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(5).l(1))
            .level(LevelRequirement::with_k(9).l(1))
            .build()
            .unwrap();
        let keys: Vec<Key256> = mgr.iter().map(|(_, k)| k).take(2).collect();
        let out = anonymize(&net, &snapshot, SegmentId(0), &profile, &keys, 1, &engine).unwrap();
        assert_eq!(out.payload.levels[0].count, 0);
        assert_eq!(out.payload.levels[1].count, 0);
        assert_eq!(out.payload.region_size(), 1);
        // Peeling still works and ends at the seed. The payload has two
        // levels, so peel with (L2, keys[1]) then (L1, keys[0]).
        let keys2 = vec![(Level(2), keys[1]), (Level(1), keys[0])];
        let view = deanonymize(&net, &out.payload, &keys2, &engine).unwrap();
        assert_eq!(view.segments, vec![SegmentId(0)]);
        assert_eq!(view.level, Level(0));
    }

    #[test]
    fn payload_wire_roundtrip_preserves_deanonymization() {
        let (net, snapshot, profile, mgr) = setup();
        let engine = RpleEngine::build(&net, 8);
        let out = anonymize(
            &net,
            &snapshot,
            SegmentId(25),
            &profile,
            &keys_of(&mgr),
            21,
            &engine,
        )
        .unwrap();
        let bytes = out.payload.encode();
        let payload = CloakPayload::decode(&bytes).unwrap();
        let all_keys = mgr.keys_down_to(Level(0)).unwrap();
        let view = deanonymize(&net, &payload, &all_keys, &engine).unwrap();
        assert_eq!(view.segments, vec![SegmentId(25)]);
    }
}

/// Ablation analysis of the paper's "collision" issue.
///
/// Replays an anonymization's backward walk (using the anonymizer-side
/// secret chain) and, at each step, counts how many predecessor hypotheses
/// a de-anonymizer **without round metadata** would find consistent. Steps
/// with a count above 1 are collisions: a design relying on hypothesis
/// testing alone (as the paper sketches) could not reverse them, which is
/// exactly why RGE rebuilds collision-free tables and RPLE pre-assigns
/// them — and why this implementation records encrypted round indices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AmbiguityReport {
    /// Backward steps analyzed.
    pub steps: u32,
    /// Steps with more than one consistent predecessor.
    pub ambiguous_steps: u32,
    /// Largest hypothesis count seen on one step.
    pub max_candidates: u32,
    /// Sum of hypothesis counts (for means).
    pub total_candidates: u64,
}

impl AmbiguityReport {
    /// Fraction of steps that would collide without round metadata.
    pub fn collision_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.ambiguous_steps as f64 / self.steps as f64
        }
    }

    /// Mean consistent-hypothesis count per step.
    pub fn mean_candidates(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_candidates as f64 / self.steps as f64
        }
    }
}

/// Computes the [`AmbiguityReport`] for a finished anonymization.
///
/// Requires the outcome's secret chain (anonymizer side), the keys, and
/// the same engine.
pub fn ambiguity_profile(
    net: &RoadNetwork,
    outcome: &AnonymizationOutcome,
    keys: &[Key256],
    engine: &dyn ReversibleEngine,
) -> AmbiguityReport {
    let payload = &outcome.payload;
    let mut region = RegionState::from_segments(net, payload.segments.iter().copied());
    let mut step_scratch = crate::scratch::StepScratch::default();
    let mut report = AmbiguityReport::default();
    let mut chain_end = outcome.chain.len();
    for (idx, meta) in payload.levels.iter().enumerate().rev() {
        let level = Level(idx as u8 + 1);
        let base = level_stream(keys[idx], payload.algorithm, level, payload.nonce);
        let mut mask = MetaMask::new(&base);
        if idx + 1 == payload.levels.len() {
            mask.next(); // the anchor position
        }
        let rounds = mask.apply(&meta.enc_rounds);
        let mut hint_stack = HintStack::new(mask.apply(&meta.enc_hints));
        let mut end: u64 = rounds.iter().map(|&r| u64::from(r)).sum();
        for t in (1..=meta.count).rev() {
            let removed = outcome.chain[chain_end - 1];
            chain_end -= 1;
            region.remove(net, removed);
            end -= u64::from(rounds[t as usize - 1]);
            // Without round metadata a hypothesis may read past the
            // step's own draws, into the steps after it.
            let mut stream = base.at(end);
            let count = engine.ambiguous_predecessors(
                net,
                &region,
                removed,
                &mut stream,
                &meta.tolerance,
                &mut hint_stack,
                &mut step_scratch,
            ) as u32;
            report.steps += 1;
            report.total_candidates += count as u64;
            report.max_candidates = report.max_candidates.max(count);
            if count > 1 {
                report.ambiguous_steps += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::engine::{RgeEngine, RpleEngine};
    use crate::profile::{LevelRequirement, PrivacyProfile};
    use keystream::KeyManager;
    use roadnet::grid_city;

    #[test]
    fn every_step_has_at_least_the_true_predecessor() {
        let net = grid_city(7, 7, 100.0);
        let snapshot = mobisim::OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(12))
            .build()
            .unwrap();
        let mgr = KeyManager::from_seed(1, 31);
        let keys: Vec<Key256> = mgr.iter().map(|(_, k)| k).collect();
        for engine in [
            Box::new(RgeEngine::new()) as Box<dyn ReversibleEngine>,
            Box::new(RpleEngine::build(&net, 8)),
        ] {
            let out = anonymize(
                &net,
                &snapshot,
                roadnet::SegmentId(20),
                &profile,
                &keys,
                5,
                engine.as_ref(),
            )
            .unwrap();
            let report = ambiguity_profile(&net, &out, &keys, engine.as_ref());
            assert_eq!(report.steps, out.chain.len() as u32);
            // The true predecessor is always consistent.
            assert!(report.mean_candidates() >= 1.0, "{}", engine.name());
            assert!(report.max_candidates >= 1);
        }
    }

    #[test]
    fn collisions_do_occur_without_round_metadata() {
        // Aggregate over many keys: hypothesis testing alone must show a
        // nonzero collision rate for at least one engine/key — this is
        // the phenomenon the paper's designs (and our round metadata)
        // exist to handle. If it were always zero the metadata would be
        // unnecessary.
        let net = grid_city(7, 7, 100.0);
        let snapshot = mobisim::OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(20))
            .build()
            .unwrap();
        let rple = RpleEngine::build(&net, 8);
        let mut ambiguous = 0u32;
        for seed in 0..20 {
            let mgr = KeyManager::from_seed(1, seed);
            let keys: Vec<Key256> = mgr.iter().map(|(_, k)| k).collect();
            if let Ok(out) = anonymize(
                &net,
                &snapshot,
                roadnet::SegmentId(20),
                &profile,
                &keys,
                seed,
                &rple,
            ) {
                ambiguous += ambiguity_profile(&net, &out, &keys, &rple).ambiguous_steps;
            }
        }
        assert!(
            ambiguous > 0,
            "expected some collisions across 20 keyed walks"
        );
    }
}
