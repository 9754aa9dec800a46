//! The public cloaked-location payload and its wire codec.
//!
//! What the LBS provider (and every requester) sees: the cloaking region
//! as a *sorted set* of segment ids — deliberately stripped of the chain
//! order, which is the secret the keys unlock — plus per-level metadata:
//!
//! * `count`: how many segments the level added (region sizes per level
//!   are observable by key holders anyway),
//! * `tag`: below the top level, a keyed tag of the level's last-added
//!   segment, which a key holder checks against the anchor the level
//!   above handed down; at the top level, a MAC over the whole encoded
//!   receipt,
//! * `enc_rounds` and `enc_hints`: each step's draw count and the RGE
//!   quotient hints, XOR-encrypted under the level key (pseudorandom
//!   noise without it),
//!
//! and `enc_anchor`, the top level's last-added segment's position in
//! the region, encrypted under the top level key.
//!
//! The codec is a hand-rolled length-prefixed binary format (no serde
//! format dependency): `"RCLK" | version | algorithm | nonce | epoch |
//! segments | level count | enc_anchor (when there are levels) | levels`.
//!
//! **Wire v3** (current) replaced v2's key schedule: a level's walk reads
//! one draw stream in order, its tags are one block of that stream, and
//! the top level's tag authenticates every other byte of the receipt
//! (see `docs/ARCHITECTURE.md`, "Wire v3"). The peel finds the top level's
//! anchor from `enc_anchor` instead of searching the region for a
//! matching tag. A bit flip or a splice anywhere fails decode or the
//! top level's MAC, so every key holder rejects it before walking.
//!
//! Wire v2 added the `epoch` field: the owner's forward-secret chain
//! position at anonymization time, which tells a requester *which*
//! granted key set opens a receipt. v1 and v2 payloads are rejected at
//! decode with a re-anonymize hint rather than mis-parsed.

use crate::error::DecodeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use keystream::{Level, Tag128};
use roadnet::SegmentId;
use serde::{Deserialize, Serialize};

/// Magic bytes opening every payload.
pub const MAGIC: &[u8; 4] = b"RCLK";
/// Current wire version. Version 2 added the chain `epoch` field and
/// version 3 the encrypted top anchor and whole-receipt authentication;
/// v1 and v2 payloads are rejected at decode.
pub const VERSION: u8 = 3;

/// Per-level public metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelMeta {
    /// Segments this level added to the region.
    pub count: u32,
    /// Keyed tag of the level's last-added segment; at the top level, a
    /// MAC over the rest of the encoded receipt.
    pub tag: Tag128,
    /// The level's spatial tolerance `σs`. Public profile metadata: the
    /// backward walk replays tolerance-voided rounds, so key holders need
    /// it; to others it only bounds what the region's extent already
    /// reveals.
    pub tolerance: crate::profile::SpatialTolerance,
    /// Encrypted accepting-round numbers (each step's draw count), one
    /// per step in forward step order. They place every step's draws in
    /// the level's one stream, and let the backward walk filter
    /// predecessor hypotheses by exact round, where ambiguity is
    /// structurally impossible; they are pseudorandom noise without the
    /// level key.
    pub enc_rounds: Vec<u32>,
    /// Encrypted quotient hints, in forward step order.
    pub enc_hints: Vec<u32>,
}

/// The public cloaked location: what gets uploaded to the LBS provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloakPayload {
    /// Algorithm id (1 = RGE, 2 = RPLE).
    pub algorithm: u8,
    /// Per-request nonce for domain separation of the keyed streams.
    pub nonce: u64,
    /// The owner's forward-secret chain epoch at anonymization time
    /// (0 for payloads produced outside a chain, e.g. one-shot CLI use).
    /// Requesters use it to match a receipt to the key set they were
    /// granted for that epoch.
    pub epoch: u64,
    /// The cloaking region, sorted by segment id (chain order withheld).
    pub segments: Vec<SegmentId>,
    /// The top level's last-added segment's index in `segments`,
    /// encrypted under the top level key (0, and absent from the wire,
    /// when there are no levels).
    pub enc_anchor: u32,
    /// Metadata for levels `L1..`, in level order.
    pub levels: Vec<LevelMeta>,
}

impl CloakPayload {
    /// The highest privacy level in the payload.
    pub fn top_level(&self) -> Level {
        Level(self.levels.len() as u8)
    }

    /// Number of segments in the exposed region.
    pub fn region_size(&self) -> usize {
        self.segments.len()
    }

    /// Whether a segment is part of the exposed region.
    pub fn contains(&self, s: SegmentId) -> bool {
        self.segments.binary_search(&s).is_ok()
    }

    /// Serializes the payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(
            31 + 4 * self.segments.len()
                + self
                    .levels
                    .iter()
                    .map(|l| 33 + 4 * (l.enc_rounds.len() + l.enc_hints.len()))
                    .sum::<usize>(),
        );
        self.emit(&mut |bytes| b.put_slice(bytes), true);
        b.freeze()
    }

    /// Writes the encoding through `put`, field by field; with `top_tag`
    /// off it leaves out the top level's tag, which is then exactly the
    /// message that tag authenticates. Re-encoding a decoded payload
    /// gives back its bytes (decode accepts only canonical input), so
    /// issuer and peel authenticate the same bytes.
    pub(crate) fn emit(&self, put: &mut dyn FnMut(&[u8]), top_tag: bool) {
        put(MAGIC);
        put(&[VERSION, self.algorithm]);
        put(&self.nonce.to_le_bytes());
        put(&self.epoch.to_le_bytes());
        put(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            put(&s.0.to_le_bytes());
        }
        put(&[self.levels.len() as u8]);
        if !self.levels.is_empty() {
            put(&self.enc_anchor.to_le_bytes());
        }
        for (i, level) in self.levels.iter().enumerate() {
            put(&level.count.to_le_bytes());
            if top_tag || i + 1 < self.levels.len() {
                put(&level.tag.0);
            }
            match level.tolerance {
                crate::profile::SpatialTolerance::Unlimited => put(&[0]),
                crate::profile::SpatialTolerance::TotalLength(v) => {
                    put(&[1]);
                    put(&v.to_le_bytes());
                }
                crate::profile::SpatialTolerance::BboxDiagonal(v) => {
                    put(&[2]);
                    put(&v.to_le_bytes());
                }
            }
            for r in &level.enc_rounds {
                put(&r.to_le_bytes());
            }
            put(&(level.enc_hints.len() as u32).to_le_bytes());
            for h in &level.enc_hints {
                put(&h.to_le_bytes());
            }
        }
    }

    /// Deserializes a payload.
    ///
    /// The input is adversary-controlled (any requester or LBS provider
    /// can feed bytes here), so the parser never panics and never sizes
    /// an allocation from an embedded count before capping that count
    /// against the bytes actually remaining.
    ///
    /// # Errors
    ///
    /// Returns a structured [`DecodeError`] classifying the failure:
    /// truncation, bad magic/version, hostile length fields, unsorted or
    /// duplicate segment ids, or inconsistent counts.
    pub fn decode(mut data: &[u8]) -> Result<Self, DecodeError> {
        fn need(available: usize, field: &'static str, needed: usize) -> Result<(), DecodeError> {
            if available < needed {
                Err(DecodeError::Truncated {
                    field,
                    needed,
                    available,
                })
            } else {
                Ok(())
            }
        }
        /// Validates a count field against the remaining input *before*
        /// the caller allocates `claimed` elements of `elem_bytes` each.
        fn cap(
            available: usize,
            field: &'static str,
            claimed: u64,
            elem_bytes: u64,
        ) -> Result<usize, DecodeError> {
            if claimed.saturating_mul(elem_bytes) > available as u64 {
                Err(DecodeError::HostileLength {
                    field,
                    claimed,
                    available,
                })
            } else {
                Ok(claimed as usize)
            }
        }
        need(data.remaining(), "header", 6)?;
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = data.get_u8();
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let algorithm = data.get_u8();
        need(data.remaining(), "nonce/epoch/segment count", 20)?;
        let nonce = data.get_u64_le();
        let epoch = data.get_u64_le();
        let claimed_segs = data.get_u32_le() as u64;
        let seg_count = cap(data.remaining(), "segment", claimed_segs, 4)?;
        let mut segments = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            segments.push(SegmentId(data.get_u32_le()));
        }
        if segments.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DecodeError::UnsortedSegments);
        }
        need(data.remaining(), "level count", 1)?;
        let level_count = data.get_u8() as usize;
        let enc_anchor = if level_count > 0 {
            need(data.remaining(), "anchor", 4)?;
            data.get_u32_le()
        } else {
            0
        };
        let mut levels = Vec::with_capacity(level_count);
        let mut total_added = 0u64;
        for _ in 0..level_count {
            need(data.remaining(), "level metadata", 21)?;
            let count = data.get_u32_le();
            total_added += count as u64;
            let mut tag = [0u8; 16];
            data.copy_to_slice(&mut tag);
            let tolerance = match data.get_u8() {
                0 => crate::profile::SpatialTolerance::Unlimited,
                code @ (1 | 2) => {
                    need(data.remaining(), "tolerance value", 8)?;
                    let v = data.get_f64_le();
                    if !v.is_finite() || v < 0.0 {
                        return Err(DecodeError::NonFiniteTolerance);
                    }
                    if code == 1 {
                        crate::profile::SpatialTolerance::TotalLength(v)
                    } else {
                        crate::profile::SpatialTolerance::BboxDiagonal(v)
                    }
                }
                kind => return Err(DecodeError::UnknownToleranceKind(kind)),
            };
            let rounds = cap(data.remaining(), "round", count as u64, 4)?;
            let mut enc_rounds = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                enc_rounds.push(data.get_u32_le());
            }
            need(data.remaining(), "hint count", 4)?;
            let claimed_hints = data.get_u32_le() as u64;
            if claimed_hints > count as u64 {
                return Err(DecodeError::HintOverflow {
                    hints: claimed_hints,
                    steps: count as u64,
                });
            }
            let hint_count = cap(data.remaining(), "hint", claimed_hints, 4)?;
            let mut enc_hints = Vec::with_capacity(hint_count);
            for _ in 0..hint_count {
                enc_hints.push(data.get_u32_le());
            }
            levels.push(LevelMeta {
                count,
                tag: Tag128(tag),
                tolerance,
                enc_rounds,
                enc_hints,
            });
        }
        if data.has_remaining() {
            return Err(DecodeError::TrailingBytes(data.remaining()));
        }
        // Region must hold the seed segment plus everything ever added.
        if total_added + 1 != segments.len() as u64 {
            return Err(DecodeError::InconsistentCounts {
                declared: total_added + 1,
                region: segments.len(),
            });
        }
        Ok(CloakPayload {
            algorithm,
            nonce,
            epoch,
            segments,
            enc_anchor,
            levels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CloakPayload {
        CloakPayload {
            algorithm: 1,
            nonce: 0xdead_beef_cafe_f00d,
            epoch: 42,
            segments: vec![SegmentId(2), SegmentId(5), SegmentId(9), SegmentId(14)],
            enc_anchor: 0x5eed_a0c4,
            levels: vec![
                LevelMeta {
                    count: 2,
                    tag: Tag128([7; 16]),
                    tolerance: crate::profile::SpatialTolerance::TotalLength(1234.5),
                    enc_rounds: vec![0xaaaa_0001, 0xaaaa_0002],
                    enc_hints: vec![],
                },
                LevelMeta {
                    count: 1,
                    tag: Tag128([9; 16]),
                    tolerance: crate::profile::SpatialTolerance::Unlimited,
                    enc_rounds: vec![0xbbbb_0001],
                    enc_hints: vec![0x1234_5678],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bytes = p.encode();
        let back = CloakPayload::decode(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.top_level(), Level(2));
        assert_eq!(p.region_size(), 4);
        assert!(p.contains(SegmentId(5)));
        assert!(!p.contains(SegmentId(6)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                CloakPayload::decode(&bytes[..cut]).is_err(),
                "decode succeeded on {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut v = sample().encode().to_vec();
        v.push(0);
        assert!(CloakPayload::decode(&v).is_err());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut v = sample().encode().to_vec();
        v[0] = b'X';
        assert_eq!(CloakPayload::decode(&v), Err(DecodeError::BadMagic));
        let mut v = sample().encode().to_vec();
        v[4] = 99;
        assert_eq!(
            CloakPayload::decode(&v),
            Err(DecodeError::UnsupportedVersion(99))
        );
    }

    /// Captured v1 and v2 payloads must fail decode with an
    /// unsupported-version error that says what to do, not mis-parse:
    /// v2 bytes are a v3 receipt without the encrypted anchor, v1 bytes a
    /// v2 receipt without the epoch.
    #[test]
    fn rejects_captured_v1_and_v2_payload_bytes() {
        let mut v2 = sample().encode().to_vec();
        v2[4] = 2;
        let anchor_at = 26 + 4 * sample().segments.len() + 1;
        v2.drain(anchor_at..anchor_at + 4);
        let mut v1 = v2.clone();
        v1[4] = 1;
        v1.drain(14..22); // the epoch, after magic, version, algorithm, nonce
        for (version, bytes) in [(1, v1), (2, v2)] {
            match CloakPayload::decode(&bytes) {
                Err(DecodeError::UnsupportedVersion(v)) if v == version => {
                    let msg = DecodeError::UnsupportedVersion(v).to_string();
                    assert!(
                        msg.contains("re-anonymized") && msg.contains("expected 3"),
                        "error should tell the caller what to do: {msg}"
                    );
                }
                other => panic!("v{version} bytes must be rejected, got {other:?}"),
            }
        }
    }

    /// Regression for the pre-allocation trust bug class: a header that
    /// claims a 4-billion-segment region (a would-be 16 GiB allocation)
    /// must be rejected as a hostile length *before* any allocation is
    /// sized from it — decode of the 30-byte input stays O(1) memory.
    #[test]
    fn rejects_hostile_4gib_segment_count_before_allocating() {
        let mut v = sample().encode().to_vec();
        // Segment count sits right after magic+ver+algo+nonce+epoch.
        v[22..26].copy_from_slice(&u32::MAX.to_le_bytes());
        v.truncate(30); // a handful of "segment" bytes, nothing close to 4Gi
        assert_eq!(
            CloakPayload::decode(&v),
            Err(DecodeError::HostileLength {
                field: "segment",
                claimed: u32::MAX as u64,
                available: 4,
            })
        );
    }

    /// Same class, one layer down: hostile level round/hint counts are
    /// capped against the remaining input, not trusted as capacities.
    #[test]
    fn rejects_hostile_level_counts_before_allocating() {
        let p = sample();
        let bytes = p.encode();
        // The first level's `count` field follows segments, the level
        // count and the encrypted anchor.
        let count_at = 26 + 4 * p.segments.len() + 1 + 4;
        let mut v = bytes.to_vec();
        v[count_at..count_at + 4].copy_from_slice(&0xfff_ffffu32.to_le_bytes());
        match CloakPayload::decode(&v) {
            Err(DecodeError::HostileLength {
                field: "round",
                claimed,
                ..
            }) => {
                assert_eq!(claimed, 0xfff_ffff);
            }
            other => panic!("hostile round count must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unsorted_segments() {
        let mut p = sample();
        p.segments.swap(0, 1);
        let bytes = p.encode();
        assert!(CloakPayload::decode(&bytes).is_err());
        // Duplicates too.
        let mut p = sample();
        p.segments[1] = p.segments[0];
        assert!(CloakPayload::decode(&p.encode()).is_err());
    }

    #[test]
    fn rejects_inconsistent_level_counts() {
        let mut p = sample();
        p.levels[0].count = 99;
        assert!(CloakPayload::decode(&p.encode()).is_err());
    }

    #[test]
    fn rejects_hint_overflow() {
        let mut p = sample();
        p.levels[1].enc_hints = vec![1, 2, 3]; // 3 hints for 1 step
        assert!(CloakPayload::decode(&p.encode()).is_err());
    }

    #[test]
    fn empty_levels_payload() {
        let p = CloakPayload {
            algorithm: 2,
            nonce: 1,
            epoch: 0,
            segments: vec![SegmentId(0)],
            enc_anchor: 0,
            levels: vec![],
        };
        let back = CloakPayload::decode(&p.encode()).unwrap();
        assert_eq!(back.top_level(), Level(0));
        assert_eq!(back, p);
    }
}
