//! Keyed tags (PRF-MACs) over short messages.
//!
//! The cloaked payload carries one tag per privacy level that lets a key
//! holder identify that level's last-added segment (DESIGN.md §3.4). To
//! anyone without the key the tag is pseudorandom.
//!
//! Like [`crate::stream`], this is a simulation-grade PRF: swap in
//! HMAC-SHA256 for production.

use crate::key::Key256;
use crate::stream::Sponge;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 128-bit keyed tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tag128(pub [u8; 16]);

impl Tag128 {
    /// Hex encoding of the tag.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for Tag128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Computes the keyed tag of `message` under `key` in the given domain
/// separation `context`.
///
/// ```
/// use keystream::{tag, Key256};
/// let key = Key256::from_seed(4);
/// let t1 = tag::compute(key, b"level-3", b"segment:42");
/// let t2 = tag::compute(key, b"level-3", b"segment:42");
/// assert_eq!(t1, t2);
/// assert_ne!(t1, tag::compute(key, b"level-3", b"segment:43"));
/// ```
pub fn compute(key: Key256, context: &[u8], message: &[u8]) -> Tag128 {
    TagPrefix::new(key, context.len(), message.len()).compute(context, message)
}

/// Domain separation of tags from draw streams: every tag's input
/// starts with these bytes.
const TAG_DOMAIN: &[u8; 16] = b"reversecloak-tag";

/// [`compute`] for many tags under one key, context length and message
/// length, such as a region search for the one segment whose tag
/// matches.
///
/// A tag absorbs `reversecloak-tag`, the context's length, the context,
/// the message's length and the message, framed in that order, into a
/// [`DrawStream`](crate::DrawStream) and takes its first two draws. The
/// absorption's first permutation reads only the key, the framed length
/// and the frame's first 12 bytes (`reversecloak`), so it is the same
/// for every tag of these lengths: it is paid once here. Each
/// [`compute`](Self::compute) then frames the rest through a stack
/// buffer, and costs two permutations for a framed input of up to 60
/// bytes (the pipeline's tags frame 52) and no allocation.
#[derive(Clone)]
pub struct TagPrefix {
    sponge: Sponge,
    context_len: usize,
    message_len: usize,
}

impl TagPrefix {
    /// The shared first permutation of tags under `key` of a
    /// `context_len`-byte context and a `message_len`-byte message.
    pub fn new(key: Key256, context_len: usize, message_len: usize) -> TagPrefix {
        let framed = TAG_DOMAIN.len() + 8 + context_len + 8 + message_len;
        TagPrefix {
            sponge: Sponge::draw(&key, framed, &TAG_DOMAIN[..12]),
            context_len,
            message_len,
        }
    }

    /// `compute(key, context, message)` for the key this prefix was made
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if `context` or `message` is not of the length the prefix
    /// was made for.
    pub fn compute(&self, context: &[u8], message: &[u8]) -> Tag128 {
        assert_eq!(
            (context.len(), message.len()),
            (self.context_len, self.message_len),
            "tag prefix made for other lengths"
        );
        let mut sponge = self.sponge.clone();
        sponge.absorb(&TAG_DOMAIN[12..]);
        sponge.absorb(&(context.len() as u64).to_le_bytes());
        sponge.absorb(context);
        sponge.absorb(&(message.len() as u64).to_le_bytes());
        sponge.absorb(message);
        let mut stream = sponge.into_stream();
        let a = stream.next_u64();
        let b = stream.next_u64();
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        Tag128(out)
    }
}

/// Verifies that `tag` is the tag of `message`.
pub fn verify(key: Key256, context: &[u8], message: &[u8], tag: Tag128) -> bool {
    compute(key, context, message) == tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DrawStream;

    #[test]
    fn deterministic_and_message_sensitive() {
        let key = Key256::from_seed(11);
        let t = compute(key, b"c", b"m");
        assert_eq!(t, compute(key, b"c", b"m"));
        assert_ne!(t, compute(key, b"c", b"m2"));
        assert_ne!(t, compute(key, b"c2", b"m"));
        assert_ne!(t, compute(Key256::from_seed(12), b"c", b"m"));
    }

    #[test]
    fn framing_prevents_boundary_ambiguity() {
        let key = Key256::from_seed(11);
        // ("ab", "c") vs ("a", "bc") must differ.
        assert_ne!(compute(key, b"ab", b"c"), compute(key, b"a", b"bc"));
        // Empty pieces are fine and distinct.
        assert_ne!(compute(key, b"", b"x"), compute(key, b"x", b""));
    }

    #[test]
    fn verify_roundtrip() {
        let key = Key256::from_seed(2);
        let t = compute(key, b"lvl", b"seg:7");
        assert!(verify(key, b"lvl", b"seg:7", t));
        assert!(!verify(key, b"lvl", b"seg:8", t));
        assert!(!verify(Key256::from_seed(3), b"lvl", b"seg:7", t));
    }

    #[test]
    fn tags_spread_over_messages() {
        // No collisions among a few thousand distinct messages.
        let key = Key256::from_seed(1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u32 {
            let t = compute(key, b"coll", &i.to_le_bytes());
            assert!(seen.insert(t), "collision at {i}");
        }
    }

    /// The reference framing: the whole input in one allocated buffer,
    /// absorbed by [`DrawStream::new`].
    fn framed_reference(key: Key256, context: &[u8], message: &[u8]) -> Tag128 {
        let mut framed = Vec::new();
        framed.extend_from_slice(b"reversecloak-tag");
        framed.extend_from_slice(&(context.len() as u64).to_le_bytes());
        framed.extend_from_slice(context);
        framed.extend_from_slice(&(message.len() as u64).to_le_bytes());
        framed.extend_from_slice(message);
        let mut stream = DrawStream::new(key, &framed);
        let (a, b) = (stream.next_u64(), stream.next_u64());
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        Tag128(out)
    }

    #[test]
    fn shared_prefix_tags_match_the_framed_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7a9);
        let mut bytes = |len: usize| (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>();
        // The pipeline's 16-byte context and 4-byte ids frame 52 bytes;
        // the other lengths put the frame's end on, just past and well
        // beyond a 48-byte rate block, and leave the context empty.
        for (context_len, message_len) in [
            (16, 4),
            (0, 0),
            (0, 4),
            (16, 8),
            (17, 4),
            (40, 0),
            (64, 33),
            (100, 4),
        ] {
            for seed in 0..6 {
                let key = Key256::from_seed(seed * 131 + context_len as u64);
                let context = bytes(context_len);
                let prefix = TagPrefix::new(key, context_len, message_len);
                // One prefix serves every message of its lengths.
                for _ in 0..8 {
                    let message = bytes(message_len);
                    let expected = framed_reference(key, &context, &message);
                    assert_eq!(prefix.compute(&context, &message), expected);
                    assert_eq!(compute(key, &context, &message), expected);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tag prefix made for other lengths")]
    fn a_prefix_refuses_other_lengths() {
        TagPrefix::new(Key256::from_seed(1), 16, 4).compute(&[0; 16], &[0; 5]);
    }

    #[test]
    fn display_is_hex() {
        let t = Tag128([0xab; 16]);
        assert_eq!(t.to_string(), "ab".repeat(16));
    }
}
