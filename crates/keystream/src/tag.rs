//! Keyed tags (PRF-MACs).
//!
//! The cloaked payload carries one tag per privacy level. Below the top
//! level a tag names the level's last-added segment to a key holder
//! ([`DrawStream::tag`](crate::DrawStream::tag)); the top level's tag is an [`Authenticator`] over
//! the whole encoded receipt, so every key holder rejects a forged or
//! spliced receipt before walking it. To anyone without the key a tag is
//! pseudorandom.
//!
//! Like [`crate::stream`], this is a simulation-grade PRF: swap in
//! HMAC-SHA256 for production.

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

/// A MAC over a message of any length, keyed by a draw stream's absorbed
/// state ([`DrawStream::authenticator`](crate::DrawStream::authenticator)).
///
/// It is a keyed sponge: it starts from the stream's secret base with a
/// domain word in a capacity word no block counter touches, absorbs the
/// message 48 bytes per permutation, pads with `10*` and outputs 16
/// bytes of the rate after the last permutation. A message of `n` bytes
/// costs `n / 48 + 1` permutations, and the key was paid for when the
/// stream was absorbed. Pieces absorbed in turn authenticate their
/// concatenation, so a caller frames its message as it likes.
///
/// ```
/// use keystream::{DrawStream, Key256};
/// let stream = DrawStream::new(Key256::from_seed(5), b"level");
/// let mut mac = stream.authenticator();
/// mac.absorb(b"whole ");
/// mac.absorb(b"receipt");
/// let mut once = stream.authenticator();
/// once.absorb(b"whole receipt");
/// assert_eq!(mac.finish(), once.finish());
/// ```
#[derive(Clone)]
pub struct Authenticator {
    sponge: Sponge,
}

impl Authenticator {
    pub(crate) fn new(sponge: Sponge) -> Authenticator {
        Authenticator { sponge }
    }

    /// Absorbs the message's next bytes.
    pub fn absorb(&mut self, bytes: &[u8]) {
        self.sponge.absorb(bytes);
    }

    /// The tag of everything absorbed.
    pub fn finish(self) -> Tag128 {
        crate::work::tagged();
        Tag128(self.sponge.seal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrawStream, Key256};

    #[test]
    fn tags_spread_over_segments() {
        // No collisions among a few thousand segment ids of one lane.
        let stream = DrawStream::new(Key256::from_seed(1), b"coll");
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u32 {
            assert!(seen.insert(stream.tag(1, i)), "collision at {i}");
        }
    }

    #[test]
    fn authenticators_bind_every_byte_and_the_length() {
        let stream = DrawStream::new(Key256::from_seed(6), b"level");
        let mac = |message: &[u8]| {
            let mut a = stream.authenticator();
            a.absorb(message);
            a.finish()
        };
        let message: Vec<u8> = (0..150u8).collect();
        let t = mac(&message);
        // Bit flips anywhere, and padding-like extensions, change the tag.
        for i in [0, 47, 48, 95, 149] {
            let mut flipped = message.clone();
            flipped[i] ^= 0x10;
            assert_ne!(mac(&flipped), t, "flip at {i}");
        }
        let mut extended = message.clone();
        extended.push(0x01);
        assert_ne!(mac(&extended), t);
        extended.pop();
        extended.push(0);
        assert_ne!(mac(&extended), t);
        assert_ne!(mac(b""), mac(b"\x01"));
        // Keyed by the stream: another key or context, another tag.
        let other = DrawStream::new(Key256::from_seed(7), b"level");
        let mut a = other.authenticator();
        a.absorb(&message);
        assert_ne!(a.finish(), t);
        // Not the level's own tag block, nor its draws.
        assert_ne!(mac(b""), stream.tag(0, 0));
        // n / 48 + 1 permutations, none of them a squeeze.
        let before = crate::work::counts();
        mac(&message);
        let spent = crate::work::counts().since(before);
        assert_eq!((spent.absorbing, spent.squeezing, spent.tags), (4, 0, 1));
    }

    #[test]
    fn display_is_hex() {
        let t = Tag128([0xab; 16]);
        assert_eq!(t.to_string(), "ab".repeat(16));
    }
}
