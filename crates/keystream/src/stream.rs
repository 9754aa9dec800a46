//! Keyed pseudo-random draw streams.
//!
//! ReverseCloak needs a deterministic stream of pseudo-random numbers
//! `R_1, R_2, …` per `(key, level)` pair: the i-th number drives both the
//! i-th forward transition (anonymization) and the corresponding backward
//! transition (de-anonymization). Determinism and replayability are the
//! contract; the keyed generator's strength is what backs the paper's
//! "without the access key, all linked segments are equiprobable" claim.
//!
//! The generator is a ChaCha20-class keyed PRF built from the ChaCha
//! permutation (20 rounds of ARX quarter-rounds over a 16-word state,
//! Bernstein's design), staged exactly like the ChaCha20 cipher itself:
//!
//! 1. **Key schedule.** The 256-bit key is seated directly in state
//!    words 0..8 — ChaCha20's own key placement — with the four
//!    `"expand 32-byte k"` constants as the capacity (words 12..16) and
//!    a domain word folded into the capacity before any permutation
//!    (draw streams and [`derive_key`] can never alias).
//! 2. **Context absorption.** The context is **length delimited**: its
//!    length rides in word 8 and its first 12 bytes in words 9..12 of
//!    the initial state; any remainder is sponge-absorbed into the
//!    48-byte rate, one permutation per block. Distinct `(key, context)`
//!    pairs can never alias through zero padding (`b"level-1"` vs
//!    `b"level-1\0"` was a collision class of the earlier xoshiro
//!    stand-in).
//! 3. **Counter-mode squeeze.** Output blocks are the textbook ChaCha20
//!    block function over the absorbed state: XOR a block counter into
//!    the capacity, permute, and add the input state word-wise
//!    (the feed-forward that makes the permutation one-way), yielding
//!    64 output bytes — eight `u64` draws — per permutation.
//!
//! Remaining gap: *unseeded* key generation ([`crate::key::Key256::generate`])
//! still draws from the caller's `rand` shim, which is not a CSPRNG — see
//! the README's shim caveat.

use crate::key::Key256;

/// Advances a SplitMix64 state and returns the next output.
///
/// Exposed within the crate for low-entropy test-seed expansion
/// ([`crate::key::Key256::from_seed`]); the draw stream itself no longer
/// uses it.
pub(crate) fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The ChaCha constants ("expand 32-byte k"), seated in the sponge's
/// capacity words so absorption never writes over them.
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Sponge rate in state words: words `0..12` (48 bytes) absorb input and
/// emit output; words `12..16` are the capacity.
const RATE_WORDS: usize = 12;
/// Sponge rate in bytes.
const RATE_BYTES: usize = RATE_WORDS * 4;

/// Domain word for the draw stream, folded into the capacity at
/// initialization.
const DOMAIN_DRAW: u32 = 0x01;
/// Domain word for 256-bit key derivation.
const DOMAIN_DERIVE: u32 = 0x02;

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The ChaCha20 permutation: 10 double rounds (20 rounds total) of
/// column and diagonal quarter-rounds. (An SSSE3 single-block path was
/// measured here and *lost* to the scalar rounds — the four-lane ILP is
/// already saturated and the diagonalization shuffles are pure
/// overhead — so scalar it stays.)
#[inline]
fn chacha_permute(s: &mut [u32; 16]) {
    for _ in 0..10 {
        quarter_round(s, 0, 4, 8, 12);
        quarter_round(s, 1, 5, 9, 13);
        quarter_round(s, 2, 6, 10, 14);
        quarter_round(s, 3, 7, 11, 15);
        quarter_round(s, 0, 5, 10, 15);
        quarter_round(s, 1, 6, 11, 12);
        quarter_round(s, 2, 7, 8, 13);
        quarter_round(s, 3, 4, 9, 14);
    }
}

/// Absorbs `key` and `context` under `domain`, returning the keyed base
/// state the counter-mode block function squeezes from.
///
/// The layout is ChaCha20's own key schedule — key in words 0..8,
/// constants as the capacity — with the context made injective by
/// length delimitation: its length sits in word 8 and its first 12
/// bytes in words 9..12 of the initial state (so the hot-path contexts
/// cost at most one extra absorption permutation), and any remainder is
/// sponge-absorbed into the rate. Distinct `(key, context, domain)`
/// triples always produce distinct absorption transcripts; zero padding
/// of the trailing block cannot alias two contexts because their
/// lengths already differ in word 8.
fn absorb(key: &Key256, context: &[u8], domain: u32) -> [u32; 16] {
    let head = context.len().min(12);
    let mut sponge = Sponge::start(key, context.len(), &context[..head], domain);
    sponge.absorb(&context[head..]);
    sponge.finish()
}

/// An [`absorb`] whose context arrives in pieces: the state after the
/// key schedule and the first permutation, which read only the key, the
/// context's length and its first 12 bytes, plus the bytes of a rate
/// block not yet absorbed. A clone taken before the remainder shares
/// that first permutation between contexts of one length and head.
#[derive(Clone)]
pub(crate) struct Sponge {
    state: [u32; 16],
    pending: [u8; RATE_BYTES],
    filled: usize,
}

impl Sponge {
    /// Starts a draw stream's absorption of a `len`-byte context whose
    /// first `min(len, 12)` bytes are `head`; the rest of the context
    /// goes to [`absorb`](Self::absorb).
    pub(crate) fn draw(key: &Key256, len: usize, head: &[u8]) -> Sponge {
        Sponge::start(key, len, head, DOMAIN_DRAW)
    }

    fn start(key: &Key256, len: usize, head: &[u8], domain: u32) -> Sponge {
        assert!(
            len as u64 <= u32::MAX as u64,
            "context too long to length-delimit"
        );
        debug_assert_eq!(head.len(), len.min(12));
        let mut state = [0u32; 16];
        for (i, chunk) in key.as_bytes().chunks_exact(4).enumerate() {
            state[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        state[8] = len as u32;
        let mut head_bytes = [0u8; 12];
        head_bytes[..head.len()].copy_from_slice(head);
        for (i, chunk) in head_bytes.chunks_exact(4).enumerate() {
            state[9 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        // Capacity: the ChaCha constants tweaked by the domain word, where
        // no absorbed input can reach.
        state[RATE_WORDS..].copy_from_slice(&CHACHA_CONSTANTS);
        state[RATE_WORDS] ^= domain;
        chacha_permute(&mut state);
        Sponge {
            state,
            pending: [0; RATE_BYTES],
            filled: 0,
        }
    }

    /// Absorbs the context's next bytes after its head: one permutation
    /// per 48-byte block of the remainder.
    pub(crate) fn absorb(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (RATE_BYTES - self.filled).min(bytes.len());
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled == RATE_BYTES {
                self.permute_pending();
            }
        }
    }

    /// Absorbs a last partial block, zero-padded, and returns the base
    /// state.
    fn finish(mut self) -> [u32; 16] {
        if self.filled > 0 {
            self.permute_pending();
        }
        self.state
    }

    /// The draw stream of the absorbed context.
    pub(crate) fn into_stream(self) -> DrawStream {
        DrawStream::over(self.finish())
    }

    fn permute_pending(&mut self) {
        let block = &self.pending[..self.filled];
        for (word, chunk) in self.state.iter_mut().zip(block.chunks(4)) {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            *word ^= u32::from_le_bytes(w);
        }
        chacha_permute(&mut self.state);
        self.filled = 0;
    }
}

/// The ChaCha20 block function over `base`: fold the block counter into
/// the capacity, permute, and add the input state word-wise. The
/// feed-forward makes recovering `base` from output infeasible, so all
/// 16 words — eight `u64` draws — are output.
#[inline]
fn chacha_block(base: &[u32; 16], counter: u64) -> [u64; 8] {
    let mut input = *base;
    input[13] ^= counter as u32;
    input[14] ^= (counter >> 32) as u32;
    let mut t = input;
    chacha_permute(&mut t);
    let mut out = [0u64; 8];
    for (i, slot) in out.iter_mut().enumerate() {
        let lo = t[2 * i].wrapping_add(input[2 * i]) as u64;
        let hi = t[2 * i + 1].wrapping_add(input[2 * i + 1]) as u64;
        *slot = lo | hi << 32;
    }
    out
}

/// Derives a fresh 256-bit key from `key` under a domain-separation
/// `context`, through the same length-delimited ChaCha sponge as
/// [`DrawStream`] (distinct finalization domain, so derived keys and
/// draw outputs never overlap).
///
/// This is the one-way step behind [`crate::chain::ChainState`]'s
/// hash-forward ratchet and [`crate::manager::KeyManager::derive`]'s
/// per-level keys: recovering the input key from the output would
/// require inverting the permutation through the hidden capacity.
#[inline]
pub fn derive_key(key: Key256, context: &[u8]) -> Key256 {
    let base = absorb(&key, context, DOMAIN_DERIVE);
    let block = chacha_block(&base, 0);
    let mut bytes = [0u8; 32];
    for (chunk, d) in bytes.chunks_mut(8).zip(&block) {
        chunk.copy_from_slice(&d.to_le_bytes());
    }
    Key256::from_bytes(bytes)
}

/// A deterministic keyed stream of pseudo-random `u64` draws.
///
/// ```
/// use keystream::{DrawStream, Key256};
/// let key = Key256::from_seed(1);
/// let mut a = DrawStream::new(key, b"level-1");
/// let mut b = DrawStream::new(key, b"level-1");
/// assert_eq!(a.next_u64(), b.next_u64()); // same key+context => same stream
/// let mut c = DrawStream::new(key, b"level-2");
/// assert_ne!(a.next_u64(), c.next_u64()); // contexts separate streams
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawStream {
    /// The absorbed `(key, context)` state every output block derives
    /// from (never itself output — the block function feed-forwards).
    base: [u32; 16],
    /// The current output block, consumed front to back.
    block: [u64; 8],
    /// Next unread index into `block` (starts exhausted: the first
    /// block is generated lazily on the first draw).
    cursor: usize,
    /// Counter of the next block to generate.
    next_block: u64,
    drawn: u64,
}

impl DrawStream {
    /// Creates the stream for `key` in a domain-separation `context`
    /// (for ReverseCloak: the privacy level and request nonce).
    #[inline]
    pub fn new(key: Key256, context: &[u8]) -> Self {
        DrawStream::over(absorb(&key, context, DOMAIN_DRAW))
    }

    /// The stream squeezed from an absorbed `base`, at its first draw.
    fn over(base: [u32; 16]) -> Self {
        DrawStream {
            base,
            block: [0u64; 8],
            cursor: 8,
            next_block: 0,
            drawn: 0,
        }
    }

    /// An O(1) substream: the same absorbed `(key, context)` base with
    /// the block-counter space partitioned by `lane`, so no absorption
    /// permutation is paid per substream. Lane `l` squeezes counter
    /// blocks `(l + 1) << 32` onward, and the parent stream stays below
    /// `1 << 32`; parent and substreams can therefore never overlap
    /// (each would have to consume over 2³⁵ draws first).
    ///
    /// ReverseCloak's engines fork one lane per expansion step — the
    /// step index is public protocol structure, not secret input, so it
    /// belongs in the counter, and a level pays one context absorption
    /// for its whole walk instead of one per step.
    #[inline]
    pub fn fork(&self, lane: u32) -> DrawStream {
        DrawStream {
            base: self.base,
            block: [0u64; 8],
            cursor: 8,
            next_block: (u64::from(lane) + 1) << 32,
            drawn: 0,
        }
    }

    /// The next pseudo-random draw `R_i`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.cursor == self.block.len() {
            self.block = chacha_block(&self.base, self.next_block);
            self.next_block += 1;
            self.cursor = 0;
        }
        let result = self.block[self.cursor];
        self.cursor += 1;
        self.drawn += 1;
        result
    }

    /// A draw reduced modulo `n` — the paper's *pick value*
    /// `p_i = R_i mod |CanA|`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick modulus must be positive");
        (self.next_u64() % n as u64) as usize
    }

    /// How many draws have been consumed so far.
    pub fn draws_consumed(&self) -> u64 {
        self.drawn
    }

    /// Collects the next `n` draws (convenience for replaying a level's
    /// sequence before walking it backwards).
    pub fn take_draws(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_context_same_stream() {
        let key = Key256::from_seed(42);
        let a = DrawStream::new(key, b"ctx").take_draws(100);
        let b = DrawStream::new(key, b"ctx").take_draws(100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_diverge() {
        let a = DrawStream::new(Key256::from_seed(1), b"ctx").take_draws(8);
        let b = DrawStream::new(Key256::from_seed(2), b"ctx").take_draws(8);
        assert_ne!(a, b);
    }

    #[test]
    fn different_contexts_diverge() {
        let key = Key256::from_seed(1);
        let a = DrawStream::new(key, b"level-1").take_draws(8);
        let b = DrawStream::new(key, b"level-2").take_draws(8);
        assert_ne!(a, b);
        // Length-extension-style near-collisions must also diverge.
        let c = DrawStream::new(key, b"ab").take_draws(8);
        let d = DrawStream::new(key, b"ab\0").take_draws(8);
        assert_ne!(c, d);
    }

    /// Regression test for the zero-padding collision of the former
    /// xoshiro stand-in: contexts differing only in trailing `\0` bytes
    /// absorbed identically (8-byte chunks, no length framing). The
    /// length-delimited sponge must keep every such pair apart.
    #[test]
    fn trailing_zero_contexts_are_distinct() {
        let key = Key256::from_seed(7);
        let pairs: [(&[u8], &[u8]); 4] = [
            (b"level-1", b"level-1\0"),
            (b"level-1", b"level-1\0\0\0\0\0\0\0\0"),
            (b"", b"\0"),
            (b"rc/step/\x01\x02", b"rc/step/\x01\x02\0\0"),
        ];
        for (short, padded) in pairs {
            let a = DrawStream::new(key, short).take_draws(8);
            let b = DrawStream::new(key, padded).take_draws(8);
            assert_ne!(a, b, "contexts {short:?} and {padded:?} collided");
        }
    }

    #[test]
    fn draws_consumed_counts() {
        let mut s = DrawStream::new(Key256::from_seed(5), b"x");
        assert_eq!(s.draws_consumed(), 0);
        s.next_u64();
        s.pick(10);
        assert_eq!(s.draws_consumed(), 2);
    }

    #[test]
    fn forks_are_deterministic_and_disjoint() {
        let key = Key256::from_seed(21);
        let base = DrawStream::new(key, b"walk");
        // Deterministic: the same lane forked twice yields one stream.
        assert_eq!(base.fork(3).take_draws(20), base.fork(3).take_draws(20));
        // Disjoint: the parent and every lane draw from separate counter
        // windows, so no draw appears twice across any of them.
        let mut all: Vec<u64> = base.clone().take_draws(20);
        for lane in 0..8u32 {
            all.extend(base.fork(lane).take_draws(20));
        }
        let unique: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "overlapping fork keystreams");
    }

    #[test]
    fn fork_ignores_parent_position() {
        // Forking is a function of the absorbed base alone: a parent
        // that has already drawn yields the same substreams as a fresh
        // one, so walk code may fork in any order.
        let key = Key256::from_seed(22);
        let fresh = DrawStream::new(key, b"walk");
        let mut advanced = DrawStream::new(key, b"walk");
        advanced.take_draws(17);
        assert_eq!(fresh.fork(5).take_draws(8), advanced.fork(5).take_draws(8));
    }

    #[test]
    fn stream_continues_past_the_first_block() {
        // 8 draws per block: crossing the block boundary must keep the
        // stream deterministic and non-repeating.
        let key = Key256::from_seed(13);
        let a = DrawStream::new(key, b"blocks").take_draws(40);
        let b = DrawStream::new(key, b"blocks").take_draws(40);
        assert_eq!(a, b);
        let unique: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), 40, "no repeated draws across blocks");
    }

    #[test]
    fn pick_is_in_range_and_covers_values() {
        let mut s = DrawStream::new(Key256::from_seed(9), b"p");
        let mut seen = [false; 7];
        for _ in 0..500 {
            let p = s.pick(7);
            assert!(p < 7);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&v| v), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn pick_zero_panics() {
        DrawStream::new(Key256::from_seed(1), b"z").pick(0);
    }

    #[test]
    fn output_looks_uniform() {
        // Crude bias check: mean of 10_000 draws scaled to [0,1) near 0.5.
        let mut s = DrawStream::new(Key256::from_seed(77), b"uniform");
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| s.next_u64() as f64 / u64::MAX as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bit_balance() {
        let mut s = DrawStream::new(Key256::from_seed(3), b"bits");
        let mut ones = 0u32;
        let n = 4096;
        for _ in 0..n {
            ones += s.next_u64().count_ones();
        }
        let frac = ones as f64 / (n as f64 * 64.0);
        assert!((frac - 0.5).abs() < 0.01, "bit fraction {frac}");
    }

    #[test]
    fn derive_key_is_deterministic_and_separated_from_draws() {
        let key = Key256::from_seed(21);
        assert_eq!(derive_key(key, b"ctx"), derive_key(key, b"ctx"));
        assert_ne!(derive_key(key, b"ctx"), derive_key(key, b"ctx2"));
        assert_ne!(derive_key(key, b"ctx"), key, "derivation moves the key");
        // Distinct finalization domains: the derived key bytes must not
        // equal the draw stream's first 32 output bytes.
        let draws = DrawStream::new(key, b"ctx").take_draws(4);
        let mut stream_bytes = [0u8; 32];
        for (chunk, d) in stream_bytes.chunks_mut(8).zip(&draws) {
            chunk.copy_from_slice(&d.to_le_bytes());
        }
        assert_ne!(*derive_key(key, b"ctx").as_bytes(), stream_bytes);
    }

    #[test]
    fn derive_key_is_length_delimited_too() {
        let key = Key256::from_seed(4);
        assert_ne!(derive_key(key, b"a"), derive_key(key, b"a\0"));
        assert_ne!(derive_key(key, b""), derive_key(key, b"\0"));
    }

    /// The SSSE3 permutation must be bit-exact with the scalar
    /// reference — every draw everywhere depends on it.
    /// The permutation must actually be ChaCha20: pin one quarter-round
    /// test vector from RFC 7539 §2.1.1.
    #[test]
    fn quarter_round_matches_rfc7539_vector() {
        let mut s = [0u32; 16];
        s[0] = 0x1111_1111;
        s[1] = 0x0102_0304;
        s[2] = 0x9b8d_6f43;
        s[3] = 0x0123_4567;
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], 0xea2a_92f4);
        assert_eq!(s[1], 0xcb1c_f8ce);
        assert_eq!(s[2], 0x4581_472e);
        assert_eq!(s[3], 0x5881_c4bb);
    }
}
