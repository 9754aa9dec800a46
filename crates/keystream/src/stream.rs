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
//!    the initial state, so a context of at most 12 bytes costs one
//!    permutation; any remainder is sponge-absorbed into the 48-byte
//!    rate, one permutation per block. Distinct `(key, context)` pairs
//!    can never alias through zero padding (`b"level-1"` vs
//!    `b"level-1\0"` was a collision class of the earlier xoshiro
//!    stand-in).
//! 3. **Counter-mode squeeze.** Output blocks are the textbook ChaCha20
//!    block function over the absorbed state: XOR a block counter into
//!    the capacity, permute, and add the input state word-wise
//!    (the feed-forward that makes the permutation one-way), yielding
//!    64 output bytes — eight `u64` draws — per permutation. The
//!    counter's high word names a *lane* ([`DrawStream::fork`],
//!    [`DrawStream::tag`]), so one absorbed state serves a level's
//!    draws, its metadata keystream and its tags without overlap.
//!
//! Every permutation is counted per thread in [`crate::work`]. Unseeded
//! keys come from the operating system through [`crate::entropy`],
//! expanded by this same PRF; the `rand` shim's generator, which is not
//! a CSPRNG, only ever sees seeded (reproducible) paths.

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
/// Domain word an [`Authenticator`](crate::tag::Authenticator) XORs into
/// capacity word 15 of a draw stream's absorbed state: a word the block
/// counter never touches, so its permutation inputs differ from every
/// block function input of that state.
const DOMAIN_AUTH: u32 = 0x03;

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

/// A sponge's state while it absorbs: the permuted state plus the bytes
/// of a rate block not yet absorbed. [`absorb`] runs one over a key and
/// context; an [`Authenticator`](crate::tag::Authenticator) runs one
/// from a draw stream's absorbed state over a whole message.
#[derive(Clone)]
pub(crate) struct Sponge {
    state: [u32; 16],
    pending: [u8; RATE_BYTES],
    filled: usize,
}

impl Sponge {
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
        crate::work::absorbed();
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

    /// A sponge that goes on from a draw stream's absorbed `base`, keyed
    /// by it, under [`DOMAIN_AUTH`]: the start of an authenticator.
    pub(crate) fn resume(base: &[u32; 16]) -> Sponge {
        let mut state = *base;
        state[15] ^= DOMAIN_AUTH;
        Sponge {
            state,
            pending: [0; RATE_BYTES],
            filled: 0,
        }
    }

    /// Pads what was absorbed with `10*` (so the last block is never
    /// empty and no two inputs pad alike), permutes it in, and returns
    /// the first 16 bytes of the rate.
    pub(crate) fn seal(mut self) -> [u8; 16] {
        self.pending[self.filled..].fill(0);
        self.pending[self.filled] = 0x01;
        self.filled = RATE_BYTES;
        self.permute_pending();
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(&self.state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn permute_pending(&mut self) {
        let block = &self.pending[..self.filled];
        for (word, chunk) in self.state.iter_mut().zip(block.chunks(4)) {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            *word ^= u32::from_le_bytes(w);
        }
        chacha_permute(&mut self.state);
        crate::work::absorbed();
        self.filled = 0;
    }
}

/// The first block counter of fork lane `lane`.
fn lane_start(lane: u32) -> u64 {
    assert!(
        lane < u32::MAX,
        "lane u32::MAX wraps onto the parent stream"
    );
    (u64::from(lane) + 1) << 32
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
    crate::work::squeezed();
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
    key_of(&chacha_block(&base, 0)[..4])
}

/// Derives `n` keys from `key` under one `context`: one absorption,
/// then two keys per squeezed block, in order. The first is
/// [`derive_key`]`(key, context)`.
pub fn derive_keys(key: Key256, context: &[u8], n: usize) -> Vec<Key256> {
    let base = absorb(&key, context, DOMAIN_DERIVE);
    let mut keys = Vec::with_capacity(n);
    for counter in 0..n.div_ceil(2) {
        let block = chacha_block(&base, counter as u64);
        keys.extend(block.chunks_exact(4).map(key_of).take(n - keys.len()));
    }
    keys
}

/// The key whose bytes are four draws, little-endian.
fn key_of(draws: &[u64]) -> Key256 {
    let mut bytes = [0u8; 32];
    for (chunk, d) in bytes.chunks_mut(8).zip(draws) {
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
    /// Counter of this stream's first block: 0, or its fork lane's.
    first_block: u64,
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
        DrawStream::in_lane(base, 0)
    }

    fn in_lane(base: [u32; 16], first_block: u64) -> Self {
        DrawStream {
            base,
            block: [0u64; 8],
            cursor: 8,
            next_block: first_block,
            first_block,
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
    /// ReverseCloak's levels draw their walk from the parent and read
    /// their metadata keystream from a fork, so a level pays one context
    /// absorption for all of it.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is `u32::MAX`, whose counters would wrap onto
    /// the parent's.
    #[inline]
    pub fn fork(&self, lane: u32) -> DrawStream {
        DrawStream::in_lane(self.base, lane_start(lane))
    }

    /// The keyed tag of `message` in `lane`: the first 16 bytes of the
    /// one block at counter `(lane + 1) << 32 | message`. One block
    /// function call; distinct messages and lanes never share a block,
    /// and the lane's counters are those of [`fork`](Self::fork)`(lane)`,
    /// so a lane serves either tags or a forked stream, never both.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is `u32::MAX`, as [`fork`](Self::fork) does.
    pub fn tag(&self, lane: u32, message: u32) -> crate::tag::Tag128 {
        crate::work::tagged();
        let block = chacha_block(&self.base, lane_start(lane) | u64::from(message));
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&block[0].to_le_bytes());
        out[8..].copy_from_slice(&block[1].to_le_bytes());
        crate::tag::Tag128(out)
    }

    /// A MAC keyed by this stream's absorbed state: see
    /// [`Authenticator`](crate::tag::Authenticator).
    pub fn authenticator(&self) -> crate::tag::Authenticator {
        crate::tag::Authenticator::new(Sponge::resume(&self.base))
    }

    /// This stream positioned at its `draw`-th draw (counted from its
    /// first, not from where it stands): what a fresh copy yields after
    /// `draw` draws, paying only for the block it lands in.
    pub fn at(&self, draw: u64) -> DrawStream {
        let mut stream = DrawStream::in_lane(self.base, self.first_block + draw / 8);
        for _ in 0..draw % 8 {
            stream.next_u64();
        }
        stream.drawn = draw;
        stream
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
    fn derive_keys_extend_derive_key_two_per_block() {
        let key = Key256::from_seed(8);
        let keys = derive_keys(key, b"rc/levels", 5);
        assert_eq!(keys.len(), 5);
        assert_eq!(keys[0], derive_key(key, b"rc/levels"));
        assert_eq!(derive_keys(key, b"rc/levels", 2), keys[..2]);
        let unique: std::collections::HashSet<Key256> = keys.iter().copied().collect();
        assert_eq!(unique.len(), 5);
        assert!(derive_keys(key, b"rc/levels", 0).is_empty());
        // One absorption, then ⌈n/2⌉ blocks.
        let before = crate::work::counts();
        derive_keys(key, b"rc/levels", 3);
        let spent = crate::work::counts().since(before);
        assert_eq!((spent.absorbing, spent.squeezing), (1, 2));
    }

    #[test]
    fn tags_are_one_block_of_their_lane() {
        let stream = DrawStream::new(Key256::from_seed(30), b"level");
        let before = crate::work::counts();
        let t = stream.tag(1, 42);
        let spent = crate::work::counts().since(before);
        assert_eq!((spent.absorbing, spent.squeezing, spent.tags), (0, 1, 1));
        // The tag is the head of the lane's block `message`.
        let block = stream.fork(1).at(42 * 8).take_draws(2);
        assert_eq!(t.0[..8], block[0].to_le_bytes());
        assert_eq!(t.0[8..], block[1].to_le_bytes());
        assert_ne!(t, stream.tag(1, 43));
        assert_ne!(t, stream.tag(2, 42));
        assert_ne!(
            t,
            DrawStream::new(Key256::from_seed(31), b"level").tag(1, 42)
        );
    }

    #[test]
    fn at_skips_to_a_draw_of_its_own_lane() {
        let base = DrawStream::new(Key256::from_seed(32), b"walk");
        let all = base.clone().take_draws(40);
        for draw in [0, 1, 7, 8, 9, 23, 39] {
            let mut s = base.at(draw);
            assert_eq!(s.draws_consumed(), draw);
            assert_eq!(s.next_u64(), all[draw as usize], "draw {draw}");
        }
        // Positioned within its lane, wherever the original stands.
        let lane = base.fork(3);
        let mut moved = lane.clone();
        moved.take_draws(5);
        assert_eq!(moved.at(2).take_draws(3), lane.clone().take_draws(5)[2..]);
    }

    #[test]
    #[should_panic(expected = "wraps onto the parent")]
    fn the_last_lane_is_refused() {
        DrawStream::new(Key256::from_seed(1), b"x").fork(u32::MAX);
    }

    #[test]
    fn derive_key_is_length_delimited_too() {
        let key = Key256::from_seed(4);
        assert_ne!(derive_key(key, b"a"), derive_key(key, b"a\0"));
        assert_ne!(derive_key(key, b""), derive_key(key, b"\0"));
    }

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
