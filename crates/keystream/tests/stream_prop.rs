//! Property and statistical tests of the keyed stream and tags: the
//! pseudo-randomness the privacy argument rests on.

use keystream::{DrawStream, Key256, KeyManager, Level};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streams_are_deterministic_functions_of_key_and_context(
        key_seed in any::<u64>(),
        ctx in proptest::collection::vec(any::<u8>(), 0..64),
        n in 1usize..64,
    ) {
        let key = Key256::from_seed(key_seed);
        let a = DrawStream::new(key, &ctx).take_draws(n);
        let b = DrawStream::new(key, &ctx).take_draws(n);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn different_keys_give_different_streams(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        ctx in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assume!(seed_a != seed_b);
        let a = DrawStream::new(Key256::from_seed(seed_a), &ctx).take_draws(16);
        let b = DrawStream::new(Key256::from_seed(seed_b), &ctx).take_draws(16);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn context_bytes_matter(
        key_seed in any::<u64>(),
        ctx in proptest::collection::vec(any::<u8>(), 1..48),
        flip in 0usize..48,
    ) {
        let key = Key256::from_seed(key_seed);
        let mut ctx2 = ctx.clone();
        let i = flip % ctx2.len();
        ctx2[i] ^= 0x01;
        let a = DrawStream::new(key, &ctx).take_draws(8);
        let b = DrawStream::new(key, &ctx2).take_draws(8);
        prop_assert_ne!(a, b, "single-bit context change must change the stream");
    }

    #[test]
    fn pick_respects_modulus(
        key_seed in any::<u64>(),
        n in 1usize..10_000,
        draws in 1usize..32,
    ) {
        let mut s = DrawStream::new(Key256::from_seed(key_seed), b"pick");
        for _ in 0..draws {
            prop_assert!(s.pick(n) < n);
        }
    }

    #[test]
    fn receipt_tags_commit_to_all_inputs(
        key_seed in any::<u64>(),
        ctx in proptest::collection::vec(any::<u8>(), 0..12),
        msg in proptest::collection::vec(any::<u8>(), 0..120),
        flip_msg in any::<bool>(),
        flip_at in 0usize..120,
    ) {
        let mac = |ctx: &[u8], msg: &[u8]| {
            let mut a = DrawStream::new(Key256::from_seed(key_seed), ctx).authenticator();
            a.absorb(msg);
            a.finish()
        };
        let t = mac(&ctx, &msg);
        prop_assert_eq!(t, mac(&ctx, &msg));
        // Flipping one bit of the context or the message changes the tag.
        let (mut ctx2, mut msg2) = (ctx.clone(), msg.clone());
        let target = if flip_msg { &mut msg2 } else { &mut ctx2 };
        if !target.is_empty() {
            let i = flip_at % target.len();
            target[i] ^= 0x80;
            prop_assert_ne!(mac(&ctx2, &msg2), t);
        }
        // So does every segment's tag block, and no segment's equals it.
        let stream = DrawStream::new(Key256::from_seed(key_seed), &ctx);
        prop_assert_ne!(stream.tag(1, flip_at as u32), stream.tag(1, flip_at as u32 + 1));
        prop_assert_ne!(stream.tag(1, flip_at as u32), t);
    }

    #[test]
    fn key_hex_roundtrip(key_seed in any::<u64>()) {
        let k = Key256::from_seed(key_seed);
        prop_assert_eq!(Key256::from_hex(&k.to_hex()).unwrap(), k);
    }

    /// Distinct `(seed, level)` pairs must never share a key — the old
    /// `seed * 1_000_003 + level` derivation collided whenever two seeds
    /// differed by the multiplier's modular inverse.
    #[test]
    fn seeded_level_keys_form_a_collision_free_grid(
        seed_a in any::<u64>(),
        delta in 1u64..1u64 << 32,
        levels in 1usize..6,
    ) {
        let seed_b = seed_a.wrapping_add(delta);
        let a = KeyManager::from_seed(levels, seed_a);
        let b = KeyManager::from_seed(levels, seed_b);
        let mut seen = std::collections::HashSet::new();
        for mgr in [&a, &b] {
            for (_, key) in mgr.iter() {
                prop_assert!(seen.insert(key), "duplicate key in seed×level grid");
            }
        }
        prop_assert_eq!(a.key_for(Level(1)).unwrap(), KeyManager::from_seed(levels, seed_a).key_for(Level(1)).unwrap());
    }
}

/// Avalanche: flipping one key bit flips ~half of the first output bits.
#[test]
fn key_avalanche() {
    let base = Key256::from_seed(1234);
    let base_out = DrawStream::new(base, b"avalanche").take_draws(4);
    let mut total_flips = 0u32;
    let mut trials = 0u32;
    for byte in 0..32 {
        for bit in [0u8, 3, 7] {
            let mut bytes = *base.as_bytes();
            bytes[byte] ^= 1 << bit;
            let out = DrawStream::new(Key256::from_bytes(bytes), b"avalanche").take_draws(4);
            for (a, b) in base_out.iter().zip(&out) {
                total_flips += (a ^ b).count_ones();
                trials += 64;
            }
        }
    }
    let frac = total_flips as f64 / trials as f64;
    assert!(
        (frac - 0.5).abs() < 0.03,
        "avalanche fraction {frac} should be near 0.5"
    );
}

/// Chi-square-style residue balance of `pick` over a non-power-of-two
/// modulus (the pick-value path used by the cloaking engines).
#[test]
fn pick_residues_are_balanced() {
    let mut s = DrawStream::new(Key256::from_seed(777), b"chi");
    let n = 7usize;
    let draws = 70_000;
    let mut counts = vec![0u32; n];
    for _ in 0..draws {
        counts[s.pick(n)] += 1;
    }
    let expect = draws as f64 / n as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum();
    // 6 degrees of freedom; 22.46 is the 0.1% critical value.
    assert!(chi2 < 22.46, "chi-square {chi2} too large: {counts:?}");
}
