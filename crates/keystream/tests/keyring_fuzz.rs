//! Structure-aware mutation fuzzing of the keyring reader.
//!
//! A keyring is outside input (`rcloak … --keyring PATH`), so
//! [`read_keyring`] must hold up against anything a file can hold. The
//! offline stand-in for `cargo-fuzz` (as in `payload_fuzz.rs`): start
//! from *valid* keyrings, then sweep the mutations a hand-edited or
//! hostile file makes — duplicated, dropped and shuffled lines, level
//! numbers set to 0, 255, 256 or a huge value, truncations and byte
//! flips — and assert the reader never panics, that anything it
//! accepts holds 1 to 255 levels and reads back the same keys once
//! written out again with [`write_keyring`], and that a keyring with
//! more than 255 key lines is rejected.
//!
//! Deterministic by test name; override with `PROPTEST_SEED` to widen
//! the sweep. CI runs this at a fixed case budget (`fuzz-smoke`).

use keystream::{read_keyring, write_keyring, KeyManager};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The lines (header first) of a valid keyring of `levels` levels, as
/// bytes: mutations need not keep them UTF-8.
fn ring_lines(levels: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut buf = Vec::new();
    write_keyring(&KeyManager::from_seed(levels, seed), &mut buf).unwrap();
    buf.split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .map(<[u8]>::to_vec)
        .collect()
}

/// A valid keyring's lines: mostly 1–8 levels, and one seed in four
/// 250–255 levels, where a few more lines cross the `u8` level range.
fn corpus_lines(seed: u64) -> Vec<Vec<u8>> {
    let mut s = seed;
    let levels = if splitmix(&mut s).is_multiple_of(4) {
        250 + (splitmix(&mut s) % 6) as usize
    } else {
        1 + (splitmix(&mut s) % 8) as usize
    };
    ring_lines(levels, splitmix(&mut s))
}

/// Level numbers at and past the edges of the `u8` range.
const HOSTILE_LEVELS: [&str; 5] = ["0", "255", "256", "4294967297", "99999999999999999999999"];

/// Applies one line-level mutation, chosen and placed by `op`.
fn mutate(lines: &mut Vec<Vec<u8>>, op: u64) {
    if lines.is_empty() {
        return;
    }
    let at = (op >> 8) as usize % lines.len();
    let other = (op >> 32) as usize % lines.len();
    match op % 6 {
        0 => {
            let dup = lines[at].clone();
            lines.insert(other, dup);
        }
        1 => {
            lines.remove(at);
        }
        2 => lines.swap(at, other),
        3 => {
            let mut parts: Vec<&[u8]> = lines[at].split(|&b| b == b' ').collect();
            if parts.len() > 1 {
                parts[1] = HOSTILE_LEVELS[other % HOSTILE_LEVELS.len()].as_bytes();
            }
            lines[at] = parts.join(&b' ');
        }
        4 => {
            let cut = other % (lines[at].len() + 1);
            lines[at].truncate(cut);
        }
        _ => {
            let line = &mut lines[at];
            if !line.is_empty() {
                let i = other % line.len();
                line[i] ^= 1 << ((op >> 4) & 7);
            }
        }
    }
}

/// Reads `bytes`; whatever is accepted must hold 1 to 255 levels and
/// survive a write and a second read unchanged.
fn check_accepted(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(mgr) = read_keyring(bytes) {
        prop_assert!((1..=255).contains(&mgr.level_count()));
        let mut out = Vec::new();
        write_keyring(&mgr, &mut out).unwrap();
        prop_assert_eq!(read_keyring(out.as_slice()).unwrap(), mgr);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Duplicated, dropped, swapped, renumbered, truncated and
    /// bit-flipped lines: the reader never panics, and every keyring it
    /// accepts round-trips.
    #[test]
    fn mutated_keyrings_never_panic_and_accepts_round_trip(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut lines = corpus_lines(seed);
        for &op in &ops {
            mutate(&mut lines, op);
        }
        check_accepted(&lines.join(&b'\n'))?;
    }

    /// Any order of a valid keyring's lines reads back the same keys.
    #[test]
    fn shuffled_keyrings_read_back_the_same_keys(seed in any::<u64>(), order in any::<u64>()) {
        let mut lines = corpus_lines(seed);
        let original = read_keyring(lines.join(&b'\n').as_slice()).unwrap();
        let mut s = order;
        for i in (1..lines.len()).rev() {
            lines.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(read_keyring(lines.join(&b'\n').as_slice()).unwrap(), original);
    }

    /// A full 255-level keyring plus copies of its own key lines, some
    /// renumbered to 255: with more key lines than levels a byte can
    /// name, it must be rejected (and must not overflow the level
    /// check).
    #[test]
    fn keyrings_with_more_than_255_entries_are_rejected(
        seed in any::<u64>(),
        extra in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut lines = ring_lines(255, seed);
        for &e in &extra {
            let mut copy = lines[1 + (e % 255) as usize].clone();
            if (e >> 8).is_multiple_of(2) {
                let key = copy.rsplit(|&b| b == b' ').next().unwrap();
                copy = [b"level 255 ", key].concat();
            }
            let at = (e >> 16) as usize % (lines.len() + 1);
            lines.insert(at, copy);
        }
        prop_assert!(read_keyring(lines.join(&b'\n').as_slice()).is_err());
    }

    /// Byte-level damage to the whole file: flips anywhere, then a cut
    /// at any byte.
    #[test]
    fn flipped_and_truncated_keyrings_never_panic(
        seed in any::<u64>(),
        flips in proptest::collection::vec(any::<u32>(), 0..6),
        cut in any::<u32>(),
    ) {
        let mut bytes = corpus_lines(seed).join(&b'\n');
        for &f in &flips {
            let i = (f >> 3) as usize % bytes.len();
            bytes[i] ^= 1 << (f & 7);
        }
        bytes.truncate(cut as usize % (bytes.len() + 1));
        check_accepted(&bytes)?;
    }
}
