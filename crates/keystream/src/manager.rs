//! Key management for multi-level privacy profiles.
//!
//! The paper's Anonymizer GUI offers "Auto key generation" and "manages
//! \[keys\] locally"; the De-anonymizer "fetches the access keys" it is
//! entitled to. [`KeyManager`] is that local store; the entitlement logic
//! lives in [`crate::access`].

use crate::key::Key256;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A privacy level index.
///
/// Level 0 is the user's own segment and has no key; levels `1..N` each
/// have one key (`Key_i`), used to expand from level `i-1` to level `i`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Level(pub u8);

impl Level {
    /// The level as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Error from [`KeyManager`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The requested level has no key (level 0, or beyond the profile).
    NoSuchLevel(Level),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::NoSuchLevel(l) => write!(f, "no key for level {l}"),
        }
    }
}

impl Error for KeyError {}

/// Holds the per-level access keys of one location data owner.
///
/// ```
/// use keystream::{entropy::OsEntropy, KeyManager, Level};
/// let mut os = OsEntropy::new()?; // operating-system entropy
/// let mgr = KeyManager::generate(4, &mut os); // levels L1..L4
/// assert_eq!(mgr.level_count(), 4);
/// let k2 = mgr.key_for(Level(2)).unwrap();
/// assert_eq!(mgr.keys_down_to(Level(2)).unwrap().len(), 2); // Key4, Key3
/// # let _ = k2;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyManager {
    /// `keys[i]` is the key for level `i + 1`.
    keys: Vec<Key256>,
}

impl KeyManager {
    /// Creates a manager from explicit per-level keys; `keys[i]` serves
    /// level `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 255 keys: a [`Level`] is one byte.
    pub fn from_keys(keys: Vec<Key256>) -> Self {
        check_level_count(keys.len());
        KeyManager { keys }
    }

    /// Auto-generates keys for levels `1..=levels`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` exceeds 255: a [`Level`] is one byte.
    pub fn generate<R: rand::Rng + ?Sized>(levels: usize, rng: &mut R) -> Self {
        check_level_count(levels);
        KeyManager {
            keys: (0..levels).map(|_| Key256::generate(rng)).collect(),
        }
    }

    /// Derives per-level keys from a 256-bit master key through the keyed
    /// sponge ([`derive_keys`](crate::stream::derive_keys)): one absorption
    /// of `master` under `rc/levels`, then level `i` takes the `i`-th
    /// 32-byte key squeezed, two per block. Distinct `(master, level)`
    /// pairs cannot collide short of a PRF collision.
    ///
    /// # Panics
    ///
    /// Panics if `levels` exceeds 255: a [`Level`] is one byte.
    pub fn derive(levels: usize, master: Key256) -> Self {
        check_level_count(levels);
        KeyManager {
            keys: crate::stream::derive_keys(master, b"rc/levels", levels),
        }
    }

    /// Deterministic manager for tests and reproducible experiments:
    /// expands the seed to a master key and derives per-level keys via
    /// [`derive`](Self::derive). (An earlier version derived level keys
    /// as `from_seed(seed * 1_000_003 + i)`, under which distinct
    /// `(seed, level)` pairs could collide by shifting the seed along the
    /// multiplier's modular inverse — see the regression test.)
    ///
    /// # Panics
    ///
    /// Panics if `levels` exceeds 255, as [`derive`](Self::derive) does.
    pub fn from_seed(levels: usize, seed: u64) -> Self {
        Self::derive(levels, Key256::from_seed(seed))
    }

    /// Number of keyed levels (`N - 1` in the paper's notation).
    pub fn level_count(&self) -> usize {
        self.keys.len()
    }

    /// The key for a level.
    ///
    /// # Errors
    ///
    /// Fails for level 0 (never keyed) and for levels beyond the profile.
    pub fn key_for(&self, level: Level) -> Result<Key256, KeyError> {
        if level.0 == 0 {
            return Err(KeyError::NoSuchLevel(level));
        }
        self.keys
            .get(level.index() - 1)
            .copied()
            .ok_or(KeyError::NoSuchLevel(level))
    }

    /// The highest keyed level.
    pub fn top_level(&self) -> Level {
        Level(self.keys.len() as u8)
    }

    /// Keys needed to reduce the exposed region from the top level down to
    /// `target` (exclusive): `Key_N, Key_{N-1}, …, Key_{target+1}`, in
    /// peeling order.
    ///
    /// Reducing to the top level itself needs no keys (empty vec).
    ///
    /// # Errors
    ///
    /// Fails if `target` exceeds the top level.
    pub fn keys_down_to(&self, target: Level) -> Result<Vec<(Level, Key256)>, KeyError> {
        if target.index() > self.keys.len() {
            return Err(KeyError::NoSuchLevel(target));
        }
        Ok((target.index() + 1..=self.keys.len())
            .rev()
            .map(|i| (Level(i as u8), self.keys[i - 1]))
            .collect())
    }

    /// All `(level, key)` pairs, lowest level first.
    pub fn iter(&self) -> impl Iterator<Item = (Level, Key256)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (Level(i as u8 + 1), k))
    }
}

/// Refuses a key count whose top level a one-byte [`Level`] cannot
/// number, so [`KeyManager::iter`], [`KeyManager::top_level`] and
/// [`KeyManager::keys_down_to`] never wrap.
fn check_level_count(levels: usize) {
    assert!(
        levels <= u8::MAX as usize,
        "a KeyManager holds at most {} levels, got {levels}",
        u8::MAX
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_for_levels() {
        let mgr = KeyManager::from_seed(3, 1);
        assert!(mgr.key_for(Level(0)).is_err());
        assert!(mgr.key_for(Level(1)).is_ok());
        assert!(mgr.key_for(Level(3)).is_ok());
        assert_eq!(mgr.key_for(Level(4)), Err(KeyError::NoSuchLevel(Level(4))));
        assert_eq!(mgr.top_level(), Level(3));
    }

    #[test]
    fn keys_down_to_orders_top_first() {
        let mgr = KeyManager::from_seed(4, 2);
        let down_to_1 = mgr.keys_down_to(Level(1)).unwrap();
        let levels: Vec<u8> = down_to_1.iter().map(|(l, _)| l.0).collect();
        assert_eq!(levels, vec![4, 3, 2]);
        assert!(mgr.keys_down_to(Level(4)).unwrap().is_empty());
        assert!(mgr.keys_down_to(Level(5)).is_err());
        // Reducing to L0 needs all keys.
        assert_eq!(mgr.keys_down_to(Level(0)).unwrap().len(), 4);
    }

    #[test]
    fn per_level_keys_are_distinct() {
        let mgr = KeyManager::from_seed(6, 3);
        let mut seen = std::collections::HashSet::new();
        for (_, k) in mgr.iter() {
            assert!(seen.insert(k));
        }
    }

    /// Regression test for the `seed * 1_000_003 + level` derivation:
    /// seeds `s` and `s + inv(1_000_003)` (mod 2^64) produced managers
    /// whose key material was the same sequence shifted by one level —
    /// `(s, L2)` literally equaled `(s + inv, L1)`. The sponge-derived
    /// keys must keep the whole seed×level grid pairwise distinct,
    /// including that adversarial pair.
    #[test]
    fn from_seed_keys_are_distinct_across_a_seed_level_grid() {
        // inv(1_000_003) mod 2^64 by Newton iteration (odd => invertible).
        let k: u64 = 1_000_003;
        let mut inv = k;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(inv)));
        }
        assert_eq!(k.wrapping_mul(inv), 1);

        let base = 0x5eed_0001u64;
        let seeds = [0, 1, 2, 7, base, base + 1, base.wrapping_add(inv)];
        let mut seen = std::collections::HashSet::new();
        for &seed in &seeds {
            let mgr = KeyManager::from_seed(5, seed);
            for (level, key) in mgr.iter() {
                assert!(
                    seen.insert(key),
                    "key collision at seed {seed}, level {level}"
                );
            }
        }
        // The sharp case the old formula collapsed:
        let a = KeyManager::from_seed(3, base);
        let b = KeyManager::from_seed(3, base.wrapping_add(inv));
        assert_ne!(
            a.key_for(Level(2)).unwrap(),
            b.key_for(Level(1)).unwrap(),
            "level-shifted seeds must not alias"
        );
    }

    #[test]
    fn derive_matches_from_seed_and_separates_masters() {
        let master = Key256::from_seed(11);
        assert_eq!(KeyManager::derive(4, master), KeyManager::from_seed(4, 11));
        assert_ne!(
            KeyManager::derive(4, master),
            KeyManager::derive(4, Key256::from_seed(12))
        );
    }

    #[test]
    fn generate_produces_requested_count() {
        let mut rng = rand::thread_rng();
        let mgr = KeyManager::generate(5, &mut rng);
        assert_eq!(mgr.level_count(), 5);
    }

    #[test]
    fn holds_at_most_255_levels() {
        let mgr = KeyManager::from_seed(255, 1);
        assert_eq!(mgr.top_level(), Level(255));
        assert_eq!(mgr.iter().last().map(|(level, _)| level), Some(Level(255)));
        assert_eq!(mgr.keys_down_to(Level(0)).unwrap()[0].0, Level(255));
        let keys: Vec<Key256> = mgr.iter().map(|(_, k)| k).collect();
        assert_eq!(KeyManager::from_keys(keys), mgr);
    }

    #[test]
    #[should_panic(expected = "a KeyManager holds at most 255 levels, got 256")]
    fn from_seed_refuses_256_levels() {
        KeyManager::from_seed(256, 1);
    }

    #[test]
    #[should_panic(expected = "a KeyManager holds at most 255 levels, got 256")]
    fn from_keys_refuses_256_keys() {
        KeyManager::from_keys(vec![Key256::from_seed(1); 256]);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            KeyError::NoSuchLevel(Level(7)).to_string(),
            "no key for level L7"
        );
    }
}
