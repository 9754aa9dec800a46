//! Operating-system entropy for unseeded keys.
//!
//! Every key a caller does not seed on purpose comes from here: 32 bytes
//! read from [`SOURCE`] through `std::fs`, expanded by the crate's ChaCha
//! PRF ([`DrawStream`]). Reading fails with an error, never a panic, so a
//! host without the device refuses to mint keys instead of minting weak
//! ones. Seeded paths ([`Key256::from_seed`], [`KeyManager::from_seed`],
//! request seeds) never come here.
//!
//! [`KeyManager::from_seed`]: crate::KeyManager::from_seed
//!
//! ```
//! use keystream::{entropy::OsEntropy, KeyManager};
//! let mut os = OsEntropy::new()?;
//! let a = os.key();
//! assert_ne!(a, os.key());
//! let ring = KeyManager::generate(3, &mut os);
//! assert_eq!(ring.level_count(), 3);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::key::Key256;
use crate::stream::DrawStream;
use std::io::{self, Read};
use std::path::Path;

/// The operating system's entropy device.
pub const SOURCE: &str = "/dev/urandom";

/// A generator of key material seeded from operating-system entropy.
///
/// It implements the `rand` `RngCore` trait, so it can stand wherever the
/// key APIs take a caller's generator ([`KeyManager::generate`],
/// [`Key256::generate`]).
///
/// [`KeyManager::generate`]: crate::KeyManager::generate
pub struct OsEntropy {
    stream: DrawStream,
}

impl OsEntropy {
    /// Seeds a generator from [`SOURCE`].
    ///
    /// # Errors
    ///
    /// Fails when the device cannot be opened or read.
    pub fn new() -> io::Result<OsEntropy> {
        OsEntropy::read_from(Path::new(SOURCE))
    }

    /// Seeds a generator from the first 32 bytes of `source`.
    ///
    /// # Errors
    ///
    /// Fails when `source` cannot be opened or holds fewer than 32 bytes.
    pub fn read_from(source: &Path) -> io::Result<OsEntropy> {
        let mut seed = [0u8; 32];
        std::fs::File::open(source)?.read_exact(&mut seed)?;
        Ok(OsEntropy {
            stream: DrawStream::new(Key256::from_bytes(seed), b"rc/entropy"),
        })
    }

    /// A fresh 256-bit key.
    pub fn key(&mut self) -> Key256 {
        let mut bytes = [0u8; 32];
        rand::RngCore::fill_bytes(self, &mut bytes);
        Key256::from_bytes(bytes)
    }
}

impl rand::RngCore for OsEntropy {
    fn next_u64(&mut self) -> u64 {
        self.stream.next_u64()
    }
}

impl std::fmt::Debug for OsEntropy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The expanded state is key material.
        f.write_str("OsEntropy")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_source_is_an_error_not_a_panic() {
        let missing = std::env::temp_dir().join("rcloak-no-such-entropy-device");
        let err = OsEntropy::read_from(&missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_short_source_is_an_error() {
        let path =
            std::env::temp_dir().join(format!("rcloak-short-entropy-{}", std::process::id()));
        std::fs::write(&path, [7u8; 31]).unwrap();
        let err = OsEntropy::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_seed_expands_to_distinct_keys_and_two_reads_differ() {
        let path =
            std::env::temp_dir().join(format!("rcloak-fixed-entropy-{}", std::process::id()));
        std::fs::write(&path, [9u8; 32]).unwrap();
        let mut a = OsEntropy::read_from(&path).unwrap();
        let mut b = OsEntropy::read_from(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // The expansion is the PRF's: same seed, same keys; fresh keys
        // every call.
        let (a1, a2) = (a.key(), a.key());
        assert_ne!(a1, a2);
        assert_eq!((a1, a2), (b.key(), b.key()));
        assert_ne!(a1, Key256::from_bytes([9u8; 32]));
        // The device itself gives a fresh seed per generator.
        assert_ne!(
            OsEntropy::new().unwrap().key(),
            OsEntropy::new().unwrap().key()
        );
    }
}
