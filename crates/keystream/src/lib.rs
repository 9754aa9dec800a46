//! # keystream — keyed pseudo-randomness and key management for ReverseCloak
//!
//! ReverseCloak drives every segment selection with a shared secret access
//! key: "each road segment is selected in a pseudo-random manner with an
//! access key … with a certain access key, a fixed segment is
//! deterministically selected; without the access key, all its linked
//! segments would have the same probability to be selected". This crate
//! provides:
//!
//! * [`Key256`] — 256-bit access keys with hex I/O and auto generation,
//! * [`DrawStream`] — the deterministic keyed stream of pseudo-random draws
//!   `R_1, R_2, …` shared by anonymization and de-anonymization, now a
//!   ChaCha20-class sponge PRF with length-delimited absorption,
//! * [`ChainState`] — the forward-secret per-owner chain: a hash-forward
//!   ratchet whose per-epoch keys make past receipts unrecoverable from
//!   current state,
//! * [`tag`] — keyed tags, and the [`Authenticator`] that binds a whole
//!   receipt to its top level's key,
//! * [`KeyManager`] / [`AccessControlProfile`] — the owner-side key store
//!   and the trust-based entitlement logic of the paper's toolkit,
//! * [`entropy`] — operating-system entropy for unseeded keys,
//! * [`work`] — exact per-thread counts of the permutations and tags.
//!
//! ```
//! use keystream::{DrawStream, Key256, KeyManager, Level};
//!
//! let mgr = KeyManager::from_seed(3, 7);
//! let key = mgr.key_for(Level(1))?;
//! let mut stream = DrawStream::new(key, b"request-42/level-1");
//! let pick = stream.pick(6); // p_i = R_i mod |CanA|
//! assert!(pick < 6);
//! # Ok::<(), keystream::KeyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod chain;
pub mod entropy;
pub mod journal;
pub mod key;
pub mod keyring;
pub mod manager;
pub mod stream;
pub mod tag;
pub mod work;

pub use access::{AccessControlProfile, AccessError, TrustDegree};
pub use chain::ChainState;
pub use journal::{ChainStore, FileStore, JournalError, MemStore};
pub use key::{Key256, ParseKeyError};
pub use keyring::{read_keyring, write_keyring, write_keyring_file, KeyringError};
pub use manager::{KeyError, KeyManager, Level};
pub use stream::{derive_key, derive_keys, DrawStream};
pub use tag::{Authenticator, Tag128};
pub use work::WorkCounts;
