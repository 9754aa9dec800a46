//! Forward-secret per-owner chain state.
//!
//! A continuous pipeline re-anonymizes every tracked owner tick after
//! tick, so the receipt stream is longitudinal: if one key compromise
//! today unlocked every past receipt, temporal privacy would be only as
//! strong as the most recent secret. [`ChainState`] prevents that with a
//! hash-forward ratchet (the rolling-state protocol of Photon's CHAIN
//! design): each re-anonymization advances the state through the one-way
//! [`derive_key`] sponge and **overwrites** the previous state in place.
//! Epoch `e`'s per-level keys derive from epoch `e`'s state only, so:
//!
//! * a requester granted keys at epoch `e` can deanonymize epoch `e`'s
//!   receipt forever (the keys are self-contained);
//! * anyone holding only the *current* state — including the anonymizer
//!   itself — cannot reconstruct any earlier epoch's keys, because
//!   walking the chain backwards means inverting the permutation through
//!   its hidden capacity.
//!
//! Serialization is deliberately confined to [`crate::journal`]: the
//! chain journal persists only the *latest* state per owner (compaction
//! erases superseded states from disk), so durability never reopens the
//! backwards-walk the ratchet closes. No other code path can read or
//! reconstruct the raw state.

use crate::key::Key256;
use crate::manager::KeyManager;
use crate::stream::derive_key;
use std::fmt;

/// A per-owner rolling chain state: a 256-bit secret that ratchets
/// forward one epoch per re-anonymization.
///
/// ```
/// use keystream::{ChainState, Key256};
/// let mut chain = ChainState::genesis("alice", &Key256::from_seed(7));
/// chain.ratchet();
/// let epoch1_keys = chain.level_keys(3);
/// chain.ratchet();
/// // The advanced state derives different keys; the old ones are gone.
/// assert_ne!(chain.level_keys(3), epoch1_keys);
/// assert_eq!(chain.epoch(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ChainState {
    state: Key256,
    epoch: u64,
}

impl ChainState {
    /// Creates the epoch-0 genesis state for `owner` from caller-provided
    /// entropy. The owner identity is absorbed alongside the entropy so
    /// two owners never share a chain even under a reused entropy source.
    ///
    /// Epoch 0 is never used for keys directly: callers [`ratchet`]
    /// before deriving, so the first issued receipt carries epoch 1.
    ///
    /// [`ratchet`]: ChainState::ratchet
    pub fn genesis(owner: &str, entropy: &Key256) -> Self {
        let mut ctx = Vec::with_capacity(17 + owner.len());
        ctx.extend_from_slice(b"rc/chain/genesis/");
        ctx.extend_from_slice(owner.as_bytes());
        ChainState {
            state: derive_key(*entropy, &ctx),
            epoch: 0,
        }
    }

    /// Advances the chain one epoch: the state is replaced by its one-way
    /// image, erasing the previous epoch's secret from this value. The
    /// derivation is wire v2's, byte for byte, so `FileStore` journals
    /// written by earlier builds keep ratcheting to the same states.
    pub fn ratchet(&mut self) {
        self.state = derive_key(self.state, b"rc/chain/ratchet");
        self.epoch += 1;
    }

    /// The current epoch (number of ratchets since genesis).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-level keys for the current epoch: `levels` keys derived from
    /// the epoch's state via [`KeyManager::derive`], one absorption for
    /// all of them. Its context (`rc/levels`) is disjoint from the
    /// ratchet's, so handing the keys out reveals nothing about the
    /// chain's next state.
    pub fn level_keys(&self, levels: usize) -> KeyManager {
        KeyManager::derive(levels, self.state)
    }

    /// Raw state access for the journal only: the WAL must persist the
    /// post-ratchet secret verbatim to survive a restart.
    pub(crate) fn state_key(&self) -> &Key256 {
        &self.state
    }

    /// Journal-recovery constructor: rebuilds a chain from its persisted
    /// `(state, epoch)` pair. Only [`crate::journal`] may call this.
    pub(crate) fn from_parts(state: Key256, epoch: u64) -> Self {
        ChainState { state, epoch }
    }
}

impl fmt::Debug for ChainState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fingerprint only: chain states are live secrets.
        write!(
            f,
            "ChainState(epoch:{}, fp:{})",
            self.epoch,
            self.state.fingerprint()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_deterministic_per_owner_and_entropy() {
        let e = Key256::from_seed(9);
        assert_eq!(
            ChainState::genesis("alice", &e),
            ChainState::genesis("alice", &e)
        );
        assert_ne!(
            ChainState::genesis("alice", &e),
            ChainState::genesis("bob", &e)
        );
        assert_ne!(
            ChainState::genesis("alice", &e),
            ChainState::genesis("alice", &Key256::from_seed(10))
        );
    }

    #[test]
    fn ratchet_advances_epoch_and_changes_every_key() {
        let mut chain = ChainState::genesis("alice", &Key256::from_seed(1));
        let mut keys = std::collections::HashSet::new();
        let mut states = std::collections::HashSet::new();
        for epoch in 1..=100u64 {
            chain.ratchet();
            assert_eq!(chain.epoch(), epoch);
            let top = chain.level_keys(1).key_for(crate::Level(1)).unwrap();
            assert!(keys.insert(top), "level key repeated");
            assert!(states.insert(chain.clone()), "chain state repeated");
        }
    }

    #[test]
    fn level_keys_differ_across_epochs_and_levels() {
        let mut chain = ChainState::genesis("carol", &Key256::from_seed(2));
        chain.ratchet();
        let first = chain.level_keys(4);
        chain.ratchet();
        let second = chain.level_keys(4);
        let mut seen = std::collections::HashSet::new();
        for mgr in [&first, &second] {
            for (_, k) in mgr.iter() {
                assert!(seen.insert(k), "level key repeated across epochs");
            }
        }
    }

    #[test]
    fn ratcheted_state_does_not_recover_past_level_keys() {
        // Forward secrecy at the unit level: after a ratchet, no
        // derivation from the *current* state reproduces the previous
        // epoch's keys (the chain only runs forward).
        let mut chain = ChainState::genesis("dave", &Key256::from_seed(3));
        chain.ratchet();
        let past = chain.level_keys(3);
        chain.ratchet();
        assert_ne!(chain.level_keys(3), past);
        // Even ratcheting a copy further never cycles back.
        let mut probe = chain.clone();
        for _ in 0..64 {
            probe.ratchet();
            assert_ne!(probe.level_keys(3), past);
        }
        // The level keys are not the ratchet's output either.
        let mut next = chain.clone();
        next.ratchet();
        assert!(chain
            .level_keys(3)
            .iter()
            .all(|(_, k)| k != *next.state_key()));
    }

    /// The journal compatibility pin: `FileStore` records persist chain
    /// states verbatim, so the genesis and the ratchet must derive the
    /// same states in every build that reads an existing journal. A
    /// change that moves these fingerprints strands every journaled
    /// chain, and needs a journal record version.
    #[test]
    fn ratcheted_states_match_the_journal_pin() {
        let mut chain = ChainState::genesis("alice", &Key256::from_seed(7));
        let mut fingerprints = vec![chain.state_key().fingerprint()];
        for _ in 0..5 {
            chain.ratchet();
            fingerprints.push(chain.state_key().fingerprint());
        }
        assert_eq!(
            fingerprints,
            ["cc58ea7f", "d7b82c25", "48dfade5", "94a2a705", "e9fd69e9", "d393dae2"]
        );
    }

    #[test]
    fn debug_leaks_no_key_material() {
        let chain = ChainState::genesis("erin", &Key256::from_seed(4));
        let dbg = format!("{chain:?}");
        assert!(dbg.contains("epoch:0"));
        assert!(!dbg.contains(&chain.state_key().to_hex()));
    }
}
