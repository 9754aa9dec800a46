//! Access-control profiles mapping requester trust to key entitlements.
//!
//! The paper: "The 'Anonymizer' maintains a personal access control
//! profile, which decides the assignment of access keys based on trust
//! degree and privileges of the location data requesters."

use crate::key::Key256;
use crate::manager::{KeyManager, Level};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Trust degree of a location data requester; higher is more trusted.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TrustDegree(pub u8);

impl fmt::Display for TrustDegree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trust:{}", self.0)
    }
}

/// Error from access-control decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The requester is not registered in the profile.
    UnknownRequester(String),
    /// The requester's trust grants no de-anonymization privilege at all.
    NotEntitled(String),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::UnknownRequester(who) => write!(f, "unknown requester `{who}`"),
            AccessError::NotEntitled(who) => {
                write!(f, "requester `{who}` is not entitled to any access keys")
            }
        }
    }
}

impl Error for AccessError {}

/// The owner's personal access-control profile.
///
/// Maps requester identities to trust degrees, and trust degrees to the
/// *lowest privacy level* the requester may reduce the cloaked region to
/// (lower level = finer location information = higher privilege).
///
/// ```
/// use keystream::{AccessControlProfile, KeyManager, Level, TrustDegree};
/// let mgr = KeyManager::from_seed(3, 9);
/// let mut acp = AccessControlProfile::new();
/// acp.register_requester("emergency-service", TrustDegree(10));
/// acp.register_requester("ad-network", TrustDegree(1));
/// acp.set_trust_floor(TrustDegree(10), Level(0)); // full de-anonymization
/// acp.set_trust_floor(TrustDegree(1), Level(2));  // may peel to L2 only
/// let keys = acp.keys_for(&mgr, "emergency-service").unwrap();
/// assert_eq!(keys.len(), 3); // Key3, Key2, Key1
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessControlProfile {
    requesters: BTreeMap<String, TrustDegree>,
    /// For each trust degree, the lowest level reachable. Looked up by the
    /// greatest registered degree ≤ the requester's degree.
    floors: BTreeMap<TrustDegree, Level>,
}

impl AccessControlProfile {
    /// An empty profile (nobody is entitled to anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a requester with a trust degree.
    pub fn register_requester(&mut self, id: impl Into<String>, trust: TrustDegree) {
        self.requesters.insert(id.into(), trust);
    }

    /// Removes a requester. Returns whether it existed.
    pub fn revoke_requester(&mut self, id: &str) -> bool {
        self.requesters.remove(id).is_some()
    }

    /// Declares that requesters of at least `trust` may reduce the region
    /// down to `floor`.
    pub fn set_trust_floor(&mut self, trust: TrustDegree, floor: Level) {
        self.floors.insert(trust, floor);
    }

    /// The trust degree of a requester, if registered.
    pub fn trust_of(&self, id: &str) -> Option<TrustDegree> {
        self.requesters.get(id).copied()
    }

    /// The lowest level `id` may reduce to, if any entitlement applies.
    pub fn floor_for(&self, id: &str) -> Option<Level> {
        let trust = self.trust_of(id)?;
        // The most privileged floor among thresholds the requester meets.
        self.floors
            .iter()
            .filter(|(t, _)| **t <= trust)
            .map(|(_, l)| *l)
            .min()
    }

    /// The keys `id` is entitled to fetch, in peeling order (top level
    /// first), per the owner's key manager.
    ///
    /// # Errors
    ///
    /// Fails when the requester is unknown or entitled to nothing.
    pub fn keys_for(
        &self,
        mgr: &KeyManager,
        id: &str,
    ) -> Result<Vec<(Level, Key256)>, AccessError> {
        if self.trust_of(id).is_none() {
            return Err(AccessError::UnknownRequester(id.to_string()));
        }
        let floor = self
            .floor_for(id)
            .ok_or_else(|| AccessError::NotEntitled(id.to_string()))?;
        let keys = mgr
            .keys_down_to(floor)
            .map_err(|_| AccessError::NotEntitled(id.to_string()))?;
        if keys.is_empty() && floor.index() >= mgr.level_count() {
            // Floor at or above the top level grants nothing.
            return Err(AccessError::NotEntitled(id.to_string()));
        }
        Ok(keys)
    }

    /// Number of registered requesters.
    pub fn requester_count(&self) -> usize {
        self.requesters.len()
    }

    /// Every registered requester with its trust degree, in id order.
    pub fn requesters(&self) -> impl Iterator<Item = (&str, TrustDegree)> {
        self.requesters
            .iter()
            .map(|(id, &trust)| (id.as_str(), trust))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> (KeyManager, AccessControlProfile) {
        let mgr = KeyManager::from_seed(4, 5);
        let mut acp = AccessControlProfile::new();
        acp.register_requester("police", TrustDegree(10));
        acp.register_requester("friend", TrustDegree(5));
        acp.register_requester("stranger", TrustDegree(0));
        acp.set_trust_floor(TrustDegree(10), Level(0));
        acp.set_trust_floor(TrustDegree(5), Level(2));
        (mgr, acp)
    }

    #[test]
    fn entitlements_by_trust() {
        let (mgr, acp) = profile();
        // Police: full peel, keys for L4..L1.
        let police = acp.keys_for(&mgr, "police").unwrap();
        assert_eq!(police.len(), 4);
        assert_eq!(police[0].0, Level(4));
        assert_eq!(police[3].0, Level(1));
        // Friend: down to L2 => Key4, Key3.
        let friend = acp.keys_for(&mgr, "friend").unwrap();
        assert_eq!(friend.len(), 2);
        assert_eq!(friend[0].0, Level(4));
        assert_eq!(friend[1].0, Level(3));
        // Stranger: no floor at their trust.
        assert_eq!(
            acp.keys_for(&mgr, "stranger"),
            Err(AccessError::NotEntitled("stranger".into()))
        );
        // Unknown requester.
        assert_eq!(
            acp.keys_for(&mgr, "nobody"),
            Err(AccessError::UnknownRequester("nobody".into()))
        );
    }

    #[test]
    fn higher_trust_wins_when_multiple_floors_apply() {
        let (mgr, mut acp) = profile();
        // Police (trust 10) matches both floors; the most privileged
        // (lowest level) applies.
        acp.set_trust_floor(TrustDegree(8), Level(3));
        assert_eq!(acp.floor_for("police"), Some(Level(0)));
        let keys = acp.keys_for(&mgr, "police").unwrap();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn revoke_and_update() {
        let (_, mut acp) = profile();
        assert!(acp.revoke_requester("friend"));
        assert!(!acp.revoke_requester("friend"));
        assert_eq!(acp.trust_of("friend"), None);
        acp.register_requester("friend", TrustDegree(9));
        assert_eq!(acp.trust_of("friend"), Some(TrustDegree(9)));
        assert_eq!(acp.requester_count(), 3);
    }

    #[test]
    fn floor_at_top_level_grants_nothing() {
        let (mgr, mut acp) = profile();
        acp.register_requester("lbs", TrustDegree(2));
        acp.set_trust_floor(TrustDegree(2), Level(4)); // == top level
        assert!(matches!(
            acp.keys_for(&mgr, "lbs"),
            Err(AccessError::NotEntitled(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(AccessError::UnknownRequester("x".into())
            .to_string()
            .contains('x'));
        assert!(AccessError::NotEntitled("y".into())
            .to_string()
            .contains('y'));
    }
}
