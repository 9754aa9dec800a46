//! Anonymizer configuration: the parameter surface of the paper's
//! 'Anonymizer' GUI (Figure 4).
//!
//! "The location data owner first specifies the set of anonymization
//! parameters, including the expected number of anonymity levels, the
//! value of k for k-anonymization in each level, the spatial tolerance to
//! restrict the allowed maximum area of cloaking region and the access key
//! for each level." Plus the GUI's 'Default setting' function, provided by
//! [`AnonymizerConfig::default`].

use cloak::{LevelRequirement, PrivacyProfile, SpatialTolerance};
use serde::{Deserialize, Serialize};

/// Which cloaking algorithm the service runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineChoice {
    /// Reversible Global Expansion.
    #[default]
    Rge,
    /// Reversible Pre-assignment-based Local Expansion with the given
    /// transition-list length `T`.
    Rple {
        /// Transition-list length (Algorithm 1's `T`).
        t_len: usize,
    },
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnonymizerConfig {
    /// The algorithm to run.
    pub engine: EngineChoice,
    /// The default privacy profile applied when an owner does not supply
    /// one (the GUI's 'Default setting').
    pub default_profile: PrivacyProfile,
    /// Attempts for dead-ended walks before reporting failure.
    pub max_attempts: u32,
    /// Workers for `AnonymizerService::anonymize_batch` and for the
    /// continuous pipeline's per-tick fan-out
    /// (`0` = all available cores, or 1 when they cannot be counted).
    /// The calling thread counts as one of them.
    pub batch_parallelism: usize,
}

impl Default for AnonymizerConfig {
    fn default() -> Self {
        AnonymizerConfig {
            engine: EngineChoice::default(),
            default_profile: PrivacyProfile::builder()
                .level(LevelRequirement::with_k(5))
                .level(LevelRequirement::with_k(10))
                .level(
                    LevelRequirement::with_k(20).tolerance(SpatialTolerance::TotalLength(20_000.0)),
                )
                .build()
                .expect("default profile is valid"),
            max_attempts: 8,
            batch_parallelism: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_three_levels() {
        let cfg = AnonymizerConfig::default();
        assert_eq!(cfg.default_profile.level_count(), 3);
        assert_eq!(cfg.engine, EngineChoice::Rge);
        assert!(cfg.max_attempts >= 1);
        assert_eq!(cfg.batch_parallelism, 0, "0 means all cores");
    }

    #[test]
    fn engine_choice_roundtrips_through_serde_derive() {
        // Compile-time smoke check that the types derive what they claim.
        let c = EngineChoice::Rple { t_len: 8 };
        let c2 = c;
        assert_eq!(c, c2);
    }
}
