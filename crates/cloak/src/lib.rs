//! # cloak — the ReverseCloak core
//!
//! Reversible multi-level location cloaking over road networks,
//! reproducing Li, Palanisamy, Kalaivanan & Raghunathan, *ReverseCloak: A
//! Reversible Multi-level Location Privacy Protection System* (ICDCS 2017)
//! and the companion CIKM 2015 algorithms paper.
//!
//! A user's exact road segment is perturbed into a *cloaking region* — a
//! connected set of segments guaranteeing location k-anonymity and segment
//! l-diversity — in a way that is **reversible**: each privacy level's
//! expansion is driven by a shared secret key, and a requester holding the
//! right keys can peel the region back level by level, down to the exact
//! segment. Without the keys, the region leaks nothing beyond its own
//! extent.
//!
//! ## The two algorithms
//!
//! * [`RgeEngine`] — **Reversible Global Expansion**: per-step transition
//!   tables over (cloak × frontier), kept up to date along each walk.
//!   Slower anonymization, no resident memory.
//! * [`RpleEngine`] — **Reversible Pre-assignment-based Local Expansion**:
//!   collision-free forward/backward transition lists precomputed for the
//!   whole map (Algorithm 1). Faster per step, `2·E·T` cells resident.
//!
//! ## Quick start
//!
//! ```
//! use cloak::{anonymize, deanonymize, LevelRequirement, PrivacyProfile, RgeEngine};
//! use keystream::{Key256, KeyManager, Level};
//! use mobisim::OccupancySnapshot;
//! use roadnet::{grid_city, SegmentId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = grid_city(6, 6, 100.0);
//! let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
//! let profile = PrivacyProfile::builder()
//!     .level(LevelRequirement::with_k(5))
//!     .level(LevelRequirement::with_k(10))
//!     .build()?;
//! let manager = KeyManager::from_seed(2, 42);
//! let keys: Vec<Key256> = manager.iter().map(|(_, k)| k).collect();
//!
//! let engine = RgeEngine::new();
//! let out = anonymize(&net, &snapshot, SegmentId(17), &profile, &keys, 1, &engine)?;
//! assert!(out.payload.region_size() >= 10);
//!
//! // A fully privileged requester recovers the exact segment.
//! let view = deanonymize(&net, &out.payload, &manager.keys_down_to(Level(0))?, &engine)?;
//! assert_eq!(view.segments, vec![SegmentId(17)]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Pooled entry points
//!
//! Each operation has one convenience form, which allocates its working
//! buffers per call, and one form that takes a caller-owned
//! [`CloakScratch`]: [`anonymize`] / [`anonymize_with_scratch`],
//! [`anonymize_with_retry`] / [`anonymize_with_retry_scratch`], and
//! [`deanonymize`] / [`deanonymize_with_scratch`]. On a serving hot
//! path, keep one scratch per worker and thread it through the scratch
//! forms: the buffers grow to the workload's high-water mark once and
//! every further cloak is allocation-free at steady state. Scratch is
//! plain state — any scratch, including a fresh one or one a failed
//! request left behind, yields bit-identical results. The anonymizer
//! service cloaks every request, batched or not, through
//! [`anonymize_with_retry_scratch`] with a kept scratch.
//!
//! ```
//! use cloak::{
//!     anonymize_with_scratch, deanonymize_with_scratch, CloakScratch, LevelRequirement,
//!     PrivacyProfile, RgeEngine,
//! };
//! use keystream::{Key256, KeyManager, Level};
//! use mobisim::OccupancySnapshot;
//! use roadnet::{grid_city, SegmentId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = grid_city(6, 6, 100.0);
//! let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
//! let profile = PrivacyProfile::builder().level(LevelRequirement::with_k(6)).build()?;
//! let engine = RgeEngine::new();
//!
//! // One scratch serves every request this worker will ever handle.
//! let mut scratch = CloakScratch::new();
//! for (nonce, segment) in [(1u64, SegmentId(12)), (2, SegmentId(40))] {
//!     let manager = KeyManager::from_seed(1, nonce);
//!     let keys: Vec<Key256> = manager.iter().map(|(_, k)| k).collect();
//!     let out = anonymize_with_scratch(
//!         &net, &snapshot, segment, &profile, &keys, nonce, &engine, &mut scratch,
//!     )?;
//!     let view = deanonymize_with_scratch(
//!         &net,
//!         &out.payload,
//!         &manager.keys_down_to(Level(0))?,
//!         &engine,
//!         &mut scratch,
//!     )?;
//!     assert_eq!(view.segments, vec![segment]);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Adversarial evaluation
//!
//! The [`attack`] module quantifies the keyless adversary against a
//! single cloak (posterior entropy, guess success, selection
//! uniformity); [`attack::temporal`] extends it to an adversary watching
//! the whole per-tick receipt stream of a continuously anonymizing
//! system, and [`attack::adaptive`] to a learning adversary — a Bayesian
//! trajectory particle filter — that compounds evidence across the
//! stream. See `docs/ARCHITECTURE.md` at the repository root for how
//! the pieces fit together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod baseline;
pub mod engine;
pub mod error;
pub mod frontier;
pub mod metrics;
pub mod multilevel;
pub mod payload;
pub mod preassign;
pub mod profile;
pub mod region;
pub mod scratch;
pub mod table;

pub use attack::adaptive::{AdaptiveConfig, AdaptiveStats, AdaptiveTracker};
pub use attack::temporal::{
    AdversaryConfig, AdversaryMode, AttackObservation, AttackSummary, Observation, ReachScratch,
    ReplayProbe, TemporalAdversary,
};
pub use baseline::{
    random_expansion, random_expansion_with, replay_expansion_matches, BaselineOutcome,
    ExpansionScratch,
};
pub use engine::{HintStack, ReversibleEngine, RgeEngine, RpleEngine, StepAccept, MAX_REDRAWS};
pub use error::{CloakError, DeanonError, DecodeError, StepFailure};
pub use metrics::{QualitySummary, RegionQuality, SuccessRate};
pub use multilevel::{
    ambiguity_profile, anonymize, anonymize_with_retry, anonymize_with_retry_scratch,
    anonymize_with_scratch, deanonymize, deanonymize_with_scratch, AmbiguityReport,
    AnonymizationOutcome, DeanonymizedView, LevelStats, MAX_STEPS_PER_LEVEL,
};
pub use payload::{CloakPayload, LevelMeta};
pub use preassign::PreassignedTables;
pub use profile::{LevelRequirement, PrivacyProfile, PrivacyProfileBuilder, SpatialTolerance};
pub use region::RegionState;
pub use scratch::{CloakScratch, StepScratch};
pub use table::TableView;
