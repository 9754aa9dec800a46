//! # reversecloak — reversible multi-level location privacy over road networks
//!
//! A full reproduction of *ReverseCloak: A Reversible Multi-level Location
//! Privacy Protection System* (Li, Palanisamy, Kalaivanan, Raghunathan;
//! ICDCS 2017) and its companion algorithms paper (CIKM 2015), as a Rust
//! workspace built for concurrent, production-shaped serving:
//!
//! | Crate | Role |
//! |---|---|
//! | [`roadnet`] | Road networks: graphs, routing, spatial index, synthetic map generators |
//! | [`mobisim`] | GTMobiSim-style traffic: Gaussian car placement, shortest-path trips, occupancy snapshots |
//! | [`keystream`] | Access keys, keyed draw streams, key management, access control |
//! | [`cloak`] | The core: RGE and RPLE reversible cloaking (all `&self`, `Send + Sync`), multi-level protocol, payload codec, NRE baseline, single-shot and temporal attack analysis |
//! | [`anonymizer`] | The toolkit: sharded lock-free `AnonymizerService` with a parallel batch path, continuous tick-driven pipeline with LBS and attack legs, De-anonymizer, map rendering, `rcloak` CLI |
//! | [`lbs`] | POIs and anonymous query processing over cloaked regions |
//!
//! The system narrative — concurrency model, temporal pipeline, memory
//! discipline, adversarial evaluation — lives in `docs/ARCHITECTURE.md`
//! at the repository root, next to `README.md`.
//!
//! The anonymizer's hot path works entirely from `&self`: immutable state
//! (network, engine, config) is shared behind `Arc`, the traffic snapshot
//! swaps atomically without blocking readers, and owner records live in
//! hash-sharded `RwLock` maps — so a worker pool scales with cores
//! instead of serializing behind a global lock.
//!
//! This facade re-exports everything; depend on it and `use
//! reversecloak::prelude::*` for the common surface.
//!
//! ## Example: a shared service and a batch pipeline
//!
//! ```
//! use reversecloak::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A road network and traffic.
//! let net = roadnet::grid_city(6, 6, 100.0);
//! let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
//!
//! // The trusted anonymizer: the whole anonymize path is `&self`, so
//! // one Arc serves every thread with no lock around the service.
//! let service = Arc::new(AnonymizerService::new(net, AnonymizerConfig::default()));
//! service.update_snapshot(snapshot);
//!
//! // One-off request: cloak, grant a requester full access, recover.
//! let mut os = keystream::entropy::OsEntropy::new()?; // unseeded: OS entropy
//! let receipt = service.anonymize_owner("alice", SegmentId(17), None, &mut os)?;
//! service.register_requester("alice", "police", TrustDegree(10), Level(0));
//! let keys = service.fetch_keys("alice", "police")?;
//! let dean = Deanonymizer::new(
//!     service.network_arc(),
//!     Engine::build(service.network(), service.config().engine),
//! );
//! assert_eq!(dean.reduce(&receipt.payload, &keys)?.segments, vec![SegmentId(17)]);
//!
//! // Batch pipeline: seeded requests fan out across cores and return in
//! // order, bit-identical to sequential execution.
//! let requests: Vec<AnonymizeRequest> = (0..8)
//!     .map(|i| AnonymizeRequest::new(format!("car-{i}"), SegmentId(i * 7 % 60), 1000 + i as u64))
//!     .collect();
//! let receipts = service.anonymize_batch(&requests);
//! assert!(receipts.iter().all(|r| r.is_ok()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anonymizer;
pub use cloak;
pub use keystream;
pub use lbs;
pub use mobisim;
pub use roadnet;

/// The commonly used types, re-exported flat.
pub mod prelude {
    pub use anonymizer::{
        AnonymizeReceipt, AnonymizeRequest, AnonymizerConfig, AnonymizerService, AttackConfig,
        AttackRecord, ContinuousPipeline, Deanonymizer, Engine, EngineChoice, PipelineConfig,
        PipelineError, TickReport,
    };
    pub use cloak::{
        anonymize, anonymize_with_retry, deanonymize, AdversaryMode, AttackSummary, CloakError,
        CloakPayload, DeanonError, LevelRequirement, PrivacyProfile, QualitySummary, RegionQuality,
        ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance, SuccessRate, TemporalAdversary,
    };
    pub use keystream::{AccessControlProfile, DrawStream, Key256, KeyManager, Level, TrustDegree};
    pub use lbs::{nearest_query, range_query, PoiCategory, PoiStore, QueryStats};
    pub use mobisim::{OccupancySnapshot, SimConfig, Simulation};
    pub use roadnet::{JunctionId, RoadNetwork, SegmentId};
}
