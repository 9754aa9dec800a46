//! # anonymizer — the ReverseCloak demonstration toolkit, headless
//!
//! The paper demonstrates ReverseCloak through an 'Anonymizer' GUI (owners
//! set levels, per-level k, spatial tolerance; auto key generation;
//! colored multi-level regions on the map) and a 'De-anonymizer' GUI
//! (requesters fetch keys per the owner's access-control profile and
//! reduce the region). This crate is that toolkit as a library:
//!
//! * [`AnonymizerService`] — the trusted anonymizer ("trusted
//!   anonymization server"): anonymizes owner locations, one by one or
//!   in parallel batches, stores keys, enforces the access-control
//!   profile,
//! * [`Deanonymizer`] — the requester-side reduction tool, including
//!   progressive per-level peeling,
//! * [`ContinuousPipeline`] — the temporal loop: live traffic ticks,
//!   snapshot swaps, batched re-anonymization, LBS probes, per-tick
//!   invariant verification, and an optional continuous attack leg
//!   ([`AttackConfig`]) that scores a keyless temporal adversary
//!   against the receipt stream, over one map partition or N
//!   ([`Partition`], each part with its own masked snapshot, all served
//!   by one service; see the `pipeline` module docs),
//! * [`tournament`] — the scenario tournament: every engine × every
//!   adversary (including the adaptive Bayesian tracker) × every
//!   behavior mix, with per-cell entropy trajectories
//!   (`rcloak tournament`),
//! * [`render_ascii`] / [`render_svg()`](fn@render_svg) — the map visualizations (the GUI
//!   substitute; see DESIGN.md §1).
//!
//! The whole anonymize path works from `&self` (hash-split record maps,
//! an `Arc`-swapped snapshot), so services are shared across threads through
//! a plain `Arc` — see the `service` module docs for the concurrency
//! model.
//!
//! ```
//! use anonymizer::{AnonymizerConfig, AnonymizerService, Deanonymizer, Engine};
//! use keystream::{Level, TrustDegree};
//! use mobisim::OccupancySnapshot;
//! use roadnet::{grid_city, SegmentId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = grid_city(6, 6, 100.0);
//! let service = AnonymizerService::new(net, AnonymizerConfig::default());
//! service.update_snapshot(OccupancySnapshot::uniform(
//!     service.network().segment_count(),
//!     1,
//! ));
//! let mut os = keystream::entropy::OsEntropy::new()?; // unseeded: OS entropy
//! let receipt = service.anonymize_owner("alice", SegmentId(17), None, &mut os)?;
//!
//! // Grant a requester full access and reduce to the exact segment.
//! service.register_requester("alice", "police", TrustDegree(10), Level(0));
//! let keys = service.fetch_keys("alice", "police")?;
//! let dean = Deanonymizer::new(
//!     service.network_arc(),
//!     Engine::build(service.network(), service.config().engine),
//! );
//! let view = dean.reduce(&receipt.payload, &keys)?;
//! assert_eq!(view.segments, vec![SegmentId(17)]);
//! # Ok(())
//! # }
//! ```
//!
//! The system-level narrative — how the concurrency model, the temporal
//! pipeline, and the memory discipline fit together — lives in
//! `docs/ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_input;
pub mod config;
pub mod deanonymizer;
pub mod fault;
pub mod pipeline;
pub mod render_ascii;
pub mod render_svg;
pub mod service;
pub mod shard;
pub mod tournament;

pub use batch_input::{parse_batch_requests, BatchInput, RowError};
pub use config::{AnonymizerConfig, EngineChoice};
pub use deanonymizer::Deanonymizer;
pub use fault::{FaultInjector, FaultPlan, FaultPolicy, FaultyStore, TickHealth};
pub use pipeline::{
    AttackConfig, AttackRecord, AttackTickSummary, ContinuousPipeline, PipelineConfig,
    PipelineError, TickReport,
};
pub use render_ascii::{legend, render_map, render_regions};
pub use render_svg::render_svg;
pub use service::{
    AnonymizeReceipt, AnonymizeRequest, AnonymizerService, Engine, OwnerHandoff, OwnerRecord,
};
pub use shard::{Partition, PartitionQuality, ShardedPipeline};
pub use tournament::{TournamentCell, TournamentProfile, TournamentReport, TrajectoryPoint};
