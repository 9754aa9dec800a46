//! The continuous anonymization pipeline: live traffic in, verified
//! cloaks out, tick after tick.
//!
//! The paper's system is inherently temporal — cars move, occupancy
//! changes, and a cloaked region must stay k-anonymous *with respect to
//! the snapshot it was issued under* while remaining exactly reversible.
//! [`ContinuousPipeline`] closes that loop: each [`tick`] advances a
//! [`mobisim::Simulation`], recaptures the [`OccupancySnapshot`] on a
//! configurable cadence into each shard's masked snapshot,
//! re-anonymizes a tracked owner population on the one
//! [`AnonymizerService`] with the keyed halves of
//! [`AnonymizerService::anonymize_batch`] (chain pre-pass, then a cloak
//! of each request on its own), feeds the fresh cloaked regions into [`lbs`]
//! nearest-POI queries, and verifies the per-tick invariants:
//!
//! * **reversibility** — every issued receipt deanonymizes back to the
//!   exact segment the owner was on, through the normal
//!   key-fetch path;
//! * **k-anonymity at issue time** — the region covers at least the top
//!   requirement's k users *on the snapshot the receipt was issued
//!   under* (later swaps never retroactively invalidate a receipt);
//! * **grant preservation** — a requester registered at an owner's first
//!   cloak keeps working after every re-anonymization (its captured
//!   epoch grant keeps opening *that* epoch's receipt even though the
//!   owner's chain has ratcheted past it);
//! * **determinism** — request seeds derive from (pipeline seed, tick,
//!   owner), and each request's level keys derive from the owner's
//!   forward-secret chain ([`keystream::ChainState`]), which the service
//!   advances in request order. Two pipelines with the same
//!   configuration therefore produce bit-identical receipt streams
//!   regardless of batch parallelism (compare [`TickReport::digest`]) —
//!   determinism is per *service history*, not per request.
//!
//! **Shards.** The tick loop is the same for any shard count. The map is
//! cut into connected parts ([`Partition`]; one part when unsharded,
//! N with [`ContinuousPipeline::sharded`]). A shard is a part, its
//! request buffer and its masked snapshot; one [`AnonymizerService`],
//! journaling through one [`ChainStore`], serves every shard and holds
//! every owner's chain, record and grants:
//!
//! * **masked snapshots** — a refresh captures the simulation once and
//!   copies each part's occupancy into that shard's snapshot, in place,
//!   which is zero outside the part: a shard sees no user outside its
//!   partition, and the refresh writes each segment once, O(segments)
//!   for all shards together;
//! * **owner handoff** — when a tracked car crosses into another part,
//!   its owner's requests move to that shard's buffer before any request
//!   of the tick is issued, and are issued under that shard's snapshot
//!   from then on. Chain and record stay where they are, so epochs stay
//!   strictly monotone and grants keep working across any crossing;
//! * **per-shard stages** — every stage checks a receipt against its
//!   shard's issuing snapshot. The key pass, the journal retry ladder,
//!   fault injection and verification's checks and key fetches run on
//!   the calling thread in shard order. The report leg (digest, quality,
//!   LBS) and each attack observer walk the shards in shard order too,
//!   each inside its own task. A lone shard's digest is its own
//!   receipt-stream digest; several shards fold theirs in shard order,
//!   so sharded digests are their own (masked snapshots change occupancy
//!   near partition borders);
//! * **tick fan-outs** — two fan-outs run over the whole tick's
//!   population at once. The cloak fan-out cloaks every shard's keyed
//!   requests in `(shard, chunk)` tasks. The settle fan-out runs the
//!   legs first, longest first — the NRE control, the engine adversary,
//!   the report leg — and then peels every receipt verification
//!   collected, one task per receipt. Both use
//!   [`AnonymizerConfig::batch_parallelism`] workers, the calling thread
//!   among them, and each worker keeps its scratch across ticks. A leg's
//!   state is reached only by its own task. Epochs are fixed by the
//!   sequential key pass before the cloak fan-out starts, every leg
//!   writes only its own outputs, and results return in task order, so
//!   reports are identical at any worker count.
//!
//! An optional **attack leg** ([`AttackConfig`], like the LBS leg)
//! subscribes a keyless [`TemporalAdversary`] to the receipt stream and
//! mounts the longitudinal correlation attacks — multi-tick peel
//! intersection, snapshot correlation, movement-model reachability
//! pruning — with a non-reversible random-expansion (NRE) control grown
//! side-by-side from the same true segments as the vulnerable
//! comparison. One observer watches each stream and owns its adversary
//! and rollups. Per-tick rollups land in [`TickReport::attack`]; the
//! full per-owner log is available as [`AttackRecord`]s for CSV export
//! (`rcloak attack`). The attack leg is observational: it never touches
//! the receipt stream, so digests are unchanged whether it runs or not.
//!
//! [`tick`]: ContinuousPipeline::tick
//!
//! # Example
//!
//! ```
//! use anonymizer::{AnonymizerConfig, ContinuousPipeline, PipelineConfig};
//! use mobisim::SimConfig;
//! use roadnet::grid_city;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = grid_city(6, 6, 100.0);
//! let mut pipeline = ContinuousPipeline::new(
//!     net,
//!     SimConfig { cars: 150, seed: 7, ..Default::default() },
//!     AnonymizerConfig::default(),
//!     PipelineConfig { tracked_owners: 4, ..Default::default() },
//! );
//! let reports = pipeline.run(3)?;
//! assert_eq!(reports.len(), 3);
//! for report in &reports {
//!     assert_eq!(report.failed, 0);
//!     assert_eq!(report.verified, report.issued);
//!     assert!(report.quality.min_relative_anonymity() >= 1.0);
//! }
//! # Ok(())
//! # }
//! ```

use crate::config::AnonymizerConfig;
use crate::deanonymizer::Deanonymizer;
use crate::fault::{FaultInjector, FaultPlan, FaultPolicy, FaultyStore, TickHealth};
use crate::service::{AnonymizeReceipt, AnonymizeRequest, AnonymizerService, Engine, KeyedRequest};
use crate::shard::Partition;
use cloak::attack::temporal::{
    AdversaryConfig, AdversaryMode, AttackObservation, AttackSummary, Observation, ReplayProbe,
    TemporalAdversary,
};
use cloak::{
    random_expansion_with, CloakError, CloakPayload, CloakScratch, DeanonError, DeanonymizedView,
    ExpansionScratch, PrivacyProfile, QualitySummary, RegionQuality, StepFailure,
};
use keystream::{ChainStore, JournalError, Key256, Level, MemStore, TrustDegree};
use lbs::{nearest_query_with, PoiCategory, PoiStore, QueryStats, SearchScratch};
use mobisim::{CarId, OccupancySnapshot, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{fanout, RoadNetwork, SegmentId};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The requester identity the pipeline registers with every tracked
/// owner to drive its reversibility checks.
pub const AUDITOR: &str = "pipeline-auditor";

/// Configuration of a [`ContinuousPipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Seconds of simulated time per tick.
    pub dt: f64,
    /// Recapture and swap the occupancy snapshot every this many ticks
    /// (1 = every tick; clamped to at least 1).
    pub snapshot_cadence: usize,
    /// How many cars are tracked as owners and re-anonymized each tick
    /// (clamped to the simulated car count).
    pub tracked_owners: usize,
    /// Base seed for per-request key/nonce derivation (mixed with tick
    /// and owner index, so the receipt stream is reproducible).
    pub seed: u64,
    /// Verify reversibility, k-anonymity and grant preservation for
    /// every receipt each tick (the scenario-harness mode). Disable for
    /// pure-throughput measurements.
    pub verify: bool,
    /// Feed this many receipts per tick into LBS nearest-POI queries
    /// (0 disables the LBS leg).
    pub lbs_probes: usize,
    /// POIs generated for the LBS leg (ignored when `lbs_probes` is 0).
    pub poi_count: usize,
    /// Continuous adversarial evaluation (`None` disables the attack
    /// leg). When on, a [`TemporalAdversary`] subscribes to the receipt
    /// stream and — unless disabled — an NRE baseline control runs
    /// side-by-side from the same true segments; see [`AttackConfig`].
    pub attack: Option<AttackConfig>,
    /// Deterministic fault injection (`None` runs fault-free). When on,
    /// the chain store is wrapped in a [`FaultyStore`] and the tick loop
    /// injects snapshot-capture failures, per-owner cloak failures, and
    /// the configured crash; see [`crate::fault`].
    pub fault: Option<FaultPlan>,
    /// How the tick loop degrades under persistence failures:
    /// retry-with-backoff → skip-owner-and-count → abort.
    pub fault_policy: FaultPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dt: 10.0,
            snapshot_cadence: 1,
            tracked_owners: 32,
            seed: 0x71c_c10a,
            verify: true,
            lbs_probes: 4,
            poi_count: 100,
            attack: None,
            fault: None,
            fault_policy: FaultPolicy::default(),
        }
    }
}

/// Configuration of the pipeline's attack leg: a keyless
/// [`TemporalAdversary`] watching the engine's receipt stream, with an
/// NRE (non-reversible random expansion) control cloaked from the same
/// true segments as the vulnerable comparison.
///
/// The NRE control models a *keyless deterministic* scheme: with no
/// key-distribution infrastructure there is no secret to rotate, so each
/// owner's expansion randomness derives from fixed public per-owner
/// state — which is exactly what the adversary's replay inversion
/// exploits. The reversible engines are immune because their selection
/// randomness is keyed, and keys ratchet forward through the owner's
/// chain state on every re-anonymization — forward secrecy: even a
/// later compromise of the service's current chain state replays
/// nothing from earlier epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// The adversary's attack portfolio (see [`AdversaryMode`]).
    pub mode: AdversaryMode,
    /// How many of the tracked owners the adversary follows (clamped to
    /// the tracked population).
    pub owners: usize,
    /// Run the NRE baseline control side-by-side.
    pub baseline: bool,
    /// Keep the full per-owner/per-tick [`AttackRecord`] log in memory
    /// (for CSV export). Rollups are always kept.
    pub keep_records: bool,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            mode: AdversaryMode::All,
            owners: usize::MAX,
            baseline: true,
            keep_records: true,
        }
    }
}

/// One attacked receipt: which stream, which owner, and the adversary's
/// per-tick metrics. Collected when [`AttackConfig::keep_records`] is on.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackRecord {
    /// `"rge"` / `"rple"` for the engine stream, `"nre"` for the control.
    pub scheme: &'static str,
    /// The tracked owner the observation belongs to.
    pub owner: String,
    /// The adversary's metrics for this owner and tick.
    pub observation: AttackObservation,
}

impl AttackRecord {
    /// Header line matching [`AttackRecord::csv_row`].
    pub const CSV_HEADER: &'static str = "scheme,tick,owner,region_size,peel_frontier,support,\
         entropy_bits,user_entropy_bits,region_entropy_bits,guess_correct,true_in_support,reset";

    /// The record as one CSV row (no trailing newline).
    pub fn csv_row(&self) -> String {
        let flag = |b: Option<bool>| match b {
            Some(true) => "1",
            Some(false) => "0",
            None => "",
        };
        format!(
            "{},{},{},{},{},{},{:.4},{:.4},{:.4},{},{},{}",
            self.scheme,
            self.observation.tick,
            self.owner,
            self.observation.region_size,
            self.observation.peel_frontier,
            self.observation.support,
            self.observation.entropy_bits,
            self.observation.user_entropy_bits,
            self.observation.region_entropy_bits,
            flag(self.observation.guess_correct),
            flag(self.observation.true_in_support),
            u8::from(self.observation.reset),
        )
    }
}

/// Per-tick rollup of the attack leg, attached to [`TickReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttackTickSummary {
    /// This tick's observations against the engine's receipt stream.
    pub engine: AttackSummary,
    /// This tick's observations against the NRE control (when enabled).
    pub baseline: Option<AttackSummary>,
}

/// An invariant violation detected by the pipeline's per-tick checks.
///
/// Anonymization *failures* (e.g. an RPLE walk dead-ending in sparse
/// traffic) are availability events counted in [`TickReport::failed`];
/// a `PipelineError` means a receipt that *was* issued broke a
/// guarantee, which is always a bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// Which guarantee broke, for which owner, at which tick.
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline invariant violated: {}", self.message)
    }
}

impl std::error::Error for PipelineError {}

/// Per-tick metrics of a [`ContinuousPipeline`], CSV-exportable.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// 1-based tick number.
    pub tick: u64,
    /// Simulation clock after this tick, in seconds.
    pub clock: f64,
    /// Whether this tick recaptured and swapped the snapshot.
    pub snapshot_refreshed: bool,
    /// Receipts issued this tick.
    pub issued: usize,
    /// Requests that failed (dead-ended walks after retries).
    pub failed: usize,
    /// Receipts that passed the full invariant check (equals `issued`
    /// when [`PipelineConfig::verify`] is on).
    pub verified: usize,
    /// Tracked owners whose car crossed into another shard's part at this
    /// tick's boundary (always 0 unsharded).
    pub handoffs: usize,
    /// The receipt-stream digest: a lone shard's own digest, otherwise
    /// the FNV fold of [`shard_digests`](Self::shard_digests) in shard
    /// order. Equal digests mean bit-identical receipt streams.
    pub digest: u64,
    /// Order-sensitive FNV digest over (owner, payload) of every receipt
    /// each shard issued, in shard order.
    pub shard_digests: Vec<u64>,
    /// Region-quality rollup over this tick's receipts, measured against
    /// the snapshot they were issued under.
    pub quality: QualitySummary,
    /// LBS candidate-set / expansion-cost rollup for the probed regions.
    pub lbs: QueryStats,
    /// Attack-leg rollup for this tick (`None` when the leg is off).
    /// Not part of [`TickReport::csv_row`] — use
    /// [`TickReport::csv_row_with_attack`] for the wide per-tick form,
    /// or [`AttackRecord::csv_row`] for the long-form per-owner log.
    pub attack: Option<AttackTickSummary>,
    /// Health counters for this tick's degradation ladder: journal
    /// retries/skips, snapshot faults, injected cloak failures. All
    /// zeros on a fault-free run; not part of [`TickReport::csv_row`].
    pub health: TickHealth,
}

impl TickReport {
    /// Header line matching [`TickReport::csv_row`].
    pub const CSV_HEADER: &'static str = "tick,clock_s,snapshot_refreshed,issued,failed,verified,\
         handoffs,digest,mean_region_segments,mean_users,mean_rel_anonymity,min_rel_anonymity,\
         mean_length_m,lbs_queries,lbs_mean_candidates,lbs_mean_visited";

    /// The report as one CSV row (no trailing newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{:.1},{},{},{},{},{},{:016x},{:.2},{:.2},{:.3},{:.3},{:.1},{},{:.2},{:.2}",
            self.tick,
            self.clock,
            self.snapshot_refreshed,
            self.issued,
            self.failed,
            self.verified,
            self.handoffs,
            self.digest,
            self.quality.mean_segments(),
            self.quality.mean_users(),
            self.quality.mean_relative_anonymity(),
            self.quality.min_relative_anonymity(),
            self.quality.mean_total_length(),
            self.lbs.queries(),
            self.lbs.mean_candidates(),
            self.lbs.mean_segments_visited()
        )
    }

    /// The attack-leg columns appended by
    /// [`TickReport::csv_header_with_attack`] and
    /// [`TickReport::csv_row_with_attack`]: the engine stream's per-tick
    /// rollup, then the NRE control's (empty cells when the control is
    /// off).
    pub const ATTACK_CSV_COLUMNS: &'static str = "attack_observations,attack_mean_entropy_bits,\
         attack_guess_rate,nre_observations,nre_mean_entropy_bits,nre_guess_rate";

    /// Header line matching [`TickReport::csv_row_with_attack`]: the
    /// base [`TickReport::CSV_HEADER`] columns plus
    /// [`TickReport::ATTACK_CSV_COLUMNS`].
    pub fn csv_header_with_attack() -> String {
        format!("{},{}", Self::CSV_HEADER, Self::ATTACK_CSV_COLUMNS)
    }

    /// The report as one CSV row including the attack-leg rollup (no
    /// trailing newline). Column arity always matches
    /// [`TickReport::csv_header_with_attack`]; the attack cells are
    /// empty when the leg (or the NRE control) is off.
    pub fn csv_row_with_attack(&self) -> String {
        let mut row = self.csv_row();
        let stream = |row: &mut String, summary: Option<&AttackSummary>| match summary {
            Some(s) => {
                row.push_str(&format!(
                    ",{},{:.4},{:.4}",
                    s.observations(),
                    s.mean_entropy(),
                    s.guess_success_rate()
                ));
            }
            None => row.push_str(",,,"),
        };
        stream(&mut row, self.attack.as_ref().map(|a| &a.engine));
        stream(
            &mut row,
            self.attack.as_ref().and_then(|a| a.baseline.as_ref()),
        );
        row
    }
}

/// Drives a simulation, one [`AnonymizerService`] for every map
/// partition and the LBS query layer as one continuously-running system.
/// See the module docs for the invariants each tick enforces and for how
/// shards split the work.
pub struct ContinuousPipeline {
    sim: Simulation,
    partition: Partition,
    service: Arc<AnonymizerService>,
    shards: Vec<Shard>,
    dean: Deanonymizer,
    profile: PrivacyProfile,
    pois: Option<PoiStore>,
    cfg: PipelineConfig,
    tracked: Vec<TrackedOwner>,
    /// Whether each tracked owner's auditor grant is registered.
    registered: Vec<bool>,
    /// The full-map capture every refresh copies the shards' parts from.
    capture: OccupancySnapshot,
    /// One scratch per worker, kept across ticks (worker 0 is the
    /// calling thread). The cloak and settle fan-outs share it: they
    /// never overlap within a tick.
    scratch: Vec<CloakScratch>,
    /// Scratch for the report leg's LBS queries.
    lbs_scratch: SearchScratch,
    /// The continuous adversarial evaluation (attack leg), when on.
    attack: Option<AttackLeg>,
    /// The seeded fault coin shared with the [`FaultyStore`] wrapper
    /// (`None` when [`PipelineConfig::fault`] is off).
    injector: Option<Arc<FaultInjector>>,
    /// Set by an injected crash: every further [`tick`] refuses until
    /// the operator rebuilds the pipeline from the surviving store.
    ///
    /// [`tick`]: ContinuousPipeline::tick
    crashed: bool,
    handoffs_total: u64,
    tick: u64,
}

/// One partition's slice of the pipeline: its requests and what they
/// returned this tick, and its masked snapshot.
struct Shard {
    /// Requests of the owners driving inside this shard's part, in
    /// tracked order. Owner strings are cloned only when a handoff
    /// changes the shard's owners; every other tick rewrites segment and
    /// seed in place.
    requests: Vec<AnonymizeRequest>,
    /// The tracked-owner index behind each request.
    owners: Vec<usize>,
    /// What each request returned this tick, in request order; empty between ticks.
    results: Vec<Issued>,
    /// The snapshot this shard's requests are issued and checked under:
    /// the last refresh's occupancy inside the part, zero outside it.
    snapshot: OccupancySnapshot,
}

/// One tracked owner: a simulated car and the shard its car is in.
struct TrackedOwner {
    car: CarId,
    owner: String,
    /// Shard whose part the car is in as of the current tick boundary.
    shard: usize,
    /// The car's segment as of the current tick boundary.
    segment: SegmentId,
}

/// What the service returned for one request.
type Issued = Result<AnonymizeReceipt, CloakError>;

impl Shard {
    /// `(tracked-owner index, request, result)`, in request order.
    fn entries(&self) -> impl Iterator<Item = (usize, &AnonymizeRequest, &Issued)> {
        self.owners
            .iter()
            .zip(&self.requests)
            .zip(&self.results)
            .map(|((&i, request), result)| (i, request, result))
    }
}

/// State of the pipeline's attack leg: one observer per watched stream
/// and (optionally) the full observation log.
struct AttackLeg {
    /// Watches the engine's receipt stream.
    engine: Observer,
    /// Watches the NRE control (when [`AttackConfig::baseline`] is on).
    nre: Option<Observer>,
    records: Vec<AttackRecord>,
}

/// One adversary watching one stream of the attack leg. Each observer
/// runs as its own task of the tick's settle fan-out.
struct Observer {
    /// The stream's [`AttackRecord::scheme`].
    scheme: &'static str,
    adversary: TemporalAdversary,
    /// Tracked owners `0..owners` are observed.
    owners: usize,
    keep_records: bool,
    /// Cumulative rollup.
    summary: AttackSummary,
    /// This tick's rollup, taken by [`AttackLeg::finish_tick`].
    tick: AttackSummary,
    /// This tick's records when kept, one slot per observed receipt
    /// (`None` where the NRE control failed to grow).
    tick_records: Vec<Option<AttackRecord>>,
    /// Wall time inside the adversary's `observe` calls (surfaceable
    /// through `rcloak attack` without criterion). The NRE's includes
    /// the replay inversion, the expensive control-only step.
    observe_time: Duration,
    /// The NRE control's own state (`None` on the engine stream).
    control: Option<NreControl>,
}

/// What the NRE observer grows its control regions from.
struct NreControl {
    /// Fixed per-owner NRE seeds — fixed across ticks *by design*: the
    /// keyless control has no key to rotate, which is the vulnerability
    /// the replay attack exploits.
    seeds: Vec<u64>,
    /// NRE cloaks that failed to grow (availability, not privacy).
    failures: usize,
    /// Pooled buffers for growing the control regions (one scratch
    /// serves every owner of every tick).
    scratch: ExpansionScratch,
}

/// Seed mask of the map partition, mixed into [`PipelineConfig::seed`].
const PARTITION_SEED_MASK: u64 = 0x5aa5_c17e;

impl ContinuousPipeline {
    /// Builds the pipeline: starts the traffic simulation, creates the
    /// service over the same network, and installs the initial snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments (the simulation requires
    /// cars to be placeable).
    pub fn new(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
    ) -> Self {
        Self::with_store(net, sim_cfg, anon_cfg, cfg, Arc::new(MemStore::new()))
            .expect("an empty MemStore never fails to load")
    }

    /// Builds the pipeline over an explicit [`ChainStore`] — the durable
    /// entry point. With a [`keystream::FileStore`], every ratchet
    /// advance is journaled before its receipt is issued, and rebuilding
    /// the pipeline over the same store after a crash resumes every
    /// tracked owner's chain at its journaled epoch (no epoch reuse).
    /// When [`PipelineConfig::fault`] is set, the store is wrapped in a
    /// [`FaultyStore`] sharing the pipeline's [`FaultInjector`].
    ///
    /// # Errors
    ///
    /// Returns the [`JournalError`] if recovering the store's journaled
    /// chains fails.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments, as [`ContinuousPipeline::new`]
    /// does.
    pub fn with_store(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
        store: Arc<dyn ChainStore>,
    ) -> Result<Self, JournalError> {
        Self::sharded(net, sim_cfg, anon_cfg, cfg, 1, store)
    }

    /// Builds the pipeline over `shards` partitions of the map
    /// ([`Partition::grow`], clamped to `[1, segments]`), each with its
    /// own masked snapshot, all served by one service that journals
    /// through `store` and replays its journal once. With one shard this
    /// is [`with_store`](Self::with_store).
    ///
    /// # Errors
    ///
    /// Returns the [`JournalError`] if recovering the store's journaled
    /// chains fails.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments, as [`ContinuousPipeline::new`]
    /// does.
    pub fn sharded(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
        shards: usize,
        store: Arc<dyn ChainStore>,
    ) -> Result<Self, JournalError> {
        let partition = Partition::grow(&net, shards, cfg.seed ^ PARTITION_SEED_MASK);
        let workers = fanout::workers(anon_cfg.batch_parallelism);
        let top_simulated_speed = sim_cfg.speed_range.1;
        // One graph index for the simulation's trip router and the
        // service.
        let sim = Simulation::new(net.share_index(), sim_cfg);
        let injector = cfg
            .fault
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let store: Arc<dyn ChainStore> = match &injector {
            Some(inj) => Arc::new(FaultyStore::new(store, Arc::clone(inj))),
            None => store,
        };
        let service = Arc::new(AnonymizerService::with_store(net, anon_cfg, store)?);
        let shards = (0..partition.shards())
            .map(|_| Shard {
                requests: Vec::new(),
                owners: Vec::new(),
                results: Vec::new(),
                snapshot: OccupancySnapshot::uniform(sim.network().segment_count(), 0),
            })
            .collect();
        let dean = Deanonymizer::new(
            service.network_arc(),
            Engine::build(service.network(), service.config().engine),
        );
        let profile = service.config().default_profile.clone();
        let pois = (cfg.lbs_probes > 0).then(|| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1b5_0001);
            PoiStore::generate(service.network(), cfg.poi_count.max(1), &mut rng)
        });
        let tracked: Vec<TrackedOwner> = (0..cfg.tracked_owners.min(sim.cars().len()))
            .map(|i| {
                let car = CarId(i as u32);
                let segment = sim
                    .car_segment(car)
                    .expect("tracked cars exist for the simulation's lifetime");
                TrackedOwner {
                    car,
                    owner: format!("car-{i}"),
                    shard: partition.shard_of(segment),
                    segment,
                }
            })
            .collect();
        let attack = cfg.attack.as_ref().map(|attack_cfg| {
            let owners = attack_cfg.owners.min(tracked.len());
            let adversary_cfg = AdversaryConfig {
                mode: attack_cfg.mode,
                // A sound movement bound: the fastest simulated car.
                max_speed: top_simulated_speed,
                dt: cfg.dt,
                seed: cfg.seed ^ 0x00ad_5a17,
            };
            let observer = |scheme, control| Observer {
                scheme,
                adversary: TemporalAdversary::new(service.network(), adversary_cfg.clone()),
                owners,
                keep_records: attack_cfg.keep_records,
                summary: AttackSummary::new(),
                tick: AttackSummary::new(),
                tick_records: Vec::new(),
                observe_time: Duration::ZERO,
                control,
            };
            let engine_label = match service.config().engine {
                crate::config::EngineChoice::Rge => "rge",
                crate::config::EngineChoice::Rple { .. } => "rple",
            };
            AttackLeg {
                engine: observer(engine_label, None),
                nre: attack_cfg.baseline.then(|| {
                    let seeds = (0..owners)
                        .map(|i| {
                            // Public per-owner state (the keyless control
                            // has no secret): derived from the owner index
                            // alone.
                            crate::service::splitmix64(
                                0x17e_a5ed ^ (i as u64).wrapping_mul(0x100_0003),
                            )
                        })
                        .collect();
                    observer(
                        "nre",
                        Some(NreControl {
                            seeds,
                            failures: 0,
                            scratch: ExpansionScratch::new(),
                        }),
                    )
                }),
                records: Vec::new(),
            }
        });
        let mut pipeline = ContinuousPipeline {
            registered: vec![false; tracked.len()],
            sim,
            partition,
            service,
            shards,
            dean,
            profile,
            pois,
            cfg,
            tracked,
            capture: OccupancySnapshot::from_counts(Vec::new()),
            scratch: (0..workers).map(|_| CloakScratch::new()).collect(),
            lbs_scratch: SearchScratch::new(),
            attack,
            injector,
            crashed: false,
            handoffs_total: 0,
            tick: 0,
        };
        pipeline.route_requests();
        pipeline.refresh_snapshots();
        Ok(pipeline)
    }

    /// The one service behind every shard, holding every tracked owner's
    /// chain, record and grants. The pipeline issues each request under
    /// its shard's snapshot and never writes the service's own snapshot
    /// slot, which serves direct callers such as `anonymize_batch`.
    pub fn service(&self) -> Arc<AnonymizerService> {
        Arc::clone(&self.service)
    }

    /// Number of shards (1 when unsharded).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The map partition the shards serve (one part when unsharded).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The traffic simulation being driven.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Ticks run so far.
    pub fn ticks_run(&self) -> u64 {
        self.tick
    }

    /// Owners tracked and re-anonymized each tick.
    pub fn tracked_owner_count(&self) -> usize {
        self.tracked.len()
    }

    /// Partition-boundary crossings of tracked owners so far.
    pub fn handoffs_total(&self) -> u64 {
        self.handoffs_total
    }

    /// The shard whose part tracked owner `owner`'s car is in (`None`
    /// when untracked).
    pub fn owner_shard(&self, owner: &str) -> Option<usize> {
        self.tracked
            .iter()
            .find(|t| t.owner == owner)
            .map(|t| t.shard)
    }

    /// Tracked owner `owner`'s current chain epoch (`None` when untracked
    /// or never anonymized).
    pub fn owner_epoch(&self, owner: &str) -> Option<u64> {
        self.owner_shard(owner)
            .and_then(|_| self.service.owner_epoch(owner))
    }

    /// Advances one tick: step traffic, hand boundary-crossing owners to
    /// their new shard, refresh the snapshots on cadence, derive every
    /// shard's keys in shard order, cloak the whole tick's requests in
    /// one fan-out, then settle them: (when configured) verify every
    /// receipt's invariants against its issuing shard's snapshot, with
    /// the report, LBS and attack legs running beside verification's
    /// peel.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if any issued receipt violates
    /// reversibility, k-anonymity at issue time, or grant preservation.
    pub fn tick(&mut self) -> Result<TickReport, PipelineError> {
        if self.crashed {
            return Err(PipelineError {
                message: format!(
                    "tick {}: pipeline crashed (injected); rebuild over the surviving \
                     chain store to resume",
                    self.tick
                ),
            });
        }
        self.tick += 1;
        self.sim.step(self.cfg.dt);
        let handoffs = self.hand_off_owners();

        let mut health = TickHealth::default();
        let cadence = self.cfg.snapshot_cadence.max(1) as u64;
        let mut snapshot_refreshed = self.tick.is_multiple_of(cadence);
        if snapshot_refreshed && self.injector.as_ref().is_some_and(|i| i.snapshot_fault()) {
            // Injected capture failure: keep serving the stale snapshots
            // and count the degradation — receipts stay correct because
            // every per-tick invariant is checked against the snapshot
            // actually in service at issue time.
            snapshot_refreshed = false;
            health.snapshot_faults += 1;
        }
        if snapshot_refreshed {
            self.refresh_snapshots();
        }

        // The shards are taken for the tick so their borrow does not pin
        // `self` across the later stages; they are restored on every path.
        let mut shards = std::mem::take(&mut self.shards);
        let mut keyed = Vec::with_capacity(shards.len());
        for shard in &mut shards {
            for (request, &i) in shard.requests.iter_mut().zip(&shard.owners) {
                request.segment = self.tracked[i].segment;
                request.seed = mix_seed(self.cfg.seed, self.tick, i as u64);
            }
            // The chain pre-pass, in shard and request order, so journal
            // appends, epochs and journal-fault coins fall the same way
            // at any worker count.
            keyed.push(self.service.derive_batch_keys(&shard.requests));
        }
        self.cloak(&mut shards, &keyed);
        let report = self.settle(&mut shards, snapshot_refreshed, handoffs, health);
        shards.iter_mut().for_each(|s| s.results.clear());
        self.shards = shards;
        report
    }

    /// Every stage after issue, for the shards [`tick`](Self::tick)
    /// just issued, in three steps:
    ///
    /// 1. the injected crash, the journal retry ladder and injected
    ///    cloak failures, in (shard, request) order;
    /// 2. verification's pass 1 ([`check_issued`](Self::check_issued)),
    ///    sequential because it registers grants and fetches keys in
    ///    (shard, receipt) order;
    /// 3. one fan-out over the kept scratches: first the legs, longest
    ///    first — the NRE control, the engine adversary, then the report
    ///    leg ([`record_receipts`]: digest, quality, LBS) — and then one
    ///    peel task per job pass 1 collected, checked by
    ///    [`check_peeled`].
    ///
    /// The legs run whether or not verification fails, so cumulative
    /// attack rollups do not depend on where a tick failed.
    fn settle(
        &mut self,
        shards: &mut [Shard],
        snapshot_refreshed: bool,
        handoffs: usize,
        mut health: TickHealth,
    ) -> Result<TickReport, PipelineError> {
        // Injected crash between ratchet-advance and receipt-issue: the
        // key pass journaled every owner's advance, but no receipt reaches
        // the stream. This is exactly the window the write-ahead journal
        // exists for — recovery must resume past the journaled epochs.
        if self
            .injector
            .as_ref()
            .is_some_and(|i| i.crash_due(self.tick))
        {
            self.crashed = true;
            return Err(PipelineError {
                message: format!(
                    "tick {}: injected crash between ratchet-advance and receipt-issue",
                    self.tick
                ),
            });
        }

        // Degradation ladder for journal write failures, in request
        // order: retry with backoff, then skip the owner and count it,
        // then abort once the tick's skip budget is blown. A failed
        // advance never committed the chain, so a successful retry
        // re-derives the same epoch from the same request seed and
        // cloaks against the shard's snapshot — the recovered
        // receipt is bit-identical to the one the fault suppressed,
        // keeping the stream digest on its fault-free value.
        let (policy, service) = (&self.cfg.fault_policy, &self.service);
        let scratch = &mut self.scratch[0];
        for shard in shards.iter_mut() {
            for (request, slot) in shard.requests.iter().zip(shard.results.iter_mut()) {
                if !matches!(slot, Err(CloakError::Persistence(_))) {
                    continue;
                }
                for attempt in 0..policy.journal_retries {
                    if policy.backoff_base_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(
                            policy.backoff_base_ms << attempt.min(16),
                        ));
                    }
                    health.journal_retries += 1;
                    let one = std::slice::from_ref(request);
                    let keys = service.derive_batch_keys(one);
                    let mut run = service.anonymize_run_keyed(&shard.snapshot, one, &keys, scratch);
                    *slot = run.pop().expect("one request, one result");
                    if !matches!(slot, Err(CloakError::Persistence(_))) {
                        break;
                    }
                }
                if matches!(slot, Err(CloakError::Persistence(_))) {
                    health.journal_skips += 1;
                }
            }
        }
        if health.journal_skips > policy.max_skipped_owners as u64 {
            return Err(PipelineError {
                message: format!(
                    "tick {}: {} owners skipped after journal failures (budget {})",
                    self.tick, health.journal_skips, policy.max_skipped_owners
                ),
            });
        }

        // Injected per-owner cloak failures: the receipt is dropped as
        // if the walk dead-ended — an availability event, counted in
        // both `failed` and the health rollup.
        if let Some(injector) = &self.injector {
            for slot in shards.iter_mut().flat_map(|s| s.results.iter_mut()) {
                if slot.is_ok() && injector.cloak_fault() {
                    health.injected_cloak_failures += 1;
                    *slot = Err(CloakError::CloakingFailed {
                        level: Level(0),
                        reason: StepFailure::NoCandidates,
                    });
                }
            }
        }

        let mut report = TickReport {
            tick: self.tick,
            clock: self.sim.clock(),
            snapshot_refreshed,
            issued: 0,
            failed: 0,
            verified: 0,
            handoffs,
            digest: FNV_OFFSET,
            shard_digests: Vec::with_capacity(shards.len()),
            quality: QualitySummary::new(),
            lbs: QueryStats::new(),
            attack: None,
            health,
        };
        let shards = &*shards;
        let (jobs, pass1_err) = if self.cfg.verify {
            self.check_issued(shards)
        } else {
            (Vec::new(), None)
        };

        // The settle fan-out. Each leg's state is reached only by its own
        // task, through a lock no other task takes, and each leg writes
        // only its own outputs.
        let (tick, net, profile) = (self.tick, self.sim.network(), &self.profile);
        let (pois, lbs_probes) = (self.pois.as_ref(), self.cfg.lbs_probes);
        let observers: Vec<Mutex<&mut Observer>> = self
            .attack
            .iter_mut()
            .flat_map(|leg| leg.nre.iter_mut().chain([&mut leg.engine]))
            .map(Mutex::new)
            .collect();
        let report_leg = Mutex::new((&mut report, &mut self.lbs_scratch));
        let legs = observers.len() + 1;
        let dean = &self.dean;
        let views = fanout::fan_out(&mut self.scratch, legs + jobs.len(), |scratch, t| {
            if let Some(observer) = observers.get(t) {
                let mut observer = observer.lock().expect("only this task locks the observer");
                observer.observe_tick(net, profile, tick, snapshot_refreshed, shards);
                None
            } else if t < legs {
                let (report, lbs_scratch) =
                    &mut *report_leg.lock().expect("only this task locks the report");
                record_receipts(report, shards, net, profile, pois, lbs_probes, lbs_scratch);
                None
            } else {
                let (_, payload, keys) = &jobs[t - legs];
                Some(dean.reduce_with(payload, keys, scratch))
            }
        });

        let (verified, verify_err) =
            check_peeled(tick, &jobs, views.into_iter().flatten(), pass1_err);
        report.verified = verified;
        report.attack = self.attack.as_mut().map(AttackLeg::finish_tick);
        match verify_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// The cloak stage: every shard's keyed requests in one fan-out over
    /// the pipeline's workers. The tasks are `(shard, chunk)` pairs, each
    /// cloaked against its shard's snapshot with the worker's kept
    /// scratch, and the results land in each shard in request order.
    ///
    /// These are [`AnonymizerService::anonymize_batch`]'s keyed halves.
    /// Tracked owners are distinct across all shards, so no request
    /// repeats an owner and no two tasks store the same owner's record.
    fn cloak(&mut self, shards: &mut [Shard], keyed: &[Vec<KeyedRequest>]) {
        let total = shards.iter().map(|s| s.requests.len()).sum();
        let chunk = fanout::chunk_len(total, self.scratch.len());
        let tasks: Vec<(usize, Range<usize>)> = shards
            .iter()
            .enumerate()
            .flat_map(|(p, shard)| {
                let len = shard.requests.len();
                (0..len)
                    .step_by(chunk)
                    .map(move |start| (p, start..len.min(start + chunk)))
            })
            .collect();
        let service = &self.service;
        let issued = &*shards;
        let runs = fanout::fan_out(&mut self.scratch, tasks.len(), |scratch, t| {
            let (p, run) = &tasks[t];
            let shard = &issued[*p];
            service.anonymize_run_keyed(
                &shard.snapshot,
                &shard.requests[run.clone()],
                &keyed[*p][run.clone()],
                scratch,
            )
        });
        for ((p, _), run) in tasks.iter().zip(runs) {
            shards[*p].results.extend(run);
        }
    }

    /// Moves every owner whose car crossed into another shard's part to
    /// that shard, whose snapshot its requests are issued under from
    /// this tick on. Returns the number of crossings.
    fn hand_off_owners(&mut self) -> usize {
        let mut handoffs = 0;
        for t in &mut self.tracked {
            t.segment = self
                .sim
                .car_segment(t.car)
                .expect("tracked cars exist for the simulation's lifetime");
            let dest = self.partition.shard_of(t.segment);
            if dest != t.shard {
                t.shard = dest;
                handoffs += 1;
            }
        }
        if handoffs > 0 {
            self.route_requests();
        }
        self.handoffs_total += handoffs as u64;
        handoffs
    }

    /// Refills each shard's request buffer with the owners it holds, in
    /// tracked order (segment and seed are set per tick).
    fn route_requests(&mut self) {
        for shard in &mut self.shards {
            shard.requests.clear();
            shard.owners.clear();
        }
        for (i, t) in self.tracked.iter().enumerate() {
            let shard = &mut self.shards[t.shard];
            shard
                .requests
                .push(AnonymizeRequest::new(t.owner.clone(), t.segment, 0));
            shard.owners.push(i);
        }
    }

    /// Captures the simulation once and copies each shard's part of it
    /// into the shard's snapshot, which stays zero outside the part. The
    /// copy is in place: receipts are checked against their snapshot
    /// within the tick, so nothing holds a snapshot across a refresh.
    fn refresh_snapshots(&mut self) {
        self.sim.capture_into(&mut self.capture);
        for (p, shard) in self.shards.iter_mut().enumerate() {
            shard
                .snapshot
                .copy_segments_from(&self.capture, self.partition.members(p));
        }
    }

    /// Cumulative attack rollup against the engine's receipt stream
    /// (`None` when the attack leg is off).
    pub fn attack_summary(&self) -> Option<&AttackSummary> {
        self.attack.as_ref().map(|leg| &leg.engine.summary)
    }

    /// Cumulative attack rollup against the NRE control stream (`None`
    /// when the leg or the baseline control is off).
    pub fn baseline_attack_summary(&self) -> Option<&AttackSummary> {
        self.nre_observer().map(|nre| &nre.summary)
    }

    /// The full per-owner/per-tick attack log (empty when the leg is off
    /// or [`AttackConfig::keep_records`] was disabled).
    pub fn attack_records(&self) -> &[AttackRecord] {
        self.attack.as_ref().map_or(&[], |leg| &leg.records)
    }

    /// NRE control cloaks that failed to grow (availability events of
    /// the baseline, excluded from its privacy rollup).
    pub fn baseline_attack_failures(&self) -> usize {
        self.nre_observer()
            .and_then(|nre| nre.control.as_ref())
            .map_or(0, |control| control.failures)
    }

    /// Total wall time spent inside the engine adversary's `observe`
    /// calls (`None` when the attack leg is off). Divide by
    /// [`AttackSummary::observations`] for the per-receipt cost —
    /// `rcloak attack` prints exactly that, so index-layer wins show up
    /// in the CLI footer without criterion.
    pub fn attack_observe_time(&self) -> Option<Duration> {
        self.attack.as_ref().map(|leg| leg.engine.observe_time)
    }

    /// Total wall time inside the NRE adversary's `observe` calls,
    /// replay inversion included (`None` when the leg or the control
    /// is off).
    pub fn baseline_observe_time(&self) -> Option<Duration> {
        self.nre_observer().map(|nre| nre.observe_time)
    }

    /// The attack leg's NRE observer, when the leg and its control are on.
    fn nre_observer(&self) -> Option<&Observer> {
        self.attack.as_ref().and_then(|leg| leg.nre.as_ref())
    }

    /// Runs `ticks` ticks, collecting one report per tick.
    ///
    /// # Errors
    ///
    /// Stops at the first [`PipelineError`], as [`tick`] does.
    ///
    /// [`tick`]: ContinuousPipeline::tick
    pub fn run(&mut self, ticks: usize) -> Result<Vec<TickReport>, PipelineError> {
        (0..ticks).map(|_| self.tick()).collect()
    }

    /// Verification's pass 1, in (shard, receipt) order: k-anonymity on
    /// the issuing shard's snapshot, region membership, and grant
    /// preservation (the auditor registers at an owner's first cloak,
    /// then fetches the owner's keys). It stops at its first failure and
    /// returns the peel jobs of the receipts before it, with the failure.
    fn check_issued<'b>(
        &mut self,
        shards: &'b [Shard],
    ) -> (Vec<PeelJob<'b>>, Option<PipelineError>) {
        let k = self.profile.top_requirement().k as u64;
        let mut jobs = Vec::new();
        for shard in shards {
            for (i, request, result) in shard.entries() {
                let Ok(receipt) = result else { continue };
                let owner = &request.owner;
                let fail = |what: &str| Some(violation(self.tick, owner, what));

                // k-anonymity against the snapshot the receipt was issued
                // under.
                let users = shard
                    .snapshot
                    .users_in(receipt.payload.segments.iter().copied());
                if users < k {
                    let what = format!("region covers {users} users < k={k} at issue time");
                    return (jobs, fail(&what));
                }
                if !receipt.payload.contains(request.segment) {
                    return (jobs, fail("region does not contain the owner's segment"));
                }

                // Grant preservation: the auditor is registered only at the
                // owner's first cloak — on every later tick its keys must
                // keep working across the re-anonymization.
                if !self.registered[i] {
                    if !self
                        .service
                        .register_requester(owner, AUDITOR, TrustDegree(10), Level(0))
                    {
                        return (jobs, fail("owner record missing right after anonymization"));
                    }
                    self.registered[i] = true;
                }
                match self.service.fetch_keys(owner, AUDITOR) {
                    Ok(keys) => jobs.push((request, &receipt.payload, keys)),
                    Err(e) => {
                        let what = format!("grant lost across re-anonymization: {e}");
                        return (jobs, fail(&what));
                    }
                }
            }
        }
        (jobs, None)
    }
}

/// A receipt that passed verification's pass 1: its request, its
/// payload and the auditor's fetched keys, to be peeled.
type PeelJob<'a> = (&'a AnonymizeRequest, &'a CloakPayload, Vec<(Level, Key256)>);

/// An invariant violation of `owner`'s receipt at `tick`.
fn violation(tick: u64, owner: &str, what: &str) -> PipelineError {
    PipelineError {
        message: format!("tick {tick}: {owner}: {what}"),
    }
}

/// Verification's pass 2: checks each job's peeled view for exact
/// reversibility, in job order. Returns `(verified, error)`: the jobs
/// before the first failure, and that failure, else `pass1_err`. Every
/// job precedes pass 1's failure, so the error is the first in (shard,
/// receipt) order on either pass.
fn check_peeled(
    tick: u64,
    jobs: &[PeelJob<'_>],
    views: impl IntoIterator<Item = Result<DeanonymizedView, DeanonError>>,
    pass1_err: Option<PipelineError>,
) -> (usize, Option<PipelineError>) {
    let mut verified = 0;
    for ((request, _, _), view) in jobs.iter().zip(views) {
        let what = match view {
            Ok(view) if view.segments == [request.segment] => {
                verified += 1;
                continue;
            }
            Ok(view) => format!(
                "deanonymized to {:?}, expected exactly [{}]",
                view.segments, request.segment
            ),
            Err(e) => format!("deanonymization failed: {e}"),
        };
        return (verified, Some(violation(tick, &request.owner, &what)));
    }
    (verified, pass1_err)
}

/// The report leg: each shard's receipt digest, the region-quality
/// rollup against the issuing snapshots, and LBS nearest-POI queries
/// over the tick's first `lbs_probes` issued receipts (none without
/// `pois`).
fn record_receipts(
    report: &mut TickReport,
    shards: &[Shard],
    net: &RoadNetwork,
    profile: &PrivacyProfile,
    pois: Option<&PoiStore>,
    lbs_probes: usize,
    lbs_scratch: &mut SearchScratch,
) {
    for shard in shards {
        let mut digest = FNV_OFFSET;
        for (i, request, result) in shard.entries() {
            let Ok(receipt) = result else {
                report.failed += 1;
                continue;
            };
            report.issued += 1;
            digest = fnv_fold(digest, request.owner.as_bytes());
            digest = fnv_fold(digest, &receipt.payload.encode());
            report.quality.record(&RegionQuality::measure(
                net,
                &shard.snapshot,
                profile,
                &receipt.outcome,
            ));
            if let Some(pois) = pois {
                if report.issued <= lbs_probes {
                    // The LBS only ever sees the cloaked region.
                    let category = PoiCategory::ALL[i % PoiCategory::ALL.len()];
                    report.lbs.record(&nearest_query_with(
                        net,
                        pois,
                        &receipt.payload.segments,
                        category,
                        lbs_scratch,
                    ));
                }
            }
        }
        report.shard_digests.push(digest);
    }
    report.digest = match report.shard_digests[..] {
        [only] => only,
        ref all => all
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv_fold(h, &d.to_be_bytes())),
    };
}

impl AttackLeg {
    /// Takes this tick's rollups and appends its records to the log:
    /// for each observed receipt in (shard, receipt) order, the engine
    /// record, then the NRE record when the control grew.
    fn finish_tick(&mut self) -> AttackTickSummary {
        {
            let mut nre = self.nre.as_mut().map(|o| o.tick_records.drain(..));
            for record in self.engine.tick_records.drain(..) {
                self.records.extend(record);
                self.records
                    .extend(nre.as_mut().and_then(Iterator::next).flatten());
            }
        }
        AttackTickSummary {
            engine: std::mem::replace(&mut self.engine.tick, AttackSummary::new()),
            baseline: self
                .nre
                .as_mut()
                .map(|o| std::mem::replace(&mut o.tick, AttackSummary::new())),
        }
    }
}

impl Observer {
    /// Observes one tick's receipts shard by shard, in receipt order: on
    /// the engine stream their regions, on the NRE stream the control
    /// grown from each receipt's true segment. It reads public
    /// information only — region, issuing snapshot, tick — and is passed
    /// the true segment solely for scoring.
    fn observe_tick(
        &mut self,
        net: &RoadNetwork,
        profile: &PrivacyProfile,
        tick: u64,
        snapshot_fresh: bool,
        shards: &[Shard],
    ) {
        let owners = self.owners;
        let requirement = profile.top_requirement();
        for shard in shards {
            let issuing = &shard.snapshot;
            let observed = || shard.entries().filter(|&(i, _, _)| i < owners);
            // A shard's observations share its issuing snapshot: announce
            // it once, together with the shard's observed owners, so the
            // adversary prices the occupancy weighting once and packs
            // their movement-reachability masks into one matrix OR-pass
            // up front (each `observe` below then reads its owner's
            // precomputed row).
            self.adversary.begin_tick_population(
                issuing,
                snapshot_fresh,
                observed().map(|(_, request, _)| request.owner.as_str()),
            );
            for (i, request, result) in observed() {
                let Ok(receipt) = result else { continue };
                let grown;
                let (region, replay) = match &mut self.control {
                    None => (&receipt.payload.segments, None),
                    Some(control) => {
                        let seed = control.seeds[i];
                        match random_expansion_with(
                            net,
                            issuing,
                            request.segment,
                            requirement,
                            &mut StdRng::seed_from_u64(seed),
                            &mut control.scratch,
                        ) {
                            Ok(outcome) => {
                                grown = outcome;
                                (&grown.segments, Some(ReplayProbe { requirement, seed }))
                            }
                            Err(_) => {
                                control.failures += 1;
                                if self.keep_records {
                                    self.tick_records.push(None);
                                }
                                continue;
                            }
                        }
                    }
                };
                let observe_start = Instant::now();
                let observation = self.adversary.observe(
                    net,
                    &request.owner,
                    Observation {
                        tick,
                        region,
                        snapshot: issuing,
                        snapshot_fresh,
                    },
                    replay,
                    Some(request.segment),
                );
                self.observe_time += observe_start.elapsed();
                self.tick.record(&observation);
                self.summary.record(&observation);
                if self.keep_records {
                    self.tick_records.push(Some(AttackRecord {
                        scheme: self.scheme,
                        owner: request.owner.clone(),
                        observation,
                    }));
                }
            }
        }
    }
}

impl std::fmt::Debug for ContinuousPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousPipeline")
            .field("tick", &self.tick)
            .field("shards", &self.shards.len())
            .field("tracked", &self.tracked.len())
            .field("engine", &self.service.engine().name())
            .finish()
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte run, chained from `state`.
pub(crate) fn fnv_fold(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix-style mix of (base seed, tick, owner index) into a request
/// seed — collision-resistant enough that every request feeds
/// independent entropy into its owner's chain ratchet, and pure, so
/// the stream is reproducible.
pub(crate) fn mix_seed(base: u64, tick: u64, idx: u64) -> u64 {
    crate::service::splitmix64(
        base ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineChoice;
    use roadnet::grid_city;

    fn pipeline(engine: EngineChoice, cfg: PipelineConfig) -> ContinuousPipeline {
        sharded(engine, cfg, 1)
    }

    fn sharded(engine: EngineChoice, cfg: PipelineConfig, shards: usize) -> ContinuousPipeline {
        ContinuousPipeline::sharded(
            grid_city(7, 7, 100.0),
            SimConfig {
                cars: 200,
                seed: 11,
                ..Default::default()
            },
            AnonymizerConfig {
                engine,
                ..Default::default()
            },
            cfg,
            shards,
            Arc::new(MemStore::new()),
        )
        .unwrap()
    }

    #[test]
    fn simulation_and_service_share_one_graph_index() {
        for shards in [1, 3] {
            let p = sharded(EngineChoice::Rge, PipelineConfig::default(), shards);
            assert_eq!(p.shard_count(), shards);
            assert!(std::ptr::eq(
                p.sim().network().graph_index(),
                p.service().network().graph_index()
            ));
        }
    }

    #[test]
    fn ticks_issue_and_verify_every_receipt() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 6,
                ..Default::default()
            },
        );
        let reports = p.run(4).unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(p.ticks_run(), 4);
        assert_eq!(p.tracked_owner_count(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.tick, i as u64 + 1);
            assert_eq!(r.issued, 6);
            assert_eq!(r.failed, 0);
            assert_eq!(r.verified, 6);
            assert!(r.snapshot_refreshed, "cadence 1 refreshes every tick");
            assert!(r.quality.min_relative_anonymity() >= 1.0);
            assert_eq!(r.lbs.queries(), 4);
            assert!((r.clock - (i as f64 + 1.0) * 10.0).abs() < 1e-9);
        }
        // All owners stored, all granted to the auditor exactly once.
        assert_eq!(p.service().owner_count(), 6);
        assert_eq!(p.service().requester_grants(AUDITOR).len(), 6);
    }

    #[test]
    fn snapshot_cadence_skips_ticks() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 3,
                snapshot_cadence: 3,
                lbs_probes: 0,
                ..Default::default()
            },
        );
        let reports = p.run(6).unwrap();
        let refreshed: Vec<bool> = reports.iter().map(|r| r.snapshot_refreshed).collect();
        assert_eq!(refreshed, vec![false, false, true, false, false, true]);
        assert!(reports.iter().all(|r| r.lbs.queries() == 0));
    }

    #[test]
    fn receipt_stream_is_deterministic_across_parallelism() {
        // Whole reports, then the attack leg's log, cumulative rollups and
        // NRE failure count.
        let run = |shards: usize, parallelism: usize, fault: Option<FaultPlan>| {
            let mut p = ContinuousPipeline::sharded(
                grid_city(7, 7, 100.0),
                SimConfig {
                    cars: 200,
                    seed: 11,
                    ..Default::default()
                },
                AnonymizerConfig {
                    batch_parallelism: parallelism,
                    ..Default::default()
                },
                PipelineConfig {
                    tracked_owners: 24,
                    attack: Some(AttackConfig::default()),
                    fault,
                    fault_policy: FaultPolicy {
                        journal_retries: 8,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                shards,
                Arc::new(MemStore::new()),
            )
            .unwrap();
            let reports = p.run(5).unwrap();
            (
                reports,
                p.attack_records().to_vec(),
                p.attack_summary().cloned(),
                p.baseline_attack_summary().cloned(),
                p.baseline_attack_failures(),
            )
        };
        for shards in [1, 3] {
            let sequential = run(shards, 1, None);
            let (reports, records, ..) = &sequential;
            // Ticks differ from each other (cars moved, fresh seeds).
            assert_ne!(reports[0].digest, reports[1].digest);
            assert!(reports.iter().all(|r| r.lbs.queries() > 0));
            assert!(records.iter().any(|r| r.scheme == "rge"));
            assert!(records.iter().any(|r| r.scheme == "nre"));
            for parallelism in [2, 3] {
                assert_eq!(
                    sequential,
                    run(shards, parallelism, None),
                    "{shards} shards, {parallelism} workers"
                );
            }
        }
        // Journal, snapshot and cloak faults: the key pass and the later
        // per-shard stages draw every coin in the same order at any
        // worker count, so the faulty runs match report for report too.
        let plan = FaultPlan {
            seed: 5,
            journal_write_fail: 0.3,
            snapshot_capture_fail: 0.3,
            cloak_fail: 0.1,
            ..Default::default()
        };
        let sequential = run(3, 1, Some(plan.clone()));
        let total = |pick: fn(&TickHealth) -> u64| -> u64 {
            sequential.0.iter().map(|r| pick(&r.health)).sum()
        };
        assert!(total(|h| h.journal_retries) > 0);
        assert!(total(|h| h.snapshot_faults) > 0);
        assert!(total(|h| h.injected_cloak_failures) > 0);
        for parallelism in [2, 3] {
            assert_eq!(
                sequential,
                run(3, parallelism, Some(plan.clone())),
                "faulty run, {parallelism} workers"
            );
        }
    }

    #[test]
    fn rple_pipeline_verifies_too() {
        let mut p = pipeline(
            EngineChoice::Rple { t_len: 10 },
            PipelineConfig {
                tracked_owners: 4,
                lbs_probes: 2,
                ..Default::default()
            },
        );
        let reports = p.run(3).unwrap();
        for r in &reports {
            assert_eq!(r.verified, r.issued, "issued receipts all verify");
            assert!(r.issued + r.failed == 4);
        }
        assert!(reports.iter().map(|r| r.issued).sum::<usize>() > 0);
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 2,
                ..Default::default()
            },
        );
        let report = p.tick().unwrap();
        let header_cols = TickReport::CSV_HEADER.split(',').count();
        assert_eq!(report.csv_row().split(',').count(), header_cols);
        assert!(report.csv_row().starts_with("1,"));
        assert!(format!("{p:?}").contains("ContinuousPipeline"));
    }

    #[test]
    fn attack_leg_reports_and_separates_engine_from_baseline() {
        for shards in [1, 3] {
            let mut p = sharded(
                EngineChoice::Rge,
                PipelineConfig {
                    tracked_owners: 4,
                    lbs_probes: 0,
                    attack: Some(AttackConfig::default()),
                    ..Default::default()
                },
                shards,
            );
            let reports = p.run(6).unwrap();
            for r in &reports {
                let attack = r.attack.as_ref().expect("attack leg on");
                assert_eq!(attack.engine.observations(), r.issued as u64);
                let baseline = attack.baseline.as_ref().expect("baseline control on");
                assert!(
                    baseline.observations() + p.baseline_attack_failures() as u64 > 0,
                    "{shards} shards: control ran"
                );
            }
            let engine = p.attack_summary().expect("engine rollup");
            let issued: usize = reports.iter().map(|r| r.issued).sum();
            assert_eq!(engine.observations(), issued as u64);
            if shards == 1 {
                assert_eq!(issued, 6 * 4);
            }
            // The sound combined adversary never loses a keyed owner…
            assert_eq!(engine.soundness(), 1.0, "{shards} shards");
            // …and its posterior stays wide while the keyless
            // deterministic control collapses under replay.
            let baseline = p.baseline_attack_summary().expect("baseline rollup");
            assert!(
                engine.mean_entropy() > baseline.mean_entropy() + 1.0,
                "{shards} shards: engine {:.2} bits vs baseline {:.2} bits",
                engine.mean_entropy(),
                baseline.mean_entropy()
            );
            assert!(
                baseline.guess_success_rate() > engine.guess_success_rate(),
                "{shards} shards: baseline {:.2} vs engine {:.2}",
                baseline.guess_success_rate(),
                engine.guess_success_rate()
            );
            // Records cover both streams in CSV-exportable form.
            let records = p.attack_records();
            assert!(records.iter().any(|r| r.scheme == "rge"));
            assert!(records.iter().any(|r| r.scheme == "nre"));
            let header_cols = AttackRecord::CSV_HEADER.split(',').count();
            for record in records {
                assert_eq!(record.csv_row().split(',').count(), header_cols);
            }
        }
    }

    #[test]
    fn attack_leg_does_not_perturb_the_receipt_stream() {
        for shards in [1, 3] {
            let digests = |attack: Option<AttackConfig>| {
                let mut p = sharded(
                    EngineChoice::Rge,
                    PipelineConfig {
                        tracked_owners: 5,
                        lbs_probes: 0,
                        attack,
                        ..Default::default()
                    },
                    shards,
                );
                p.run(3)
                    .unwrap()
                    .iter()
                    .map(|r| (r.digest, r.shard_digests.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                digests(None),
                digests(Some(AttackConfig::default())),
                "{shards} shards: the attack leg is purely observational"
            );
        }
    }

    #[test]
    fn attack_leg_off_keeps_reports_clean() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 2,
                ..Default::default()
            },
        );
        let report = p.tick().unwrap();
        assert!(report.attack.is_none());
        assert!(p.attack_summary().is_none());
        assert!(p.baseline_attack_summary().is_none());
        assert!(p.attack_records().is_empty());
        assert_eq!(p.baseline_attack_failures(), 0);
    }

    #[test]
    fn fault_free_ticks_report_clean_health() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 3,
                lbs_probes: 0,
                ..Default::default()
            },
        );
        for r in p.run(3).unwrap() {
            assert!(
                r.health.is_clean(),
                "no plan, no degradation: {:?}",
                r.health
            );
        }
    }

    #[test]
    fn journal_fault_retries_recover_the_fault_free_digest() {
        for shards in [1, 3] {
            let run = |fault: Option<FaultPlan>| {
                let mut p = sharded(
                    EngineChoice::Rge,
                    PipelineConfig {
                        tracked_owners: 6,
                        lbs_probes: 0,
                        fault,
                        fault_policy: FaultPolicy {
                            journal_retries: 8,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                    shards,
                );
                p.run(4).unwrap()
            };
            let clean = run(None);
            let faulty = run(Some(FaultPlan {
                seed: 9,
                journal_write_fail: 0.4,
                ..Default::default()
            }));
            let retries: u64 = faulty.iter().map(|r| r.health.journal_retries).sum();
            assert!(
                retries > 0,
                "{shards} shards: p=0.4 over 24 requests injects failures"
            );
            assert!(faulty.iter().all(|r| r.health.journal_skips == 0));
            // A recovered owner's chain never advanced on the failed
            // write, so the retry re-derives the same epoch and the
            // receipt stream is bit-identical to the fault-free run.
            assert_eq!(
                clean
                    .iter()
                    .map(|r| (r.digest, r.issued, r.failed))
                    .collect::<Vec<_>>(),
                faulty
                    .iter()
                    .map(|r| (r.digest, r.issued, r.failed))
                    .collect::<Vec<_>>(),
                "{shards} shards"
            );
            assert!(faulty.iter().all(|r| r.verified == r.issued));
            if shards == 1 {
                assert!(faulty.iter().all(|r| r.failed == 0));
            }
        }
    }

    #[test]
    fn exhausted_retries_skip_owners_and_blow_the_budget() {
        let build = |max_skipped_owners| {
            pipeline(
                EngineChoice::Rge,
                PipelineConfig {
                    tracked_owners: 4,
                    lbs_probes: 0,
                    fault: Some(FaultPlan {
                        journal_write_fail: 1.0,
                        ..Default::default()
                    }),
                    fault_policy: FaultPolicy {
                        journal_retries: 2,
                        max_skipped_owners,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        };
        // A generous budget degrades to skip-and-count: the tick
        // completes with every owner skipped and nothing issued.
        let report = build(usize::MAX).tick().unwrap();
        assert_eq!(report.health.journal_skips, 4);
        assert_eq!(report.health.journal_retries, 8, "2 retries per owner");
        assert_eq!(report.failed, 4);
        assert_eq!(report.issued, 0);
        // A zero budget aborts the tick instead.
        let err = build(0).tick().unwrap_err();
        assert!(err.message.contains("owners skipped"), "{err}");
    }

    #[test]
    fn injected_crash_halts_until_rebuilt() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 3,
                lbs_probes: 0,
                fault: Some(FaultPlan {
                    crash_at_tick: Some(2),
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        assert!(p.tick().is_ok());
        let err = p.tick().unwrap_err();
        assert!(
            err.message
                .contains("injected crash between ratchet-advance and receipt-issue"),
            "{err}"
        );
        // The pipeline stays down: a crashed process serves nothing.
        let err = p.tick().unwrap_err();
        assert!(err.message.contains("rebuild over the surviving"), "{err}");
        assert_eq!(p.ticks_run(), 2);
    }

    #[test]
    fn snapshot_capture_faults_serve_the_stale_snapshot() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 3,
                lbs_probes: 0,
                fault: Some(FaultPlan {
                    snapshot_capture_fail: 1.0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        for r in p.run(3).unwrap() {
            // Every capture fails, so the construction-time snapshot
            // keeps serving — and every receipt still verifies against
            // the snapshot it was actually issued under.
            assert!(!r.snapshot_refreshed);
            assert_eq!(r.health.snapshot_faults, 1);
            assert_eq!(r.verified, r.issued);
        }
    }

    #[test]
    fn injected_cloak_failures_drop_receipts_and_are_counted() {
        let mut p = pipeline(
            EngineChoice::Rge,
            PipelineConfig {
                tracked_owners: 4,
                lbs_probes: 0,
                fault: Some(FaultPlan {
                    cloak_fail: 1.0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        let report = p.tick().unwrap();
        assert_eq!(report.issued, 0);
        assert_eq!(report.failed, 4);
        assert_eq!(report.health.injected_cloak_failures, 4);
    }

    /// Verification as `settle` runs it, with the peels on the calling
    /// thread: pass 1, then pass 2 over the peeled views.
    fn verify(p: &mut ContinuousPipeline, shards: &[Shard]) -> (usize, Option<PipelineError>) {
        let (jobs, pass1_err) = p.check_issued(shards);
        let views: Vec<_> = jobs
            .iter()
            .map(|(_, payload, keys)| p.dean.reduce_with(payload, keys, &mut CloakScratch::new()))
            .collect();
        check_peeled(p.tick, &jobs, views, pass1_err)
    }

    #[test]
    fn verification_reports_the_first_failure_in_shard_and_receipt_order() {
        // The segment a hand-made request claims: the owner's own, another
        // one of its region (pass 1 passes, the peel lands elsewhere), or
        // one outside its region (pass 1 fails).
        #[derive(Clone, Copy, PartialEq)]
        enum Claim {
            Own,
            PeelFails,
            Pass1Fails,
        }
        use Claim::*;
        let cases = [
            // A peel failure before a pass-1 failure, then one after it.
            (
                [&[Own, Own, PeelFails][..], &[Pass1Fails, Own]],
                2,
                "deanonymized to",
            ),
            (
                [&[Own, Pass1Fails][..], &[Own, PeelFails]],
                1,
                "region does not contain the owner's segment",
            ),
        ];
        for (layout, verified_before, what) in cases {
            let mut p = sharded(
                EngineChoice::Rge,
                PipelineConfig {
                    tracked_owners: 8,
                    lbs_probes: 0,
                    ..Default::default()
                },
                2,
            );
            // Receipts for the owners' own segments, as a tick issues them.
            let mut shards: Vec<Shard> = Vec::new();
            let mut keyed = Vec::new();
            for (shard, claims) in layout.iter().enumerate() {
                let first: usize = shards.iter().map(|s| s.owners.len()).sum();
                let owners: Vec<usize> = (first..first + claims.len()).collect();
                let requests: Vec<_> = owners
                    .iter()
                    .map(|&o| {
                        let segment = p.partition.members(shard)[(o - first) * 5];
                        AnonymizeRequest::new(p.tracked[o].owner.clone(), segment, 1)
                    })
                    .collect();
                keyed.push(p.service.derive_batch_keys(&requests));
                shards.push(Shard {
                    requests,
                    owners,
                    results: Vec::new(),
                    snapshot: p.shards[shard].snapshot.clone(),
                });
            }
            p.cloak(&mut shards, &keyed);
            // Each request now claims the segment its case names.
            let mut first_failure = None;
            for (shard, claims) in shards.iter_mut().zip(layout) {
                let (requests, results) = (&mut shard.requests, &shard.results);
                for ((request, result), &claim) in requests.iter_mut().zip(results).zip(claims) {
                    let receipt = result.as_ref().expect("the shard's snapshot reaches k");
                    let (region, own) = (&receipt.payload.segments, request.segment);
                    request.segment = match claim {
                        Own => own,
                        PeelFails => *region.iter().find(|&&s| s != own).unwrap(),
                        Pass1Fails => p
                            .sim
                            .network()
                            .segment_ids()
                            .find(|s| !region.contains(s))
                            .unwrap(),
                    };
                    if claim != Own && first_failure.is_none() {
                        first_failure = Some(request.owner.clone());
                    }
                }
            }
            let (verified, err) = verify(&mut p, &shards);
            let err = err.expect("a hand-made receipt fails");
            assert_eq!(verified, verified_before, "{err}");
            let owner = first_failure.unwrap();
            assert!(
                err.message.starts_with(&format!("tick 0: {owner}: {what}")),
                "{err}"
            );
            let settled = p.settle(&mut shards, true, 0, TickHealth::default());
            assert_eq!(settled.unwrap_err(), err);
        }
    }

    #[test]
    fn mix_seed_spreads() {
        let mut seen = std::collections::HashSet::new();
        for tick in 0..20 {
            for idx in 0..20 {
                seen.insert(mix_seed(42, tick, idx));
            }
        }
        assert_eq!(seen.len(), 400, "no collisions over a small lattice");
    }
}
