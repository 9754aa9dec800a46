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
//!   fault injection and verification's checks and key fetches each walk
//!   the shards in shard order inside one task. The report leg (digest,
//!   quality, LBS) and each attack observer walk the shards in shard order
//!   too, each inside its own task. A lone shard's digest is its own
//!   receipt-stream digest; several shards fold theirs in shard order,
//!   so sharded digests are their own (masked snapshots change occupancy
//!   near partition borders);
//! * **one tick fan-out** — the anonymizer half of a tick is one fan-out
//!   over the whole tick's population, whose tasks are the stages in
//!   order: the key pass, the cloak tasks (one per chunk of a shard's
//!   requests), the settle task (the injected crash, the retry ladder,
//!   injected cloak failures, then verification's pass 1), the legs,
//!   longest first — the NRE control, the engine adversary, the report
//!   leg — and one peel task per request. A task waits, through
//!   write-once [`Slot`]s, only for what lower-numbered tasks publish: a
//!   cloak for its requests' keys, the settle task for every cloak, the
//!   legs for the final results, the peels for pass 1's jobs. The
//!   fan-out runs on [`AnonymizerConfig::batch_parallelism`] workers: the
//!   calling thread and threads the pipeline keeps for its lifetime (a
//!   [`fanout::Pool`]), each with its scratch kept across ticks. The tick
//!   moves the shards, the legs and the grant flags into an `Arc` for the
//!   fan-out, and takes them back once it returns. A leg's state is
//!   reached only by its own task. The key pass
//!   ratchets the chains and draws their journal coins in request order,
//!   the settle task, which waits for all of it, draws the retry ladder's
//!   and the cloak faults' coins in request order, every leg writes only
//!   its own outputs, and results return in task order, so reports are
//!   identical at any worker count.
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
use crate::fault::{FaultInjector, FaultPlan, FaultPolicy, FaultyStore, TickHealth};
use crate::service::{AnonymizeReceipt, AnonymizeRequest, AnonymizerService, KeyedRequest};
use crate::shard::Partition;
use cloak::attack::temporal::{
    AdversaryConfig, AdversaryMode, AttackObservation, AttackSummary, Observation, ReplayProbe,
    TemporalAdversary,
};
use cloak::{
    deanonymize_with_scratch, random_expansion_with, CloakError, CloakPayload, CloakScratch,
    DeanonError, DeanonymizedView, ExpansionScratch, PrivacyProfile, QualitySummary, RegionQuality,
    StepFailure,
};
use keystream::{ChainStore, JournalError, Key256, Level, MemStore, TrustDegree};
use lbs::{nearest_query_with, PoiCategory, PoiStore, QueryStats, SearchScratch};
use mobisim::{CarId, OccupancySnapshot, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::fanout::{self, Slot};
use roadnet::{RoadNetwork, SegmentId};
use std::collections::BTreeMap;
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
    /// retry → skip-owner-and-count → abort.
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
    pois: Option<Arc<PoiStore>>,
    cfg: PipelineConfig,
    tracked: Vec<TrackedOwner>,
    /// Whether each tracked owner's auditor grant is registered.
    registered: Vec<bool>,
    /// The full-map capture every refresh copies the shards' parts from.
    capture: OccupancySnapshot,
    /// One scratch per worker of the tick's fan-out, kept across ticks
    /// (worker 0 is the calling thread).
    scratch: Vec<CloakScratch>,
    /// The threads of the tick's fan-out after the calling thread, kept
    /// for the pipeline's lifetime.
    pool: fanout::Pool,
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

/// One partition's slice of the pipeline: its requests and its masked
/// snapshot.
struct Shard {
    /// Requests of the owners driving inside this shard's part, in
    /// tracked order. Each tick rewrites their segment and seed in place;
    /// a handoff moves a crossing owner's request to its new shard.
    requests: Vec<AnonymizeRequest>,
    /// The tracked-owner index behind each request.
    owners: Vec<usize>,
    /// Where this shard's requests start in the tick's (shard, request)
    /// order.
    start: usize,
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
    /// This shard's positions in the tick's (shard, request) order.
    fn range(&self) -> Range<usize> {
        self.start..self.start + self.requests.len()
    }

    /// `(tracked-owner index, request, result)`, in request order, with
    /// each result read from the tick's `results`.
    fn entries<'s, 'r>(
        &'s self,
        results: &'r [&'r Issued],
    ) -> impl Iterator<Item = (usize, &'s AnonymizeRequest, &'r Issued)> {
        self.owners
            .iter()
            .zip(&self.requests)
            .zip(&results[self.range()])
            .map(|((&i, request), &result)| (i, request, result))
    }
}

/// State of the pipeline's attack leg: one observer per watched stream
/// and (optionally) the full observation log.
struct AttackLeg {
    /// The observers, longest first, as their leg tasks run: the NRE
    /// control's (when [`AttackConfig::baseline`] is on), then the
    /// engine's. A tick moves them into its stages and back.
    observers: Vec<Observer>,
    records: Vec<AttackRecord>,
}

/// One adversary watching one stream of the attack leg. Each observer
/// runs as its own task of the tick's fan-out.
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
                start: 0,
                snapshot: OccupancySnapshot::uniform(sim.network().segment_count(), 0),
            })
            .collect();
        let pois = (cfg.lbs_probes > 0).then(|| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1b5_0001);
            Arc::new(PoiStore::generate(
                service.network(),
                cfg.poi_count.max(1),
                &mut rng,
            ))
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
            let nre = attack_cfg.baseline.then(|| {
                let seeds = (0..owners)
                    .map(|i| {
                        // Public per-owner state (the keyless control
                        // has no secret): derived from the owner index
                        // alone.
                        crate::service::splitmix64(0x17e_a5ed ^ (i as u64).wrapping_mul(0x100_0003))
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
            });
            AttackLeg {
                observers: nre
                    .into_iter()
                    .chain([observer(engine_label, None)])
                    .collect(),
                records: Vec::new(),
            }
        });
        let mut pipeline = ContinuousPipeline {
            registered: vec![false; tracked.len()],
            sim,
            partition,
            service,
            shards,
            pois,
            cfg,
            tracked,
            capture: OccupancySnapshot::from_counts(Vec::new()),
            scratch: (0..workers).map(|_| CloakScratch::new()).collect(),
            pool: fanout::Pool::new(workers),
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
    /// their new shard, refresh the snapshots on cadence, then run the
    /// anonymizer half as one fan-out of ordered stages:
    /// derive every request's keys in (shard, request) order, cloak each
    /// request once its keys are out, settle the results and (when
    /// configured) verify every receipt's invariants against its issuing
    /// shard's snapshot, with the report, LBS and attack legs running
    /// beside verification's peels.
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

        for shard in &mut self.shards {
            for (request, &i) in shard.requests.iter_mut().zip(&shard.owners) {
                request.segment = self.tracked[i].segment;
                request.seed = mix_seed(self.cfg.seed, self.tick, i as u64);
            }
        }
        let stages = self.stages(self.blank_report(snapshot_refreshed, handoffs), health);
        let tasks = stages.tasks();
        let (stages, views) = self.run_stages(stages, 0..tasks);
        let (mut report, verify_err) = match self.finish(stages, views) {
            Ok(finished) => finished,
            Err(abort) => {
                // The crash, if the plan has one at this tick, is checked
                // first, so this abort is it.
                self.crashed = self
                    .injector
                    .as_ref()
                    .is_some_and(|i| i.crash_due(self.tick));
                return Err(abort);
            }
        };
        report.attack = self.attack.as_mut().map(AttackLeg::finish_tick);
        match verify_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// This tick's report before its stages fill it in.
    fn blank_report(&self, snapshot_refreshed: bool, handoffs: usize) -> TickReport {
        TickReport {
            tick: self.tick,
            clock: self.sim.clock(),
            snapshot_refreshed,
            issued: 0,
            failed: 0,
            verified: 0,
            handoffs,
            digest: FNV_OFFSET,
            shard_digests: Vec::with_capacity(self.shards.len()),
            quality: QualitySummary::new(),
            lbs: QueryStats::new(),
            attack: None,
            health: TickHealth::default(),
        }
    }

    /// The tick's stages over the shards' current requests, with the legs
    /// reporting into `report`. `health` holds what the tick counted
    /// before them. The shards, the legs' state and the grant flags move
    /// into the stages until [`restore`](Self::restore) takes them back.
    fn stages(&mut self, report: TickReport, health: TickHealth) -> Stages {
        let snapshot_refreshed = report.snapshot_refreshed;
        let mut shards = std::mem::take(&mut self.shards);
        let mut total = 0;
        for shard in &mut shards {
            shard.start = total;
            total += shard.requests.len();
        }
        let chunk = fanout::chunk_len(total, self.scratch.len());
        let chunks = shards
            .iter()
            .enumerate()
            .flat_map(|(p, shard)| {
                let run = shard.range();
                run.clone()
                    .step_by(chunk)
                    .map(move |start| (p, start..run.end.min(start + chunk)))
            })
            .collect::<Vec<_>>();
        let observers = self
            .attack
            .as_mut()
            .map_or_else(Vec::new, |leg| std::mem::take(&mut leg.observers));
        Stages {
            tick: self.tick,
            snapshot_refreshed,
            verify: self.cfg.verify,
            lbs_probes: self.cfg.lbs_probes,
            policy: self.cfg.fault_policy.clone(),
            service: Arc::clone(&self.service),
            injector: self.injector.clone(),
            pois: self.pois.clone(),
            observers: observers.into_iter().map(Mutex::new).collect(),
            report: Mutex::new((report, std::mem::take(&mut self.lbs_scratch))),
            registered: Mutex::new(std::mem::take(&mut self.registered)),
            health,
            keys: (0..total).map(|_| Slot::new()).collect(),
            cloaked: chunks.iter().map(|_| Slot::new()).collect(),
            chunks,
            shards,
            settled: Slot::new(),
            checked: Slot::new(),
        }
    }

    /// Runs `tasks` of the tick's `stages` on the pipeline's pool, and
    /// returns the stages with the peel tasks' views.
    fn run_stages(&mut self, stages: Stages, tasks: Range<usize>) -> (Stages, Vec<Peeled>) {
        let stages = Arc::new(stages);
        let run = {
            let (stages, first) = (Arc::clone(&stages), tasks.start);
            move |scratch: &mut CloakScratch, t| stages.run(scratch, first + t)
        };
        let views = self.pool.fan_out(&mut self.scratch, tasks.len(), run);
        let stages = Arc::try_unwrap(stages).ok();
        (stages.expect("the pool let go of the tick's stages"), views)
    }

    /// Takes the tick's state back from its `stages` and returns the
    /// report the legs filled in, with the settle task's two slots.
    fn restore(&mut self, stages: Stages) -> (TickReport, Slot<Settled>, Slot<Checked>) {
        let Stages {
            shards,
            observers,
            report,
            registered,
            settled,
            checked,
            ..
        } = stages;
        self.shards = shards;
        // A task that panics fails the fan-out, so no lock is poisoned here.
        let unpoisoned = "the fan-out returned, so no task panicked";
        self.registered = registered.into_inner().expect(unpoisoned);
        if let Some(leg) = &mut self.attack {
            let observers = observers.into_iter().map(Mutex::into_inner);
            leg.observers = observers.collect::<Result<_, _>>().expect(unpoisoned);
        }
        let (report, lbs_scratch) = report.into_inner().expect(unpoisoned);
        self.lbs_scratch = lbs_scratch;
        (report, settled, checked)
    }

    /// Ends the tick once its fan-out returned the peels' `views`: takes
    /// its state back, and returns the settle task's abort, or the report
    /// with the tick's health and verified receipts, and verification's
    /// first failure.
    fn finish(
        &mut self,
        stages: Stages,
        views: Vec<Peeled>,
    ) -> Result<(TickReport, Option<PipelineError>), PipelineError> {
        let tick = stages.tick;
        let (mut report, settled, checked) = self.restore(stages);
        let published = "the settle task publishes before it returns";
        let (_, health) = settled.into_inner().expect(published)?;
        let (jobs, pass1_err) = checked.into_inner().expect(published);
        let views = views.into_iter().flatten();
        let (verified, err) = check_peeled(tick, &self.shards, &jobs, views, pass1_err);
        report.health = health;
        report.verified = verified;
        Ok((report, err))
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
    /// tracked order, moving every owner's request to its new shard (segment
    /// and seed are set per tick). Only the first call, on empty buffers,
    /// builds the requests.
    fn route_requests(&mut self) {
        let mut requests: Vec<Option<AnonymizeRequest>> =
            (0..self.tracked.len()).map(|_| None).collect();
        for shard in &mut self.shards {
            for (request, i) in shard.requests.drain(..).zip(shard.owners.drain(..)) {
                requests[i] = Some(request);
            }
        }
        for ((i, t), request) in self.tracked.iter().enumerate().zip(requests) {
            let shard = &mut self.shards[t.shard];
            shard.requests.push(
                request.unwrap_or_else(|| AnonymizeRequest::new(t.owner.clone(), t.segment, 0)),
            );
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
        self.attack.as_ref().map(|leg| &leg.engine().summary)
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
        self.attack.as_ref().map(|leg| leg.engine().observe_time)
    }

    /// Total wall time inside the NRE adversary's `observe` calls,
    /// replay inversion included (`None` when the leg or the control
    /// is off).
    pub fn baseline_observe_time(&self) -> Option<Duration> {
        self.nre_observer().map(|nre| nre.observe_time)
    }

    /// The attack leg's NRE observer, when the leg and its control are on.
    fn nre_observer(&self) -> Option<&Observer> {
        self.attack.as_ref().and_then(AttackLeg::nre)
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
}

/// One tick's anonymizer half as the ordered tasks of one fan-out
/// ([`run`](Stages::run)). Each stage writes its outputs once into slots
/// and waits only for slots of lower-numbered tasks:
///
/// 1. the key pass, in (shard, request) order, publishing each request's
///    keys as it derives them;
/// 2. one cloak task per chunk of a shard's requests, cloaking each
///    request as soon as its keys are out;
/// 3. the settle task: once every request is cloaked, the injected
///    crash, the journal retry ladder and the injected cloak failures, in
///    (shard, request) order; it publishes the final results (or the
///    abort), then verification's pass 1;
/// 4. the legs, longest first — the NRE control, the engine adversary,
///    the report leg (digest, quality, LBS) — once the final results are
///    out, each reaching its own state through a lock no other task
///    takes; none runs on an aborted tick, and all run whether or not
///    verification fails, so cumulative attack rollups do not depend on
///    where a tick failed;
/// 5. one peel task per request, peeling the receipt pass 1 cleared at
///    its position, if any.
///
/// The key pass ratchets the chains and draws their journal coins in
/// request order, the settle task, which waits for all of it, draws the
/// retry ladder's and the cloak faults' coins in request order, each leg
/// writes only its own outputs and results return in task order, so
/// reports are identical at any worker count.
///
/// The stages own what their tasks read, so that the pipeline's kept
/// threads can run them: the pipeline moves its shards, its legs' state
/// and its grant flags in, and takes them back after the fan-out; the
/// service, the fault injector and the POIs are shared.
struct Stages {
    tick: u64,
    snapshot_refreshed: bool,
    /// [`PipelineConfig::verify`].
    verify: bool,
    /// [`PipelineConfig::lbs_probes`].
    lbs_probes: usize,
    /// [`PipelineConfig::fault_policy`].
    policy: FaultPolicy,
    service: Arc<AnonymizerService>,
    injector: Option<Arc<FaultInjector>>,
    pois: Option<Arc<PoiStore>>,
    shards: Vec<Shard>,
    /// Each cloak task's shard and requests, in the tick's (shard,
    /// request) order.
    chunks: Vec<(usize, Range<usize>)>,
    /// The attack leg's observers, the first legs: the NRE control's,
    /// then the engine's (none when the attack leg is off).
    observers: Vec<Mutex<Observer>>,
    /// The report leg's report and LBS query scratch: the last leg.
    report: Mutex<(TickReport, SearchScratch)>,
    /// Whether each tracked owner's auditor grant is registered; only the
    /// settle task locks it.
    registered: Mutex<Vec<bool>>,
    /// What the tick counted before its stages.
    health: TickHealth,
    /// Each request's keys, in (shard, request) order.
    keys: Vec<Slot<KeyedRequest>>,
    /// Each cloak task's results, in request order.
    cloaked: Vec<Slot<Vec<Issued>>>,
    settled: Slot<Settled>,
    checked: Slot<Checked>,
}

/// What the settle task publishes: the results it replaced, by position
/// in the tick's (shard, request) order, and the tick's health; or the
/// error that aborts the tick.
type Settled = Result<(BTreeMap<usize, Issued>, TickHealth), PipelineError>;

/// Verification's pass 1: the peel jobs of the receipts before its first
/// failure, and that failure.
type Checked = (Vec<PeelJob>, Option<PipelineError>);

/// What a peel task returns: the view of the receipt it peeled, if any.
type Peeled = Option<Result<DeanonymizedView, DeanonError>>;

impl Stages {
    /// The task that settles the tick: the one after the key pass and
    /// the cloak tasks.
    fn settle_task(&self) -> usize {
        1 + self.chunks.len()
    }

    /// How many tasks the tick's fan-out runs.
    fn tasks(&self) -> usize {
        let peels = if self.verify { self.keys.len() } else { 0 };
        self.settle_task() + 1 + self.legs() + peels
    }

    /// Runs task `task` with the worker's `scratch`; a peel task returns
    /// its view.
    fn run(&self, scratch: &mut CloakScratch, task: usize) -> Peeled {
        let settle = self.settle_task();
        let peels = settle + 1 + self.legs();
        match task {
            0 => self.derive_keys(),
            t if t < settle => self.cloak(t - 1, scratch),
            t if t == settle => self.settle(scratch),
            t if t < peels => self.leg(t - settle - 1),
            t => return self.peel(t - peels, scratch),
        }
        None
    }

    /// The key pass: ratchets every request's chain in (shard, request)
    /// order, so journal appends, epochs and journal-fault coins fall the
    /// same way at any worker count, and publishes each request's keys
    /// as it derives them.
    fn derive_keys(&self) {
        let _guard = Slot::guard(&self.keys);
        let requests = self.shards.iter().flat_map(|shard| &shard.requests);
        for (keys, request) in self.keys.iter().zip(requests) {
            keys.set(self.service.derive_keys(request));
        }
    }

    /// Cloak task `c`: its chunk of one shard's requests, each cloaked
    /// against the shard's snapshot with the worker's kept scratch as
    /// soon as its keys are out. These are
    /// [`AnonymizerService::anonymize_batch`]'s keyed halves. Tracked
    /// owners are distinct across all shards, so no request repeats an
    /// owner and no two tasks store the same owner's record.
    fn cloak(&self, c: usize, scratch: &mut CloakScratch) {
        let _guard = Slot::guard(std::slice::from_ref(&self.cloaked[c]));
        let (p, run) = &self.chunks[c];
        let shard = &self.shards[*p];
        let requests = &shard.requests[run.start - shard.start..run.end - shard.start];
        let issue = |(request, keys): (_, &Slot<_>)| {
            self.service
                .issue_request(&shard.snapshot, request, keys.wait(), scratch)
        };
        let issued = requests.iter().zip(&self.keys[run.clone()]).map(issue);
        self.cloaked[c].set(issued.collect());
    }

    /// Every request's cloak, in (shard, request) order, each chunk's
    /// once its task is done.
    fn cloaks(&self) -> impl Iterator<Item = &Issued> {
        self.cloaked.iter().flat_map(Slot::wait)
    }

    /// The settle task: publishes the final results (or the abort), then
    /// verification's pass 1 over them.
    fn settle(&self, scratch: &mut CloakScratch) {
        let _guards = (
            Slot::guard(std::slice::from_ref(&self.settled)),
            Slot::guard(std::slice::from_ref(&self.checked)),
        );
        self.settled.set(self.retry_and_inject(scratch));
        self.checked.set(match self.results() {
            Some(results) if self.verify => self.check_issued(&results),
            _ => (Vec::new(), None),
        });
    }

    /// Settling, once every request is cloaked: the injected crash, the
    /// journal retry ladder, then the injected cloak failures, each in
    /// (shard, request) order.
    fn retry_and_inject(&self, scratch: &mut CloakScratch) -> Settled {
        let cloaks: Vec<&Issued> = self.cloaks().collect();
        // Injected crash between ratchet-advance and receipt-issue: the
        // key pass journaled every owner's advance, but no receipt reaches
        // the stream. This is exactly the window the write-ahead journal
        // exists for — recovery must resume past the journaled epochs.
        if self
            .injector
            .as_ref()
            .is_some_and(|i| i.crash_due(self.tick))
        {
            return Err(PipelineError {
                message: format!(
                    "tick {}: injected crash between ratchet-advance and receipt-issue",
                    self.tick
                ),
            });
        }

        // Degradation ladder for journal write failures, in request
        // order: retry, then skip the owner and count it, then abort
        // once the tick's skip budget is blown. A failed
        // advance never committed the chain, so a successful retry
        // re-derives the same epoch from the same request seed and
        // cloaks against the shard's snapshot — the recovered
        // receipt is bit-identical to the one the fault suppressed,
        // keeping the stream digest on its fault-free value.
        let policy = &self.policy;
        let persisted = |result: &Issued| !matches!(result, Err(CloakError::Persistence(_)));
        let (mut health, mut fixes) = (self.health, BTreeMap::new());
        for shard in &self.shards {
            for (g, request) in shard.range().zip(&shard.requests) {
                if persisted(cloaks[g]) {
                    continue;
                }
                let mut retried = None;
                for _ in 0..policy.journal_retries {
                    health.journal_retries += 1;
                    let keys = self.service.derive_keys(request);
                    let issued =
                        self.service
                            .issue_request(&shard.snapshot, request, &keys, scratch);
                    let done = persisted(&issued);
                    retried = Some(issued);
                    if done {
                        break;
                    }
                }
                if !retried.as_ref().is_some_and(persisted) {
                    health.journal_skips += 1;
                }
                fixes.extend(retried.map(|issued| (g, issued)));
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
            for (g, &cloak) in cloaks.iter().enumerate() {
                let issued = fixes.get(&g).unwrap_or(cloak);
                if issued.is_ok() && injector.cloak_fault() {
                    health.injected_cloak_failures += 1;
                    let failed = CloakError::CloakingFailed {
                        level: Level(0),
                        reason: StepFailure::NoCandidates,
                    };
                    fixes.insert(g, Err(failed));
                }
            }
        }
        Ok((fixes, health))
    }

    /// The tick's final results in (shard, request) order, once the
    /// settle task published them: each request's cloak, unless settling
    /// replaced it. `None` when the tick aborted.
    fn results(&self) -> Option<Vec<&Issued>> {
        let (fixes, _) = self.settled.wait().as_ref().ok()?;
        let results = self.cloaks().enumerate();
        Some(
            results
                .map(|(g, cloak)| fixes.get(&g).unwrap_or(cloak))
                .collect(),
        )
    }

    /// Verification's pass 1, in (shard, receipt) order: k-anonymity on
    /// the issuing shard's snapshot, region membership, and grant
    /// preservation (the auditor registers at an owner's first cloak,
    /// then fetches the owner's keys). It stops at its first failure and
    /// returns the peel jobs of the receipts before it, with the failure.
    fn check_issued(&self, results: &[&Issued]) -> Checked {
        let k = self.profile().top_requirement().k as u64;
        let mut registered = self
            .registered
            .lock()
            .expect("only the settle task locks the grant flags");
        let mut jobs = Vec::new();
        for (p, shard) in self.shards.iter().enumerate() {
            for (r, (i, request, result)) in shard.entries(results).enumerate() {
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
                if !registered[i] {
                    if !self
                        .service
                        .register_requester(owner, AUDITOR, TrustDegree(10), Level(0))
                    {
                        return (jobs, fail("owner record missing right after anonymization"));
                    }
                    registered[i] = true;
                }
                match self.service.fetch_keys(owner, AUDITOR) {
                    Ok(keys) => jobs.push(((p, r), Arc::clone(&receipt.payload), keys)),
                    Err(e) => {
                        let what = format!("grant lost across re-anonymization: {e}");
                        return (jobs, fail(&what));
                    }
                }
            }
        }
        (jobs, None)
    }

    /// Leg task `l`, once the final results are out; no leg runs on an
    /// aborted tick.
    fn leg(&self, l: usize) {
        let Some(results) = self.results() else {
            return;
        };
        let (net, profile, shards) = (self.service.network(), self.profile(), &self.shards);
        let only = "only this task locks its leg";
        match self.observers.get(l) {
            Some(observer) => observer.lock().expect(only).observe_tick(
                net,
                profile,
                self.tick,
                self.snapshot_refreshed,
                shards,
                &results,
            ),
            None => {
                let (report, lbs_scratch) = &mut *self.report.lock().expect(only);
                record_receipts(
                    report,
                    shards,
                    &results,
                    net,
                    profile,
                    self.pois.as_deref(),
                    self.lbs_probes,
                    lbs_scratch,
                );
            }
        }
    }

    /// How many leg tasks the tick runs: the observers, then the report
    /// leg.
    fn legs(&self) -> usize {
        self.observers.len() + 1
    }

    /// Peel task `j`: verification's pass 2 for the `j`-th receipt pass 1
    /// cleared, if there is one.
    fn peel(&self, j: usize, scratch: &mut CloakScratch) -> Peeled {
        let (_, payload, keys) = self.checked.wait().0.get(j)?;
        let (net, engine) = (self.service.network(), self.service.engine());
        Some(deanonymize_with_scratch(
            net, payload, keys, engine, scratch,
        ))
    }

    /// The service's default privacy profile, which every request is
    /// issued and checked under.
    fn profile(&self) -> &PrivacyProfile {
        &self.service.config().default_profile
    }
}

/// A receipt that passed verification's pass 1: its request's shard
/// and position in the shard, its payload and the auditor's fetched
/// keys, to be peeled.
type PeelJob = ((usize, usize), Arc<CloakPayload>, Vec<(Level, Key256)>);

/// An invariant violation of `owner`'s receipt at `tick`.
fn violation(tick: u64, owner: &str, what: &str) -> PipelineError {
    PipelineError {
        message: format!("tick {tick}: {owner}: {what}"),
    }
}

/// Verification's pass 2: checks each job's peeled view for exact
/// reversibility against its request in `shards`, in job order. Returns
/// `(verified, error)`: the jobs before the first failure, and that
/// failure, else `pass1_err`. Every job precedes pass 1's failure, so
/// the error is the first in (shard, receipt) order on either pass.
fn check_peeled(
    tick: u64,
    shards: &[Shard],
    jobs: &[PeelJob],
    views: impl IntoIterator<Item = Result<DeanonymizedView, DeanonError>>,
    pass1_err: Option<PipelineError>,
) -> (usize, Option<PipelineError>) {
    let mut verified = 0;
    for (&((p, r), _, _), view) in jobs.iter().zip(views) {
        let request = &shards[p].requests[r];
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

/// The report leg over the tick's final `results`: each shard's receipt
/// digest, the region-quality rollup against the issuing snapshots, and
/// LBS nearest-POI queries over the tick's first `lbs_probes` issued
/// receipts (none without `pois`).
#[allow(clippy::too_many_arguments)]
fn record_receipts(
    report: &mut TickReport,
    shards: &[Shard],
    results: &[&Issued],
    net: &RoadNetwork,
    profile: &PrivacyProfile,
    pois: Option<&PoiStore>,
    lbs_probes: usize,
    lbs_scratch: &mut SearchScratch,
) {
    for shard in shards {
        let mut digest = FNV_OFFSET;
        for (i, request, result) in shard.entries(results) {
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
        let (engine, nre) = self
            .observers
            .split_last_mut()
            .expect("the engine stream is always watched");
        let mut nre = nre.first_mut();
        {
            let mut nre_records = nre.as_mut().map(|o| o.tick_records.drain(..));
            for record in engine.tick_records.drain(..) {
                self.records.extend(record);
                self.records
                    .extend(nre_records.as_mut().and_then(Iterator::next).flatten());
            }
        }
        AttackTickSummary {
            engine: std::mem::replace(&mut engine.tick, AttackSummary::new()),
            baseline: nre.map(|o| std::mem::replace(&mut o.tick, AttackSummary::new())),
        }
    }

    /// The engine stream's observer.
    fn engine(&self) -> &Observer {
        self.observers
            .last()
            .expect("the engine stream is always watched")
    }

    /// The NRE control's observer, when the control is on.
    fn nre(&self) -> Option<&Observer> {
        self.observers.first().filter(|o| o.control.is_some())
    }
}

impl Observer {
    /// Observes one tick's final `results` shard by shard, in receipt order: on
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
        results: &[&Issued],
    ) {
        let owners = self.owners;
        let requirement = profile.top_requirement();
        for shard in shards {
            let issuing = &shard.snapshot;
            for (i, request, result) in shard.entries(results).filter(|&(i, _, _)| i < owners) {
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
        let anonymizer = AnonymizerConfig {
            engine,
            ..Default::default()
        };
        sharded_on(anonymizer, cfg, shards)
    }

    fn sharded_on(
        anonymizer: AnonymizerConfig,
        cfg: PipelineConfig,
        shards: usize,
    ) -> ContinuousPipeline {
        ContinuousPipeline::sharded(
            grid_city(7, 7, 100.0),
            SimConfig {
                cars: 200,
                seed: 11,
                ..Default::default()
            },
            anonymizer,
            cfg,
            shards,
            Arc::new(MemStore::new()),
        )
        .unwrap()
    }

    fn workers(batch_parallelism: usize) -> AnonymizerConfig {
        AnonymizerConfig {
            batch_parallelism,
            ..Default::default()
        }
    }

    /// The attack leg's record log, both cumulative rollups and the NRE
    /// failure count.
    fn attack_state(
        p: &ContinuousPipeline,
    ) -> (
        Vec<AttackRecord>,
        Option<AttackSummary>,
        Option<AttackSummary>,
        usize,
    ) {
        (
            p.attack_records().to_vec(),
            p.attack_summary().cloned(),
            p.baseline_attack_summary().cloned(),
            p.baseline_attack_failures(),
        )
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
            let mut p = sharded_on(
                workers(parallelism),
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
            );
            (p.run(5).unwrap(), attack_state(&p))
        };
        for shards in [1, 3] {
            let sequential = run(shards, 1, None);
            let (reports, (records, ..)) = &sequential;
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
        for (shards, parallelism) in [1, 3].into_iter().flat_map(|s| [(s, 1), (s, 2), (s, 3)]) {
            let run = |fault: Option<FaultPlan>| {
                let mut p = sharded_on(
                    workers(parallelism),
                    PipelineConfig {
                        tracked_owners: 6,
                        lbs_probes: 0,
                        attack: Some(AttackConfig::default()),
                        fault,
                        fault_policy: FaultPolicy {
                            journal_retries: 8,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                    shards,
                );
                (p.run(4).unwrap(), attack_state(&p))
            };
            let at = format!("{shards} shards, {parallelism} workers");
            let (clean, clean_attack) = run(None);
            let (faulty, faulty_attack) = run(Some(FaultPlan {
                seed: 9,
                journal_write_fail: 0.4,
                ..Default::default()
            }));
            let retries: u64 = faulty.iter().map(|r| r.health.journal_retries).sum();
            assert!(retries > 0, "{at}: p=0.4 over 24 requests injects failures");
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
                "{at}"
            );
            assert!(faulty.iter().all(|r| r.verified == r.issued));
            if shards == 1 {
                assert!(faulty.iter().all(|r| r.failed == 0));
            }
            // The legs read the results after the retry ladder, so they
            // record what the fault-free run records.
            assert!(!clean_attack.0.is_empty());
            assert_eq!(clean_attack, faulty_attack, "{at}");
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

    /// The tick's stages over `p`'s shards with every request's cloak
    /// already out, as `cloaked` holds them.
    fn settling(p: &mut ContinuousPipeline, cloaked: &[Issued]) -> Stages {
        let stages = p.stages(p.blank_report(true, 0), TickHealth::default());
        for (slot, (_, run)) in stages.cloaked.iter().zip(&stages.chunks) {
            slot.set(cloaked[run.clone()].to_vec());
        }
        stages
    }

    /// Verification as the settle and peel tasks run it, on the calling
    /// thread: pass 1, then pass 2 over the peeled views.
    fn verify(p: &mut ContinuousPipeline, cloaked: &[Issued]) -> (usize, Option<PipelineError>) {
        let stages = settling(p, cloaked);
        let scratch = &mut CloakScratch::new();
        stages.settle(scratch);
        let views = (0..cloaked.len())
            .map(|j| stages.peel(j, scratch))
            .collect();
        let (report, err) = p.finish(stages, views).expect("no fault plan, no abort");
        (report.verified, err)
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
            // Receipts for the owners' own segments, as a tick's key and
            // cloak tasks issue them.
            let mut shards: Vec<Shard> = Vec::new();
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
                shards.push(Shard {
                    requests,
                    owners,
                    start: 0,
                    snapshot: p.shards[shard].snapshot.clone(),
                });
            }
            p.shards = shards;
            let cloaked: Vec<Issued> = {
                let stages = p.stages(p.blank_report(true, 0), TickHealth::default());
                let cloaks = stages.settle_task();
                let (mut stages, _) = p.run_stages(stages, 0..cloaks);
                let cloaked = std::mem::take(&mut stages.cloaked);
                p.restore(stages);
                cloaked
                    .into_iter()
                    .flat_map(|c| c.into_inner().expect("cloaked"))
                    .collect()
            };
            // Each request now claims the segment its case names.
            let mut first_failure = None;
            for (shard, claims) in p.shards.iter_mut().zip(layout) {
                let results = &cloaked[shard.range()];
                for ((request, result), &claim) in
                    shard.requests.iter_mut().zip(results).zip(claims)
                {
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
            let (verified, err) = verify(&mut p, &cloaked);
            let err = err.expect("a hand-made receipt fails");
            assert_eq!(verified, verified_before, "{err}");
            let owner = first_failure.unwrap();
            assert!(
                err.message.starts_with(&format!("tick 0: {owner}: {what}")),
                "{err}"
            );
            // The same receipts through the fan-out, from the settle task on.
            let stages = settling(&mut p, &cloaked);
            let tasks = stages.settle_task()..stages.tasks();
            let (stages, views) = p.run_stages(stages, tasks);
            let (_, settled) = p.finish(stages, views).expect("no fault plan, no abort");
            assert_eq!(settled, Some(err));
        }
    }

    #[test]
    fn aborted_ticks_run_no_leg() {
        // An injected crash at tick 3.
        let crash = FaultPlan {
            crash_at_tick: Some(3),
            ..Default::default()
        };
        // Journal faults with no retries and a budget of three skipped
        // owners: some later tick skips four and aborts.
        let journal = FaultPlan {
            seed: 3,
            journal_write_fail: 0.2,
            ..Default::default()
        };
        let strict = FaultPolicy {
            journal_retries: 0,
            max_skipped_owners: 3,
        };
        for parallelism in [1, 2] {
            for (plan, policy, what) in [
                (&crash, FaultPolicy::default(), "injected crash"),
                (&journal, strict.clone(), "owners skipped"),
            ] {
                let mut p = sharded_on(
                    workers(parallelism),
                    PipelineConfig {
                        tracked_owners: 12,
                        lbs_probes: 0,
                        attack: Some(AttackConfig::default()),
                        fault: Some(plan.clone()),
                        fault_policy: policy,
                        ..Default::default()
                    },
                    1,
                );
                // The attack state and both observe timers.
                let state = |p: &ContinuousPipeline| {
                    let timers = (p.attack_observe_time(), p.baseline_observe_time());
                    (attack_state(p), timers)
                };
                let mut before = state(&p);
                let mut ticks = 0;
                let err = loop {
                    match p.tick() {
                        Ok(_) => before = state(&p),
                        Err(e) => break e,
                    }
                    ticks += 1;
                };
                assert!(err.message.contains(what), "{err}");
                assert!(
                    ticks >= 2,
                    "{what}: legs ran before the abort ({ticks} ticks)"
                );
                let ((records, ..), _) = &before;
                assert!(!records.is_empty());
                assert_eq!(before, state(&p), "{what}, {parallelism} workers");
            }
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
