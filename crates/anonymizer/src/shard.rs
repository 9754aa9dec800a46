//! Sharded pipelines: city-scale anonymization by road-network
//! partition.
//!
//! One [`ContinuousPipeline`] over a 100k-segment city serializes every
//! tracked owner through one service, one snapshot, and one
//! verification sweep. This module splits the map into N connected
//! partitions ([`Partition::grow`] — seeded BFS growth, quality
//! measured by [`PartitionQuality`]) and runs one anonymization
//! pipeline per partition over the owners currently driving inside it:
//!
//! * **per-shard services** — each shard owns an [`AnonymizerService`]
//!   over a [`RoadNetwork::share_index`] clone (one
//!   [`roadnet::GraphIndex`] serves every shard) and all shards share
//!   one [`ChainStore`], so crash recovery sees one continuous journal;
//! * **per-shard snapshots** — on the snapshot cadence each shard
//!   captures the global simulation *masked to its partition* and swaps
//!   it into its own service. A receipt is k-anonymous and reversible
//!   against the snapshot of the shard that issued it, and later swaps
//!   on any shard never retroactively invalidate it. Each refresh
//!   allocates and fills one full-map count vector per shard, so it
//!   costs O(shards × segments), not O(partition);
//! * **owner handoff at tick boundaries** — when a car crosses a
//!   partition boundary, its owner's live state (forward-secret chain,
//!   stored record with its captured grants) migrates through
//!   [`AnonymizerService::export_owner`] /
//!   [`AnonymizerService::import_owner`] before any request of the new
//!   tick is issued. The chain resumes at its exported epoch, so epochs
//!   stay strictly monotone across any number of migrations, and a
//!   requester registered before the move keeps fetching keys after it.
//!
//! With `shards <= 1`, [`ShardedPipeline`] *is* a [`ContinuousPipeline`]
//! — it delegates wholesale, so the receipt stream is byte-identical to
//! the unsharded pipeline (the digest-pinning suite covers that
//! configuration unchanged). The multi-shard configuration is a
//! different deployment: masked snapshots change occupancy weights near
//! partition borders, so its digests are its own — pinned against
//! themselves by the determinism test below, not against the
//! single-shard stream.

use crate::config::AnonymizerConfig;
use crate::deanonymizer::Deanonymizer;
use crate::pipeline::{
    fnv_fold, mix_seed, ContinuousPipeline, PipelineConfig, PipelineError, AUDITOR, FNV_OFFSET,
};
use crate::service::{AnonymizeRequest, AnonymizerService, Engine};
use cloak::{CloakScratch, PrivacyProfile, QualitySummary, RegionQuality};
use keystream::{ChainStore, JournalError, Level, MemStore, TrustDegree};
use mobisim::{CarId, OccupancySnapshot, SimConfig, Simulation};
use roadnet::{RoadNetwork, SegmentId};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// A disjoint cover of a road network's segments by N connected parts.
///
/// Built by [`Partition::grow`]; consumed by [`ShardedPipeline`] to
/// route each owner to the shard owning the segment their car is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    /// `shard_of[s]` = owning shard of segment `s`.
    shard_of: Vec<u32>,
    /// Per-shard member lists, each sorted ascending.
    members: Vec<Vec<SegmentId>>,
}

impl Partition {
    /// Partitions `net` into `shards` parts by seeded balanced BFS
    /// growth: seed segments are picked farthest-point-first (the first
    /// by the seed, each next maximizing its hop distance to all
    /// previous), then the parts grow breadth-first in
    /// smallest-part-first order, so they stay connected and
    /// size-balanced. Segments unreachable from every seed (disconnected
    /// components) are flooded onto the currently smallest part
    /// component by component. Deterministic per `(net, shards, seed)`.
    ///
    /// `shards` is clamped to `[1, segment_count]`.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments.
    pub fn grow(net: &RoadNetwork, shards: usize, seed: u64) -> Partition {
        let n = net.segment_count();
        assert!(n > 0, "cannot partition an empty network");
        let shards = shards.clamp(1, n);
        let seeds = pick_seeds(net, shards, seed);

        let mut shard_of = vec![u32::MAX; n];
        let mut sizes = vec![0usize; shards];
        let mut frontiers: Vec<VecDeque<SegmentId>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        for (p, &s) in seeds.iter().enumerate() {
            shard_of[s.index()] = p as u32;
            sizes[p] += 1;
            frontiers[p].push_back(s);
        }
        // Balanced growth: each step, the smallest part with a live
        // frontier claims the unclaimed neighbors of its oldest frontier
        // segment. Every segment enters exactly one frontier once, so
        // the loop pops at most n times.
        while let Some(p) = (0..shards)
            .filter(|&p| !frontiers[p].is_empty())
            .min_by_key(|&p| (sizes[p], p))
        {
            let s = frontiers[p].pop_front().expect("frontier is non-empty");
            for &next in net.neighbor_segments_csr(s) {
                if shard_of[next.index()] == u32::MAX {
                    shard_of[next.index()] = p as u32;
                    sizes[p] += 1;
                    frontiers[p].push_back(next);
                }
            }
        }
        // Disconnected leftovers: flood each stray component onto the
        // smallest part so parts stay internally connected per component.
        let mut queue = VecDeque::new();
        for s in 0..n {
            if shard_of[s] != u32::MAX {
                continue;
            }
            let p = (0..shards)
                .min_by_key(|&p| (sizes[p], p))
                .expect("at least one shard");
            shard_of[s] = p as u32;
            sizes[p] += 1;
            queue.push_back(SegmentId(s as u32));
            while let Some(cur) = queue.pop_front() {
                for &next in net.neighbor_segments_csr(cur) {
                    if shard_of[next.index()] == u32::MAX {
                        shard_of[next.index()] = p as u32;
                        sizes[p] += 1;
                        queue.push_back(next);
                    }
                }
            }
        }

        let mut members: Vec<Vec<SegmentId>> = vec![Vec::new(); shards];
        for (s, &p) in shard_of.iter().enumerate() {
            members[p as usize].push(SegmentId(s as u32));
        }
        Partition {
            shards,
            shard_of,
            members,
        }
    }

    /// Number of parts.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The part owning segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the partitioned network.
    pub fn shard_of(&self, s: SegmentId) -> usize {
        self.shard_of[s.index()] as usize
    }

    /// The segments of part `p`, sorted ascending.
    pub fn members(&self, p: usize) -> &[SegmentId] {
        &self.members[p]
    }

    /// Measures the partition against the network it was grown on.
    pub fn quality(&self, net: &RoadNetwork) -> PartitionQuality {
        let n = net.segment_count();
        let ideal = n as f64 / self.shards as f64;
        let largest = self.members.iter().map(Vec::len).max().unwrap_or(0);
        let mut edges = 0u64;
        let mut cut = 0u64;
        for s in net.segment_ids() {
            for &t in net.neighbor_segments_csr(s) {
                if t.0 <= s.0 {
                    continue; // count each adjacency pair once
                }
                edges += 1;
                if self.shard_of[s.index()] != self.shard_of[t.index()] {
                    cut += 1;
                }
            }
        }
        let connected_parts = (0..self.shards)
            .filter(|&p| self.part_is_connected(net, p))
            .count();
        PartitionQuality {
            shards: self.shards,
            balance: if ideal > 0.0 {
                largest as f64 / ideal
            } else {
                1.0
            },
            cut_fraction: if edges > 0 {
                cut as f64 / edges as f64
            } else {
                0.0
            },
            connected_parts,
        }
    }

    /// Whether part `p` induces one connected subgraph per network
    /// component it touches. BFS growth guarantees this for connected
    /// networks; the leftover flood keeps it per stray component.
    fn part_is_connected(&self, net: &RoadNetwork, p: usize) -> bool {
        let members = &self.members[p];
        let Some(&start) = members.first() else {
            return true;
        };
        let mut seen: HashSet<SegmentId> = HashSet::new();
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(s) = queue.pop_front() {
            for &t in net.neighbor_segments_csr(s) {
                if self.shard_of[t.index()] as usize == p && seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen.len() == members.len()
    }
}

/// Farthest-point seed selection on hop distance: deterministic, spreads
/// the growth fronts so parts meet near the map's natural midlines.
fn pick_seeds(net: &RoadNetwork, shards: usize, seed: u64) -> Vec<SegmentId> {
    let n = net.segment_count();
    let first = SegmentId((crate::service::splitmix64(seed) % n as u64) as u32);
    let mut seeds = vec![first];
    // min hop distance from each segment to any chosen seed.
    let mut best = vec![u32::MAX; n];
    let mut frontier = Vec::new();
    let mut next = Vec::new();
    while seeds.len() < shards {
        // BFS from the newest seed, relaxing `best`.
        let newest = *seeds.last().expect("seeds is non-empty");
        frontier.clear();
        frontier.push(newest);
        best[newest.index()] = 0;
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            next.clear();
            for &s in &frontier {
                for &t in net.neighbor_segments_csr(s) {
                    if best[t.index()] > depth {
                        best[t.index()] = depth;
                        next.push(t);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // Farthest unclaimed segment, first-max-wins; unreachable
        // segments (u32::MAX) win outright, seeding stray components.
        let far = (0..n)
            .max_by_key(|&s| (best[s], usize::MAX - s))
            .expect("network has segments");
        if best[far] == 0 {
            // Fewer segments than shards left to distinguish: reuse is
            // impossible because shards <= n, so only a fully-claimed
            // map lands here; stop early and let growth rebalance.
            break;
        }
        seeds.push(SegmentId(far as u32));
    }
    seeds
}

/// Measured quality of a [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionQuality {
    /// Number of parts.
    pub shards: usize,
    /// Largest part size over the ideal `segments / shards` (1.0 is a
    /// perfect split; BFS growth typically stays under ~1.5).
    pub balance: f64,
    /// Fraction of segment-adjacency pairs crossing a part boundary —
    /// the handoff pressure: every tracked car crossing a cut edge
    /// migrates its owner.
    pub cut_fraction: f64,
    /// Parts whose member set induces a connected subgraph.
    pub connected_parts: usize,
}

impl std::fmt::Display for PartitionQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shards, balance {:.2}, cut {:.1}%, {} connected",
            self.shards,
            self.balance,
            self.cut_fraction * 100.0,
            self.connected_parts,
        )
    }
}

/// Per-tick metrics of a [`ShardedPipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTickReport {
    /// 1-based tick number.
    pub tick: u64,
    /// Simulation clock after this tick, in seconds.
    pub clock: f64,
    /// Whether this tick recaptured and swapped the per-shard snapshots.
    pub snapshot_refreshed: bool,
    /// Receipts issued this tick, over all shards.
    pub issued: usize,
    /// Requests that failed (dead-ended walks after retries).
    pub failed: usize,
    /// Receipts that passed the full invariant check against their
    /// issuing shard's snapshot (equals `issued` when verification is
    /// on).
    pub verified: usize,
    /// Owners migrated across a partition boundary at this tick's
    /// boundary, before any request was issued.
    pub handoffs: usize,
    /// Combined digest: the per-shard receipt-stream digests folded in
    /// shard order. For a single-shard pipeline this is exactly the
    /// [`crate::TickReport::digest`] of the underlying
    /// [`ContinuousPipeline`].
    pub digest: u64,
    /// Order-sensitive FNV digest of each shard's receipt stream.
    pub shard_digests: Vec<u64>,
    /// Region-quality rollup over every shard's receipts, measured
    /// against the snapshot each was issued under.
    pub quality: QualitySummary,
}

impl ShardTickReport {
    /// CSV header matching [`csv_row`](Self::csv_row).
    pub const CSV_HEADER: &'static str =
        "tick,clock,snapshot,issued,failed,verified,handoffs,digest,mean_region_segments";

    /// One CSV row of the per-tick metrics.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{:.1},{},{},{},{},{},{:016x},{:.2}",
            self.tick,
            self.clock,
            u8::from(self.snapshot_refreshed),
            self.issued,
            self.failed,
            self.verified,
            self.handoffs,
            self.digest,
            self.quality.mean_segments(),
        )
    }
}

/// One tracked owner of the sharded pipeline.
struct TrackedOwner {
    car: CarId,
    owner: String,
    /// Shard currently holding the owner's chain and record.
    shard: usize,
    /// The car's segment as of the current tick boundary.
    segment: SegmentId,
}

/// One partition's slice of the system.
struct ShardState {
    service: Arc<AnonymizerService>,
    dean: Deanonymizer,
    /// Request buffer reused across ticks (indices into `tracked`
    /// rebuilt per tick, owner strings cloned per tick).
    requests: Vec<AnonymizeRequest>,
    /// `tracked` indices behind `requests`, same order.
    request_idx: Vec<usize>,
}

/// The multi-shard engine behind [`ShardedPipeline`].
struct MultiShard {
    sim: Simulation,
    partition: Partition,
    cfg: PipelineConfig,
    profile: PrivacyProfile,
    shards: Vec<ShardState>,
    tracked: Vec<TrackedOwner>,
    /// Owners whose auditor grant is already registered (global — the
    /// grant migrates with the record).
    registered: HashSet<usize>,
    /// Full-map occupancy buffer reused every capture.
    counts: Vec<u32>,
    verify_scratch: CloakScratch,
    handoffs_total: u64,
    tick: u64,
}

enum Inner {
    /// `shards <= 1`: the unsharded pipeline, byte-identical receipts.
    Single(Box<ContinuousPipeline>),
    Multi(Box<MultiShard>),
}

/// N anonymization pipelines over one city, one per map partition. See
/// the module docs for the sharding model; with `shards <= 1` this is a
/// transparent wrapper over [`ContinuousPipeline`].
pub struct ShardedPipeline {
    inner: Inner,
}

impl ShardedPipeline {
    /// Builds the sharded pipeline with an in-memory chain store shared
    /// by every shard.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments.
    pub fn new(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
        shards: usize,
    ) -> Self {
        Self::with_store(
            net,
            sim_cfg,
            anon_cfg,
            cfg,
            shards,
            Arc::new(MemStore::new()),
        )
        .expect("an empty MemStore never fails to load")
    }

    /// Builds the sharded pipeline over an explicit [`ChainStore`]. All
    /// shards journal through the one store, keyed by owner, so a
    /// migrating owner's chain stays one continuous journal entry and
    /// recovery after a crash resumes it at its latest epoch regardless
    /// of which shard last ratcheted it.
    ///
    /// With `shards <= 1` this delegates to
    /// [`ContinuousPipeline::with_store`]; the multi-shard path ignores
    /// the LBS, attack, and fault legs of `cfg` (those stay single-shard
    /// instruments).
    ///
    /// # Errors
    ///
    /// Returns the [`JournalError`] if recovering the store's journaled
    /// chains fails.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments.
    pub fn with_store(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
        shards: usize,
        store: Arc<dyn ChainStore>,
    ) -> Result<Self, JournalError> {
        if shards <= 1 {
            let single = ContinuousPipeline::with_store(net, sim_cfg, anon_cfg, cfg, store)?;
            return Ok(ShardedPipeline {
                inner: Inner::Single(Box::new(single)),
            });
        }
        let partition = Partition::grow(&net, shards, cfg.seed ^ 0x5aa5_c17e);
        let shards = partition.shards();
        // Build the graph index once; every per-shard service and the
        // simulation share it through `share_index`.
        net.graph_index();
        let sim = Simulation::new(net.share_index(), sim_cfg);
        let mut shard_states = Vec::with_capacity(shards);
        for _ in 0..shards {
            let service = Arc::new(AnonymizerService::with_store(
                net.share_index(),
                anon_cfg.clone(),
                Arc::clone(&store),
            )?);
            let dean = Deanonymizer::new(
                service.network_arc(),
                Engine::build(service.network(), service.config().engine),
            );
            shard_states.push(ShardState {
                service,
                dean,
                requests: Vec::new(),
                request_idx: Vec::new(),
            });
        }
        let profile = anon_cfg.default_profile.clone();
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
        let mut multi = MultiShard {
            sim,
            partition,
            cfg,
            profile,
            shards: shard_states,
            tracked,
            registered: HashSet::new(),
            counts: Vec::new(),
            verify_scratch: CloakScratch::new(),
            handoffs_total: 0,
            tick: 0,
        };
        multi.refresh_snapshots();
        Ok(ShardedPipeline {
            inner: Inner::Multi(Box::new(multi)),
        })
    }

    fn shard_states(&self) -> &[ShardState] {
        match &self.inner {
            Inner::Single(_) => &[],
            Inner::Multi(m) => &m.shards,
        }
    }

    /// Number of shards (1 for the delegating single-shard form).
    pub fn shard_count(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Multi(m) => m.shards.len(),
        }
    }

    /// The map partition, `None` for the single-shard form (which has
    /// none).
    pub fn partition(&self) -> Option<&Partition> {
        match &self.inner {
            Inner::Single(_) => None,
            Inner::Multi(m) => Some(&m.partition),
        }
    }

    /// Ticks run so far.
    pub fn ticks_run(&self) -> u64 {
        match &self.inner {
            Inner::Single(p) => p.ticks_run(),
            Inner::Multi(m) => m.tick,
        }
    }

    /// Owners migrated across partition boundaries so far.
    pub fn handoffs_total(&self) -> u64 {
        match &self.inner {
            Inner::Single(_) => 0,
            Inner::Multi(m) => m.handoffs_total,
        }
    }

    /// The shard currently holding `owner`, `None` when untracked (or
    /// for the single-shard form, where owners never move).
    pub fn owner_shard(&self, owner: &str) -> Option<usize> {
        match &self.inner {
            Inner::Single(_) => None,
            Inner::Multi(m) => m.tracked.iter().find(|t| t.owner == owner).map(|t| t.shard),
        }
    }

    /// The owner's current chain epoch, looked up on whichever service
    /// holds the owner.
    pub fn owner_epoch(&self, owner: &str) -> Option<u64> {
        match &self.inner {
            Inner::Single(p) => p.service().owner_epoch(owner),
            Inner::Multi(_) => self
                .shard_states()
                .iter()
                .find_map(|s| s.service.owner_epoch(owner)),
        }
    }

    /// Every shard's service (one element for the single-shard form).
    pub fn services(&self) -> Vec<Arc<AnonymizerService>> {
        match &self.inner {
            Inner::Single(p) => vec![p.service()],
            Inner::Multi(m) => m.shards.iter().map(|s| Arc::clone(&s.service)).collect(),
        }
    }

    /// Advances one tick on every shard: step the global traffic once,
    /// migrate boundary-crossing owners, refresh the per-shard masked
    /// snapshots on cadence, issue each shard's batch, and verify every
    /// receipt against its issuing shard's snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if any issued receipt violates
    /// reversibility, k-anonymity at issue time, or grant preservation.
    pub fn tick(&mut self) -> Result<ShardTickReport, PipelineError> {
        match &mut self.inner {
            Inner::Single(p) => {
                let report = p.tick()?;
                Ok(ShardTickReport {
                    tick: report.tick,
                    clock: report.clock,
                    snapshot_refreshed: report.snapshot_refreshed,
                    issued: report.issued,
                    failed: report.failed,
                    verified: report.verified,
                    handoffs: 0,
                    digest: report.digest,
                    shard_digests: vec![report.digest],
                    quality: report.quality,
                })
            }
            Inner::Multi(m) => m.tick(),
        }
    }

    /// Runs `ticks` ticks, collecting one report per tick.
    ///
    /// # Errors
    ///
    /// Stops at the first [`PipelineError`], as [`tick`](Self::tick)
    /// does.
    pub fn run(&mut self, ticks: usize) -> Result<Vec<ShardTickReport>, PipelineError> {
        (0..ticks).map(|_| self.tick()).collect()
    }
}

impl std::fmt::Debug for ShardedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPipeline")
            .field("shards", &self.shard_count())
            .field("ticks", &self.ticks_run())
            .finish()
    }
}

impl MultiShard {
    /// Captures the simulation once and swaps each shard's service to a
    /// fresh snapshot masked to its partition: occupancy outside the
    /// shard is invisible to it. The masked snapshot is a full-map
    /// vector built anew for every shard, so a refresh allocates and
    /// scans O(shards × segments), however small each partition is.
    fn refresh_snapshots(&mut self) {
        self.sim.occupancy_into(&mut self.counts);
        for (p, shard) in self.shards.iter().enumerate() {
            let masked: Vec<u32> = self
                .counts
                .iter()
                .enumerate()
                .map(|(s, &c)| {
                    if self.partition.shard_of(SegmentId(s as u32)) == p {
                        c
                    } else {
                        0
                    }
                })
                .collect();
            shard
                .service
                .swap_snapshot(OccupancySnapshot::from_counts(masked));
        }
    }

    /// Migrates every owner whose car crossed a partition boundary:
    /// chain and record leave the old shard's service and land on the
    /// new one before any request of this tick is issued. Returns the
    /// number of migrations.
    fn migrate_owners(&mut self) -> usize {
        let mut handoffs = 0;
        for t in self.tracked.iter_mut() {
            t.segment = self
                .sim
                .car_segment(t.car)
                .expect("tracked cars exist for the simulation's lifetime");
            let dest = self.partition.shard_of(t.segment);
            if dest != t.shard {
                if let Some(handoff) = self.shards[t.shard].service.export_owner(&t.owner) {
                    self.shards[dest].service.import_owner(handoff);
                }
                t.shard = dest;
                handoffs += 1;
            }
        }
        self.handoffs_total += handoffs as u64;
        handoffs
    }

    fn tick(&mut self) -> Result<ShardTickReport, PipelineError> {
        self.tick += 1;
        self.sim.step(self.cfg.dt);
        let handoffs = self.migrate_owners();
        let cadence = self.cfg.snapshot_cadence.max(1) as u64;
        let snapshot_refreshed = self.tick.is_multiple_of(cadence);
        if snapshot_refreshed {
            self.refresh_snapshots();
        }

        // Route each owner to its shard's batch, preserving global owner
        // order inside every shard so per-shard streams are
        // deterministic. Request seeds mix the *global* owner index:
        // migrating never changes an owner's seed sequence.
        for shard in &mut self.shards {
            shard.requests.clear();
            shard.request_idx.clear();
        }
        for (i, t) in self.tracked.iter().enumerate() {
            let shard = &mut self.shards[t.shard];
            shard.requests.push(AnonymizeRequest::new(
                t.owner.clone(),
                t.segment,
                mix_seed(self.cfg.seed, self.tick, i as u64),
            ));
            shard.request_idx.push(i);
        }

        let mut report = ShardTickReport {
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
        };
        let mut first_err: Option<PipelineError> = None;
        for p in 0..self.shards.len() {
            let requests = std::mem::take(&mut self.shards[p].requests);
            let shard = &self.shards[p];
            let issuing = shard.service.snapshot();
            let results = shard.service.anonymize_batch(&requests);
            let mut digest = FNV_OFFSET;
            for (j, (request, result)) in requests.iter().zip(&results).enumerate() {
                let Ok(receipt) = result else {
                    report.failed += 1;
                    continue;
                };
                report.issued += 1;
                digest = fnv_fold(digest, request.owner.as_bytes());
                digest = fnv_fold(digest, &receipt.payload.encode());
                report.quality.record(&RegionQuality::measure(
                    shard.service.network(),
                    &issuing,
                    &self.profile,
                    &receipt.outcome,
                ));
                if self.cfg.verify && first_err.is_none() {
                    let owner_idx = shard.request_idx[j];
                    match verify_receipt(
                        shard,
                        &issuing,
                        &self.profile,
                        request,
                        receipt,
                        self.tick,
                        self.registered.contains(&owner_idx),
                        &mut self.verify_scratch,
                    ) {
                        Ok(()) => {
                            report.verified += 1;
                            self.registered.insert(owner_idx);
                        }
                        Err(e) => first_err = Some(e),
                    }
                }
            }
            report.shard_digests.push(digest);
            report.digest = fnv_fold(report.digest, &digest.to_be_bytes());
            self.shards[p].requests = requests;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// One receipt's invariant sweep against its issuing shard: k-anonymity
/// on the shard snapshot, region membership, grant preservation through
/// the normal key-fetch path, and exact reversibility.
#[allow(clippy::too_many_arguments)]
fn verify_receipt(
    shard: &ShardState,
    issuing: &OccupancySnapshot,
    profile: &PrivacyProfile,
    request: &AnonymizeRequest,
    receipt: &crate::service::AnonymizeReceipt,
    tick: u64,
    registered: bool,
    scratch: &mut CloakScratch,
) -> Result<(), PipelineError> {
    let owner = &request.owner;
    let fail = |what: &str| PipelineError {
        message: format!("tick {tick}: {owner}: {what}"),
    };
    let users = issuing.users_in(receipt.payload.segments.iter().copied());
    let k = profile.top_requirement().k as u64;
    if users < k {
        return Err(fail(&format!(
            "region covers {users} users < k={k} on the issuing shard snapshot"
        )));
    }
    if !receipt.payload.contains(request.segment) {
        return Err(fail("region does not contain the owner's segment"));
    }
    if !registered
        && !shard
            .service
            .register_requester(owner, AUDITOR, TrustDegree(10), Level(0))
    {
        return Err(fail("owner record missing right after anonymization"));
    }
    let keys = shard
        .service
        .fetch_keys(owner, AUDITOR)
        .map_err(|e| fail(&format!("grant lost across re-anonymization: {e}")))?;
    let view = shard
        .dean
        .reduce_with(&receipt.payload, &keys, scratch)
        .map_err(|e| fail(&format!("deanonymization failed: {e}")))?;
    if view.segments != [request.segment] {
        return Err(fail(&format!(
            "deanonymized to {:?}, expected exactly [{}]",
            view.segments, request.segment
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::{city_map, grid_city};

    #[test]
    fn partition_covers_connects_and_balances() {
        let net = city_map(3, 2000);
        for shards in [2usize, 4, 8] {
            let part = Partition::grow(&net, shards, 0xbeef);
            assert_eq!(part.shards(), shards);
            let mut covered = 0usize;
            for p in 0..shards {
                covered += part.members(p).len();
                for &s in part.members(p) {
                    assert_eq!(part.shard_of(s), p);
                }
            }
            assert_eq!(covered, net.segment_count(), "parts are a disjoint cover");
            let quality = part.quality(&net);
            assert_eq!(
                quality.connected_parts, shards,
                "BFS growth stays connected"
            );
            assert!(
                quality.balance < 1.8,
                "{shards} shards: balance {:.2}",
                quality.balance
            );
            assert!(
                quality.cut_fraction < 0.25,
                "{shards} shards: cut {:.2}",
                quality.cut_fraction
            );
            assert!(format!("{quality}").contains("shards"));
        }
    }

    #[test]
    fn partition_is_deterministic_per_seed() {
        let net = city_map(9, 1200);
        let a = Partition::grow(&net, 4, 7);
        let b = Partition::grow(&net, 4, 7);
        assert_eq!(a, b);
        let c = Partition::grow(&net, 4, 8);
        assert_ne!(a, c, "a different seed grows a different partition");
    }

    fn sharded(shards: usize, cfg: PipelineConfig) -> ShardedPipeline {
        ShardedPipeline::new(
            grid_city(8, 8, 100.0),
            SimConfig {
                cars: 400,
                seed: 23,
                ..Default::default()
            },
            AnonymizerConfig::default(),
            cfg,
            shards,
        )
    }

    #[test]
    fn sharded_ticks_issue_verify_and_hand_off() {
        let mut p = sharded(
            3,
            PipelineConfig {
                tracked_owners: 12,
                lbs_probes: 0,
                ..Default::default()
            },
        );
        assert_eq!(p.shard_count(), 3);
        let quality = p
            .partition()
            .expect("multi-shard")
            .quality(p.services()[0].network());
        assert_eq!(quality.connected_parts, 3);
        let reports = p.run(8).unwrap();
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.tick, i as u64 + 1);
            assert_eq!(r.issued + r.failed, 12);
            assert_eq!(r.verified, r.issued, "issued receipts all verify");
            assert_eq!(r.shard_digests.len(), 3);
        }
        // Owners are spread over the services, none lost, none doubled.
        let owners: usize = p.services().iter().map(|s| s.owner_count()).sum();
        assert_eq!(owners, 12, "each owner's record lives on exactly one shard");
        assert!(
            p.handoffs_total() > 0,
            "8 ticks of driving crosses a partition boundary"
        );
        assert_eq!(p.ticks_run(), 8);
    }

    #[test]
    fn single_shard_delegates_to_the_continuous_pipeline() {
        // Byte-identical receipts: the single-shard form *is* the
        // unsharded pipeline, digest for digest.
        let cfg = PipelineConfig {
            tracked_owners: 6,
            ..Default::default()
        };
        let mut sharded = sharded(1, cfg.clone());
        let mut plain = ContinuousPipeline::new(
            grid_city(8, 8, 100.0),
            SimConfig {
                cars: 400,
                seed: 23,
                ..Default::default()
            },
            AnonymizerConfig::default(),
            cfg,
        );
        let a = sharded.run(4).unwrap();
        let b = plain.run(4).unwrap();
        assert_eq!(a.len(), b.len());
        for (s, p) in a.iter().zip(&b) {
            assert_eq!(s.digest, p.digest, "tick {}", s.tick);
            assert_eq!(s.shard_digests, vec![p.digest]);
            assert_eq!(s.issued, p.issued);
            assert_eq!(s.verified, p.verified);
            assert_eq!(s.handoffs, 0);
        }
        assert_eq!(sharded.shard_count(), 1);
        assert!(sharded.partition().is_none());
        assert_eq!(sharded.handoffs_total(), 0);
    }

    #[test]
    fn handoff_keeps_epochs_monotone_and_grants_valid() {
        let mut p = sharded(
            4,
            PipelineConfig {
                tracked_owners: 10,
                ..Default::default()
            },
        );
        let owners: Vec<String> = (0..10).map(|i| format!("car-{i}")).collect();
        // First tick issues everyone's first receipt; then grant an
        // external requester on every owner, on whichever shard
        // currently holds it.
        p.tick().unwrap();
        for owner in &owners {
            let shard = p.owner_shard(owner).expect("tracked owner");
            assert!(p.services()[shard].register_requester(
                owner,
                "observer",
                TrustDegree(10),
                Level(0)
            ));
        }
        let mut last_epoch: Vec<u64> = owners
            .iter()
            .map(|o| p.owner_epoch(o).expect("anonymized on tick 1"))
            .collect();
        let mut last_shard: Vec<usize> = owners.iter().map(|o| p.owner_shard(o).unwrap()).collect();
        let mut migrated_after_grant = 0usize;
        for _ in 0..10 {
            let report = p.tick().unwrap();
            assert_eq!(report.verified, report.issued);
            for (i, owner) in owners.iter().enumerate() {
                let epoch = p.owner_epoch(owner).expect("chain survives migration");
                assert!(
                    epoch > last_epoch[i],
                    "{owner}: epoch {epoch} did not advance past {} across \
                     a tick (a genesis reset would restart at 0)",
                    last_epoch[i]
                );
                last_epoch[i] = epoch;
                let shard = p.owner_shard(owner).unwrap();
                if shard != last_shard[i] {
                    migrated_after_grant += 1;
                    last_shard[i] = shard;
                }
                // The pre-migration grant keeps working on whichever
                // shard holds the owner now — and only there.
                for (s, service) in p.services().iter().enumerate() {
                    let fetched = service.fetch_keys(owner, "observer");
                    if s == shard {
                        assert!(
                            !fetched.unwrap().is_empty(),
                            "{owner}: grant lost after landing on shard {s}"
                        );
                    } else {
                        assert!(
                            fetched.is_err(),
                            "{owner}: stale state left behind on shard {s}"
                        );
                    }
                }
            }
        }
        assert!(
            migrated_after_grant > 0,
            "10 ticks of driving never crossed a partition boundary"
        );
    }

    #[test]
    fn sharded_streams_are_deterministic() {
        let run = || {
            sharded(
                4,
                PipelineConfig {
                    tracked_owners: 10,
                    lbs_probes: 0,
                    ..Default::default()
                },
            )
            .run(5)
            .unwrap()
            .iter()
            .map(|r| (r.digest, r.shard_digests.clone(), r.handoffs))
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same config, same sharded stream");
    }
}
