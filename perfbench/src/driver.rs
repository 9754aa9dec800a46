//! The replay driver: the pipelines' tick loops rebuilt from the
//! program's public calls, in the same order, with a span around each.
//!
//! `ContinuousReplay` mirrors `ContinuousPipeline` with the LBS and
//! attack legs on and no fault plan; `ShardedReplay` mirrors the
//! multi-shard `ShardedPipeline`. The seed constants below are the
//! pipelines' own; if the program changes them, or the order of its
//! calls, the replayed digests stop matching and the traced run fails.
//! The untraced run never uses this module.

use crate::run::{TickOutcome, Ticker};
use crate::trace::{Tracer, SETUP, TICK};
use crate::workload::Spec;
use crate::{fnv_fold, mix_seed, splitmix64, FNV_OFFSET};
use anonymizer::pipeline::AUDITOR;
use anonymizer::{
    AnonymizeReceipt, AnonymizeRequest, AnonymizerService, Deanonymizer, Engine, Partition,
    PipelineConfig,
};
use cloak::{
    random_expansion_with, AdversaryConfig, AttackSummary, CloakScratch, DeanonError,
    DeanonymizedView, ExpansionScratch, Observation, PrivacyProfile, QualitySummary, RegionQuality,
    ReplayProbe, TemporalAdversary,
};
use keystream::{ChainStore, Level, MemStore, TrustDegree};
use lbs::{nearest_query_with, PoiCategory, PoiStore, QueryStats, SearchScratch};
use mobisim::{CarId, OccupancySnapshot, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{RoadNetwork, SegmentId};
use std::sync::Arc;

/// `PipelineConfig::seed` mask of the POI generator's seed.
const POI_SEED_MASK: u64 = 0x1b5_0001;
/// `PipelineConfig::seed` mask of the adversaries' seed.
const ADVERSARY_SEED_MASK: u64 = 0x00ad_5a17;
/// Base of the NRE control's fixed per-owner seeds.
const CONTROL_SEED_BASE: u64 = 0x17e_a5ed;
/// Multiplier of the owner index in the NRE control's seeds.
const CONTROL_SEED_STRIDE: u64 = 0x100_0003;
/// `PipelineConfig::seed` mask of the partition seed.
const PARTITION_SEED_MASK: u64 = 0x5aa5_c17e;

/// Counters the spans cannot give, per tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickCounts {
    /// `AnonymizeReceipt::attempts` summed over issued receipts.
    pub attempts: u64,
    /// The LBS leg's candidate rollup.
    pub lbs: QueryStats,
    /// Movement-model BFS fallbacks of both attack streams.
    pub bfs_fallbacks: u64,
}

impl TickCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &TickCounts) {
        self.attempts += other.attempts;
        self.lbs.merge(&other.lbs);
        self.bfs_fallbacks += other.bfs_fallbacks;
    }
}

/// A traced replay of one workload's pipeline.
#[derive(Debug)]
pub struct Replay {
    tracer: Tracer,
    counts: Vec<TickCounts>,
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Continuous(Box<ContinuousReplay>),
    Sharded(Box<ShardedReplay>),
}

impl Replay {
    /// Generates the workload's inputs and builds the replica under a
    /// setup span.
    pub fn build(spec: &Spec) -> Replay {
        let mut tracer = Tracer::new();
        tracer.begin_root(SETUP, 0);
        let inner = if spec.shards == 1 {
            Inner::Continuous(Box::new(ContinuousReplay::build(spec, &mut tracer)))
        } else {
            Inner::Sharded(Box::new(ShardedReplay::build(spec, &mut tracer)))
        };
        tracer.end_root();
        Replay {
            tracer,
            counts: Vec::new(),
            inner,
        }
    }

    /// Reserves span and counter room for `ticks` ticks in total, sized
    /// from the ticks run so far.
    pub fn reserve_for(&mut self, ticks: usize) {
        let done = self.counts.len().max(1);
        let setup = self.tracer.spans().iter().filter(|s| s.tick == 0).count();
        let per_tick = (self.tracer.spans().len() - setup).div_ceil(done);
        self.tracer
            .reserve((per_tick + per_tick / 4) * ticks.saturating_sub(done));
        self.counts.reserve(ticks.saturating_sub(done));
    }

    /// The spans and per-tick counters.
    pub fn finish(self) -> (Tracer, Vec<TickCounts>) {
        (self.tracer, self.counts)
    }
}

impl Ticker for Replay {
    fn tick(&mut self) -> Result<TickOutcome, String> {
        let tick = self.counts.len() as u64 + 1;
        let mut counts = TickCounts::default();
        self.tracer.begin_root(TICK, tick);
        let out = match &mut self.inner {
            Inner::Continuous(r) => r.tick(&mut self.tracer, &mut counts),
            Inner::Sharded(r) => r.tick(&mut self.tracer, &mut counts),
        };
        self.tracer.end_root();
        self.counts.push(counts);
        out
    }
}

/// The attack leg: the engine stream's adversary and the NRE control.
#[derive(Debug)]
struct AttackReplay {
    owners: usize,
    engine: TemporalAdversary,
    control: TemporalAdversary,
    control_seeds: Vec<u64>,
    nre_scratch: ExpansionScratch,
}

/// `ContinuousPipeline::tick` with verification, LBS probes and the
/// attack leg with its NRE control.
#[derive(Debug)]
struct ContinuousReplay {
    sim: Simulation,
    service: AnonymizerService,
    dean: Deanonymizer,
    profile: PrivacyProfile,
    pois: PoiStore,
    cfg: PipelineConfig,
    tracked: Vec<CarId>,
    requests: Vec<AnonymizeRequest>,
    registered: Vec<bool>,
    spare_snapshot: Option<OccupancySnapshot>,
    verify_scratch: CloakScratch,
    lbs_scratch: SearchScratch,
    attack: AttackReplay,
    tick: u64,
}

impl ContinuousReplay {
    fn build(spec: &Spec, tr: &mut Tracer) -> ContinuousReplay {
        let cfg = spec.pipeline_config();
        let sim_cfg = spec.sim_config();
        let attack_cfg = cfg
            .attack
            .clone()
            .expect("the continuous workload runs the attack leg");
        assert!(
            cfg.fault.is_none() && cfg.lbs_probes > 0 && attack_cfg.baseline,
            "the replay mirrors a fault-free pipeline with LBS probes and the NRE control"
        );

        let s = tr.start("roadnet.map_gen");
        let net = spec.network();
        tr.end(s);
        let top_speed = sim_cfg.speed_range.1;
        let s = tr.start("mobisim.sim_new");
        let sim = Simulation::new(net.clone(), sim_cfg);
        tr.end(s);
        let s = tr.start("anonymizer.service_new");
        let service =
            AnonymizerService::with_store(net, spec.anonymizer_config(), Arc::new(MemStore::new()))
                .expect("an empty MemStore never fails to load");
        tr.end(s);
        // The pipeline builds the index lazily, inside the first
        // adversary's constructor; building it here is the same work,
        // timed on its own.
        let s = tr.start("roadnet.index");
        service.network().graph_index();
        tr.end(s);
        let s = tr.start("snapshot.refresh");
        service.update_snapshot(OccupancySnapshot::capture(&sim));
        tr.end(s);
        let s = tr.start("anonymizer.service_new");
        let dean = Deanonymizer::new(
            service.network_arc(),
            Engine::build(service.network(), service.config().engine),
        );
        tr.end(s);
        let profile = service.config().default_profile.clone();
        let s = tr.start("lbs.poi_gen");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ POI_SEED_MASK);
        let pois = PoiStore::generate(service.network(), cfg.poi_count.max(1), &mut rng);
        tr.end(s);

        let owners = cfg.tracked_owners.min(sim.cars().len());
        let tracked = (0..owners).map(|i| CarId(i as u32)).collect();
        let requests = (0..owners)
            .map(|i| AnonymizeRequest::new(format!("car-{i}"), SegmentId(0), 0))
            .collect();

        let s = tr.start("attack.setup");
        let adversary_cfg = AdversaryConfig {
            mode: attack_cfg.mode,
            max_speed: top_speed,
            dt: cfg.dt,
            seed: cfg.seed ^ ADVERSARY_SEED_MASK,
        };
        let attack_owners = attack_cfg.owners.min(owners);
        let attack = AttackReplay {
            owners: attack_owners,
            engine: TemporalAdversary::new(service.network(), adversary_cfg.clone()),
            control: TemporalAdversary::new(service.network(), adversary_cfg),
            control_seeds: (0..attack_owners)
                .map(|i| {
                    splitmix64(CONTROL_SEED_BASE ^ (i as u64).wrapping_mul(CONTROL_SEED_STRIDE))
                })
                .collect(),
            nre_scratch: ExpansionScratch::new(),
        };
        tr.end(s);

        ContinuousReplay {
            sim,
            service,
            dean,
            profile,
            pois,
            cfg,
            tracked,
            requests,
            registered: vec![false; owners],
            spare_snapshot: None,
            verify_scratch: CloakScratch::new(),
            lbs_scratch: SearchScratch::new(),
            attack,
            tick: 0,
        }
    }

    fn tick(&mut self, tr: &mut Tracer, counts: &mut TickCounts) -> Result<TickOutcome, String> {
        self.tick += 1;
        let tick = self.tick;
        let s = tr.start("mobisim.step");
        self.sim.step(self.cfg.dt);
        tr.end(s);

        let refreshed = tick.is_multiple_of(self.cfg.snapshot_cadence.max(1) as u64);
        if refreshed {
            let s = tr.start("snapshot.refresh");
            let mut snap = self
                .spare_snapshot
                .take()
                .unwrap_or_else(|| OccupancySnapshot::from_counts(Vec::new()));
            self.sim.capture_into(&mut snap);
            let previous = self.service.swap_snapshot(snap);
            self.spare_snapshot = Arc::try_unwrap(previous).ok();
            tr.end(s);
        }
        let issuing = self.service.snapshot();
        for (i, (car, request)) in self.tracked.iter().zip(&mut self.requests).enumerate() {
            request.segment = self
                .sim
                .car_segment(*car)
                .expect("tracked cars exist for the simulation's lifetime");
            request.seed = mix_seed(self.cfg.seed, tick, i as u64);
        }
        let s = tr.start("anonymizer.issue");
        let results = self.service.anonymize_batch(&self.requests);
        tr.end(s);

        let mut out = empty_outcome(tick, 0);
        let net = self.service.network();
        for (i, (request, result)) in self.requests.iter().zip(&results).enumerate() {
            let Ok(receipt) = result else {
                out.failed += 1;
                continue;
            };
            out.issued += 1;
            counts.attempts += u64::from(receipt.attempts);
            let s = tr.start("cloak.quality");
            record_receipt(
                &mut out.digest,
                &mut out.quality,
                net,
                &issuing,
                &self.profile,
                request,
                receipt,
            );
            tr.end(s);
            if out.issued - 1 < self.cfg.lbs_probes {
                let s = tr.start("lbs.query");
                let category = PoiCategory::ALL[i % PoiCategory::ALL.len()];
                counts.lbs.record(&nearest_query_with(
                    net,
                    &self.pois,
                    &receipt.payload.segments,
                    category,
                    &mut self.lbs_scratch,
                ));
                tr.end(s);
            }
        }

        // Verification, pass 1: k-anonymity, membership and the
        // auditor's grant, in receipt order.
        let k = u64::from(self.profile.top_requirement().k);
        let mut jobs = Vec::new();
        for (i, (request, result)) in self.requests.iter().zip(&results).enumerate() {
            let Ok(receipt) = result else { continue };
            check_region(tick, &issuing, k, request, receipt)?;
            if !self.registered[i] {
                let s = tr.start("anonymizer.keys");
                let ok = self.service.register_requester(
                    &request.owner,
                    AUDITOR,
                    TrustDegree(10),
                    Level(0),
                );
                tr.end(s);
                if !ok {
                    return Err(fail(
                        tick,
                        request,
                        "owner record missing after anonymization",
                    ));
                }
                self.registered[i] = true;
            }
            let s = tr.start("anonymizer.keys");
            let keys = self.service.fetch_keys(&request.owner, AUDITOR);
            tr.end(s);
            let keys = keys.map_err(|e| fail(tick, request, &format!("grant lost: {e}")))?;
            jobs.push((i, &receipt.payload, keys));
        }
        // Pass 2: exact reversibility, batched over one scratch.
        let s = tr.start("anonymizer.reduce");
        let views = self.dean.reduce_batch_with(
            jobs.iter()
                .map(|(_, payload, keys)| (payload.as_ref(), keys.as_slice())),
            &mut self.verify_scratch,
        );
        tr.end(s);
        for ((i, _, _), view) in jobs.iter().zip(views) {
            check_view(tick, &self.requests[*i], view)?;
            out.verified += 1;
        }

        // The attack leg: both adversaries see the tick's population,
        // then each observed owner's engine region and NRE control.
        let leg = &mut self.attack;
        let observed = || {
            self.requests
                .iter()
                .take(leg.owners)
                .map(|r| r.owner.as_str())
        };
        let s = tr.start("attack.engine");
        leg.engine
            .begin_tick_population(&issuing, refreshed, observed());
        tr.end(s);
        let s = tr.start("attack.nre");
        leg.control
            .begin_tick_population(&issuing, refreshed, observed());
        tr.end(s);
        let mut engine_tick = AttackSummary::new();
        let mut control_tick = AttackSummary::new();
        for (i, (request, result)) in self.requests.iter().zip(&results).enumerate() {
            if i >= leg.owners {
                break;
            }
            let Ok(receipt) = result else { continue };
            let s = tr.start("attack.engine");
            let observation = leg.engine.observe(
                net,
                &request.owner,
                Observation {
                    tick,
                    region: &receipt.payload.segments,
                    snapshot: &issuing,
                    snapshot_fresh: refreshed,
                },
                None,
                Some(request.segment),
            );
            tr.end(s);
            engine_tick.record(&observation);

            let s = tr.start("attack.nre");
            let requirement = self.profile.top_requirement();
            let seed = leg.control_seeds[i];
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(control) = random_expansion_with(
                net,
                &issuing,
                request.segment,
                requirement,
                &mut rng,
                &mut leg.nre_scratch,
            ) {
                let observation = leg.control.observe(
                    net,
                    &request.owner,
                    Observation {
                        tick,
                        region: &control.segments,
                        snapshot: &issuing,
                        snapshot_fresh: refreshed,
                    },
                    Some(ReplayProbe { requirement, seed }),
                    Some(request.segment),
                );
                control_tick.record(&observation);
            }
            tr.end(s);
        }
        counts.bfs_fallbacks = engine_tick.movement_fallbacks() + control_tick.movement_fallbacks();
        out.attack = Some(engine_tick);
        Ok(out)
    }
}

/// One tracked owner of the sharded replay.
#[derive(Debug)]
struct Owner {
    car: CarId,
    name: String,
    shard: usize,
    segment: SegmentId,
}

/// One partition's service and its request buffer.
#[derive(Debug)]
struct ShardReplay {
    service: AnonymizerService,
    dean: Deanonymizer,
    requests: Vec<AnonymizeRequest>,
    request_idx: Vec<usize>,
}

/// The multi-shard tick of `ShardedPipeline`.
#[derive(Debug)]
struct ShardedReplay {
    sim: Simulation,
    partition: Partition,
    cfg: PipelineConfig,
    profile: PrivacyProfile,
    shards: Vec<ShardReplay>,
    tracked: Vec<Owner>,
    registered: Vec<bool>,
    counts: Vec<u32>,
    verify_scratch: CloakScratch,
    tick: u64,
}

impl ShardedReplay {
    fn build(spec: &Spec, tr: &mut Tracer) -> ShardedReplay {
        let cfg = spec.pipeline_config();
        let anon_cfg = spec.anonymizer_config();
        let s = tr.start("roadnet.map_gen");
        let net = spec.network();
        tr.end(s);
        let s = tr.start("shard.partition");
        let partition = Partition::grow(&net, spec.shards, cfg.seed ^ PARTITION_SEED_MASK);
        tr.end(s);
        let s = tr.start("roadnet.index");
        net.graph_index();
        tr.end(s);
        let s = tr.start("mobisim.sim_new");
        let sim = Simulation::new(net.share_index(), spec.sim_config());
        tr.end(s);
        let s = tr.start("anonymizer.service_new");
        let store: Arc<dyn ChainStore> = Arc::new(MemStore::new());
        let shards = (0..partition.shards())
            .map(|_| {
                let service = AnonymizerService::with_store(
                    net.share_index(),
                    anon_cfg.clone(),
                    Arc::clone(&store),
                )
                .expect("an empty MemStore never fails to load");
                let dean = Deanonymizer::new(
                    service.network_arc(),
                    Engine::build(service.network(), service.config().engine),
                );
                ShardReplay {
                    service,
                    dean,
                    requests: Vec::new(),
                    request_idx: Vec::new(),
                }
            })
            .collect();
        tr.end(s);
        let owners = cfg.tracked_owners.min(sim.cars().len());
        let tracked = (0..owners)
            .map(|i| {
                let car = CarId(i as u32);
                let segment = sim
                    .car_segment(car)
                    .expect("tracked cars exist for the simulation's lifetime");
                Owner {
                    car,
                    name: format!("car-{i}"),
                    shard: partition.shard_of(segment),
                    segment,
                }
            })
            .collect();
        let mut replay = ShardedReplay {
            sim,
            partition,
            profile: anon_cfg.default_profile.clone(),
            cfg,
            shards,
            tracked,
            registered: vec![false; owners],
            counts: Vec::new(),
            verify_scratch: CloakScratch::new(),
            tick: 0,
        };
        let s = tr.start("snapshot.refresh");
        replay.refresh_snapshots();
        tr.end(s);
        replay
    }

    /// One capture, then a partition-masked snapshot swapped into each
    /// shard's service.
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

    /// Moves every owner whose car left its shard's partition.
    fn migrate_owners(&mut self) -> usize {
        let mut handoffs = 0;
        for t in &mut self.tracked {
            t.segment = self
                .sim
                .car_segment(t.car)
                .expect("tracked cars exist for the simulation's lifetime");
            let dest = self.partition.shard_of(t.segment);
            if dest != t.shard {
                if let Some(handoff) = self.shards[t.shard].service.export_owner(&t.name) {
                    self.shards[dest].service.import_owner(handoff);
                }
                t.shard = dest;
                handoffs += 1;
            }
        }
        handoffs
    }

    fn tick(&mut self, tr: &mut Tracer, counts: &mut TickCounts) -> Result<TickOutcome, String> {
        self.tick += 1;
        let tick = self.tick;
        let s = tr.start("mobisim.step");
        self.sim.step(self.cfg.dt);
        tr.end(s);
        let s = tr.start("shard.handoff");
        let handoffs = self.migrate_owners();
        tr.end(s);
        if tick.is_multiple_of(self.cfg.snapshot_cadence.max(1) as u64) {
            let s = tr.start("snapshot.refresh");
            self.refresh_snapshots();
            tr.end(s);
        }
        for shard in &mut self.shards {
            shard.requests.clear();
            shard.request_idx.clear();
        }
        for (i, t) in self.tracked.iter().enumerate() {
            let shard = &mut self.shards[t.shard];
            shard.requests.push(AnonymizeRequest::new(
                t.name.clone(),
                t.segment,
                mix_seed(self.cfg.seed, tick, i as u64),
            ));
            shard.request_idx.push(i);
        }

        let mut out = empty_outcome(tick, handoffs);
        let k = u64::from(self.profile.top_requirement().k);
        for shard in &self.shards {
            let issuing = shard.service.snapshot();
            let s = tr.start("anonymizer.issue");
            let results = shard.service.anonymize_batch(&shard.requests);
            tr.end(s);
            let mut shard_digest = FNV_OFFSET;
            for (j, (request, result)) in shard.requests.iter().zip(&results).enumerate() {
                let Ok(receipt) = result else {
                    out.failed += 1;
                    continue;
                };
                out.issued += 1;
                counts.attempts += u64::from(receipt.attempts);
                let s = tr.start("cloak.quality");
                record_receipt(
                    &mut shard_digest,
                    &mut out.quality,
                    shard.service.network(),
                    &issuing,
                    &self.profile,
                    request,
                    receipt,
                );
                tr.end(s);

                check_region(tick, &issuing, k, request, receipt)?;
                let owner_idx = shard.request_idx[j];
                if !self.registered[owner_idx] {
                    let s = tr.start("anonymizer.keys");
                    let ok = shard.service.register_requester(
                        &request.owner,
                        AUDITOR,
                        TrustDegree(10),
                        Level(0),
                    );
                    tr.end(s);
                    if !ok {
                        return Err(fail(
                            tick,
                            request,
                            "owner record missing after anonymization",
                        ));
                    }
                }
                let s = tr.start("anonymizer.keys");
                let keys = shard.service.fetch_keys(&request.owner, AUDITOR);
                tr.end(s);
                let keys = keys.map_err(|e| fail(tick, request, &format!("grant lost: {e}")))?;
                let s = tr.start("anonymizer.reduce");
                let view =
                    shard
                        .dean
                        .reduce_with(&receipt.payload, &keys, &mut self.verify_scratch);
                tr.end(s);
                check_view(tick, request, view)?;
                out.verified += 1;
                self.registered[owner_idx] = true;
            }
            out.digest = fnv_fold(out.digest, &shard_digest.to_be_bytes());
        }
        Ok(out)
    }
}

fn empty_outcome(tick: u64, handoffs: usize) -> TickOutcome {
    TickOutcome {
        tick,
        issued: 0,
        failed: 0,
        verified: 0,
        handoffs,
        digest: FNV_OFFSET,
        quality: QualitySummary::new(),
        attack: None,
    }
}

/// Folds one issued receipt into a digest and a quality rollup, as the
/// pipelines do.
fn record_receipt(
    digest: &mut u64,
    quality: &mut QualitySummary,
    net: &RoadNetwork,
    issuing: &OccupancySnapshot,
    profile: &PrivacyProfile,
    request: &AnonymizeRequest,
    receipt: &AnonymizeReceipt,
) {
    *digest = fnv_fold(*digest, request.owner.as_bytes());
    *digest = fnv_fold(*digest, &receipt.payload.encode());
    quality.record(&RegionQuality::measure(
        net,
        issuing,
        profile,
        &receipt.outcome,
    ));
}

/// k-anonymity on the issuing snapshot and membership of the owner's
/// segment.
fn check_region(
    tick: u64,
    issuing: &OccupancySnapshot,
    k: u64,
    request: &AnonymizeRequest,
    receipt: &AnonymizeReceipt,
) -> Result<(), String> {
    let users = issuing.users_in(receipt.payload.segments.iter().copied());
    if users < k {
        return Err(fail(
            tick,
            request,
            &format!("region covers {users} users < k={k} at issue time"),
        ));
    }
    if !receipt.payload.contains(request.segment) {
        return Err(fail(
            tick,
            request,
            "region does not contain the owner's segment",
        ));
    }
    Ok(())
}

/// Exact reversibility: the auditor's keys peel the region down to the
/// owner's segment.
fn check_view(
    tick: u64,
    request: &AnonymizeRequest,
    view: Result<DeanonymizedView, DeanonError>,
) -> Result<(), String> {
    match view {
        Ok(view) if view.segments == [request.segment] => Ok(()),
        Ok(view) => Err(fail(
            tick,
            request,
            &format!("deanonymized to {:?}", view.segments),
        )),
        Err(e) => Err(fail(tick, request, &format!("deanonymization failed: {e}"))),
    }
}

fn fail(tick: u64, request: &AnonymizeRequest, what: &str) -> String {
    format!("tick {tick}: {}: {what}", request.owner)
}
