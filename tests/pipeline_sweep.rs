//! Every configuration, not only the pinned ones: a seeded sweep over
//! the space of pipelines the library accepts.
//!
//! Each case draws a map (an n×n grid, or a generated city of up to
//! 2,000 segments), 1–4 shards, RGE or RPLE, a 1–4-level profile, 1–48
//! owners, a snapshot cadence of 1–3, one fault kind (or none) with 0–8
//! journal retries, the attack leg off or on in any mode with or
//! without the NRE control, 0–4 LBS probes, and an in-memory or a file
//! chain store. It runs the case at 1, 2 and 3 workers and checks:
//!
//! * whole reports are equal at every worker count: digests, health,
//!   attack rollups and records;
//! * every issued receipt passes the pipeline's per-tick invariants
//!   (exact deanonymization, issue-time k-anonymity, grant
//!   preservation): verification is on, so a violation fails the tick;
//! * with a file store, a kill at a drawn tick and a reopen keep every
//!   owner's epoch monotone, and the grants captured before the kill
//!   still open the receipts they were captured with.
//!
//! A failing case prints its configuration and seed. Deterministic by
//! test name; `PROPTEST_SEED` picks another sweep.

use anonymizer::pipeline::AUDITOR;
use anonymizer::{
    AnonymizerConfig, AttackConfig, AttackRecord, ContinuousPipeline, EngineChoice, FaultPlan,
    FaultPolicy, PipelineConfig, TickReport,
};
use cloak::{AdversaryMode, AttackSummary, CloakPayload, DeanonymizedView, PrivacyProfile};
use keystream::{ChainStore, FileStore, Key256, Level, MemStore};
use mobisim::SimConfig;
use proptest::prelude::*;
use roadnet::{city_map, grid_city, RoadNetwork};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Map {
    Grid(usize),
    City { seed: u64, segments: usize },
}

impl Map {
    fn build(self) -> RoadNetwork {
        match self {
            Map::Grid(n) => grid_city(n, n, 100.0),
            Map::City { seed, segments } => city_map(seed, segments),
        }
    }
}

/// The one fault kind a case injects.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    Journal(f64),
    Snapshot(f64),
    Cloak(f64),
    /// An injected crash at this tick; with a file store it is the kill.
    Crash(u64),
}

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    map: Map,
    cars: usize,
    shards: usize,
    engine: EngineChoice,
    /// `k` per level, lowest level first.
    levels: Vec<u32>,
    owners: usize,
    cadence: usize,
    fault: Fault,
    journal_retries: u32,
    /// The attack leg's mode and whether the NRE control runs.
    attack: Option<(AdversaryMode, bool)>,
    lbs_probes: usize,
    file_store: bool,
    ticks: u64,
    /// With a file store and no injected crash: the pipeline is dropped
    /// after this tick and rebuilt over the same journal.
    kill_after: Option<u64>,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let mut s = seed;
        let mut pick = |n: u64| splitmix(&mut s) % n;
        let map = if pick(2) == 0 {
            Map::Grid(4 + pick(7) as usize)
        } else {
            Map::City {
                seed: pick(1_000),
                segments: 256 + pick(1_745) as usize,
            }
        };
        let segments = match map {
            Map::Grid(n) => 2 * n * (n - 1),
            Map::City { segments, .. } => segments,
        };
        let cars = segments / 2 + pick(2 * segments as u64) as usize;
        let shards = 1 + pick(4) as usize;
        let engine = if pick(2) == 0 {
            EngineChoice::Rge
        } else {
            EngineChoice::Rple {
                t_len: 6 + pick(8) as usize,
            }
        };
        let base_k = 2 + pick(4) as u32;
        let levels = (0..1 + pick(4) as u32).map(|i| base_k * (i + 1)).collect();
        let owners = 1 + pick(48) as usize;
        let cadence = 1 + pick(3) as usize;
        let ticks = 3 + pick(2);
        let fault = match pick(5) {
            0 => Fault::None,
            1 => Fault::Journal(0.1 + pick(40) as f64 / 100.0),
            2 => Fault::Snapshot(0.1 + pick(60) as f64 / 100.0),
            3 => Fault::Cloak(0.05 + pick(30) as f64 / 100.0),
            _ => Fault::Crash(2 + pick(ticks - 1)),
        };
        let journal_retries = pick(9) as u32;
        let attack = match pick(6) {
            0 => Some(AdversaryMode::Peel),
            1 => Some(AdversaryMode::Correlate),
            2 => Some(AdversaryMode::Move),
            3 => Some(AdversaryMode::All),
            4 => Some(AdversaryMode::Adaptive),
            _ => None,
        }
        .map(|mode| (mode, pick(2) == 0));
        let lbs_probes = pick(5) as usize;
        let file_store = pick(2) == 0;
        let kill_after =
            (file_store && !matches!(fault, Fault::Crash(_))).then(|| 1 + pick(ticks - 1));
        Case {
            seed,
            map,
            cars,
            shards,
            engine,
            levels,
            owners,
            cadence,
            fault,
            journal_retries,
            attack,
            lbs_probes,
            file_store,
            ticks,
            kill_after,
        }
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        let plan = FaultPlan {
            seed: self.seed ^ 0xfa_017,
            ..Default::default()
        };
        match self.fault {
            Fault::None => None,
            Fault::Journal(p) => Some(FaultPlan {
                journal_write_fail: p,
                ..plan
            }),
            Fault::Snapshot(p) => Some(FaultPlan {
                snapshot_capture_fail: p,
                ..plan
            }),
            Fault::Cloak(p) => Some(FaultPlan {
                cloak_fail: p,
                ..plan
            }),
            Fault::Crash(tick) => Some(FaultPlan {
                crash_at_tick: Some(tick),
                ..plan
            }),
        }
    }

    /// Builds the case's pipeline over `store`, with the fault plan only
    /// when `faults` is set (a reopened pipeline runs fault-free).
    fn pipeline(
        &self,
        workers: usize,
        store: Arc<dyn ChainStore>,
        faults: bool,
    ) -> ContinuousPipeline {
        let mut profile = PrivacyProfile::builder();
        for &k in &self.levels {
            profile = profile.level(cloak::LevelRequirement::with_k(k));
        }
        ContinuousPipeline::sharded(
            self.map.build(),
            SimConfig {
                cars: self.cars,
                seed: self.seed,
                ..Default::default()
            },
            AnonymizerConfig {
                engine: self.engine,
                default_profile: profile.build().expect("k grows with the level"),
                batch_parallelism: workers,
                ..Default::default()
            },
            PipelineConfig {
                snapshot_cadence: self.cadence,
                tracked_owners: self.owners,
                seed: self.seed.rotate_left(17),
                verify: true,
                lbs_probes: self.lbs_probes,
                attack: self.attack.map(|(mode, baseline)| AttackConfig {
                    mode,
                    owners: usize::MAX,
                    baseline,
                    keep_records: true,
                }),
                fault: if faults { self.fault_plan() } else { None },
                fault_policy: FaultPolicy {
                    journal_retries: self.journal_retries,
                    ..Default::default()
                },
                ..Default::default()
            },
            self.shards,
            store,
        )
        .expect("the chain store loads")
    }
}

/// The attack leg's record log, both cumulative rollups and the NRE
/// failure count.
type AttackState = (
    Vec<AttackRecord>,
    Option<AttackSummary>,
    Option<AttackSummary>,
    usize,
);

/// Everything a run shows: every tick's report, the attack leg's log and
/// rollups, each owner's epoch after the run, and how the run ended.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    reports: Vec<TickReport>,
    attack: Vec<AttackState>,
    epochs: BTreeMap<String, u64>,
    crashed_at: Option<u64>,
}

fn journal_path(case: &Case, workers: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rcloak-sweep-{}-{:x}-{workers}.rcs",
        std::process::id(),
        case.seed
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn owner_epochs(pipeline: &ContinuousPipeline) -> BTreeMap<String, u64> {
    pipeline
        .service()
        .requester_grants(AUDITOR)
        .into_iter()
        .filter_map(|(owner, _)| pipeline.owner_epoch(&owner).map(|e| (owner, e)))
        .collect()
}

/// Every owner's last receipt with the auditor's grant for it, and what
/// the grant opens now.
type Captured = Vec<(
    String,
    Arc<CloakPayload>,
    Vec<(Level, Key256)>,
    DeanonymizedView,
)>;

fn capture_grants(pipeline: &ContinuousPipeline) -> Result<Captured, String> {
    let service = pipeline.service();
    let mut captured = Vec::new();
    for (owner, _) in service.requester_grants(AUDITOR) {
        let Some(record) = service.owner_record(&owner) else {
            continue;
        };
        let keys = service
            .fetch_keys(&owner, AUDITOR)
            .map_err(|e| format!("{owner}: grant lost before the kill: {e}"))?;
        let view = cloak::deanonymize(service.network(), &record.payload, &keys, service.engine())
            .map_err(|e| format!("{owner}: grant does not open its receipt: {e}"))?;
        if view.level != Level(0) {
            return Err(format!(
                "{owner}: the auditor's grant stops at {}",
                view.level
            ));
        }
        captured.push((owner, record.payload, keys, view));
    }
    Ok(captured)
}

fn attack_state(p: &ContinuousPipeline) -> AttackState {
    (
        p.attack_records().to_vec(),
        p.attack_summary().cloned(),
        p.baseline_attack_summary().cloned(),
        p.baseline_attack_failures(),
    )
}

/// Runs `case` at `workers` workers and checks what one run can check
/// alone.
fn run(case: &Case, workers: usize) -> Result<Outcome, String> {
    let path = case.file_store.then(|| journal_path(case, workers));
    let store = || -> Arc<dyn ChainStore> {
        match &path {
            Some(path) => Arc::new(FileStore::open(path).expect("the journal opens")),
            None => Arc::new(MemStore::new()),
        }
    };
    let mut pipeline = case.pipeline(workers, store(), true);
    let mut outcome = Outcome {
        reports: Vec::new(),
        attack: Vec::new(),
        epochs: BTreeMap::new(),
        crashed_at: None,
    };
    let mut tick = 1;
    while tick <= case.ticks {
        match pipeline.tick() {
            Ok(report) => {
                if report.verified != report.issued {
                    return Err(format!("tick {tick}: {report:?}"));
                }
                outcome.reports.push(report);
            }
            Err(e) if case.fault == Fault::Crash(tick) && e.message.contains("injected crash") => {
                outcome.crashed_at = Some(tick);
            }
            Err(e) => return Err(format!("tick {tick}: {e}")),
        }
        let killed = outcome.crashed_at == Some(tick) || case.kill_after == Some(tick);
        tick += 1;
        if !killed {
            continue;
        }
        outcome.attack.push(attack_state(&pipeline));
        if path.is_none() {
            // An in-memory store dies with the process.
            break;
        }
        let before = owner_epochs(&pipeline);
        let captured = capture_grants(&pipeline)?;
        drop(pipeline);
        pipeline = case.pipeline(workers, store(), false);
        let service = pipeline.service();
        for (owner, epoch) in &before {
            // A crash lands after the tick's ratchets were journaled.
            let now = pipeline.owner_epoch(owner);
            if now < Some(*epoch) {
                return Err(format!("{owner}: epoch {epoch} reopened as {now:?}"));
            }
        }
        for (owner, payload, keys, view) in &captured {
            let reopened =
                cloak::deanonymize(service.network(), payload, keys, service.engine())
                    .map_err(|e| format!("{owner}: captured grant fails after the reopen: {e}"))?;
            if &reopened != view {
                return Err(format!("{owner}: captured grant opens another view"));
            }
        }
    }
    outcome.attack.push(attack_state(&pipeline));
    outcome.epochs = owner_epochs(&pipeline);
    if let Some(path) = &path {
        let _ = std::fs::remove_file(path);
    }
    Ok(outcome)
}

fn check(case: &Case) -> Result<(), String> {
    let one = run(case, 1)?;
    for workers in [2, 3] {
        let other = run(case, workers)?;
        if other != one {
            return Err(format!("reports at {workers} workers differ from 1 worker"));
        }
    }
    // Epochs only grow: one ratchet per issued or journaled request.
    let total_ticks = one.reports.len() as u64 + u64::from(one.crashed_at.is_some());
    if let Some((owner, epoch)) = one.epochs.iter().find(|(_, &e)| e > total_ticks) {
        return Err(format!(
            "{owner} reached epoch {epoch} in {total_ticks} ticks"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn every_drawn_pipeline_is_deterministic_and_sound(seed in any::<u64>()) {
        let case = Case::draw(seed);
        let result = catch_unwind(AssertUnwindSafe(|| check(&case)))
            .unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                Err(format!("panicked: {message}"))
            });
        if let Err(e) = result {
            return Err(TestCaseError::fail(format!("{e}\n  case (seed {seed:#x}): {case:#?}")));
        }
    }
}
