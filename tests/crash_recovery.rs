//! Crash/restart harness: kill the anonymizer mid-run and recover from
//! the durable chain journal.
//!
//! The contract under test (PR 8's tentpole): every owner's ratchet
//! advance is journaled to the [`keystream::FileStore`] write-ahead log
//! *before* its receipt is issued, so a crash at any point — including
//! the injected worst case, between ratchet-advance and receipt-issue —
//! loses no epoch. Re-opening the store must resume every chain at its
//! journaled epoch: monotone epochs (no reuse, no holes), captured
//! grants still opening their own epoch's receipts, and every per-tick
//! pipeline invariant (reversibility, issue-time k-anonymity, grant
//! preservation) holding after recovery exactly as before, under every
//! fault plan the injector can produce.

use anonymizer::{
    AnonymizerConfig, AnonymizerService, ContinuousPipeline, Deanonymizer, Engine, FaultPlan,
    FaultPolicy, PipelineConfig, TickHealth,
};
use keystream::{ChainStore, FileStore, Level, TrustDegree};
use mobisim::{OccupancySnapshot, SimConfig};
use roadnet::{city_map, grid_city, SegmentId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn journal_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rcloak-crash-{}-{name}.rcs", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The journaled `(owner → epoch)` map, read through a fresh store
/// handle the way a restarted process would.
fn journaled_epochs(path: &PathBuf) -> HashMap<String, u64> {
    FileStore::open(path)
        .expect("journal re-opens")
        .load()
        .expect("journal loads")
        .into_iter()
        .map(|(owner, chain)| (owner, chain.epoch()))
        .collect()
}

fn pipeline_over(
    store: Arc<dyn ChainStore>,
    fault: Option<FaultPlan>,
    policy: FaultPolicy,
) -> ContinuousPipeline {
    sharded_pipeline_over(store, fault, policy, 1)
}

fn sharded_pipeline_over(
    store: Arc<dyn ChainStore>,
    fault: Option<FaultPlan>,
    policy: FaultPolicy,
    shards: usize,
) -> ContinuousPipeline {
    ContinuousPipeline::sharded(
        grid_city(8, 8, 100.0),
        SimConfig {
            cars: 250,
            seed: 11,
            ..Default::default()
        },
        AnonymizerConfig::default(),
        PipelineConfig {
            tracked_owners: 5,
            lbs_probes: 0,
            seed: 0x0c4a_59e1,
            fault,
            fault_policy: policy,
            ..Default::default()
        },
        shards,
        store,
    )
    .expect("store recovers")
}

/// Kill the pipeline by injected crash mid-run, re-open the journal the
/// way a restarted process would, and continue: every chain resumes at
/// its journaled epoch — the crash-window advances included — and every
/// per-tick invariant still verifies.
#[test]
fn killed_pipeline_recovers_epochs_and_invariants_from_the_journal() {
    let path = journal_path("kill-recover");

    let store = Arc::new(FileStore::open(&path).unwrap());
    let mut pipeline = pipeline_over(
        store,
        Some(FaultPlan {
            crash_at_tick: Some(3),
            ..Default::default()
        }),
        FaultPolicy::default(),
    );
    assert!(pipeline.tick().is_ok());
    assert!(pipeline.tick().is_ok());
    let err = pipeline.tick().unwrap_err();
    assert!(err.message.contains("injected crash"), "{err}");
    drop(pipeline); // the process dies; only the journal survives

    // The crashed tick's advances were journaled BEFORE the crash point:
    // 3 epochs per owner, though only 2 ticks of receipts were issued.
    let before = journaled_epochs(&path);
    assert_eq!(before.len(), 5, "all tracked owners journaled");
    for (owner, epoch) in &before {
        assert_eq!(*epoch, 3, "{owner}: crash-window advance journaled");
    }

    // Restart over the surviving journal and keep going, fault-free.
    let store = Arc::new(FileStore::open(&path).unwrap());
    let mut pipeline = pipeline_over(store, None, FaultPolicy::default());
    let reports = pipeline.run(3).expect("post-recovery invariants hold");
    assert!(reports.iter().all(|r| r.issued == 5 && r.verified == 5));

    // Epoch monotonicity across the restart: each owner continued from
    // its journaled epoch — the unissued crash-window epoch is never
    // reused for a new receipt.
    let service = pipeline.service();
    for (owner, epoch_before) in &before {
        assert_eq!(
            service.owner_epoch(owner),
            Some(epoch_before + 3),
            "{owner}: resumed past the journaled epoch"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The restart semantics satellite, at the service level: a grant
/// captured before the crash still deanonymizes *its* epoch's receipt
/// after `recover()`, and post-recovery re-anonymization continues the
/// ratchet — fresh epoch, no reuse.
#[test]
fn captured_grant_survives_recovery_and_ratchet_continues() {
    let path = journal_path("grant-survives");
    let net = grid_city(8, 8, 100.0);
    let cfg = AnonymizerConfig::default();

    let service = AnonymizerService::with_store(
        net.clone(),
        cfg.clone(),
        Arc::new(FileStore::open(&path).unwrap()),
    )
    .unwrap();
    service.update_snapshot(OccupancySnapshot::uniform(
        service.network().segment_count(),
        2,
    ));
    let receipt = service
        .anonymize_seeded("alice", SegmentId(17), None, 7)
        .unwrap();
    assert_eq!(receipt.payload.epoch, 1);
    assert!(service.register_requester("alice", "police", TrustDegree(10), Level(0)));
    // The requester walks away holding the keys — a captured grant.
    let captured = service.fetch_keys("alice", "police").unwrap();
    drop(service); // crash: all in-memory state gone

    let recovered =
        AnonymizerService::with_store(net, cfg, Arc::new(FileStore::open(&path).unwrap())).unwrap();
    recovered.update_snapshot(OccupancySnapshot::uniform(
        recovered.network().segment_count(),
        2,
    ));

    // The captured grant still opens its own epoch's receipt exactly.
    let dean = Deanonymizer::new(
        recovered.network_arc(),
        Engine::build(recovered.network(), recovered.config().engine),
    );
    let view = dean.reduce(&receipt.payload, &captured).unwrap();
    assert_eq!(view.segments, vec![SegmentId(17)]);

    // And the recovered chain continues forward — epoch 2, never 1 again.
    assert_eq!(recovered.owner_epoch("alice"), Some(1));
    let next = recovered
        .anonymize_seeded("alice", SegmentId(40), None, 8)
        .unwrap();
    assert_eq!(next.payload.epoch, 2, "ratchet resumed, no epoch reuse");
    assert_ne!(next.payload.nonce, receipt.payload.nonce);
    let _ = std::fs::remove_file(&path);
}

/// Kill-and-recover under *every* fault plan shape the injector offers:
/// flaky journal writes absorbed by retries, failing snapshot captures,
/// injected cloak failures — each combined with a mid-run crash,
/// unsharded and over 3 shards. Whatever the plan did
/// before the kill, recovery must resume every owner strictly forward
/// from its journaled epoch and the post-recovery run must verify every
/// receipt.
#[test]
fn every_fault_plan_preserves_recovery_invariants() {
    let plans = [
        FaultPlan {
            seed: 1,
            journal_write_fail: 0.35,
            crash_at_tick: Some(4),
            ..Default::default()
        },
        FaultPlan {
            seed: 2,
            snapshot_capture_fail: 0.5,
            crash_at_tick: Some(3),
            ..Default::default()
        },
        FaultPlan {
            seed: 3,
            cloak_fail: 0.4,
            crash_at_tick: Some(4),
            ..Default::default()
        },
        FaultPlan {
            seed: 4,
            journal_write_fail: 0.25,
            snapshot_capture_fail: 0.3,
            cloak_fail: 0.2,
            crash_at_tick: Some(3),
        },
    ];
    for shards in [1, 3] {
        for (i, plan) in plans.iter().enumerate() {
            let cell = format!("{shards} shards, plan {i}");
            let path = journal_path(&format!("plan-{shards}-{i}"));
            let crash_tick = plan.crash_at_tick.unwrap();
            let store = Arc::new(FileStore::open(&path).unwrap());
            let mut pipeline = sharded_pipeline_over(
                store,
                Some(plan.clone()),
                FaultPolicy {
                    journal_retries: 6,
                    ..Default::default()
                },
                shards,
            );
            assert_eq!(pipeline.shard_count(), shards);
            let mut health = TickHealth::default();
            for tick in 1..=crash_tick {
                let result = pipeline.tick();
                if tick == crash_tick {
                    let err = result.expect_err("crash fires on schedule");
                    assert!(err.message.contains("injected crash"), "{cell}: {err}");
                } else {
                    let report = result.unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_eq!(report.verified, report.issued, "{cell}");
                    health.journal_retries += report.health.journal_retries;
                    health.snapshot_faults += report.health.snapshot_faults;
                    health.injected_cloak_failures += report.health.injected_cloak_failures;
                }
            }
            drop(pipeline);
            // Every injected fault the plan can raise before the crash
            // shows up in the health counters.
            if plan.journal_write_fail > 0.0 {
                assert!(health.journal_retries > 0, "{cell}: {health:?}");
            }
            if plan.snapshot_capture_fail > 0.0 {
                assert!(health.snapshot_faults > 0, "{cell}: {health:?}");
            }
            if plan.cloak_fail > 0.0 {
                assert!(health.injected_cloak_failures > 0, "{cell}: {health:?}");
            }

            let before = journaled_epochs(&path);
            assert!(!before.is_empty(), "{cell}: advances were journaled");

            let store = Arc::new(FileStore::open(&path).unwrap());
            let mut pipeline = sharded_pipeline_over(store, None, FaultPolicy::default(), shards);
            let reports = pipeline
                .run(3)
                .unwrap_or_else(|e| panic!("{cell}: post-recovery: {e}"));
            assert!(
                reports
                    .iter()
                    .all(|r| r.verified == r.issued && r.issued > 0),
                "{cell}: post-recovery receipts verify"
            );
            for (owner, epoch_before) in &before {
                let now = pipeline
                    .owner_epoch(owner)
                    .unwrap_or_else(|| panic!("{cell}: {owner} lost its chain across recovery"));
                assert_eq!(
                    now,
                    epoch_before + 3,
                    "{cell}: {owner} advanced exactly once per post-recovery tick"
                );
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A sharded kill-and-recover: the one service behind every shard
/// replays the journal once, and the rebuilt pipeline must resume every
/// tracked owner at its journaled epoch, then keep it at its live epoch
/// while owners cross between shards.
#[test]
fn sharded_restart_keeps_one_live_chain_per_owner() {
    let path = journal_path("sharded-restart");
    let build = || {
        ContinuousPipeline::sharded(
            city_map(11, 800),
            SimConfig {
                cars: 800,
                seed: 42,
                ..Default::default()
            },
            AnonymizerConfig::default(),
            PipelineConfig {
                tracked_owners: 16,
                lbs_probes: 0,
                ..Default::default()
            },
            4,
            Arc::new(FileStore::open(&path).unwrap()),
        )
        .expect("store recovers")
    };
    let check = |pipeline: &ContinuousPipeline, when: &str| {
        let journaled = journaled_epochs(&path);
        assert_eq!(journaled.len(), 16, "{when}: every owner journaled");
        for (owner, epoch) in &journaled {
            assert_eq!(
                pipeline.owner_epoch(owner),
                Some(*epoch),
                "{when}: {owner} is not at its live epoch"
            );
        }
    };

    let mut pipeline = build();
    pipeline.run(4).expect("first run verifies");
    check(&pipeline, "before the kill");
    drop(pipeline); // the process dies; only the journal survives

    let mut pipeline = build();
    check(&pipeline, "right after the rebuild");
    let reports = pipeline.run(6).expect("post-recovery invariants hold");
    assert!(reports.iter().all(|r| r.verified == r.issued));
    assert!(pipeline.handoffs_total() > 0, "owners crossed shards");
    check(&pipeline, "six ticks after the rebuild");
    let _ = std::fs::remove_file(&path);
}

/// A torn tail from a mid-write kill must not poison recovery: truncate
/// the live journal at an arbitrary byte, re-open, and the pipeline
/// resumes from the longest valid prefix as if the torn record had
/// never been appended.
#[test]
fn torn_journal_tail_recovers_to_the_valid_prefix() {
    let path = journal_path("torn-tail");
    {
        let store = Arc::new(FileStore::open(&path).unwrap());
        let mut pipeline = pipeline_over(store, None, FaultPolicy::default());
        pipeline.run(2).unwrap();
    }
    // Tear mid-record: chop 5 bytes off the end of the log.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

    let before = journaled_epochs(&path);
    // The torn final record is gone; every surviving owner is at a
    // coherent epoch (1 or 2), never a garbage value.
    for (owner, epoch) in &before {
        assert!((1..=2).contains(epoch), "{owner} at epoch {epoch}");
    }
    // Recovery over the torn store still runs and verifies.
    let store = Arc::new(FileStore::open(&path).unwrap());
    let mut pipeline = pipeline_over(store, None, FaultPolicy::default());
    let reports = pipeline.run(2).expect("recovered from torn tail");
    assert!(reports.iter().all(|r| r.verified == r.issued));
    let _ = std::fs::remove_file(&path);
}
