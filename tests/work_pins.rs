//! Work pins: the exact key-stream work the pipeline does per receipt,
//! pinned as `digest_pinning.rs` pins receipt bytes.
//!
//! Two configurations run at `batch_parallelism: 1`, so every task of a
//! tick runs on the calling thread and [`keystream::work::counts`] sees
//! all of it:
//!
//! * `grid`: perfbench's `grid` workload (a 12×12 grid, 1,000 cars, 64
//!   owners, the default profile, traffic seed 42, pipeline seed
//!   `0x71c_c10a`, the LBS and attack legs on);
//! * `city`: a 2,000-segment generated city (`city_map(7, 2000)`) at 2
//!   cars per segment over 4 shards with 128 owners, as perfbench's
//!   `city` workload is laid out on its 5,000-segment map.
//!
//! Each runs with verification on and off. Tick 1 is left out of the
//! counts, because every owner's chain genesis lands in it. A change
//! that alters the work re-pins on purpose and records before → after
//! in CHANGES.md; a pin that moves unasked is a finding.

use anonymizer::{AnonymizerConfig, AttackConfig, ContinuousPipeline, PipelineConfig};
use cloak::AdversaryMode;
use keystream::{work, MemStore, WorkCounts};
use mobisim::SimConfig;
use roadnet::{city_map, grid_city, RoadNetwork};
use std::sync::Arc;

/// Ticks counted after the uncounted first one.
const COUNTED_TICKS: usize = 3;

/// Receipts issued and the key stream's work over the counted ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    receipts: u64,
    absorbing: u64,
    squeezing: u64,
    tags: u64,
}

impl Work {
    fn permutations_per_receipt(&self) -> f64 {
        (self.absorbing + self.squeezing) as f64 / self.receipts as f64
    }
}

fn count(net: RoadNetwork, cars: usize, shards: usize, cfg: PipelineConfig) -> Work {
    let mut pipeline = ContinuousPipeline::sharded(
        net,
        SimConfig {
            cars,
            seed: 42,
            ..Default::default()
        },
        AnonymizerConfig {
            batch_parallelism: 1,
            ..Default::default()
        },
        cfg,
        shards,
        Arc::new(MemStore::new()),
    )
    .expect("an empty store loads");
    pipeline.tick().expect("tick 1 verifies");
    let before = work::counts();
    let mut receipts = 0;
    for _ in 0..COUNTED_TICKS {
        let report = pipeline.tick().expect("pinned configuration verifies");
        assert_eq!(report.failed, 0);
        receipts += report.issued as u64;
    }
    let WorkCounts {
        absorbing,
        squeezing,
        tags,
    } = work::counts().since(before);
    Work {
        receipts,
        absorbing,
        squeezing,
        tags,
    }
}

fn grid(verify: bool) -> Work {
    count(
        grid_city(12, 12, 100.0),
        1_000,
        1,
        PipelineConfig {
            tracked_owners: 64,
            seed: 0x71c_c10a,
            verify,
            lbs_probes: 4,
            attack: Some(AttackConfig {
                mode: AdversaryMode::All,
                owners: usize::MAX,
                baseline: true,
                keep_records: false,
            }),
            ..Default::default()
        },
    )
}

fn city(verify: bool) -> Work {
    count(
        city_map(7, 2_000),
        4_000,
        4,
        PipelineConfig {
            tracked_owners: 128,
            seed: 0x71c_c10a,
            verify,
            lbs_probes: 0,
            ..Default::default()
        },
    )
}

/// Prints both runs' counts per receipt, then checks them against their
/// pins: verification on, then off.
fn check(name: &str, got: [Work; 2], pinned: [Work; 2]) {
    for (verify, got) in ["on", "off"].into_iter().zip(&got) {
        eprintln!(
            "{name}, verification {verify}: {got:?}, {:.2} permutations and {:.2} tags per receipt",
            got.permutations_per_receipt(),
            got.tags as f64 / got.receipts as f64,
        );
    }
    assert_eq!(got, pinned, "{name}: verification on, then off");
}

#[test]
fn grid_work_per_receipt_matches_the_pin() {
    check(
        "grid",
        [grid(true), grid(false)],
        [
            Work {
                receipts: 192,
                absorbing: 2986,
                squeezing: 2854,
                tags: 1152,
            },
            Work {
                receipts: 192,
                absorbing: 1781,
                squeezing: 1715,
                tags: 576,
            },
        ],
    );
}

#[test]
fn city_work_per_receipt_matches_the_pin() {
    check(
        "city",
        [city(true), city(false)],
        [
            Work {
                receipts: 384,
                absorbing: 6942,
                squeezing: 7178,
                tags: 2304,
            },
            Work {
                receipts: 384,
                absorbing: 4047,
                squeezing: 4165,
                tags: 1152,
            },
        ],
    );
}
