//! Cost of the continuous adversarial evaluation: what one tick of
//! [`cloak::TemporalAdversary`] observation costs per owner, per
//! adversary mode, and what the NRE replay inversion (the expensive
//! control-only step: one re-expansion per candidate segment) adds.
//!
//! The attack leg is an evaluation harness, not a serving hot path —
//! these numbers bound how much `rcloak attack` and the scenario
//! matrix's attack cells cost per observed receipt, and catch
//! accidental quadratic blowups in the reachability or peel scans.
//!
//! The `movement_prune` group isolates the PR 5 graph-index win: the
//! movement model's `region ∩ h-hop-reach(candidates)` computed by the
//! [`ReachScratch`] BFS reference vs the word-packed
//! [`roadnet::ReachIndex`] masks (OR + bit tests) — identical sets,
//! unit-tested in `cloak::attack::temporal`.

use cloak::attack::temporal::{
    AdversaryConfig, AdversaryMode, Observation, ReachScratch, ReplayProbe, TemporalAdversary,
};
use cloak::{random_expansion, LevelRequirement, PrivacyProfile, RgeEngine};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use keystream::{Key256, KeyManager};
use mobisim::OccupancySnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{grid_city, RoadNetwork, SegmentId};

/// A pre-generated keyed receipt stream: the owner shuttles between two
/// adjacent segments, fresh keys per tick (what the adversary actually
/// observes from the pipeline).
fn keyed_stream(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    ticks: usize,
) -> Vec<(u64, Vec<SegmentId>)> {
    let profile = PrivacyProfile::builder()
        .level(LevelRequirement::with_k(8))
        .level(LevelRequirement::with_k(16))
        .build()
        .expect("valid profile");
    let engine = RgeEngine::new();
    (0..ticks)
        .map(|t| {
            let seg = SegmentId(100 + (t % 2) as u32);
            let keys: Vec<Key256> = KeyManager::from_seed(profile.level_count(), 900 + t as u64)
                .iter()
                .map(|(_, k)| k)
                .collect();
            let out = cloak::anonymize(net, snapshot, seg, &profile, &keys, t as u64, &engine)
                .expect("grid cloaks succeed");
            (t as u64 + 1, out.payload.segments)
        })
        .collect()
}

fn bench_observe_modes(c: &mut Criterion) {
    let net = grid_city(12, 12, 100.0);
    let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
    let stream = keyed_stream(&net, &snapshot, 16);
    let mut group = c.benchmark_group("temporal_adversary_observe");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    // Every mode, including the Bayesian trajectory particle filter
    // (`Adaptive`): its cell prices the per-receipt propagate + weight +
    // resample loop against the closed-form portfolio modes.
    for mode in AdversaryMode::ALL {
        group.bench_with_input(BenchmarkId::new("mode", mode.name()), &mode, |b, &mode| {
            let mut adversary = TemporalAdversary::new(
                &net,
                AdversaryConfig {
                    mode,
                    ..Default::default()
                },
            );
            b.iter(|| {
                let mut acc = 0usize;
                for (tick, region) in &stream {
                    let obs = adversary.observe(
                        &net,
                        "owner",
                        Observation {
                            tick: *tick,
                            region,
                            snapshot: &snapshot,
                            snapshot_fresh: true,
                        },
                        None,
                        None,
                    );
                    acc += obs.support;
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_replay_inversion(c: &mut Criterion) {
    let net = grid_city(12, 12, 100.0);
    let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
    let requirement = LevelRequirement::with_k(16);
    let owner_seed = 0x17e_a5ed;
    // The keyless-deterministic control stream: same per-owner seed
    // every tick, exactly what the pipeline's NRE leg publishes.
    let stream: Vec<(u64, Vec<SegmentId>)> = (0..16)
        .map(|t| {
            let seg = SegmentId(100 + (t % 2) as u32);
            let mut rng = StdRng::seed_from_u64(owner_seed);
            let out = random_expansion(&net, &snapshot, seg, &requirement, &mut rng)
                .expect("grid expansions succeed");
            (t as u64 + 1, out.segments)
        })
        .collect();
    let mut group = c.benchmark_group("nre_replay_inversion");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("per_tick", |b| {
        let mut adversary = TemporalAdversary::new(&net, AdversaryConfig::default());
        b.iter(|| {
            let mut acc = 0usize;
            for (tick, region) in &stream {
                let obs = adversary.observe(
                    &net,
                    "victim",
                    Observation {
                        tick: *tick,
                        region,
                        snapshot: &snapshot,
                        snapshot_fresh: true,
                    },
                    Some(ReplayProbe {
                        requirement: &requirement,
                        seed: owner_seed,
                    }),
                    None,
                );
                acc += obs.support;
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The movement model's per-observation kernel, reference vs packed:
/// mark everything within `h` hops of the candidate support, then test
/// each region segment. The packed path ORs precomputed masks instead
/// of expanding a frontier — the PR 5 ≥5× cell.
fn bench_movement_prune(c: &mut Criterion) {
    let net = grid_city(12, 12, 100.0);
    let hops = 4; // what AdversaryConfig::default derives on this grid
    let support: Vec<SegmentId> = (0..12u32).map(|i| SegmentId(90 + i * 3)).collect();
    let region: Vec<SegmentId> = (0..16u32).map(|i| SegmentId(100 + i)).collect();
    let mut group = c.benchmark_group("movement_prune");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("bfs_reference", |b| {
        let mut scratch = ReachScratch::new();
        b.iter(|| {
            scratch.expand(&net, &support, hops);
            black_box(region.iter().filter(|&&s| scratch.contains(s)).count())
        })
    });
    // Build the packed index outside the timed region: it is the
    // built-once artifact the adversary amortizes over every tick.
    let index = net.reach_index(hops);
    group.bench_function("packed_mask", |b| {
        let mut union = Vec::new();
        b.iter(|| {
            index.union_into(support.iter().copied(), &mut union);
            black_box(
                region
                    .iter()
                    .filter(|&&s| roadnet::ReachIndex::mask_contains(&union, s))
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_observe_modes,
    bench_replay_inversion,
    bench_movement_prune
);
criterion_main!(benches);
