//! Micro-benches of the allocation-free hot path, with and without
//! scratch reuse, isolating each layer the refactor touched:
//!
//! * **adjacency expansion** — walking every segment's neighbors through
//!   the allocating `neighbor_segments` vs the borrowed CSR slice;
//! * **single-owner cloak** — one full `anonymize` with a throwaway
//!   [`cloak::CloakScratch`] per call vs one reused across calls;
//! * **LBS nearest query** — one `nearest_query` with a throwaway
//!   [`lbs::SearchScratch`] vs one reused across calls, and the
//!   landmark-directed search (`nearest_query_with`) on a dense category
//!   and on a sparse far-away one (where goal direction matters most).
//!
//! The `fresh`/`reused` variants compute bit-identical candidate sets,
//! so their delta is pure allocator traffic.
//!
//! The `keyed_draw` group prices the keystream primitive itself —
//! stream initialization (sponge absorption) plus draws, and the
//! chain-ratchet `derive_key` — the cells the ChaCha20-class PRF swap
//! touches directly. With `BENCH_OUT=path` set, a plain-timed
//! `keyed_draw` point is written as JSON for CI's perf-trajectory gate
//! (same schema and min-of-`BENCH_RUNS` methodology as
//! `pipeline_ticks.rs`).

use cloak::{
    anonymize_with_scratch, CloakScratch, LevelRequirement, PrivacyProfile, RgeEngine, RpleEngine,
};
use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use keystream::{derive_key, DrawStream, Key256, KeyManager};
use lbs::{nearest_query_with, PoiCategory, PoiStore, SearchScratch};
use mobisim::OccupancySnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{grid_city, RoadNetwork, SegmentId};

fn bench_adjacency(c: &mut Criterion) {
    let net = grid_city(20, 20, 100.0);
    let mut group = c.benchmark_group("adjacency_full_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("alloc_vec", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for s in net.segment_ids() {
                acc += net.neighbor_segments(s).len();
            }
            black_box(acc)
        })
    });
    group.bench_function("csr_slice", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for s in net.segment_ids() {
                acc += net.neighbor_segments_csr(s).len();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn cloak_world() -> (RoadNetwork, OccupancySnapshot, PrivacyProfile, Vec<Key256>) {
    let net = grid_city(12, 12, 100.0);
    let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
    let profile = PrivacyProfile::builder()
        .level(LevelRequirement::with_k(6))
        .level(LevelRequirement::with_k(14))
        .build()
        .expect("valid profile");
    let keys = KeyManager::from_seed(2, 7).iter().map(|(_, k)| k).collect();
    (net, snapshot, profile, keys)
}

fn bench_single_cloak(c: &mut Criterion) {
    let (net, snapshot, profile, keys) = cloak_world();
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&net, 12);
    let mut group = c.benchmark_group("single_owner_cloak");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    for (label, engine) in [
        ("rge", &rge as &dyn cloak::ReversibleEngine),
        ("rple", &rple),
    ] {
        let mut nonce = 0u64;
        group.bench_with_input(BenchmarkId::new(label, "fresh_scratch"), &(), |b, ()| {
            b.iter(|| {
                nonce += 1;
                anonymize_with_scratch(
                    &net,
                    &snapshot,
                    SegmentId(100),
                    &profile,
                    &keys,
                    nonce,
                    engine,
                    &mut CloakScratch::new(),
                )
            })
        });
        let mut scratch = CloakScratch::new();
        let mut nonce = 0u64;
        group.bench_with_input(BenchmarkId::new(label, "reused_scratch"), &(), |b, ()| {
            b.iter(|| {
                nonce += 1;
                anonymize_with_scratch(
                    &net,
                    &snapshot,
                    SegmentId(100),
                    &profile,
                    &keys,
                    nonce,
                    engine,
                    &mut scratch,
                )
            })
        });
    }
    group.finish();
}

fn bench_lbs_nearest(c: &mut Criterion) {
    let net = grid_city(16, 16, 100.0);
    let mut rng = StdRng::seed_from_u64(0x1b5);
    let store = PoiStore::generate(&net, 200, &mut rng);
    let region: Vec<SegmentId> = [200u32, 201, 216, 217].map(SegmentId).to_vec();
    let mut group = c.benchmark_group("lbs_nearest_query");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("fresh_scratch", |b| {
        b.iter(|| {
            nearest_query_with(
                &net,
                &store,
                &region,
                PoiCategory::Restaurant,
                &mut SearchScratch::new(),
            )
            .len()
        })
    });
    let mut scratch = SearchScratch::new();
    group.bench_function("reused_scratch", |b| {
        b.iter(|| {
            nearest_query_with(&net, &store, &region, PoiCategory::Restaurant, &mut scratch).len()
        })
    });
    group.finish();
}

/// The landmark-directed nearest search per query. `dense` queries a
/// common category (POIs everywhere: one bounded search); `sparse_far`
/// queries a category with a single remote POI (frontier pruning toward
/// the goal).
fn bench_lbs_indexed(c: &mut Criterion) {
    let net = grid_city(16, 16, 100.0);
    // Build the one-time graph index outside the timed region: the
    // bench prices the per-query cost, which is what a serving loop
    // pays at steady state.
    let _ = net.landmark_table();
    let mut rng = StdRng::seed_from_u64(0x1b5);
    let dense = PoiStore::generate(&net, 200, &mut rng);
    let mut sparse = PoiStore::new(net.segment_count());
    // A single hospital in the far corner of the map.
    sparse.add(SegmentId(0), 25.0, PoiCategory::Hospital);
    let region: Vec<SegmentId> = [200u32, 201, 216, 217].map(SegmentId).to_vec();
    let mut group = c.benchmark_group("lbs_nearest_indexed");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    let mut scratch = SearchScratch::new();
    for (label, store, category) in [
        ("dense", &dense, PoiCategory::Restaurant),
        ("sparse_far", &sparse, PoiCategory::Hospital),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "indexed"), &(), |b, ()| {
            b.iter(|| nearest_query_with(&net, store, &region, category, &mut scratch).len())
        });
    }
    group.finish();
}

/// One pass of the keyed-draw workload: the keystream work of cloaking
/// a small population — per owner, one stream initialization (sponge
/// absorption of key and context) plus a run of draws, and one
/// chain-style `derive_key` ratchet. Returns a fold of the outputs so
/// the work cannot be optimized away.
fn keyed_draw_pass(streams: usize, draws: usize) -> u64 {
    let mut acc = 0u64;
    let mut chain = Key256::from_seed(0x1e57);
    for i in 0..streams {
        let key = Key256::from_seed(i as u64);
        let ctx = (i as u64).to_le_bytes();
        let mut s = DrawStream::new(key, &ctx);
        for _ in 0..draws {
            acc = acc.wrapping_add(s.next_u64());
        }
        chain = derive_key(chain, b"bench/ratchet");
    }
    acc ^ chain.as_bytes()[0] as u64
}

/// The PR 7 keystream cells: the ChaCha20-class sponge `DrawStream`
/// (initialization + draws) and the chain-ratchet `derive_key`, timed in
/// isolation from any graph work.
fn bench_keyed_draw(c: &mut Criterion) {
    let mut group = c.benchmark_group("keyed_draw");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("stream_init_plus_32_draws", |b| {
        b.iter(|| black_box(keyed_draw_pass(64, 32)))
    });
    group.bench_function("derive_key_ratchet", |b| {
        let mut chain = Key256::from_seed(7);
        b.iter(|| {
            for _ in 0..64 {
                chain = derive_key(chain, b"bench/ratchet");
            }
            black_box(chain)
        })
    });
    group.finish();
}

/// Plain-timed `keyed_draw` point, emitted as JSON when `BENCH_OUT` is
/// set — the keystream cell of the perf trajectory CI gates per commit.
/// Schema matches `pipeline_ticks.rs`:
/// `{ "keyed_draw": { "mean_tick_ms": f, "ticks_per_sec": f } }`, where
/// one "tick" is [`keyed_draw_pass`] over 512 streams × 32 draws.
fn write_json_point() {
    let Ok(path) = std::env::var("BENCH_OUT") else {
        return;
    };
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let measure = if quick {
        std::time::Duration::from_millis(400)
    } else {
        std::time::Duration::from_secs(2)
    };
    let runs: usize = std::env::var("BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    let mut mean_ms = f64::INFINITY;
    for _ in 0..runs {
        // Warm-up pass before timing.
        black_box(keyed_draw_pass(512, 32));
        let t0 = std::time::Instant::now();
        let mut ticks = 0u64;
        while t0.elapsed() < measure || ticks == 0 {
            black_box(keyed_draw_pass(512, 32));
            ticks += 1;
        }
        mean_ms = mean_ms.min(t0.elapsed().as_secs_f64() * 1e3 / ticks as f64);
    }
    println!("keyed_draw mean {mean_ms:.4} ms/pass (min of {runs})");
    let json = format!(
        "{{\n  \"keyed_draw\": {{ \"mean_tick_ms\": {mean_ms:.4}, \"ticks_per_sec\": {:.1} }}\n}}\n",
        1e3 / mean_ms
    );
    std::fs::write(&path, json).expect("write BENCH_OUT");
    println!("wrote bench point to {path}");
}

criterion_group!(
    benches,
    bench_adjacency,
    bench_single_cloak,
    bench_lbs_nearest,
    bench_lbs_indexed,
    bench_keyed_draw
);

fn main() {
    // `BENCH_OUT` is the CI trajectory mode: measure the keystream cell
    // plain-timed and emit JSON; the criterion groups are the local
    // exploration mode.
    if std::env::var("BENCH_OUT").is_ok() {
        write_json_point();
    } else {
        benches();
    }
}
