//! Criterion bench: sustained throughput of the continuous anonymization
//! pipeline, in ticks per second.
//!
//! Each iteration is one full tick — traffic step, snapshot recapture +
//! `Arc` swap, batched re-anonymization of the tracked owners, and LBS
//! probes — so mean time/iter is the steady-state tick latency; its
//! reciprocal is sustained ticks/sec. Run once with verification off
//! (pure pipeline cost) and once with the full invariant check, for both
//! engines.
//!
//! Environment knobs (for CI's perf-trajectory job):
//!
//! * `BENCH_QUICK=1` shrinks warm-up/measurement so the run finishes in
//!   a couple of seconds;
//! * `BENCH_OUT=path` switches to the CI trajectory mode: a single
//!   plain-timed pass over the four configurations, written as JSON
//!   (the `BENCH_pipeline.json` artifact) instead of the criterion
//!   groups.

use anonymizer::{
    AnonymizerConfig, AttackConfig, ContinuousPipeline, EngineChoice, PipelineConfig,
};
use criterion::{criterion_group, BenchmarkId, Criterion};
use mobisim::SimConfig;
use roadnet::grid_city;
use std::time::{Duration, Instant};

fn pipeline(engine: EngineChoice, verify: bool) -> ContinuousPipeline {
    pipeline_with(engine, verify, false)
}

fn pipeline_with(engine: EngineChoice, verify: bool, attack: bool) -> ContinuousPipeline {
    ContinuousPipeline::new(
        grid_city(12, 12, 100.0),
        SimConfig {
            cars: 1000,
            seed: 42,
            ..Default::default()
        },
        AnonymizerConfig {
            engine,
            ..Default::default()
        },
        PipelineConfig {
            tracked_owners: 64,
            verify,
            attack: attack.then(|| AttackConfig {
                // Rollups only: the long-form log would grow unboundedly
                // over a timed run.
                keep_records: false,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
}

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn bench_pipeline_ticks(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_tick_64owners");
    group.sample_size(10);
    let (warm_ms, measure_ms) = if quick() { (100, 400) } else { (500, 3000) };
    group.warm_up_time(Duration::from_millis(warm_ms));
    group.measurement_time(Duration::from_millis(measure_ms));

    for (engine, label) in [
        (EngineChoice::Rge, "rge"),
        (EngineChoice::Rple { t_len: 12 }, "rple"),
    ] {
        for verify in [false, true] {
            let mut p = pipeline(engine, verify);
            let name = if verify { "verified" } else { "raw" };
            group.bench_with_input(BenchmarkId::new(label, name), &verify, |b, _| {
                b.iter(|| {
                    let report = p.tick().expect("invariants hold");
                    assert!(report.issued > 0);
                    report.issued
                })
            });
        }
    }
    group.finish();
}

/// Plain-timed measurement of the same workload, emitted as JSON when
/// `BENCH_OUT` is set — one point of the perf trajectory CI records per
/// commit. Schema: `{ "<engine>_<mode>": { "mean_tick_ms": f, "ticks_per_sec": f } }`.
///
/// `BENCH_RUNS=n` (default 1) repeats each configuration and keeps the
/// per-config minimum — the same min-of-n methodology as the committed
/// `BENCH_pipeline.json` points, so CI's fresh point carries comparable
/// noise to the baseline it is gated against.
fn write_json_point() {
    let Ok(path) = std::env::var("BENCH_OUT") else {
        return;
    };
    let measure = if quick() {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    };
    let runs: usize = std::env::var("BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    let mut entries = Vec::new();
    for (engine, label) in [
        (EngineChoice::Rge, "rge"),
        (EngineChoice::Rple { t_len: 12 }, "rple"),
    ] {
        // (mode name, verify, attack leg): the `attacked` cells price a
        // tick with the full adversary + NRE control riding along, each
        // observing every tracked owner's receipt.
        for (mode, verify, attack) in [
            ("raw", false, false),
            ("verified", true, false),
            ("attacked", false, true),
        ] {
            let mut mean_ms = f64::INFINITY;
            for _ in 0..runs {
                let mut p = pipeline_with(engine, verify, attack);
                // Warm-up: reach buffer high-water marks before timing.
                for _ in 0..20 {
                    p.tick().expect("invariants hold");
                }
                let t0 = Instant::now();
                let mut ticks = 0u64;
                while t0.elapsed() < measure || ticks == 0 {
                    p.tick().expect("invariants hold");
                    ticks += 1;
                }
                mean_ms = mean_ms.min(t0.elapsed().as_secs_f64() * 1e3 / ticks as f64);
            }
            println!("{label}/{mode:<30} mean {mean_ms:.3} ms/tick (min of {runs})");
            entries.push(format!(
                "  \"{label}_{mode}\": {{ \"mean_tick_ms\": {mean_ms:.4}, \"ticks_per_sec\": {:.1} }}",
                1e3 / mean_ms
            ));
        }
    }
    let json = format!("{{\n{}\n}}\n", entries.join(",\n"));
    std::fs::write(&path, json).expect("write BENCH_OUT");
    println!("wrote bench point to {path}");
}

criterion_group!(benches, bench_pipeline_ticks);

fn main() {
    // `BENCH_OUT` is the CI trajectory mode: measure once, plain-timed,
    // and emit JSON — running the criterion groups too would double the
    // job's measurement work for output it discards.
    if std::env::var("BENCH_OUT").is_ok() {
        write_json_point();
    } else {
        benches();
    }
}
