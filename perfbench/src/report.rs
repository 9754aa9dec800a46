//! The metrics each mode prints, and the one-line JSON result.

use crate::run::{Traced, Untraced};
use crate::workload::Spec;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of ascending `sorted`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Timed ticks that lie beyond the nearest-rank p90.
pub fn samples_beyond_p90(n: usize) -> usize {
    n - (0.9 * n as f64).ceil() as usize
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(u: &Untraced, peak_rss_mib: f64) -> Vec<Metric> {
    let w = &u.run.window;
    let mut ticks = w.tick_ns.clone();
    ticks.sort_unstable();
    let attempted = w.issued + w.failed;
    vec![
        metric("setup_s", "s", median(&u.setup_s)),
        metric("tick_p50_ms", "ms", percentile(&ticks, 0.5) as f64 / 1e6),
        metric("tick_p90_ms", "ms", percentile(&ticks, 0.9) as f64 / 1e6),
        metric(
            "receipts_per_s",
            "1/s",
            w.issued as f64 / (w.wall_ns as f64 / 1e9),
        ),
        metric(
            "issued_share",
            "ratio",
            w.issued as f64 / attempted.max(1) as f64,
        ),
        metric("region_segments", "segments", w.quality.mean_segments()),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
    ]
}

/// The per-layer metrics of a traced run. Times per tick are self time
/// summed over the timed window and divided by its tick count; a layer
/// that does not run on a workload reads 0.
pub fn per_layer(spec: &Spec, t: &Traced) -> Vec<Metric> {
    let ticks = spec.timed_ticks as f64;
    let window = t.window_self_times(spec);
    let setup = t.setup_self_times();
    let counts = t.window_counts(spec);
    let w = &t.replay.window;
    let per_tick_ms = |name: &str| window.self_ns(name) as f64 / 1e6 / ticks;
    let setup_s = |name: &str| setup.self_ns(name) as f64 / 1e9;
    let mean_ns = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64;
    let untraced_mean = mean_ns(&t.reference.window.tick_ns);
    vec![
        metric("mobisim.step_ms", "ms", per_tick_ms("mobisim.step")),
        metric("mobisim.sim_new_s", "s", setup_s("mobisim.sim_new")),
        metric("roadnet.map_gen_s", "s", setup_s("roadnet.map_gen")),
        metric("roadnet.index_s", "s", setup_s("roadnet.index")),
        metric("shard.partition_s", "s", setup_s("shard.partition")),
        metric("snapshot.refresh_ms", "ms", per_tick_ms("snapshot.refresh")),
        metric("shard.handoff_ms", "ms", per_tick_ms("shard.handoff")),
        metric("shard.handoffs", "count/tick", w.handoffs as f64 / ticks),
        metric("anonymizer.issue_ms", "ms", per_tick_ms("anonymizer.issue")),
        metric("anonymizer.keys_ms", "ms", per_tick_ms("anonymizer.keys")),
        metric(
            "anonymizer.reduce_ms",
            "ms",
            per_tick_ms("anonymizer.reduce"),
        ),
        metric("cloak.quality_ms", "ms", per_tick_ms("cloak.quality")),
        metric("lbs.query_ms", "ms", per_tick_ms("lbs.query")),
        metric("lbs.candidates_mean", "count", counts.lbs.mean_candidates()),
        metric("attack.engine_ms", "ms", per_tick_ms("attack.engine")),
        metric("attack.nre_ms", "ms", per_tick_ms("attack.nre")),
        metric(
            "attack.bfs_fallbacks",
            "count/tick",
            counts.bfs_fallbacks as f64 / ticks,
        ),
        metric(
            "attack.identity_bits",
            "bits",
            w.attack.as_ref().map_or(0.0, |a| a.mean_user_entropy()),
        ),
        metric(
            "cloak.attempts_per_receipt",
            "count",
            counts.attempts as f64 / w.issued.max(1) as f64,
        ),
        metric(
            "anonymizer.failed_per_tick",
            "count/tick",
            w.failed as f64 / ticks,
        ),
        metric("trace.uncovered_pct", "%", t.uncovered_pct(spec)),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (mean_ns(&w.tick_ns) - untraced_mean) / untraced_mean,
        ),
    ]
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values print with
/// every digit Rust's shortest round-trip form gives.
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(samples_beyond_p90(100), 10);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_shape() {
        let line = json_line(
            true,
            10,
            0,
            &[metric("a_ms", "ms", 1.5), metric("b", "1/s", 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }
}
