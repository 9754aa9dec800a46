//! A few ticks of every workload: the replay driver must reproduce the
//! pipeline's tick digests, and every metric either mode prints must
//! carry the name and unit `BENCHMARK.json` declares.

use perfbench::report::{end_to_end, json_line, per_layer, Metric};
use perfbench::run::{traced, untraced};
use perfbench::workload::{Spec, Workload};

fn few_ticks(workload: Workload) -> Spec {
    let mut spec = Spec::new(workload, 1, 1);
    spec.warmup_ticks = 2;
    spec.timed_ticks = 3;
    spec.setup_repeats = 2;
    spec
}

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// Every metric is declared with its unit, in the given section, and
/// the section declares nothing the run did not print.
fn assert_declared(metrics: &[Metric], section: &str) {
    let json = declared();
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    for m in metrics {
        assert!(!m.name.is_empty() && !m.unit.is_empty(), "{m:?}");
        assert!(m.value.is_finite(), "{m:?}");
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(body.contains(&entry), "{section} does not declare {entry}");
    }
    assert_eq!(
        body.matches("\"name\"").count(),
        metrics.len(),
        "{section} declares metrics the run does not print"
    );
    let line = json_line(true, 1, 0, metrics);
    assert!(line.starts_with("{\"correct\": true") && line.ends_with("}}"));
}

fn smoke(workload: Workload) {
    let spec = few_ticks(workload);
    let u = untraced(&spec, spec.setup_repeats).expect("untraced run passes its checks");
    assert_eq!(u.setup_s.len(), 2);
    assert_eq!(u.run.digests.len(), 1 + 2 + 3);
    assert_eq!(u.run.window.tick_ns.len(), 3);
    assert_declared(&end_to_end(&u, 1.0), "end_to_end");

    let t = traced(&spec).expect("the replay matches every pipeline digest");
    assert_eq!(t.replay.digests, t.reference.digests);
    assert_eq!(t.reference.digests, u.run.digests, "one seed, one stream");
    let layers = per_layer(&spec, &t);
    assert_declared(&layers, "per_layer");
    let uncovered = layers
        .iter()
        .find(|m| m.name == "trace.uncovered_pct")
        .expect("coverage is reported")
        .value;
    assert!(
        uncovered < 5.0,
        "spans cover only {:.1}%",
        100.0 - uncovered
    );
}

#[test]
fn grid_smoke() {
    smoke(Workload::Grid);
}

#[test]
fn city_smoke() {
    smoke(Workload::City);
}

#[test]
fn sparse_smoke() {
    smoke(Workload::Sparse);
}

#[test]
fn cli_rejects_bad_arguments_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for args in [
        &["--workload", "paper"][..],
        &["--seed", "1"],
        &["--workload", "grid", "--trace", "2"],
        &["--workload", "grid", "--seconds"],
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
