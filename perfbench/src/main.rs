//! `perfbench --workload grid|city|sparse [--seed N] [--seconds S]
//! [--trace 0|1]`: runs one workload and prints its metrics; the last
//! line of standard output is the JSON result. Exits 1 when a check
//! fails and 2 on a usage error, printing no result in either case.

use perfbench::report::{self, peak_rss_mib, samples_beyond_p90};
use perfbench::run::{traced, untraced, Window};
use perfbench::workload::{Spec, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload grid|city|sparse [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed, args.seconds);
    println!(
        "workload {} seed {} (traffic {}, pipeline {:#x}), {} cars, {} owners, {} shard(s)",
        spec.workload.name(),
        args.seed,
        spec.seeds.traffic,
        spec.seeds.pipeline,
        spec.cars,
        spec.owners,
        spec.shards
    );
    println!(
        "ticks: 1 in setup, {} warm-up, {} timed ({} samples beyond p90)",
        spec.warmup_ticks,
        spec.timed_ticks,
        samples_beyond_p90(spec.timed_ticks)
    );
    match if args.trace {
        run_traced(&spec)
    } else {
        run_untraced(&spec)
    } {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_untraced(spec: &Spec) -> Result<String, String> {
    let u = untraced(spec, spec.setup_repeats)?;
    let w = &u.run.window;
    println!(
        "setup_s samples: {:?}",
        u.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );
    println!("timed-window digest fold: {:016x}", w.digest_fold);
    print_requests(w);
    if let Some(a) = &w.attack {
        println!(
            "identity_bits: {:?} (engine stream, {} observations)",
            a.mean_user_entropy(),
            a.observations()
        );
    }
    let rss = peak_rss_mib().ok_or("VmHWM unavailable in /proc/self/status")?;
    let metrics = report::end_to_end(&u, rss);
    for m in &metrics {
        println!("{:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(w, &metrics))
}

/// Requests are owner-ticks; a refused one (no receipt) is an
/// availability outcome that `issued_share` measures.
fn print_requests(w: &Window) {
    println!(
        "requests: {} attempted, {} refused",
        w.issued + w.failed,
        w.failed
    );
}

/// The JSON result. Its operations are the timed ticks: a tick that
/// errs or fails a check aborts the run, so a printed result has none
/// failed.
fn result_line(w: &Window, metrics: &[report::Metric]) -> String {
    report::json_line(true, w.tick_ns.len() as u64, 0, metrics)
}

fn run_traced(spec: &Spec) -> Result<String, String> {
    let t = traced(spec)?;
    let w = &t.replay.window;
    println!(
        "replay matched all {} tick digests; timed-window digest fold: {:016x}",
        t.replay.digests.len(),
        w.digest_fold
    );
    print_requests(w);
    // The span dump is a by-product: a full disk must not fail the run.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.tsv", spec.workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.tracer.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => println!(
            "{} spans written to {}",
            t.tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
    }
    let metrics = report::per_layer(spec, &t);
    for m in &metrics {
        println!("{:<28} {:>12.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(w, &metrics))
}
