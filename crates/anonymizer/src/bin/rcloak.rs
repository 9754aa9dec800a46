//! `rcloak` — the ReverseCloak toolkit as a command-line tool.
//!
//! The shell-driven equivalent of the paper's Anonymizer / De-anonymizer
//! GUIs. Owners generate maps and keys, cloak a segment, and publish the
//! payload; requesters reduce payloads with the keys they were given.
//!
//! ```text
//! rcloak map --out city.map [--atlanta | --grid 10x10] [--seed N]
//! rcloak keys --levels 3 [--seed N] [--out keyring.txt]
//! rcloak anonymize --map city.map --segment 40 --k 5,10,20 \
//!        (--keys k1,k2,k3 | --keyring keyring.txt) [--engine rge|rple]
//!        [--cars 10000] [--out cloak.bin] [--svg out.svg]
//! rcloak deanonymize --map city.map --payload cloak.bin \
//!        (--keys k3,k2 | --keyring keyring.txt) [--engine rge|rple]
//! rcloak render --map city.map [--payload cloak.bin] [--width 100] [--height 40]
//! rcloak batch --map city.map --input requests.csv [--engine rge|rple]
//!        [--workers N] [--cars N] [--seed N] [--out results.csv]
//! rcloak simulate --ticks 100 --cars 1000 [--grid RxC | --map city.map]
//!        [--engine rge|rple] [--k 5,10,20] [--owners N] [--cadence N]
//!        [--dt SECONDS] [--lbs N] [--seed N] [--out metrics.csv] [--no-verify]
//!        [--chain-store journal.rcs] [--shards N]
//!        [--attack peel|correlate|move|all|adaptive] [--no-baseline]
//! rcloak attack --ticks 100 --cars 1000 [--grid RxC | --map city.map]
//!        [--engine rge|rple] [--adversary peel|correlate|move|all|adaptive]
//!        [--k 5,10,20] [--owners N] [--cadence N] [--dt SECONDS] [--seed N]
//!        [--out attack.csv] [--no-baseline]
//! rcloak tournament --out DIR [--profile quick|full]
//! ```
//!
//! `batch` reads one `owner,segment` pair per CSV line (blank lines and
//! `#` comments skipped), runs them through the service's batch path on
//! `--workers` workers (every core when absent), and reports one result
//! line per request in input order. A repeated owner's rows run in input
//! order, as one-by-one calls would, so the output does not depend on
//! the worker count.
//! Malformed rows are reported individually on stderr with their line
//! numbers; the valid rows still run, and the exit code is 1 when any
//! row was malformed.
//!
//! `simulate` runs the continuous anonymization pipeline: traffic ticks,
//! snapshot swaps every `--cadence` ticks, batched re-anonymization of
//! `--owners` tracked cars, LBS probes, and (unless `--no-verify`)
//! per-receipt verification of exact reversibility, issue-time
//! k-anonymity, and grant preservation. With `--chain-store PATH` every
//! owner's key-chain ratchet is journaled to a crash-safe write-ahead
//! log at `PATH` before its receipt is issued, and re-running over the
//! same path resumes every chain at its journaled epoch (no epoch
//! reuse). Everywhere a `--map FILE` is accepted, the spec
//! `city:SEED:SEGMENTS` (e.g. `city:7:100000`) generates a synthetic
//! city of about that many segments in memory instead; with
//! `--shards N` the map is partitioned N ways, owners are anonymized
//! against the masked snapshot of the part their car is in, and switch
//! part at the tick boundary after their car crosses. Per-tick metrics
//! go to `--out` as CSV (with a `handoffs` column); with `--attack MODE` the
//! attack leg runs alongside and the CSV gains its per-tick rollup
//! columns (engine stream and NRE control — `--no-baseline` disables
//! the control and leaves its cells empty).
//!
//! `attack` runs the same pipeline with the continuous adversarial
//! evaluation on: a keyless temporal adversary subscribes to the receipt
//! stream (multi-tick peel intersection, snapshot correlation,
//! movement-model pruning — pick with `--adversary`), with a
//! non-reversible random-expansion (NRE) control cloaked side-by-side as
//! the vulnerable comparison (`--no-baseline` disables it). The summary
//! compares posterior entropy, anonymity-set size and guess success per
//! stream; the per-owner/per-tick log goes to `--out` as CSV. The
//! `adaptive` adversary is the Bayesian trajectory particle filter
//! (`cloak::attack::adaptive`).
//!
//! `tournament` runs the full scenario tournament — every engine
//! (RGE / RPLE / NRE control) × every adversary × every behavior mix —
//! and writes `cells.csv` (cumulative rollups) and `trajectories.csv`
//! (per-cell per-tick identity-entropy trajectories) into `--out DIR`.
//! `--profile` (default: the `TOURNAMENT_PROFILE` environment variable,
//! falling back to `quick`) picks the grid size.
//!
//! Keys are 64-digit hex strings; `--keys` lists them **top level first**
//! for `deanonymize` and **level 1 first** for `anonymize` (matching the
//! paper's `Key_i` numbering).

use anonymizer::{render_regions, render_svg, AnonymizerService, Engine, EngineChoice};
use cloak::{anonymize_with_retry, deanonymize, CloakPayload, LevelRequirement, PrivacyProfile};
use keystream::{Key256, Level};
use mobisim::{OccupancySnapshot, SimConfig, Simulation};
use roadnet::{RoadNetwork, SegmentId};
use std::collections::HashMap;
use std::io::BufReader;
use std::process::ExitCode;

/// How a subcommand failed: `Usage` errors print the usage text and exit
/// 2; `Data` errors (bad input data, invariant violations) print only the
/// message and exit 1, so scripts can tell them apart.
enum CmdError {
    Usage(String),
    Data(String),
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError::Usage(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let result = match cmd.as_str() {
        "map" => cmd_map(&opts).map_err(CmdError::from),
        "keys" => cmd_keys(&opts).map_err(CmdError::from),
        "anonymize" => cmd_anonymize(&opts).map_err(CmdError::from),
        "deanonymize" => cmd_deanonymize(&opts),
        "render" => cmd_render(&opts),
        "batch" => cmd_batch(&opts),
        "simulate" => cmd_simulate(&opts),
        "attack" => cmd_attack(&opts),
        "tournament" => cmd_tournament(&opts),
        other => Err(CmdError::Usage(format!("unknown subcommand `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError::Usage(e)) => usage(&e),
        Err(CmdError::Data(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage:\n  rcloak map --out FILE [--atlanta | --grid RxC] [--seed N]\n  \
         rcloak keys --levels N [--seed N] [--out keyring.txt]\n  \
         rcloak anonymize --map FILE --segment ID --k K1,K2,.. --keys HEX,.. \
         [--engine rge|rple] [--cars N] [--seed N] [--out FILE] [--svg FILE]\n  \
         rcloak deanonymize --map FILE --payload FILE (--keys HEX,.. | --keyring FILE) [--engine rge|rple]\n  \
         rcloak render --map FILE [--payload FILE] [--width W] [--height H]\n  \
         rcloak batch --map FILE --input FILE [--engine rge|rple] [--workers N] [--cars N] [--seed N] [--out FILE]\n  \
         rcloak simulate --ticks N --cars N [--grid RxC | --map FILE] [--engine rge|rple] \
         [--k K1,K2,..] [--owners N] [--cadence N] [--dt S] [--lbs N] [--seed N] [--out FILE] [--no-verify] \
         [--chain-store FILE] [--shards N] [--attack peel|correlate|move|all|adaptive] [--no-baseline]\n  \
         (any --map FILE also accepts city:SEED:SEGMENTS, a generated synthetic city)\n  \
         rcloak attack --ticks N --cars N [--grid RxC | --map FILE] [--engine rge|rple] \
         [--adversary peel|correlate|move|all|adaptive] [--k K1,K2,..] [--owners N] [--cadence N] [--dt S] \
         [--seed N] [--out FILE] [--no-baseline]\n  \
         rcloak tournament --out DIR [--profile quick|full]"
    );
    ExitCode::from(2)
}

type Opts = HashMap<String, String>;

/// Flags that take no value.
const BOOL_FLAGS: [&str; 3] = ["atlanta", "no-verify", "no-baseline"];

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        if BOOL_FLAGS.contains(&name) {
            opts.insert(name.to_string(), "true".into());
            i += 1;
            continue;
        }
        i += 1;
        let value = args
            .get(i)
            .ok_or_else(|| format!("--{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
        i += 1;
    }
    Ok(opts)
}

fn get_seed(opts: &Opts) -> u64 {
    opts.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Parses an `RxC` grid spec into a network, rejecting zero dimensions
/// (an empty grid would panic deep in the generator).
fn parse_grid(spec: &str) -> Result<RoadNetwork, String> {
    let (r, c): (usize, usize) = spec
        .split_once('x')
        .and_then(|(r, c)| Some((r.parse().ok()?, c.parse().ok()?)))
        .ok_or("--grid expects RxC, e.g. 10x10")?;
    if r == 0 || c == 0 || r * c < 2 {
        return Err(format!(
            "--grid needs at least one segment (2 junctions), got `{spec}`"
        ));
    }
    Ok(roadnet::grid_city(r, c, 100.0))
}

fn load_map(opts: &Opts) -> Result<RoadNetwork, String> {
    let path = opts.get("map").ok_or("--map is required")?;
    // `city:SEED:SEGMENTS` generates a synthetic city in memory instead
    // of reading a file — the city-scale entry point needs no map file.
    if let Some(spec) = path.strip_prefix("city:") {
        let (seed, segments): (u64, usize) = spec
            .split_once(':')
            .and_then(|(s, n)| Some((s.parse().ok()?, n.parse().ok()?)))
            .ok_or("--map city: expects city:SEED:SEGMENTS, e.g. city:7:100000")?;
        if segments < roadnet::citygen::MIN_CITY_SEGMENTS {
            return Err(format!(
                "--map {path}: a generated city needs at least {} segments",
                roadnet::citygen::MIN_CITY_SEGMENTS
            ));
        }
        return Ok(roadnet::city_map(seed, segments));
    }
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    roadnet::io::read_map(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

fn parse_engine(opts: &Opts) -> Result<EngineChoice, String> {
    match opts.get("engine").map(String::as_str) {
        None | Some("rge") => Ok(EngineChoice::Rge),
        Some("rple") => Ok(EngineChoice::Rple { t_len: 12 }),
        Some(other) => Err(format!("unknown engine `{other}`")),
    }
}

fn parse_keys(opts: &Opts) -> Result<Vec<Key256>, String> {
    if let Some(path) = opts.get("keyring") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let mgr = keystream::read_keyring(BufReader::new(file)).map_err(|e| e.to_string())?;
        return Ok(mgr.iter().map(|(_, k)| k).collect());
    }
    opts.get("keys")
        .ok_or("--keys or --keyring is required")?
        .split(',')
        .map(|h| Key256::from_hex(h).map_err(|e| format!("bad key `{h}`: {e}")))
        .collect()
}

fn cmd_map(opts: &Opts) -> Result<(), String> {
    let out = opts.get("out").ok_or("--out is required")?;
    let seed = get_seed(opts);
    let net = if opts.contains_key("atlanta") {
        roadnet::atlanta_like(seed)
    } else if let Some(spec) = opts.get("grid") {
        parse_grid(spec)?
    } else {
        roadnet::grid_city(10, 10, 100.0)
    };
    let mut buf = Vec::new();
    roadnet::io::write_map(&net, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(out, buf).map_err(|e| format!("write {out}: {e}"))?;
    println!("{}", roadnet::NetworkStats::compute(&net));
    println!("wrote {out}");
    Ok(())
}

fn cmd_keys(opts: &Opts) -> Result<(), String> {
    let levels: usize = opts
        .get("levels")
        .ok_or("--levels is required")?
        .parse()
        .map_err(|_| "--levels expects a number")?;
    // A level is one byte on the wire, and a keyring needs a key.
    if !(1..=u8::MAX as usize).contains(&levels) {
        return Err(format!(
            "--levels must be from 1 to {}, got {levels}",
            u8::MAX
        ));
    }
    // Auto key generation, like the GUI button, from operating-system
    // entropy; seeded only when asked. Seeded keys go through the
    // sponge-derived grid (`KeyManager::from_seed`), which
    // domain-separates every (seed, level) pair.
    let mgr = match opts.get("seed") {
        Some(s) => {
            let seed: u64 = s.parse().map_err(|_| "--seed expects a number")?;
            keystream::KeyManager::from_seed(levels, seed)
        }
        None => {
            let mut os = keystream::entropy::OsEntropy::new()
                .map_err(|e| format!("read {}: {e}", keystream::entropy::SOURCE))?;
            keystream::KeyManager::generate(levels, &mut os)
        }
    };
    if let Some(path) = opts.get("out") {
        // Owner-only (0o600) creation: the keyring is secret material.
        keystream::write_keyring_file(&mgr, path).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote keyring with {} keys to {path}", mgr.level_count());
    }
    for (level, k) in mgr.iter() {
        println!("Key{} = {}", level.0, k.to_hex());
    }
    Ok(())
}

fn cmd_anonymize(opts: &Opts) -> Result<(), String> {
    let net = load_map(opts)?;
    let segment = SegmentId(
        opts.get("segment")
            .ok_or("--segment is required")?
            .parse()
            .map_err(|_| "--segment expects a number")?,
    );
    let ks: Vec<u32> = opts
        .get("k")
        .ok_or("--k is required (e.g. 5,10,20)")?
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad k `{s}`")))
        .collect::<Result<_, _>>()?;
    let keys = parse_keys(opts)?;
    if keys.len() != ks.len() {
        return Err(format!(
            "{} k-values but {} keys; one key per level",
            ks.len(),
            keys.len()
        ));
    }
    let mut builder = PrivacyProfile::builder();
    for &k in &ks {
        builder = builder.level(LevelRequirement::with_k(k));
    }
    let profile = builder.build().map_err(|e| e.to_string())?;

    let seed = get_seed(opts);
    let (net, snapshot) = traffic_snapshot(opts, net);
    let net = &net;

    let choice = parse_engine(opts)?;
    let engine = Engine::build(net, choice);
    let (out, attempts) = anonymize_with_retry(
        net,
        &snapshot,
        segment,
        &profile,
        &keys,
        seed ^ 0xc10a_c0de,
        engine.as_dyn(),
        8,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "cloaked {segment} into {} segments over {} levels ({} attempt(s))",
        out.payload.region_size(),
        out.payload.levels.len(),
        attempts
    );
    if let Some(path) = opts.get("out") {
        std::fs::write(path, out.payload.encode()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote payload to {path}");
    }
    if let Some(path) = opts.get("svg") {
        let regions = AnonymizerService::level_regions(&out);
        std::fs::write(path, render_svg(net, &regions, 1000))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote SVG to {path}");
    }
    Ok(())
}

/// Simulates traffic over `net` for the k-anonymity check (`--cars`,
/// `--seed`), returning the network and the captured occupancy snapshot.
fn traffic_snapshot(opts: &Opts, net: RoadNetwork) -> (RoadNetwork, OccupancySnapshot) {
    let cars = opts
        .get("cars")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000.min(net.segment_count() * 2));
    let seed = get_seed(opts);
    let mut sim = Simulation::new(
        net,
        SimConfig {
            cars,
            seed,
            ..Default::default()
        },
    );
    sim.run(3, 10.0);
    let snapshot = OccupancySnapshot::capture(&sim);
    (sim.network().share_index(), snapshot)
}

fn cmd_deanonymize(opts: &Opts) -> Result<(), CmdError> {
    let net = load_map(opts)?;
    let path = opts
        .get("payload")
        .ok_or_else(|| CmdError::Usage("--payload is required".into()))?;
    // A payload that won't read or decode is hostile/damaged *data*, not
    // a usage mistake: report it without the usage dump (exit 1).
    let bytes = std::fs::read(path).map_err(|e| CmdError::Data(format!("read {path}: {e}")))?;
    let payload =
        CloakPayload::decode(&bytes).map_err(|e| CmdError::Data(format!("{path}: {e}")))?;
    let mut keys = parse_keys(opts)?;
    if opts.contains_key("keyring") {
        // Keyrings store level 1 first; peeling needs top level first.
        keys.reverse();
    }
    // Keys are supplied top level first.
    let top = payload.top_level().0;
    let leveled: Vec<(Level, Key256)> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| (Level(top - i as u8), k))
        .collect();
    let choice = parse_engine(opts)?;
    let engine = Engine::build(&net, choice);
    let view = deanonymize(&net, &payload, &leveled, engine.as_dyn())
        .map_err(|e| CmdError::Data(e.to_string()))?;
    println!(
        "reduced to level L{}: {} segments",
        view.level.0,
        view.segments.len()
    );
    let ids: Vec<String> = view.segments.iter().map(|s| s.to_string()).collect();
    println!("{{{}}}", ids.join(", "));
    if view.level == Level(0) {
        println!("exact segment: {}", view.anchor);
    }
    Ok(())
}

fn cmd_batch(opts: &Opts) -> Result<(), CmdError> {
    use anonymizer::AnonymizerConfig;

    let net = load_map(opts)?;
    let input = opts
        .get("input")
        .ok_or_else(|| "--input is required".to_string())?;
    let text = std::fs::read_to_string(input)
        .map_err(|e| CmdError::Usage(format!("read {input}: {e}")))?;
    // Malformed rows are collected (not aborted on): bad rows are
    // reported with their line numbers (capped — a hostile file cannot
    // flood stderr), the good rows still run, and the exit code ends up
    // nonzero. The parser itself is the fuzz-hardened library surface.
    let parsed = anonymizer::parse_batch_requests(&text, get_seed(opts));
    for report in parsed.capped_reports(input) {
        eprintln!("error: {report}");
    }
    let anonymizer::BatchInput {
        requests,
        malformed,
    } = parsed;
    if requests.is_empty() {
        return Err(if malformed.is_empty() {
            CmdError::Usage(format!("{input}: no requests"))
        } else {
            CmdError::Data(format!(
                "{input}: all {} row(s) malformed, nothing to run",
                malformed.len()
            ))
        });
    }

    let (net, snapshot) = traffic_snapshot(opts, net);

    // No flag means 0: the batch runs on every available core.
    let batch_parallelism = match opts.get("workers") {
        None => 0,
        Some(s) => match s.parse().map_err(|_| format!("bad --workers `{s}`"))? {
            0 => return Err(CmdError::Usage("--workers must be at least 1".into())),
            n => n,
        },
    };
    let workers = roadnet::fanout::workers(batch_parallelism);
    let service = AnonymizerService::new(
        net,
        AnonymizerConfig {
            engine: parse_engine(opts)?,
            batch_parallelism,
            ..Default::default()
        },
    );
    service.update_snapshot(snapshot);
    let t0 = std::time::Instant::now();
    let results = service.anonymize_batch(&requests);
    let elapsed = t0.elapsed();

    let mut ok = 0usize;
    let mut lines = Vec::with_capacity(results.len());
    for (req, result) in requests.iter().zip(&results) {
        match result {
            Ok(receipt) => {
                ok += 1;
                lines.push(format!(
                    "{},{},ok,{},{}",
                    req.owner,
                    req.segment.0,
                    receipt.payload.region_size(),
                    receipt.attempts
                ));
            }
            Err(e) => lines.push(format!("{},{},error,{e},", req.owner, req.segment.0)),
        }
    }
    println!(
        "anonymized {ok}/{} requests on {workers} worker(s) in {:.1} ms ({:.0} req/s)",
        results.len(),
        elapsed.as_secs_f64() * 1e3,
        results.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if let Some(path) = opts.get("out") {
        let mut csv = String::from("owner,segment,status,region_size,attempts\n");
        csv.push_str(&lines.join("\n"));
        csv.push('\n');
        // A failed write after the batch ran is a data error (exit 1),
        // not a bad invocation: re-running with the same flags won't fix it.
        std::fs::write(path, csv).map_err(|e| CmdError::Data(format!("write {path}: {e}")))?;
        println!("wrote results to {path}");
    } else {
        for line in &lines {
            println!("{line}");
        }
    }
    if ok == 0 {
        return Err(CmdError::Data("every request failed".into()));
    }
    if !malformed.is_empty() {
        return Err(CmdError::Data(format!(
            "{} malformed row(s) in {input} (reported above); {} valid request(s) ran",
            malformed.len(),
            requests.len()
        )));
    }
    Ok(())
}

/// Parses a numeric flag with a default.
fn parse_num(opts: &Opts, name: &str, default: usize) -> Result<usize, String> {
    match opts.get(name) {
        Some(s) => s.parse().map_err(|_| format!("bad --{name} `{s}`")),
        None => Ok(default),
    }
}

/// The options `simulate` and `attack` share: run shape, network, and
/// engine/profile configuration. Parsed once by
/// [`parse_pipeline_world`] so the two subcommands cannot drift.
struct PipelineWorld {
    ticks: usize,
    cars: usize,
    owners: usize,
    cadence: usize,
    dt: f64,
    seed: u64,
    net: RoadNetwork,
    config: anonymizer::AnonymizerConfig,
}

/// Shared flag handling for the pipeline-driving subcommands; only the
/// defaults differ (`default_ticks`, and the cap the default owner
/// count is clamped to).
fn parse_pipeline_world(
    opts: &Opts,
    default_ticks: usize,
    default_owner_cap: usize,
) -> Result<PipelineWorld, CmdError> {
    let ticks = parse_num(opts, "ticks", default_ticks)?;
    let cars = parse_num(opts, "cars", 1000)?;
    let owners = parse_num(opts, "owners", default_owner_cap.min(cars.max(1)))?;
    let cadence = parse_num(opts, "cadence", 1)?;
    let dt: f64 = match opts.get("dt") {
        Some(s) => s.parse().map_err(|_| format!("bad --dt `{s}`"))?,
        None => 10.0,
    };
    if ticks == 0 {
        return Err(CmdError::Usage("--ticks must be at least 1".into()));
    }
    if !(dt > 0.0 && dt.is_finite()) {
        return Err(CmdError::Usage(format!(
            "--dt must be a positive number of seconds, got `{dt}`"
        )));
    }
    let seed = get_seed(opts);

    let net = if opts.contains_key("map") {
        load_map(opts)?
    } else if let Some(spec) = opts.get("grid") {
        parse_grid(spec)?
    } else {
        roadnet::grid_city(12, 12, 100.0)
    };

    let mut config = anonymizer::AnonymizerConfig {
        engine: parse_engine(opts)?,
        ..Default::default()
    };
    if let Some(ks) = opts.get("k") {
        let mut builder = PrivacyProfile::builder();
        for part in ks.split(',') {
            let k: u32 = part.parse().map_err(|_| format!("bad k `{part}` in --k"))?;
            builder = builder.level(LevelRequirement::with_k(k));
        }
        config.default_profile = builder.build().map_err(|e| e.to_string())?;
    }
    Ok(PipelineWorld {
        ticks,
        cars,
        owners,
        cadence,
        dt,
        seed,
        net,
        config,
    })
}

fn cmd_simulate(opts: &Opts) -> Result<(), CmdError> {
    use anonymizer::{AttackConfig, ContinuousPipeline, PipelineConfig, TickReport};
    use cloak::AdversaryMode;
    use keystream::{ChainStore, FileStore, MemStore};
    use mobisim::SimConfig;
    use std::sync::Arc;

    let PipelineWorld {
        ticks,
        cars,
        owners,
        cadence,
        dt,
        seed,
        net,
        config,
    } = parse_pipeline_world(opts, 50, 64)?;
    let lbs_probes = parse_num(opts, "lbs", 4)?;
    let shards = parse_num(opts, "shards", 1)?;

    let verify = !opts.contains_key("no-verify");
    let attack_mode = match opts.get("attack").map(String::as_str) {
        None => None,
        Some(s) => Some(AdversaryMode::parse(s).ok_or_else(|| {
            format!("unknown adversary `{s}` (peel|correlate|move|all|adaptive)")
        })?),
    };
    // A durable chain store journals every ratchet advance before its
    // receipt is issued; re-running over the same path resumes every
    // owner's chain at its journaled epoch. An unopenable path is a data
    // error (exit 1): the invocation is fine, the filesystem is not.
    let chain_store_path = opts.get("chain-store");
    let store: Arc<dyn ChainStore> = match chain_store_path {
        Some(path) => Arc::new(FileStore::open(path).map_err(|e| CmdError::Data(e.to_string()))?),
        None => Arc::new(MemStore::new()),
    };
    let mut pipeline = ContinuousPipeline::sharded(
        net,
        SimConfig {
            cars,
            seed,
            ..Default::default()
        },
        config,
        PipelineConfig {
            dt,
            snapshot_cadence: cadence,
            tracked_owners: owners,
            seed: seed ^ 0x51e_71c4,
            verify,
            lbs_probes,
            attack: attack_mode.map(|mode| AttackConfig {
                mode,
                baseline: !opts.contains_key("no-baseline"),
                // `simulate` only exports the per-tick rollups; the
                // long-form per-owner log is `rcloak attack`'s job.
                keep_records: false,
                ..Default::default()
            }),
            ..Default::default()
        },
        shards,
        store,
    )
    .map_err(|e| CmdError::Data(e.to_string()))?;
    println!(
        "simulating {ticks} ticks × {dt}s: {cars} cars on {} segments, {} tracked owners, \
         engine {}, snapshot cadence {} (verification {}, attack leg {})",
        pipeline.service().network().segment_count(),
        pipeline.tracked_owner_count(),
        pipeline.service().engine().name(),
        cadence.max(1),
        if verify { "on" } else { "off" },
        attack_mode.map_or("off".to_string(), |m| format!("`{}`", m.name())),
    );
    if pipeline.shard_count() > 1 {
        println!(
            "partition: {} (owners hand off between shards at tick boundaries)",
            pipeline.partition().quality(pipeline.sim().network())
        );
    }
    if let Some(path) = chain_store_path {
        println!("journaling owner chains to {path} (crash-safe; reruns resume epochs)");
    }

    let t0 = std::time::Instant::now();
    let mut reports = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        reports.push(pipeline.tick().map_err(|e| CmdError::Data(e.to_string()))?);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let issued: usize = reports.iter().map(|r| r.issued).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    let verified: usize = reports.iter().map(|r| r.verified).sum();
    let mut quality = cloak::QualitySummary::new();
    let mut lbs_stats = lbs::QueryStats::new();
    for r in &reports {
        quality.merge(&r.quality);
        lbs_stats.merge(&r.lbs);
    }
    println!(
        "issued {issued} receipts ({failed} failed) in {:.1} ms — {:.1} ticks/s, \
         {:.0} receipts/s, {} cross-shard handoffs",
        elapsed * 1e3,
        ticks as f64 / elapsed.max(1e-9),
        issued as f64 / elapsed.max(1e-9),
        pipeline.handoffs_total(),
    );
    println!("regions: {quality}");
    if lbs_probes > 0 {
        println!("lbs: {lbs_stats}");
    }
    if verify {
        println!(
            "verified {verified}/{issued}: exact deanonymization, issue-time k-anonymity, \
             grant preservation"
        );
    }
    if let Some(path) = opts.get("out") {
        // With the attack leg on, the CSV carries its per-tick rollup
        // columns too (same arity on every row).
        let mut csv = if attack_mode.is_some() {
            TickReport::csv_header_with_attack()
        } else {
            String::from(TickReport::CSV_HEADER)
        };
        csv.push('\n');
        for r in &reports {
            csv.push_str(&if attack_mode.is_some() {
                r.csv_row_with_attack()
            } else {
                r.csv_row()
            });
            csv.push('\n');
        }
        // As in `batch`: the simulation already ran, so a write failure
        // is a data error (exit 1), not a usage error.
        std::fs::write(path, csv).map_err(|e| CmdError::Data(format!("write {path}: {e}")))?;
        println!("wrote per-tick metrics to {path}");
    }
    Ok(())
}

fn cmd_attack(opts: &Opts) -> Result<(), CmdError> {
    use anonymizer::{AttackConfig, AttackRecord, ContinuousPipeline, PipelineConfig};
    use cloak::AdversaryMode;
    use mobisim::SimConfig;

    let PipelineWorld {
        ticks,
        cars,
        owners,
        cadence,
        dt,
        seed,
        net,
        config,
    } = parse_pipeline_world(opts, 100, 16)?;
    let mode = match opts.get("adversary").map(String::as_str) {
        None => AdversaryMode::All,
        Some(s) => AdversaryMode::parse(s)
            .ok_or_else(|| format!("unknown adversary `{s}` (peel|correlate|move|all|adaptive)"))?,
    };
    let baseline = !opts.contains_key("no-baseline");
    let k_top = config.default_profile.top_requirement().k;

    let mut pipeline = ContinuousPipeline::new(
        net,
        SimConfig {
            cars,
            seed,
            ..Default::default()
        },
        config,
        PipelineConfig {
            dt,
            snapshot_cadence: cadence,
            tracked_owners: owners,
            seed: seed ^ 0x51e_71c4,
            verify: false,
            lbs_probes: 0,
            attack: Some(AttackConfig {
                mode,
                baseline,
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let engine_name = pipeline.service().engine().name().to_lowercase();
    println!(
        "attacking {ticks} ticks × {dt}s: {cars} cars on {} segments, {} tracked owners, \
         engine {engine_name}, adversary `{}`, NRE control {}",
        pipeline.service().network().segment_count(),
        pipeline.tracked_owner_count(),
        mode.name(),
        if baseline { "on" } else { "off" },
    );

    let t0 = std::time::Instant::now();
    for _ in 0..ticks {
        pipeline.tick().map_err(|e| CmdError::Data(e.to_string()))?;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let engine = pipeline.attack_summary().expect("attack leg is on").clone();
    println!(
        "observed {} receipts in {:.1} ms ({:.1} ticks/s)",
        engine.observations(),
        elapsed * 1e3,
        ticks as f64 / elapsed.max(1e-9),
    );
    println!("adversary vs {engine_name:>4}: {engine}");
    if let Some(nre) = pipeline.baseline_attack_summary() {
        println!(
            "adversary vs  nre: {nre}  [keyless deterministic expansion, replayable; {} failed growth(s)]",
            pipeline.baseline_attack_failures()
        );
        println!(
            "separation: {engine_name} keeps {:.2} bits over user identities \
             (k_top={k_top} → uniform-over-k is {:.2} bits); nre keeps {:.2} bits \
             ({:.2} over segments)",
            engine.mean_user_entropy(),
            (k_top.max(1) as f64).log2(),
            nre.mean_user_entropy(),
            nre.mean_entropy(),
        );
    }
    // Per-mode observe() cost footer: the graph-index win (packed
    // movement masks) is visible from the CLI without running the
    // criterion benches.
    let per_obs = |time: Option<std::time::Duration>, observations: u64| {
        time.map(|t| t.as_secs_f64() * 1e6 / observations.max(1) as f64)
    };
    if let Some(engine_us) = per_obs(pipeline.attack_observe_time(), engine.observations()) {
        let nre = pipeline
            .baseline_attack_summary()
            .map(|s| s.observations())
            .and_then(|n| per_obs(pipeline.baseline_observe_time(), n));
        match nre {
            Some(nre_us) => println!(
                "observe() cost [mode {}]: {engine_name} {engine_us:.1} µs/receipt, \
                 nre {nre_us:.1} µs/receipt (replay inversion included)",
                mode.name(),
            ),
            None => println!(
                "observe() cost [mode {}]: {engine_name} {engine_us:.1} µs/receipt",
                mode.name(),
            ),
        }
    }
    if let Some(path) = opts.get("out") {
        let mut csv = String::from(AttackRecord::CSV_HEADER);
        csv.push('\n');
        for record in pipeline.attack_records() {
            csv.push_str(&record.csv_row());
            csv.push('\n');
        }
        // The evaluation already ran: a write failure is a data error.
        std::fs::write(path, csv).map_err(|e| CmdError::Data(format!("write {path}: {e}")))?;
        println!("wrote per-owner attack log to {path}");
    }
    Ok(())
}

fn cmd_tournament(opts: &Opts) -> Result<(), CmdError> {
    use anonymizer::tournament::{self, TournamentProfile};

    let profile = match opts.get("profile").map(String::as_str) {
        None => TournamentProfile::from_env(),
        Some("quick") => TournamentProfile::quick(),
        Some("full") => TournamentProfile::full(),
        Some(other) => {
            return Err(CmdError::Usage(format!(
                "unknown profile `{other}` (quick|full)"
            )))
        }
    };
    let out = opts
        .get("out")
        .ok_or_else(|| CmdError::Usage("tournament needs --out DIR".into()))?;

    println!(
        "running the {} tournament: {} ticks × {} cars on a {}×{} grid, {} owners, k={:?}",
        profile.name(),
        profile.ticks,
        profile.cars,
        profile.grid.0,
        profile.grid.1,
        profile.owners,
        profile.ks,
    );
    let t0 = std::time::Instant::now();
    let report = tournament::run(&profile).map_err(CmdError::Data)?;
    println!(
        "ran {} cells in {:.1} ms",
        report.cells.len(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    println!(
        "{:<28} {:>8} {:>8} {:>7} {:>6}",
        "cell", "H(seg)", "H(user)", "guess", "sound"
    );
    for cell in &report.cells {
        println!(
            "{:<28} {:>8.2} {:>8.2} {:>7.2} {:>6.2}",
            cell.name(),
            cell.summary.mean_entropy(),
            cell.summary.mean_user_entropy(),
            cell.summary.guess_success_rate(),
            cell.summary.soundness(),
        );
    }

    std::fs::create_dir_all(out).map_err(|e| CmdError::Data(format!("create {out}: {e}")))?;
    let cells_path = format!("{out}/cells.csv");
    let traj_path = format!("{out}/trajectories.csv");
    std::fs::write(&cells_path, report.cells_csv())
        .map_err(|e| CmdError::Data(format!("write {cells_path}: {e}")))?;
    std::fs::write(&traj_path, report.trajectories_csv())
        .map_err(|e| CmdError::Data(format!("write {traj_path}: {e}")))?;
    println!("wrote {cells_path} and {traj_path}");
    Ok(())
}

fn cmd_render(opts: &Opts) -> Result<(), CmdError> {
    let net = load_map(opts)?;
    let width = opts
        .get("width")
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let height = opts
        .get("height")
        .and_then(|s| s.parse().ok())
        .unwrap_or(36);
    let regions = match opts.get("payload") {
        Some(path) => {
            let bytes =
                std::fs::read(path).map_err(|e| CmdError::Data(format!("read {path}: {e}")))?;
            let payload =
                CloakPayload::decode(&bytes).map_err(|e| CmdError::Data(format!("{path}: {e}")))?;
            // Without keys only the full region is known: one flat level.
            vec![(payload.top_level(), payload.segments)]
        }
        None => Vec::new(),
    };
    println!("{}", render_regions(&net, &regions, width, height));
    if !regions.is_empty() {
        println!("{}", anonymizer::legend(regions[0].0 .0 as usize));
    }
    Ok(())
}
