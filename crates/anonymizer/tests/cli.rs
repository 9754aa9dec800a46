//! End-to-end test of the `rcloak` command-line toolkit: an owner
//! generates a map and keys, cloaks a segment, and a requester
//! de-anonymizes with a keyring — all through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn rcloak() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcloak"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rcloak-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_cli_workflow() {
    let map = tmp("city.map");
    let ring = tmp("keys.txt");
    let payload = tmp("cloak.bin");
    let svg = tmp("cloak.svg");

    // 1. Generate a map.
    let out = rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "8x8"])
        .output()
        .expect("rcloak runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(map.exists());

    // 2. Generate keys into a keyring.
    let out = rcloak()
        .args([
            "keys",
            "--levels",
            "2",
            "--seed",
            "9",
            "--out",
            ring.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Key1 ="));
    assert!(stdout.contains("Key2 ="));
    let key_lines: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("Key"))
        .map(|l| l.split(" = ").nth(1).unwrap().to_string())
        .collect();

    // 3. Anonymize segment 40 at two levels.
    let out = rcloak()
        .args([
            "anonymize",
            "--map",
            map.to_str().unwrap(),
            "--segment",
            "40",
            "--k",
            "5,12",
            "--keys",
            &format!("{},{}", key_lines[0], key_lines[1]),
            "--cars",
            "300",
            "--out",
            payload.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(payload.exists());
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg"));

    // 4. De-anonymize with the keyring: must recover s40 exactly.
    let out = rcloak()
        .args([
            "deanonymize",
            "--map",
            map.to_str().unwrap(),
            "--payload",
            payload.to_str().unwrap(),
            "--keyring",
            ring.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exact segment: s40"), "{stdout}");

    // 5. Partial peel with only the top key (hex, top level first).
    let out = rcloak()
        .args([
            "deanonymize",
            "--map",
            map.to_str().unwrap(),
            "--payload",
            payload.to_str().unwrap(),
            "--keys",
            &key_lines[1],
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reduced to level L1"), "{stdout}");

    // 6. Render the map with the (keyless) payload overlay.
    let out = rcloak()
        .args([
            "render",
            "--map",
            map.to_str().unwrap(),
            "--payload",
            payload.to_str().unwrap(),
            "--width",
            "60",
            "--height",
            "24",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    for p in [map, ring, payload, svg] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn cli_rejects_bad_input() {
    // No subcommand.
    let out = rcloak().output().unwrap();
    assert!(!out.status.success());
    // Unknown subcommand.
    let out = rcloak().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // Missing required option.
    let out = rcloak().args(["map"]).output().unwrap();
    assert!(!out.status.success());
    // Key/k count mismatch.
    let map = tmp("mismatch.map");
    rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "4x4"])
        .output()
        .unwrap();
    let key = keystream::Key256::from_seed(1).to_hex();
    let out = rcloak()
        .args([
            "anonymize",
            "--map",
            map.to_str().unwrap(),
            "--segment",
            "0",
            "--k",
            "5,10",
            "--keys",
            &key,
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(map);
}

/// A level is one byte on the wire and a keyring needs at least one
/// key, so `keys --levels` outside 1..=255 is a usage error that writes
/// nothing.
#[test]
fn cli_keys_rejects_level_counts_outside_one_to_255() {
    let ring = tmp("levels-ring.txt");
    for levels in ["0", "256"] {
        let out = rcloak()
            .args(["keys", "--levels", levels, "--seed", "1"])
            .args(["--out", ring.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--levels {levels}: {stderr}");
        assert!(stderr.contains("--levels"), "--levels {levels}: {stderr}");
        assert!(!ring.exists(), "--levels {levels} wrote a keyring");
    }
    let out = rcloak()
        .args(["keys", "--levels", "255", "--seed", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 255);
    assert!(stdout.lines().last().unwrap().starts_with("Key255 = "));
}

#[test]
fn cli_rejects_generated_cities_below_the_generator_minimum() {
    let min = roadnet::citygen::MIN_CITY_SEGMENTS;
    let out = rcloak()
        .args(["simulate", "--ticks", "1", "--cars", "20"])
        .args(["--map", &format!("city:7:{}", min - 1)])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error:") && stderr.contains(&min.to_string()));
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    // The minimum itself generates and simulates.
    let out = rcloak()
        .args(["simulate", "--ticks", "1", "--cars", "20"])
        .args(["--map", &format!("city:7:{min}")])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_batch_anonymizes_a_csv_of_requests() {
    let map = tmp("batch.map");
    let input = tmp("batch-requests.csv");
    let results = tmp("batch-results.csv");

    let out = rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "8x8"])
        .output()
        .unwrap();
    assert!(out.status.success());

    std::fs::write(
        &input,
        "# owner,segment\nalice, 40\nbob,10\ncarol,77\n\ndave,3\n",
    )
    .unwrap();

    let out = rcloak()
        .args([
            "batch",
            "--map",
            map.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--workers",
            "4",
            "--cars",
            "300",
            "--out",
            results.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("anonymized 4/4 requests"), "{stdout}");

    let csv = std::fs::read_to_string(&results).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "owner,segment,status,region_size,attempts");
    assert_eq!(lines.len(), 5);
    // Input order preserved, every request succeeded on uniform traffic.
    for (line, owner) in lines[1..].iter().zip(["alice", "bob", "carol", "dave"]) {
        assert!(line.starts_with(&format!("{owner},")), "{line}");
        assert!(line.contains(",ok,"), "{line}");
    }

    // An explicit zero is a usage error; only a missing flag means
    // every core.
    let out = rcloak()
        .args(["batch", "--map", map.to_str().unwrap()])
        .args(["--input", input.to_str().unwrap(), "--workers", "0"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--workers must be at least 1"), "{stderr}");

    for p in [map, input, results] {
        let _ = std::fs::remove_file(p);
    }
}

/// A batch that repeats an owner runs the owner's rows in input order,
/// as one-by-one requests would: the CSV is the same at one worker and
/// at four, and a row's line depends only on the rows before it, so one
/// more row for the owner changes no earlier line.
#[test]
fn cli_batch_runs_a_repeated_owner_in_input_order() {
    let rows: String = (0..60)
        .map(|i| match i % 3 {
            0 => format!("dup,{}\n", i * 31 % 2000),
            _ => format!("owner-{i},{}\n", i * 17 % 2000),
        })
        .collect();
    let run = |name: &str, rows: &str, workers: &str| {
        let input = tmp(&format!("{name}.csv"));
        let results = tmp(&format!("{name}-{workers}-results.csv"));
        std::fs::write(&input, rows).unwrap();
        let out = rcloak()
            .args([
                "batch",
                "--map",
                "city:7:2000",
                "--input",
                input.to_str().unwrap(),
                "--workers",
                workers,
                "--cars",
                "2000",
                "--out",
                results.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(&results).unwrap();
        for p in [input, results] {
            let _ = std::fs::remove_file(p);
        }
        csv
    };
    let one = run("batch-repeated", &rows, "1");
    assert_eq!(one.lines().filter(|l| l.starts_with("dup,")).count(), 20);
    assert_eq!(run("batch-repeated", &rows, "4"), one);
    let longer = run("batch-repeated-longer", &format!("{rows}dup,5\n"), "4");
    assert!(longer.starts_with(&one), "{longer}\nvs\n{one}");
}

/// Malformed batch rows: every bad row is reported on stderr with its
/// line number, the valid rows still run, and the exit code is nonzero
/// (1, not the usage code 2) — with an all-good CSV exiting 0.
#[test]
fn cli_batch_reports_malformed_rows_with_line_numbers() {
    let map = tmp("badrows.map");
    let input = tmp("badrows.csv");

    rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "8x8"])
        .output()
        .unwrap();

    // Line 3 has no comma, line 5 a non-numeric segment; 2 valid rows.
    std::fs::write(&input, "# hdr\nalice,40\nbob\n\ncarol,4x\ndave,3\n").unwrap();
    let out = rcloak()
        .args([
            "batch",
            "--map",
            map.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--cars",
            "300",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "data error, not usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let input_name = input.to_str().unwrap();
    assert!(
        stderr.contains(&format!("{input_name}:3: expected `owner,segment`")),
        "{stderr}"
    );
    assert!(
        stderr.contains(&format!("{input_name}:5: bad segment id `4x`")),
        "{stderr}"
    );
    assert!(stderr.contains("2 malformed row(s)"), "{stderr}");
    assert!(!stderr.contains("usage:"), "not a usage error: {stderr}");
    // The valid rows still ran, in order.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("anonymized 2/2 requests"), "{stdout}");
    assert!(stdout.contains("alice,40,ok,"), "{stdout}");
    assert!(stdout.contains("dave,3,ok,"), "{stdout}");

    // Nothing but malformed rows: still per-row reports, still exit 1.
    std::fs::write(&input, "alice\nbob;7\n").unwrap();
    let out = rcloak()
        .args([
            "batch",
            "--map",
            map.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(":1: expected `owner,segment`"), "{stderr}");
    assert!(stderr.contains(":2: expected `owner,segment`"), "{stderr}");
    assert!(stderr.contains("nothing to run"), "{stderr}");

    // The fully-valid case exits 0 with no stderr noise.
    std::fs::write(&input, "alice,40\nbob,10\n").unwrap();
    let out = rcloak()
        .args([
            "batch",
            "--map",
            map.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--cars",
            "300",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("malformed"));

    for p in [map, input] {
        let _ = std::fs::remove_file(p);
    }
}

/// A hostile batch file cannot flood stderr: per-row reports are capped
/// and the overflow is summarized in one line.
#[test]
fn cli_batch_caps_malformed_row_reports() {
    let map = tmp("capped.map");
    let input = tmp("capped.csv");
    rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "8x8"])
        .output()
        .unwrap();
    // 30 malformed rows (cap is 20) plus one valid row.
    let mut csv = "no-comma\n".repeat(30);
    csv.push_str("alice,40\n");
    std::fs::write(&input, csv).unwrap();
    let out = rcloak()
        .args([
            "batch",
            "--map",
            map.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--cars",
            "300",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr
            .lines()
            .filter(|l| l.contains("expected `owner,segment`"))
            .count(),
        20,
        "{stderr}"
    );
    assert!(
        stderr.contains("10 more malformed row(s) not shown"),
        "{stderr}"
    );
    assert!(stderr.contains("30 malformed row(s)"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("anonymized 1/1 requests"), "{stdout}");
    for p in [map, input] {
        let _ = std::fs::remove_file(p);
    }
}

/// An unwritable `--out` is a data error: exit 1 with a one-line error,
/// never a panic backtrace.
#[test]
fn cli_unwritable_out_paths_fail_cleanly() {
    let map = tmp("unwritable.map");
    let input = tmp("unwritable.csv");
    rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "8x8"])
        .output()
        .unwrap();
    std::fs::write(&input, "alice,40\n").unwrap();
    let bad_out = "/nonexistent-dir-rcloak/results.csv";
    let out = rcloak()
        .args([
            "batch",
            "--map",
            map.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--cars",
            "300",
            "--out",
            bad_out,
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "data error, not usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("write {bad_out}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    // Same for `simulate --out`.
    let out = rcloak()
        .args([
            "simulate", "--ticks", "2", "--cars", "200", "--grid", "7x7", "--owners", "3", "--out",
            bad_out,
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");

    for p in [map, input] {
        let _ = std::fs::remove_file(p);
    }
}

/// A payload file full of adversarial bytes is hostile *data*: both
/// `deanonymize` and `render` must reject it with exit 1 and no usage
/// dump — and certainly no panic.
#[test]
fn cli_garbage_payload_is_a_clean_data_error() {
    let map = tmp("garbage.map");
    let junk = tmp("garbage.bin");
    rcloak()
        .args(["map", "--out", map.to_str().unwrap(), "--grid", "8x8"])
        .output()
        .unwrap();
    // Plausible-prefix junk: a huge length field right after random
    // bytes, the over-allocation shape the decode cap exists for.
    let mut bytes = vec![0x52, 0x43, 0x4c, 0x4b, 0xff, 0x07];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xa5; 40]);
    std::fs::write(&junk, &bytes).unwrap();
    let key = "ab".repeat(32);
    for subcmd in ["deanonymize", "render"] {
        let mut args = vec![
            subcmd,
            "--map",
            map.to_str().unwrap(),
            "--payload",
            junk.to_str().unwrap(),
        ];
        if subcmd == "deanonymize" {
            args.extend(["--keys", key.as_str()]);
        }
        let out = rcloak().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{subcmd}: data error, not usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{subcmd}: {stderr}");
        assert!(!stderr.contains("usage:"), "{subcmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{subcmd}: {stderr}");
    }
    for p in [map, junk] {
        let _ = std::fs::remove_file(p);
    }
}

/// `rcloak simulate --chain-store PATH` journals every owner chain to a
/// durable write-ahead log; a rerun over the same path resumes, and an
/// unopenable path is a clean data error (exit 1), not a panic.
#[test]
fn cli_simulate_chain_store_journals_and_resumes() {
    let journal = tmp("chains.rcs");
    let _ = std::fs::remove_file(&journal);
    let run = || {
        rcloak()
            .args([
                "simulate",
                "--ticks",
                "3",
                "--cars",
                "250",
                "--grid",
                "8x8",
                "--owners",
                "5",
                "--seed",
                "3",
                "--chain-store",
                journal.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let out = run();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("journaling owner chains to"), "{stdout}");
    assert!(stdout.contains("verified 15/15"), "{stdout}");
    let first_len = std::fs::metadata(&journal).unwrap().len();
    assert!(first_len > 0, "the journal holds the ratchet advances");

    // Rerun over the surviving journal: chains resume, receipts verify.
    let out = run();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("verified 15/15"),
        "resumed chains still verify"
    );

    // An unopenable journal path: exit 1, one clean error line.
    let out = rcloak()
        .args([
            "simulate",
            "--ticks",
            "1",
            "--cars",
            "200",
            "--grid",
            "7x7",
            "--chain-store",
            "/nonexistent-dir-rcloak/chains.rcs",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "data error, not usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let _ = std::fs::remove_file(journal);
}

/// `rcloak simulate` runs the continuous pipeline end to end: every
/// receipt verifies, and the per-tick metrics CSV has one row per tick.
#[test]
fn cli_simulate_runs_the_continuous_pipeline() {
    let metrics = tmp("sim-metrics.csv");
    let out = rcloak()
        .args([
            "simulate",
            "--ticks",
            "6",
            "--cars",
            "250",
            "--grid",
            "8x8",
            "--owners",
            "10",
            "--cadence",
            "2",
            "--k",
            "4,8",
            "--seed",
            "3",
            "--out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("issued 60 receipts"), "{stdout}");
    assert!(stdout.contains("verified 60/60"), "{stdout}");

    let csv = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 7, "header + one row per tick");
    assert!(lines[0].starts_with("tick,clock_s,"));
    let header_cols = lines[0].split(',').count();
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), header_cols, "{row}");
    }
    // Cadence 2: ticks 2, 4, 6 refreshed the snapshot, odd ticks did not.
    assert!(lines[1].contains(",false,"), "{}", lines[1]);
    assert!(lines[2].contains(",true,"), "{}", lines[2]);

    // RPLE engine works through the same surface.
    let out = rcloak()
        .args([
            "simulate", "--ticks", "3", "--cars", "200", "--grid", "7x7", "--owners", "6",
            "--engine", "rple",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Bad flag values are usage errors (exit 2).
    let out = rcloak()
        .args(["simulate", "--ticks", "zero"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(metrics);
}

/// `rcloak simulate --attack MODE` runs the attack leg alongside the
/// pipeline and widens the per-tick metrics CSV with the leg's rollup
/// columns — engine stream first, then the NRE control.
#[test]
fn cli_simulate_attack_flag_widens_the_csv() {
    let metrics = tmp("sim-attack-metrics.csv");
    let out = rcloak()
        .args([
            "simulate",
            "--ticks",
            "4",
            "--cars",
            "250",
            "--grid",
            "8x8",
            "--owners",
            "6",
            "--k",
            "4,8",
            "--seed",
            "5",
            "--attack",
            "all",
            "--out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("attack leg `all`"), "{stdout}");

    let csv = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 5, "header + one row per tick");
    assert!(
        lines[0].ends_with(
            "attack_observations,attack_mean_entropy_bits,attack_guess_rate,\
             nre_observations,nre_mean_entropy_bits,nre_guess_rate"
        ),
        "{}",
        lines[0]
    );
    let header_cols = lines[0].split(',').count();
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), header_cols, "{row}");
    }
    // Both streams observed every tracked owner each tick.
    let first: Vec<&str> = lines[1].split(',').collect();
    assert_eq!(first[header_cols - 6], "6", "engine observations per tick");
    assert_eq!(first[header_cols - 3], "6", "nre observations per tick");

    // --no-baseline keeps the arity but leaves the NRE cells empty.
    let out = rcloak()
        .args([
            "simulate",
            "--ticks",
            "2",
            "--cars",
            "200",
            "--grid",
            "7x7",
            "--owners",
            "4",
            "--attack",
            "peel",
            "--no-baseline",
            "--out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    let header_cols = lines[0].split(',').count();
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), header_cols, "{row}");
        assert!(row.ends_with(",,,"), "empty NRE cells: {row}");
    }

    // Unknown adversary modes are usage errors.
    let out = rcloak()
        .args(["simulate", "--ticks", "1", "--attack", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(metrics);
}

/// `rcloak simulate --shards N` runs the same pipeline over N map
/// partitions, LBS and attack legs included: every receipt verifies
/// against its issuing shard's snapshot, every CSV row has the header's
/// arity, and owners hand off between shards.
#[test]
fn cli_simulate_runs_sharded_with_every_leg() {
    let metrics = tmp("sim-sharded-metrics.csv");
    let out = rcloak()
        .args([
            "simulate",
            "--map",
            "city:7:2000",
            "--shards",
            "4",
            "--owners",
            "16",
            "--attack",
            "all",
            "--lbs",
            "2",
            "--out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let verified = stdout
        .lines()
        .find_map(|l| l.strip_prefix("verified "))
        .and_then(|l| l.split(':').next())
        .unwrap_or_else(|| panic!("no verification line: {stdout}"));
    let (ok, issued) = verified.split_once('/').expect("verified N/N");
    assert_eq!(ok, issued, "{stdout}");
    assert!(issued.parse::<usize>().unwrap() > 0, "{stdout}");
    assert!(stdout.contains("partition: 4 shards"), "{stdout}");

    let csv = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 51, "header + one row per default tick");
    let header: Vec<&str> = lines[0].split(',').collect();
    assert!(header.ends_with(&[
        "nre_observations",
        "nre_mean_entropy_bits",
        "nre_guess_rate"
    ]));
    let handoffs = header
        .iter()
        .position(|&c| c == "handoffs")
        .expect("handoffs column");
    let mut total = 0usize;
    for row in &lines[1..] {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), header.len(), "{row}");
        total += cells[handoffs].parse::<usize>().unwrap();
    }
    assert!(total > 0, "no owner crossed a partition boundary");
    let _ = std::fs::remove_file(metrics);
}

/// `rcloak attack` runs the continuous adversarial evaluation: the
/// summary separates the keyed engine stream from the NRE control, and
/// the CSV logs one row per (scheme, owner, tick).
#[test]
fn cli_attack_evaluates_the_receipt_stream() {
    let log = tmp("attack-log.csv");
    let out = rcloak()
        .args([
            "attack",
            "--ticks",
            "8",
            "--cars",
            "250",
            "--grid",
            "8x8",
            "--owners",
            "5",
            "--k",
            "4,8",
            "--seed",
            "3",
            "--out",
            log.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("adversary vs  rge:"), "{stdout}");
    assert!(stdout.contains("adversary vs  nre:"), "{stdout}");
    assert!(stdout.contains("separation:"), "{stdout}");

    let csv = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("scheme,tick,owner,"), "{}", lines[0]);
    // 8 ticks × 5 owners × 2 schemes (engine + NRE control) + header.
    assert_eq!(lines.len(), 1 + 8 * 5 * 2, "{}", lines.len());
    let header_cols = lines[0].split(',').count();
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), header_cols, "{row}");
    }
    assert!(lines[1..].iter().any(|l| l.starts_with("rge,")));
    assert!(lines[1..].iter().any(|l| l.starts_with("nre,")));

    // --no-baseline drops the control; a chosen adversary mode is echoed.
    let out = rcloak()
        .args([
            "attack",
            "--ticks",
            "3",
            "--cars",
            "150",
            "--grid",
            "7x7",
            "--owners",
            "3",
            "--engine",
            "rple",
            "--adversary",
            "move",
            "--no-baseline",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("adversary `move`"), "{stdout}");
    assert!(stdout.contains("NRE control off"), "{stdout}");
    assert!(!stdout.contains("adversary vs  nre:"), "{stdout}");

    // Unknown adversaries are usage errors (exit 2).
    let out = rcloak()
        .args(["attack", "--adversary", "psychic"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(log);
}
