//! Structure-aware mutation fuzzing of the map-file reader,
//! `roadnet::io::read_map`.
//!
//! Generate well-formed map files with `write_map`, then damage them the
//! way hostile or broken files arrive: numeric fields swapped for hostile
//! numbers (`nan`, `inf`, negatives, overflow), byte corruption, and
//! dropped, duplicated or spliced lines. The reader must never panic, and
//! every map it accepts must have finite coordinates and finite,
//! non-negative lengths, write back to a file that reads as the same map,
//! and route exactly like Dijkstra. Deterministic per `PROPTEST_SEED`;
//! CI sweeps several seeds in its `fuzz-smoke` job.

use proptest::prelude::*;
use roadnet::io::{read_map, write_map};
use roadnet::path::shortest_path;
use roadnet::{grid_city, irregular_city, IrregularConfig, JunctionId, RoadNetwork, TripRouter};

/// Numbers a damaged or hostile file carries in place of a valid field.
const HOSTILE: &[&str] = &[
    "nan",
    "NaN",
    "-nan",
    "inf",
    "-inf",
    "infinity",
    "-Infinity",
    "1e309",
    "-1e309",
    "-5",
    "-0",
    "0",
    "-0.0",
    "1e-320",
    "5e-324",
    "1e300",
    "-1e300",
    "4294967295",
    "4294967296",
    "-1",
    "+7",
    "0x10",
    "1_000",
    "",
    "1e",
    ".",
    "3.5",
    "12",
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A well-formed map file from a seed: a small grid or irregular map,
/// with explicit lengths on every segment.
fn corpus(seed: u64) -> String {
    let mut s = seed;
    let net = if splitmix(&mut s).is_multiple_of(2) {
        let rows = 2 + (splitmix(&mut s) % 4) as usize;
        let cols = 2 + (splitmix(&mut s) % 4) as usize;
        grid_city(rows, cols, 10.0 + (splitmix(&mut s) % 200) as f64)
    } else {
        let junctions = 12 + (splitmix(&mut s) % 20) as usize;
        irregular_city(&IrregularConfig {
            junctions,
            segments: junctions + (splitmix(&mut s) % 6) as usize,
            seed: splitmix(&mut s),
            ..Default::default()
        })
    };
    let mut buf = Vec::new();
    write_map(&net, &mut buf).expect("writing to a Vec never fails");
    String::from_utf8(buf).expect("write_map writes UTF-8")
}

/// Whatever `read_map` accepts must hold these invariants.
fn check_accepted(net: &RoadNetwork) -> Result<(), TestCaseError> {
    for j in net.junctions() {
        let p = j.position();
        prop_assert!(
            p.x.is_finite() && p.y.is_finite(),
            "junction {} at {p}",
            j.id()
        );
    }
    for s in net.segments() {
        let length = s.length();
        prop_assert!(
            length.is_finite() && length >= 0.0,
            "segment {} length {length}",
            s.id()
        );
    }
    let mut buf = Vec::new();
    write_map(net, &mut buf).expect("writing to a Vec never fails");
    let back = read_map(buf.as_slice());
    prop_assert!(
        back.is_ok(),
        "accepted map does not read back: {:?}",
        back.err()
    );
    prop_assert_eq!(&back.unwrap(), net);
    let n = net.junction_count() as u32;
    let mut router = TripRouter::new(net);
    for (a, b) in [(0, n - 1), (n / 2, 0), (n - 1, n / 3)] {
        let (a, b) = (JunctionId(a), JunctionId(b));
        prop_assert_eq!(
            router.route(a, b),
            shortest_path(net, a, b).map(|r| r.segments)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Numeric fields replaced by hostile numbers: each is either
    /// rejected or leaves a map that holds the invariants.
    #[test]
    fn hostile_numbers_are_rejected_or_harmless(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        let text = corpus(seed);
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .map(|l| l.split(' ').map(str::to_string).collect())
            .collect();
        let mut s = seed;
        for &pick in &picks {
            let count = lines.len();
            let line = &mut lines[pick as usize % count];
            if line[0].starts_with('#') {
                continue;
            }
            let field = 1 + splitmix(&mut s) as usize % (line.len() - 1);
            line[field] = HOSTILE[splitmix(&mut s) as usize % HOSTILE.len()].to_string();
        }
        let damaged: String = lines.iter().map(|l| l.join(" ") + "\n").collect();
        if let Ok(net) = read_map(damaged.as_bytes()) {
            check_accepted(&net)?;
        }
    }

    /// Arbitrary byte corruption never panics the reader.
    #[test]
    fn corrupted_bytes_are_rejected_or_harmless(
        seed in any::<u64>(),
        positions in proptest::collection::vec(any::<u32>(), 1..8),
        values in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut bytes = corpus(seed).into_bytes();
        for (&pos, &byte) in positions.iter().zip(&values) {
            let idx = pos as usize % bytes.len();
            bytes[idx] = byte;
        }
        if let Ok(net) = read_map(bytes.as_slice()) {
            check_accepted(&net)?;
        }
    }

    /// Dropped, duplicated and spliced lines: ids fall out of order or
    /// point nowhere, and the reader rejects or accepts cleanly.
    #[test]
    fn reordered_lines_are_rejected_or_harmless(
        seed in any::<u64>(),
        edits in proptest::collection::vec(any::<u32>(), 1..5),
        junk in proptest::collection::vec("[a-z0-9 .\\-]{0,24}", 0..3),
    ) {
        let text = corpus(seed);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for &edit in &edits {
            let at = edit as usize % lines.len();
            match edit % 3 {
                0 => {
                    lines.remove(at);
                }
                1 => {
                    let copy = lines[at].clone();
                    lines.insert(at, copy);
                }
                _ => {
                    let next = (at + 1) % lines.len();
                    lines.swap(at, next);
                }
            }
            if lines.is_empty() {
                return Ok(());
            }
        }
        for (i, j) in junk.iter().enumerate() {
            let at = (seed as usize).wrapping_add(i) % (lines.len() + 1);
            lines.insert(at, j.clone());
        }
        let damaged: String = lines.iter().map(|l| l.clone() + "\n").collect();
        if let Ok(net) = read_map(damaged.as_bytes()) {
            check_accepted(&net)?;
        }
    }
}
