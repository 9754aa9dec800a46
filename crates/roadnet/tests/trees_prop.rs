//! Per-source shortest-path trees are Dijkstra, read back: on every map
//! they fit, `SourceTrees::route` returns exactly
//! `shortest_path(..).segments`, `None` exactly where `shortest_path`
//! does (another component, an id out of range, or a float overflow),
//! and an empty route from a junction to itself. Each map gets one
//! store that answers every query in random order, so its trees are
//! built one after another from the same scratch state, and a stale
//! distance or predecessor would show. Every pair is checked on maps of
//! up to 40 junctions.
//!
//! The maps cover what decides a route: square grids (equal-length ties
//! everywhere), hand-built tie traps, irregular maps, disconnected maps,
//! infinite-length and zero-length roads, roads too short to change a
//! distance, non-finite coordinates, and lengths whose sums overflow.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{
    grid_city, irregular_city, path::shortest_path, IrregularConfig, JunctionId, Point,
    RoadNetwork, RoadNetworkBuilder, SegmentId, SourceTrees, TripRouter,
};

/// Checks `pairs` random pairs (plus every pair on maps of up to 40
/// junctions) and the ids just out of range.
fn assert_trees_match_dijkstra(net: &RoadNetwork, pairs: usize, seed: u64) {
    let router = TripRouter::new(net);
    let mut trees = SourceTrees::new(net, &router).expect("the trees fit the map");
    let n = net.junction_count() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries: Vec<(u32, u32)> = (0..pairs)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    if n <= 40 {
        queries.extend((0..n).flat_map(|a| (0..n).map(move |b| (a, b))));
    }
    queries.extend([(0, n), (n, 0)]);
    // Routes are appended after what the buffer already holds.
    let mut out = Vec::new();
    for (a, b) in queries {
        let (a, b) = (JunctionId(a), JunctionId(b));
        let expected = shortest_path(net, a, b).map(|r| r.segments);
        if a == b && a.0 < n {
            assert_eq!(expected, Some(Vec::new()));
        }
        out.clear();
        out.push(SegmentId(u32::MAX));
        let found = trees.route_into(a, b, &mut out);
        assert_eq!(found, expected.is_some(), "route {a} -> {b}");
        assert_eq!(out[0], SegmentId(u32::MAX));
        assert_eq!(
            out[1..],
            expected.unwrap_or_default()[..],
            "route {a} -> {b}"
        );
    }
}

/// A builder map from explicit junction positions and `(a, b, length)`
/// roads.
fn hand_built(points: &[(f64, f64)], roads: &[(u32, u32, f64)]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for &(x, y) in points {
        b.add_junction(Point::new(x, y));
    }
    for &(a, c, length) in roads {
        b.add_segment_with_length(JunctionId(a), JunctionId(c), length)
            .unwrap();
    }
    b.build().unwrap()
}

/// A `rows × cols` lattice at 100 m spacing, jittered by up to 30 m,
/// with each lattice road and about one diagonal in four kept at
/// random, and each road's length drawn from `lengths`. Few distinct
/// lengths make equal-length ties common; the trees never read the
/// coordinates, so lengths need not match them.
fn lattice(seed: u64, rows: usize, cols: usize, lengths: &[f64]) -> RoadNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    let ids: Vec<JunctionId> = (0..rows * cols)
        .map(|i| {
            let (r, c) = ((i / cols) as f64, (i % cols) as f64);
            let (dx, dy) = (rng.gen_range(-30.0..30.0), rng.gen_range(-30.0..30.0));
            b.add_junction(Point::new(c * 100.0 + dx, r * 100.0 + dy))
        })
        .collect();
    for r in 0..rows {
        for c in 0..cols {
            let mut neighbours = Vec::new();
            if c + 1 < cols {
                neighbours.push(ids[r * cols + c + 1]);
            }
            if r + 1 < rows {
                neighbours.push(ids[(r + 1) * cols + c]);
            }
            if r + 1 < rows && c + 1 < cols && rng.gen_range(0..4) == 0 {
                neighbours.push(ids[(r + 1) * cols + c + 1]);
            }
            for other in neighbours {
                if rng.gen_range(0..8) == 0 {
                    continue;
                }
                let length = lengths[rng.gen_range(0..lengths.len())];
                b.add_segment_with_length(ids[r * cols + c], other, length)
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// `net` with junction `j` moved to `p`.
fn moved(net: &RoadNetwork, j: JunctionId, p: Point) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for junction in net.junctions() {
        b.add_junction(if junction.id() == j {
            p
        } else {
            junction.position()
        });
    }
    for seg in net.segments() {
        b.add_segment_with_length(seg.a(), seg.b(), seg.length())
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn grids_with_equal_length_ties_route_like_dijkstra() {
    for (rows, cols, spacing) in [(12, 12, 100.0), (7, 9, 37.5), (1, 6, 10.0), (2, 2, 1.0)] {
        assert_trees_match_dijkstra(&grid_city(rows, cols, spacing), 3_000, rows as u64);
    }
}

/// `router_prop`'s maps where one exactness rule of the trip router
/// decides a route; Dijkstra's ties decide them here too.
#[test]
fn hand_built_tie_traps_route_like_dijkstra() {
    let stopping = hand_built(
        &[(0.0, 0.0), (1e-6, 0.0), (0.0, 0.5e-6), (1000.0 + 1e-6, 0.0)],
        &[(3, 1, 1000.0), (3, 2, 1000.0), (1, 0, 1e-6), (2, 0, 1e-6)],
    );
    let mut points = vec![(100.0, 100.0); 11];
    points[0] = (0.0, 0.0);
    points[5] = (5.0, 0.0);
    points[9] = (0.0, 5.0);
    points[3] = (0.0, 5.0);
    points[10] = (2.5, 2.5);
    let zero_length = hand_built(
        &points,
        &[
            (0, 5, 5.0),
            (0, 9, 5.0),
            (9, 3, 0.0),
            (5, 10, 10.0),
            (3, 10, 10.0),
        ],
    );
    let mut points = vec![(1e7, 1e7); 11];
    points[0] = (0.0, 0.0);
    points[5] = (1e6, 0.0);
    points[9] = (0.0, 1e6);
    points[3] = (1e-11, 1e6);
    points[10] = (5e5, 5e5);
    let rounding = hand_built(
        &points,
        &[
            (0, 5, 1e6),
            (0, 9, 1e6),
            (9, 3, 1e-11),
            (5, 10, 8e5),
            (3, 10, 8e5),
        ],
    );
    for net in [&stopping, &zero_length, &rounding] {
        assert_trees_match_dijkstra(net, 0, 0);
    }
    let router = TripRouter::new(&zero_length);
    let mut trees = SourceTrees::new(&zero_length, &router).unwrap();
    // Through j5, not through the zero-length road to j3.
    assert_eq!(
        trees.route(JunctionId(0), JunctionId(10)),
        Some(vec![SegmentId(0), SegmentId(3)])
    );
}

#[test]
fn disconnected_maps_return_none_like_dijkstra() {
    // Two 4 × 4 islands and one isolated junction.
    let base = grid_city(4, 4, 50.0);
    let mut b = RoadNetworkBuilder::new();
    for x0 in [0.0, 1_000.0] {
        for j in base.junctions() {
            let p = j.position();
            b.add_junction(Point::new(p.x + x0, p.y));
        }
    }
    b.add_junction(Point::new(500.0, 500.0));
    for seg in base.segments() {
        b.add_segment(seg.a(), seg.b()).unwrap();
        let (a, c) = (JunctionId(seg.a().0 + 16), JunctionId(seg.b().0 + 16));
        b.add_segment(a, c).unwrap();
    }
    let net = b.build().unwrap();
    assert_trees_match_dijkstra(&net, 0, 9);
    let router = TripRouter::new(&net);
    let mut trees = SourceTrees::new(&net, &router).unwrap();
    assert_eq!(trees.route(JunctionId(0), JunctionId(20)), None);
    assert_eq!(trees.route(JunctionId(32), JunctionId(0)), None);
    assert_eq!(
        trees.route(JunctionId(32), JunctionId(32)),
        Some(Vec::new())
    );
}

#[test]
fn non_finite_coordinates_route_like_dijkstra() {
    let base = lattice(3, 5, 7, &[100.0, 100.0, 120.0]);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
        let net = moved(&base, JunctionId(17), Point::new(bad, 0.0));
        assert_trees_match_dijkstra(&net, 0, 5);
    }
    // Finite coordinates whose squared distances overflow.
    assert_trees_match_dijkstra(&grid_city(5, 5, 1e154), 0, 6);
}

#[test]
fn overflowing_lengths_return_none_like_dijkstra() {
    // Two 6e307 roads add up to a finite length, three overflow; a 1e308
    // road overflows with any road but a short one.
    for seed in 0..4 {
        let net = lattice(seed, 5, 6, &[6e307, 1e308, 100.0]);
        assert_trees_match_dijkstra(&net, 0, seed);
    }
    let line = hand_built(
        &[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
        &[(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1.0)],
    );
    let router = TripRouter::new(&line);
    let mut trees = SourceTrees::new(&line, &router).unwrap();
    assert!(router.connected(JunctionId(0), JunctionId(2)));
    assert_eq!(trees.route(JunctionId(0), JunctionId(2)), None);
    assert_eq!(
        trees.route(JunctionId(1), JunctionId(3)),
        Some(vec![SegmentId(1), SegmentId(2)])
    );
    assert_trees_match_dijkstra(&line, 0, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_lattices_route_like_dijkstra(
        seed in any::<u64>(),
        rows in 1usize..6,
        cols in 2usize..8,
        lengths in 0u8..4,
    ) {
        // Ties; zero-length and infinite roads; roads too short to
        // change a distance; sums that overflow.
        let lengths: &[f64] = match lengths {
            0 => &[100.0, 100.0, 200.0],
            1 => &[0.0, 100.0, 100.0, 250.0, f64::INFINITY],
            2 => &[1e-11, 1e6, 1e6, 2e6],
            _ => &[6e307, 1e308, 50.0, 50.0],
        };
        assert_trees_match_dijkstra(&lattice(seed, rows, cols, lengths), 0, seed);
    }

    #[test]
    fn irregular_maps_route_like_dijkstra(seed in any::<u64>(), junctions in 30usize..200) {
        let net = irregular_city(&IrregularConfig {
            junctions,
            segments: junctions * 13 / 10,
            seed,
            ..Default::default()
        });
        assert_trees_match_dijkstra(&net, 500, seed);
    }
}
