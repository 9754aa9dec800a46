//! The trip router is Dijkstra, only faster: for random junction pairs,
//! `TripRouter::route` returns exactly `shortest_path(..).segments`, and
//! `None` exactly when `shortest_path` does. Each map gets one router
//! that answers every query, so stale per-query state would show.
//!
//! The maps cover the router's exactness rules: square grids (equal-length
//! ties everywhere), generated irregular and city maps, builder maps with
//! lengths below the chord, a zero-length segment, coincident junctions,
//! non-finite coordinates, and a disconnected map. The landmark term gets
//! its own maps: indexes installed with 1, 2, 5, 13, 16 and 32 landmarks
//! (5 and 13 leave a tail after the router's four-landmark lanes), maps whose
//! roads are much longer than their chords (so landmarks, not chords,
//! order the keys), and a map whose millimetre road turns the term off.
//!
//! Two more properties serve batch planning: routers made with
//! `TripRouter::share` route like the router they share, from other
//! threads too, and `TripRouter::connected` is exactly `shortest_path`
//! reachability on maps with missing and infinitely long roads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{
    city_map, grid_city, irregular_city, path::shortest_path, GraphIndex, IndexBudget,
    IrregularConfig, JunctionId, Point, RoadNetwork, RoadNetworkBuilder, TripRouter,
};

/// Checks `pairs` random pairs (plus every pair on maps of up to 40
/// junctions) and returns the mean number of junctions the router
/// settled per routed query.
fn assert_router_matches_dijkstra(net: &RoadNetwork, pairs: usize, seed: u64) -> f64 {
    let mut router = TripRouter::new(net);
    let n = net.junction_count() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries: Vec<(u32, u32)> = (0..pairs)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    if n <= 40 {
        queries.extend((0..n).flat_map(|a| (0..n).map(move |b| (a, b))));
    }
    let (mut settled, mut routed) = (0usize, 0usize);
    for (a, b) in queries {
        let (a, b) = (JunctionId(a), JunctionId(b));
        let expected = shortest_path(net, a, b).map(|r| r.segments);
        assert_eq!(router.route(a, b), expected, "route {a} -> {b}");
        if expected.is_some_and(|r| !r.is_empty()) {
            settled += router.settled();
            routed += 1;
        }
    }
    settled as f64 / routed.max(1) as f64
}

/// A `rows × cols` lattice at 100 m spacing, optionally jittered, with
/// each lattice edge and some diagonals kept at random. Every length is
/// `chord × factor` with `factor` drawn from `factors`, rounded to whole
/// meters so equal-length ties are common.
fn lattice_map(seed: u64, rows: usize, cols: usize, jitter: f64, factors: &[f64]) -> RoadNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    let mut ids = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let (dx, dy) = if jitter > 0.0 {
                (
                    rng.gen_range(-jitter..jitter),
                    rng.gen_range(-jitter..jitter),
                )
            } else {
                (0.0, 0.0)
            };
            ids.push(b.add_junction(Point::new(c as f64 * 100.0 + dx, r as f64 * 100.0 + dy)));
        }
    }
    let at = |r: usize, c: usize| ids[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            let mut neighbours = Vec::new();
            if c + 1 < cols {
                neighbours.push(at(r, c + 1));
            }
            if r + 1 < rows {
                neighbours.push(at(r + 1, c));
            }
            if r + 1 < rows && c + 1 < cols && rng.gen_range(0..4) == 0 {
                neighbours.push(at(r + 1, c + 1));
            }
            for other in neighbours {
                if rng.gen_range(0..10) == 0 {
                    continue;
                }
                let from = at(r, c);
                let chord = b
                    .junction_position(from)
                    .unwrap()
                    .distance(b.junction_position(other).unwrap());
                let factor = factors[rng.gen_range(0..factors.len())];
                b.add_segment_with_length(from, other, (chord * factor).round().max(1.0))
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn grids_with_equal_length_ties_route_like_dijkstra() {
    for (rows, cols, spacing) in [(12, 12, 100.0), (7, 9, 37.5), (1, 6, 10.0), (2, 2, 1.0)] {
        let net = grid_city(rows, cols, spacing);
        assert_router_matches_dijkstra(&net, 3_000, rows as u64);
    }
}

#[test]
fn city_maps_route_like_dijkstra_and_search_less() {
    for seed in [1, 7, 23] {
        let net = city_map(seed, 1_500);
        let settled = assert_router_matches_dijkstra(&net, 400, seed);
        // Dijkstra settles about half the map per random trip. With the
        // landmark term the router settles 3.4-4.0 % of it; with the
        // Euclidean bound alone, 11-13 %.
        assert!(
            settled < 0.07 * net.junction_count() as f64,
            "city {seed}: {settled:.0} of {} junctions settled per route",
            net.junction_count()
        );
    }
}

#[test]
fn lengths_below_the_chord_route_like_dijkstra() {
    for seed in 0..6 {
        let net = lattice_map(seed, 9, 9, 30.0, &[0.4, 1.0, 1.0, 1.3, 2.0]);
        assert_router_matches_dijkstra(&net, 800, seed);
        let net = lattice_map(seed, 8, 10, 0.0, &[0.5, 1.0, 1.5]);
        assert_router_matches_dijkstra(&net, 800, seed);
    }
}

#[test]
fn zero_length_segments_route_like_dijkstra() {
    for seed in 0..6 {
        let base = lattice_map(seed, 6, 6, 0.0, &[1.0]);
        let mut b = RoadNetworkBuilder::new();
        for j in base.junctions() {
            b.add_junction(j.position());
        }
        // A junction on top of junction 14, tied to it by a zero-length
        // road and to two other junctions by ordinary roads.
        let twin = b.add_junction(base.junction(JunctionId(14)).position());
        for (i, seg) in base.segments().enumerate() {
            // One zero-length road between distinct points.
            let length = if i == seed as usize * 3 {
                0.0
            } else {
                seg.length()
            };
            b.add_segment_with_length(seg.a(), seg.b(), length).unwrap();
        }
        b.add_segment_with_length(twin, JunctionId(14), 0.0)
            .unwrap();
        for other in [JunctionId(8), JunctionId(21)] {
            if !b.has_segment(twin, other) {
                b.add_segment_with_length(twin, other, 100.0).unwrap();
            }
        }
        assert_router_matches_dijkstra(&b.build().unwrap(), 400, seed);
    }
}

#[test]
fn non_finite_coordinates_route_like_dijkstra() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
        let base = lattice_map(3, 6, 7, 20.0, &[1.0, 1.2]);
        let mut b = RoadNetworkBuilder::new();
        for j in base.junctions() {
            let p = j.position();
            let p = if j.id() == JunctionId(17) {
                Point::new(bad, p.y)
            } else {
                p
            };
            b.add_junction(p);
        }
        for seg in base.segments() {
            b.add_segment_with_length(seg.a(), seg.b(), seg.length())
                .unwrap();
        }
        assert_router_matches_dijkstra(&b.build().unwrap(), 400, 5);
    }
    // Finite coordinates whose squared distances overflow.
    assert_router_matches_dijkstra(&grid_city(5, 5, 1e154), 400, 6);
}

#[test]
fn disconnected_maps_return_none_like_dijkstra() {
    let mut b = RoadNetworkBuilder::new();
    let base = grid_city(4, 4, 50.0);
    for j in base.junctions() {
        b.add_junction(j.position());
    }
    // A second 4×4 island far to the east, and one isolated junction.
    for j in base.junctions() {
        let p = j.position();
        b.add_junction(Point::new(p.x + 1_000.0, p.y));
    }
    b.add_junction(Point::new(500.0, 500.0));
    for seg in base.segments() {
        b.add_segment(seg.a(), seg.b()).unwrap();
        let (a, c) = (JunctionId(seg.a().0 + 16), JunctionId(seg.b().0 + 16));
        b.add_segment(a, c).unwrap();
    }
    let net = b.build().unwrap();
    assert_router_matches_dijkstra(&net, 500, 9);
    let mut router = TripRouter::new(&net);
    assert_eq!(router.route(JunctionId(0), JunctionId(20)), None);
    assert_eq!(router.route(JunctionId(32), JunctionId(0)), None);
    assert_eq!(router.route(JunctionId(0), JunctionId(33)), None);
    assert_eq!(
        router.route(JunctionId(32), JunctionId(32)),
        Some(Vec::new())
    );
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

/// Maps built so that each exactness rule decides a route: without it,
/// the router would pick another of two equally short routes.
#[test]
fn hand_built_tie_traps_route_like_dijkstra() {
    // Stopping: the target j0 is 1 µm past both j1 and j2 (each 1 km
    // from the source j3). j2's road is curvy, so j2 is settled first
    // and the target is queued with a key equal to j1's; the target's
    // smaller id pops it first. Dijkstra's predecessor is j1, the
    // smaller id at the same distance, which a search stopping at that
    // first pop never settles.
    let stopping = hand_built(
        &[(0.0, 0.0), (1e-6, 0.0), (0.0, 0.5e-6), (1000.0 + 1e-6, 0.0)],
        &[(3, 1, 1000.0), (3, 2, 1000.0), (1, 0, 1e-6), (2, 0, 1e-6)],
    );
    // Zero length: j9 reaches j3 over a zero-length road between
    // coincident points after j5 (same distance, smaller id than j9) has
    // already been settled, so Dijkstra settles j5 before j3 and keeps j5
    // as j10's predecessor although j3 has the smaller id.
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
    // Rounding: the same trap at 1,000 km, where a 10 pm road adds
    // nothing to a distance.
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
        assert_router_matches_dijkstra(net, 0, 0);
    }
    let expected = shortest_path(&zero_length, JunctionId(0), JunctionId(10)).unwrap();
    assert_eq!(expected.junctions, [0, 5, 10].map(JunctionId));
    let expected = shortest_path(&stopping, JunctionId(3), JunctionId(0)).unwrap();
    assert_eq!(expected.junctions, [3, 1, 0].map(JunctionId));
}

/// `net` with an index of `landmarks` landmarks installed in place of
/// the default one.
fn with_landmarks(net: RoadNetwork, landmarks: usize) -> RoadNetwork {
    let index = GraphIndex::build_with(
        &net,
        &IndexBudget {
            landmarks,
            reach_hop_cap: 0,
        },
        1,
    );
    assert!(net.install_graph_index(index));
    net
}

#[test]
fn installed_landmark_counts_route_like_dijkstra() {
    for landmarks in [1, 2, 5, 13, 16, 32] {
        for seed in [3, 11] {
            let net = with_landmarks(city_map(seed, 900), landmarks);
            assert_router_matches_dijkstra(&net, 300, seed);
            let net = with_landmarks(lattice_map(seed, 8, 9, 25.0, &[0.6, 1.0, 2.5]), landmarks);
            assert_router_matches_dijkstra(&net, 400, seed);
        }
        let net = with_landmarks(grid_city(9, 7, 50.0), landmarks);
        assert_router_matches_dijkstra(&net, 400, landmarks as u64);
    }
}

/// Roads three to eight times longer than their chords: the Euclidean
/// bound sees a fraction of each distance, so the landmark term orders
/// the keys, and the whole-number lengths tie often. The router settles
/// fewer junctions than it does with the landmarks taken away.
#[test]
fn long_roads_route_like_dijkstra_with_landmarks_ordering_the_keys() {
    for seed in 0..4 {
        for (jitter, factors) in [(0.0, &[5.0][..]), (30.0, &[3.0, 5.0, 8.0][..])] {
            let net = lattice_map(seed, 9, 10, jitter, factors);
            let with = assert_router_matches_dijkstra(&net, 600, seed);
            let net = with_landmarks(lattice_map(seed, 9, 10, jitter, factors), 0);
            let without = assert_router_matches_dijkstra(&net, 600, seed);
            assert!(
                with < without,
                "seed {seed}: {with:.1} settled with landmarks, {without:.1} without"
            );
        }
    }
}

/// A 2 × 120 ladder of 100 m roads whose lower rail has one 1 mm road.
/// That road is too short for the landmark rows' rounding, so the
/// router keeps only the Euclidean bound there.
#[test]
fn a_millimetre_road_routes_like_dijkstra() {
    let mut b = RoadNetworkBuilder::new();
    let lower: Vec<JunctionId> = (0..120)
        .map(|i| b.add_junction(Point::new(i as f64 * 100.0, 0.0)))
        .collect();
    let upper: Vec<JunctionId> = (0..120)
        .map(|i| b.add_junction(Point::new(i as f64 * 100.0, 100.0)))
        .collect();
    let short = b.add_junction(Point::new(6_000.001, 0.0));
    for i in 0..120 {
        b.add_segment(lower[i], upper[i]).unwrap();
        if i + 1 < 120 {
            b.add_segment(upper[i], upper[i + 1]).unwrap();
            if i != 60 {
                b.add_segment(lower[i], lower[i + 1]).unwrap();
            }
        }
    }
    b.add_segment_with_length(lower[60], short, 0.001).unwrap();
    b.add_segment_with_length(short, lower[61], 99.999).unwrap();
    assert_router_matches_dijkstra(&b.build().unwrap(), 2_000, 13);
}

/// `net` rebuilt with about one road in `one_in` made infinitely long.
fn with_infinite_roads(net: &RoadNetwork, seed: u64, one_in: u32) -> RoadNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    for j in net.junctions() {
        b.add_junction(j.position());
    }
    for seg in net.segments() {
        let length = if rng.gen_range(0..one_in) == 0 {
            f64::INFINITY
        } else {
            seg.length()
        };
        b.add_segment_with_length(seg.a(), seg.b(), length).unwrap();
    }
    b.build().unwrap()
}

/// Checks `connected` against `shortest_path` for every pair.
fn assert_connected_is_reachability(net: &RoadNetwork) {
    let router = TripRouter::new(net);
    for a in net.junction_ids() {
        for b in net.junction_ids() {
            assert_eq!(
                router.connected(a, b),
                shortest_path(net, a, b).is_some(),
                "{a} -> {b}"
            );
        }
    }
    let n = net.junction_count() as u32;
    assert!(!router.connected(JunctionId(0), JunctionId(n)));
}

#[test]
fn infinite_roads_join_junction_components_but_not_router_components() {
    let net = hand_built(
        &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)],
        &[(0, 1, 100.0), (1, 2, f64::INFINITY)],
    );
    assert_eq!(net.junction_components().len(), 1);
    let router = TripRouter::new(&net);
    assert!(router.connected(JunctionId(0), JunctionId(1)));
    assert!(!router.connected(JunctionId(1), JunctionId(2)));
    assert_connected_is_reachability(&net);
}

#[test]
fn shared_routers_route_like_the_router_they_share() {
    let maps = [
        city_map(3, 900),
        lattice_map(4, 8, 9, 25.0, &[0.6, 1.0, 2.5]),
        with_infinite_roads(&grid_city(7, 7, 100.0), 5, 8),
    ];
    for (m, net) in maps.iter().enumerate() {
        let mut first = TripRouter::new(net);
        let n = net.junction_count() as u32;
        let mut rng = StdRng::seed_from_u64(m as u64);
        let queries: Vec<(JunctionId, JunctionId)> = (0..300)
            .map(|_| {
                (
                    JunctionId(rng.gen_range(0..n)),
                    JunctionId(rng.gen_range(0..n)),
                )
            })
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|&(a, b)| shortest_path(net, a, b).map(|r| r.segments))
            .collect();
        // Two shared routers answer every query at once on their own
        // threads, while the first router answers them here.
        let shared = [first.share(), first.share().share()];
        std::thread::scope(|scope| {
            for mut router in shared {
                let (queries, expected) = (&queries, &expected);
                scope.spawn(move || {
                    for (&(a, b), want) in queries.iter().zip(expected) {
                        assert_eq!(&router.route(a, b), want, "map {m}: shared {a} -> {b}");
                    }
                });
            }
            for (&(a, b), want) in queries.iter().zip(&expected) {
                assert_eq!(&first.route(a, b), want, "map {m}: {a} -> {b}");
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn components_are_reachability_with_missing_and_infinite_roads(
        seed in any::<u64>(),
        one_in in 3u32..12,
    ) {
        // `lattice_map` drops one road in ten; infinite roads cut more.
        let net = lattice_map(seed, 6, 7, 20.0, &[1.0, 1.5]);
        assert_connected_is_reachability(&with_infinite_roads(&net, seed, one_in));
    }

    #[test]
    fn irregular_maps_route_like_dijkstra(seed in any::<u64>(), junctions in 30usize..200) {
        let net = irregular_city(&IrregularConfig {
            junctions,
            segments: junctions * 13 / 10,
            seed,
            ..Default::default()
        });
        assert_router_matches_dijkstra(&net, 300, seed);
    }

    #[test]
    fn generated_cities_route_like_dijkstra(seed in any::<u64>(), segments in 256usize..1200) {
        assert_router_matches_dijkstra(&city_map(seed, segments), 200, seed);
    }

    #[test]
    fn random_builder_maps_route_like_dijkstra(seed in any::<u64>(), jitter in 0u8..3) {
        let jitter = [0.0, 10.0, 45.0][jitter as usize];
        let net = lattice_map(seed, 7, 8, jitter, &[0.3, 0.8, 1.0, 1.0, 1.7]);
        assert_router_matches_dijkstra(&net, 400, seed);
    }
}
