//! Property tests of the road-network substrate: generator invariants,
//! shortest-path metric laws, index exactness, and I/O round-trips.

use proptest::prelude::*;
use roadnet::{
    city_map, geometry::point_segment_distance, grid_city, io, irregular_city, path, radial_city,
    IrregularConfig, JunctionId, Point, SegmentId, SegmentIndex,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn irregular_generator_meets_contract(
        seed in any::<u64>(),
        junctions in 20usize..150,
        extra_frac in 0usize..100,
    ) {
        // Keep the extra-edge count within what the jittered lattice can
        // supply on small maps (~¼ of the junction count is always safe).
        let extra = extra_frac * (junctions / 4) / 100;
        let cfg = IrregularConfig {
            junctions,
            segments: junctions - 1 + extra,
            seed,
            ..Default::default()
        };
        let net = irregular_city(&cfg);
        prop_assert_eq!(net.junction_count(), junctions);
        prop_assert_eq!(net.segment_count(), junctions - 1 + extra);
        prop_assert!(net.is_connected());
        // No self-loops or duplicate edges (builder guarantees).
        let mut pairs = std::collections::HashSet::new();
        for seg in net.segments() {
            let (a, b) = seg.endpoints();
            prop_assert_ne!(a, b);
            let key = (a.0.min(b.0), a.0.max(b.0));
            prop_assert!(pairs.insert(key));
        }
    }

    #[test]
    fn shortest_path_is_symmetric_and_triangular(
        seed in any::<u64>(),
        a in 0u32..100,
        b in 0u32..100,
        c in 0u32..100,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 100,
            segments: 130,
            seed,
            ..Default::default()
        });
        let (a, b, c) = (JunctionId(a), JunctionId(b), JunctionId(c));
        let dab = path::shortest_path(&net, a, b).unwrap().length;
        let dba = path::shortest_path(&net, b, a).unwrap().length;
        prop_assert!((dab - dba).abs() < 1e-6, "asymmetric: {} vs {}", dab, dba);
        let dac = path::shortest_path(&net, a, c).unwrap().length;
        let dcb = path::shortest_path(&net, c, b).unwrap().length;
        prop_assert!(dab <= dac + dcb + 1e-6, "triangle violated");
    }

    #[test]
    fn route_segments_concatenate(
        seed in any::<u64>(),
        src in 0u32..80,
        dst in 0u32..80,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 80,
            segments: 104,
            seed,
            ..Default::default()
        });
        let r = path::shortest_path(&net, JunctionId(src), JunctionId(dst)).unwrap();
        // Each consecutive junction pair is connected by the listed segment.
        let mut total = 0.0;
        for (i, &s) in r.segments.iter().enumerate() {
            let seg = net.segment(s);
            prop_assert!(seg.touches(r.junctions[i]));
            prop_assert!(seg.touches(r.junctions[i + 1]));
            total += seg.length();
        }
        prop_assert!((total - r.length).abs() < 1e-6);
    }

    #[test]
    fn nearest_segment_is_exact(
        seed in any::<u64>(),
        map in 0u8..3,
        fx in -0.5f64..1.5,
        fy in -0.5f64..1.5,
        on_line in any::<bool>(),
        cell_exp in -4f64..0.5,
    ) {
        // Irregular roads, a grid where ties are common, or a generated
        // city with long roads; points up to half a map's extent outside
        // its bounding box, snapped to the 100 m lines where grid roads
        // tie; cells from tiny (raised by the index's cap) to map-sized.
        let net = match map {
            0 => irregular_city(&IrregularConfig {
                junctions: 60,
                segments: 80,
                seed,
                ..Default::default()
            }),
            1 => grid_city(4 + (seed % 5) as usize, 3 + (seed % 7) as usize, 100.0),
            _ => city_map(seed % 16, 2000),
        };
        let bb = net.bounding_box();
        let size = bb.width().max(bb.height());
        let mut p = Point::new(bb.min.x + fx * bb.width(), bb.min.y + fy * bb.height());
        if on_line {
            p = Point::new((p.x / 100.0).round() * 100.0, (p.y / 100.0).round() * 100.0);
        }
        let brute = net
            .segments()
            .map(|seg| {
                let d = point_segment_distance(
                    p,
                    net.junction(seg.a()).position(),
                    net.junction(seg.b()).position(),
                );
                (seg.id(), d)
            })
            .min_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
        for idx in [SegmentIndex::new(&net), SegmentIndex::build(&net, size * 10f64.powf(cell_exp))] {
            let got = idx.nearest_segment(p);
            prop_assert_eq!(got, brute, "{:?} cells at {}", idx.grid_size(), p);
        }
    }

    #[test]
    fn map_io_roundtrips(seed in any::<u64>()) {
        let net = irregular_city(&IrregularConfig {
            junctions: 50,
            segments: 66,
            seed,
            ..Default::default()
        });
        let mut buf = Vec::new();
        io::write_map(&net, &mut buf).unwrap();
        let back = io::read_map(buf.as_slice()).unwrap();
        prop_assert_eq!(net, back);
    }

    #[test]
    fn hop_distance_matches_ball_membership(
        seed in any::<u64>(),
        center in 0u32..60,
        hops in 0usize..4,
    ) {
        let net = irregular_city(&IrregularConfig {
            junctions: 50,
            segments: 66,
            seed,
            ..Default::default()
        });
        let center = SegmentId(center % net.segment_count() as u32);
        let ball = path::segments_within_hops(&net, center, hops);
        for s in net.segment_ids() {
            let d = path::segment_hop_distance(&net, center, s);
            prop_assert_eq!(
                ball.contains(&s),
                matches!(d, Some(d) if d <= hops),
                "segment {} ball membership disagrees with distance {:?}",
                s,
                d
            );
        }
    }

    #[test]
    fn csr_adjacency_matches_junction_walk(
        seed in any::<u64>(),
        junctions in 10usize..120,
        extra_frac in 0usize..100,
    ) {
        // The CSR table must reproduce the historical `neighbor_segments`
        // walk exactly — same ids, same order — because RPLE
        // pre-assignment consumes neighbors in this order and any
        // reordering would change every RPLE receipt.
        let extra = extra_frac * (junctions / 4) / 100;
        let net = irregular_city(&IrregularConfig {
            junctions,
            segments: junctions - 1 + extra,
            seed,
            ..Default::default()
        });
        for s in net.segment_ids() {
            // Independent reference: walk both endpoint incidence lists,
            // dedup keeping the first occurrence.
            let seg = net.segment(s);
            let mut expect = Vec::new();
            for j in [seg.a(), seg.b()] {
                for &n in net.junction(j).incident_segments() {
                    if n != s && !expect.contains(&n) {
                        expect.push(n);
                    }
                }
            }
            prop_assert_eq!(net.neighbor_segments_csr(s), expect.as_slice());
            prop_assert_eq!(net.neighbor_segments(s), expect);
        }
        // The flat junction view mirrors the per-junction lists.
        for j in net.junction_ids() {
            prop_assert_eq!(
                net.incident_segments(j),
                net.junction(j).incident_segments()
            );
        }
    }
}

#[test]
fn generators_cover_shapes() {
    // Deterministic sanity over the three families (not property-based;
    // shapes are fixed).
    let g = grid_city(6, 4, 80.0);
    assert_eq!(g.junction_count(), 24);
    let r = radial_city(2, 6, 100.0);
    assert_eq!(r.junction_count(), 13);
    assert!(r.is_connected());
    let a = roadnet::atlanta_like(3);
    assert_eq!((a.junction_count(), a.segment_count()), (6979, 9187));
}
