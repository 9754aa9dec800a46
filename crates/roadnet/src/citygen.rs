//! Seeded city-scale road-network generator.
//!
//! [`crate::generate::irregular_city`] is fine at the paper's Atlanta
//! scale (~9k segments) but its shape is a uniform jittered lattice: no
//! arterial structure, and construction goes through the builder's
//! hash-set duplicate check. This module generates a *structured* city —
//! radial arterials, ring roads, local street grids and highway spines,
//! the ingredients of an OSM-style degree distribution — and does it in
//! flat arenas sized for 100k+ segments: a grid-cell id table
//! (`Vec<u32>`), one packed edge arena, a union-find over `usize`
//! indices and a flat degree counter. Edges are deduplicated by sorting
//! packed `u64` keys instead of hashing, and the finished
//! junction/segment arenas go straight to the CSR constructor — no
//! `Vec<Vec<_>>` adjacency intermediate is ever materialized.
//!
//! Guarantees, property-tested in this module:
//!
//! * deterministic per seed (same seed → identical network, CSR tables
//!   included);
//! * connected (spanning pass over the candidate lattice, leftover
//!   islands stitched with connector roads);
//! * exact segment count;
//! * every segment length strictly positive (jitter is bounded below
//!   half the cell spacing, so adjacent lattice points cannot collide —
//!   the movement model divides by the minimum segment length).

use crate::generate::Dsu;
use crate::geometry::Point;
use crate::graph::{Junction, JunctionId, RoadNetwork, Segment, SegmentId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Edge classes, in priority order: when deduplication finds the same
/// junction pair in two classes, the lower class wins (a highway stays a
/// highway even where it overlaps a local street).
const CLASS_SPINE: u8 = 0;
const CLASS_ARTERIAL: u8 = 1;
const CLASS_RING: u8 = 2;
const CLASS_LOCAL: u8 = 3;

/// Maximum junction displacement as a fraction of the cell spacing.
/// Must stay well below 0.5 so two adjacent lattice points can never
/// meet (minimum segment length stays ≳ 0.4 × spacing).
const JITTER: f64 = 0.28;
/// Probability that a candidate local street is offered to the
/// selection pass at all — the dropouts produce dead ends and T
/// junctions like a real street map.
const LOCAL_KEEP: f64 = 0.8;
/// Radial arterials leaving the center.
const SPOKES: usize = 8;
/// Ring roads, as fractions of the city radius.
const RING_FRACTIONS: [f64; 3] = [0.35, 0.6, 0.85];
/// Highway spines crossing the whole disc.
const SPINES: usize = 2;
/// Observed segments-per-junction ratio of the paper's Atlanta extract
/// (9187 / 6979); the junction budget is derived from it so the mean
/// degree lands near the OSM-typical ≈2.6.
const SEGMENTS_PER_JUNCTION: f64 = 1.32;

/// The fewest segments [`city`] accepts: below it the backbone alone
/// does not fit.
pub const MIN_CITY_SEGMENTS: usize = 256;

/// Configuration for [`city`].
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// PRNG seed; every byte of the output is a function of this.
    pub seed: u64,
    /// Exact number of segments the generated city will have.
    pub segments: usize,
    /// Lattice spacing in meters between local-street junctions.
    pub spacing: f64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            seed: 42,
            segments: 10_000,
            spacing: 100.0,
        }
    }
}

/// Convenience wrapper: a [`city`] with the default spacing.
pub fn city_map(seed: u64, segments: usize) -> RoadNetwork {
    city(&CityConfig {
        seed,
        segments,
        ..Default::default()
    })
}

/// Generates a connected city with exactly `cfg.segments` segments:
/// a disc of jittered local street grid crossed by radial arterials,
/// ring roads and highway spines.
///
/// # Panics
///
/// Panics if `cfg.segments` is below [`MIN_CITY_SEGMENTS`] (the
/// backbone alone needs room) or `cfg.spacing` is not strictly positive.
///
/// ```
/// use roadnet::citygen::city_map;
/// let net = city_map(7, 2000);
/// assert_eq!(net.segment_count(), 2000);
/// assert!(net.is_connected());
/// ```
pub fn city(cfg: &CityConfig) -> RoadNetwork {
    assert!(
        cfg.segments >= MIN_CITY_SEGMENTS,
        "city generator needs >= {MIN_CITY_SEGMENTS} segments"
    );
    assert!(cfg.spacing > 0.0, "spacing must be positive");
    let s = cfg.spacing;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Junction budget from the target mean degree; the city is the disc
    // of lattice cells within `radius` of the center.
    let junction_goal = (cfg.segments as f64 / SEGMENTS_PER_JUNCTION).ceil();
    let radius = s * (junction_goal / std::f64::consts::PI).sqrt();
    let half = (radius / s).ceil() as i64;
    let dim = (2 * half + 1) as usize;

    // Flat cell → junction-id table over the bounding square; u32::MAX
    // marks cells outside the disc.
    let mut cell_ids = vec![u32::MAX; dim * dim];
    let cell_index =
        |gx: i64, gy: i64| -> usize { ((gy + half) as usize) * dim + (gx + half) as usize };
    let mut positions: Vec<Point> = Vec::with_capacity(junction_goal as usize + dim);
    for gy in -half..=half {
        for gx in -half..=half {
            let (cx, cy) = (gx as f64 * s, gy as f64 * s);
            if cx.hypot(cy) > radius {
                continue;
            }
            let dx = rng.gen_range(-JITTER..=JITTER) * s;
            let dy = rng.gen_range(-JITTER..=JITTER) * s;
            cell_ids[cell_index(gx, gy)] = positions.len() as u32;
            positions.push(Point::new(cx + dx, cy + dy));
        }
    }
    let n = positions.len();
    let at = |gx: i64, gy: i64| -> u32 {
        if gx < -half || gx > half || gy < -half || gy > half {
            u32::MAX
        } else {
            cell_ids[cell_index(gx, gy)]
        }
    };
    let snap = |x: f64, y: f64| -> u32 { at((x / s).round() as i64, (y / s).round() as i64) };

    // Candidate edge arena: (a, b, class) with a, b junction ids.
    let mut edges: Vec<(u32, u32, u8)> = Vec::with_capacity(2 * n + n / 2);

    // Local street grid: orthogonal lattice edges, each offered with
    // probability LOCAL_KEEP.
    for gy in -half..=half {
        for gx in -half..=half {
            let a = at(gx, gy);
            if a == u32::MAX {
                continue;
            }
            for (nx, ny) in [(gx + 1, gy), (gx, gy + 1)] {
                let b = at(nx, ny);
                if b != u32::MAX && rng.gen_bool(LOCAL_KEEP) {
                    edges.push((a, b, CLASS_LOCAL));
                }
            }
        }
    }

    // Radial arterials: walk each spoke outward one cell at a time,
    // snapping samples to the lattice and chaining consecutive snaps.
    for k in 0..SPOKES {
        let theta: f64 =
            std::f64::consts::TAU * k as f64 / SPOKES as f64 + rng.gen_range(-0.08..=0.08);
        let (ct, st) = (theta.cos(), theta.sin());
        let mut prev = at(0, 0);
        let mut t = s;
        while t <= radius {
            let cur = snap(t * ct, t * st);
            if cur != u32::MAX {
                if prev != u32::MAX && cur != prev {
                    edges.push((prev, cur, CLASS_ARTERIAL));
                }
                prev = cur;
            }
            t += s;
        }
    }

    // Ring roads: closed loops of snapped samples at fixed radii.
    for &f in &RING_FRACTIONS {
        let r = f * radius;
        let steps = ((std::f64::consts::TAU * r) / (1.4 * s)).ceil().max(8.0) as usize;
        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut first = u32::MAX;
        let mut prev = u32::MAX;
        for i in 0..steps {
            let ang = phase + std::f64::consts::TAU * i as f64 / steps as f64;
            let cur = snap(r * ang.cos(), r * ang.sin());
            if cur == u32::MAX {
                continue;
            }
            if first == u32::MAX {
                first = cur;
            }
            if prev != u32::MAX && cur != prev {
                edges.push((prev, cur, CLASS_RING));
            }
            prev = cur;
        }
        if prev != u32::MAX && first != u32::MAX && prev != first {
            edges.push((prev, first, CLASS_RING));
        }
    }

    // Highway spines: two long chords through the center with sparse
    // interchanges (samples every 3 cells).
    for k in 0..SPINES {
        let ang: f64 = std::f64::consts::FRAC_PI_2 * k as f64 + rng.gen_range(-0.2..=0.2);
        let (ca, sa) = (ang.cos(), ang.sin());
        let mut prev = u32::MAX;
        let mut t = -(radius * 0.95);
        while t <= radius * 0.95 {
            let cur = snap(t * ca, t * sa);
            if cur != u32::MAX {
                if prev != u32::MAX && cur != prev {
                    edges.push((prev, cur, CLASS_SPINE));
                }
                prev = cur;
            }
            t += 3.0 * s;
        }
    }

    // Deduplicate by packed (min, max) key; the sort puts the strongest
    // class first within a pair, so `dedup` keeps it.
    for e in edges.iter_mut() {
        if e.0 > e.1 {
            std::mem::swap(&mut e.0, &mut e.1);
        }
    }
    edges.sort_unstable_by_key(|&(a, b, c)| (((a as u64) << 32) | b as u64, c));
    edges.dedup_by_key(|&mut (a, b, _)| (a, b));

    // Selection: the backbone (spines, arterials, rings) is always
    // kept; local streets fill a spanning pass first (connectivity),
    // then top up to the exact segment target in shuffled order.
    let mut backbone: Vec<(u32, u32, u8)> = Vec::new();
    let mut locals: Vec<(u32, u32)> = Vec::new();
    for &(a, b, c) in &edges {
        if c == CLASS_LOCAL {
            locals.push((a, b));
        } else {
            backbone.push((a, b, c));
        }
    }
    locals.shuffle(&mut rng);
    let mut dsu = Dsu::new(n);
    let mut chosen: Vec<(u32, u32, u8)> = Vec::with_capacity(cfg.segments);
    for &(a, b, c) in &backbone {
        dsu.union(a as usize, b as usize);
        chosen.push((a, b, c));
    }
    let mut extras: Vec<(u32, u32)> = Vec::new();
    for &(a, b) in &locals {
        if dsu.union(a as usize, b as usize) {
            chosen.push((a, b, CLASS_LOCAL));
        } else {
            extras.push((a, b));
        }
    }
    // Stitch leftover islands (cells whose every local candidate was
    // dropped) with direct connector roads.
    let mut roots: Vec<usize> = (0..n).map(|v| dsu.find(v)).collect();
    roots.sort_unstable();
    roots.dedup();
    if roots.len() > 1 {
        let base = roots[0];
        for &r in &roots[1..] {
            chosen.push((base as u32, r as u32, CLASS_LOCAL));
            dsu.union(base, r);
        }
    }
    assert!(
        chosen.len() <= cfg.segments,
        "backbone + spanning tree already needs {} segments; raise the target above {}",
        chosen.len(),
        cfg.segments
    );
    for &(a, b) in &extras {
        if chosen.len() == cfg.segments {
            break;
        }
        chosen.push((a, b, CLASS_LOCAL));
    }
    assert_eq!(
        chosen.len(),
        cfg.segments,
        "lattice candidates exhausted before reaching the segment target"
    );

    // Degree-count prepass so every incidence list is allocated at its
    // exact final size, then assemble the arenas and hand them to the
    // CSR constructor.
    let mut degree = vec![0u32; n];
    for &(a, b, _) in &chosen {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let mut junctions: Vec<Junction> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| Junction::with_capacity(JunctionId(i as u32), p, degree[i] as usize))
        .collect();
    let mut segments: Vec<Segment> = Vec::with_capacity(cfg.segments);
    for (i, &(a, b, class)) in chosen.iter().enumerate() {
        let id = SegmentId(i as u32);
        let straight = positions[a as usize].distance(positions[b as usize]);
        // Local streets curve 0–10%; the backbone is engineered straight.
        let length = if class == CLASS_LOCAL {
            straight * (1.0 + rng.gen_range(0.0..0.10))
        } else {
            straight
        };
        segments.push(Segment::new(id, JunctionId(a), JunctionId(b), length));
        junctions[a as usize].push_incident(id);
        junctions[b as usize].push_incident(id);
    }
    RoadNetwork::from_parts(junctions, segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_and_connected() {
        for &target in &[256usize, 2000, 5000] {
            let net = city_map(3, target);
            assert_eq!(net.segment_count(), target);
            assert!(net.is_connected(), "{target}-segment city disconnected");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = city_map(9, 3000);
        let b = city_map(9, 3000);
        // Derived PartialEq covers junctions, segments and both CSR
        // tables, so equality here means identical CSR bytes.
        assert_eq!(a, b);
        let c = city_map(10, 3000);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_distribution_is_osm_like() {
        let net = city_map(5, 5000);
        let n = net.junction_count() as f64;
        let mean = 2.0 * net.segment_count() as f64 / n;
        assert!(
            (2.2..=3.2).contains(&mean),
            "mean degree {mean} outside the street-map band"
        );
        let max = net.junctions().map(|j| j.degree()).max().unwrap();
        assert!(max <= 16, "junction degree {max} is not street-like");
        let high = net.junctions().filter(|j| j.degree() >= 5).count() as f64 / n;
        assert!(high <= 0.08, "{high} of junctions have degree >= 5");
        let dead_ends = net.junctions().filter(|j| j.degree() == 1).count();
        assert!(dead_ends > 0, "a real city has dead ends");
    }

    #[test]
    fn every_length_is_positive_and_at_least_straight_line() {
        let net = city_map(11, 4000);
        let mut min_len = f64::INFINITY;
        for seg in net.segments() {
            let straight = net
                .junction(seg.a())
                .position()
                .distance(net.junction(seg.b()).position());
            assert!(seg.length() >= straight - 1e-9);
            min_len = min_len.min(seg.length());
        }
        // The movement model divides by the minimum segment length.
        assert!(min_len > 0.0, "zero-length segment generated");
    }

    #[test]
    #[should_panic(expected = "256")]
    fn tiny_targets_are_rejected() {
        let _ = city_map(1, 100);
    }
}
