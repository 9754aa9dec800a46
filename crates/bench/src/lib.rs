//! Shared experiment harness for the ReverseCloak reproduction.
//!
//! Every table/figure of the experiment index (DESIGN.md §5) is
//! implemented as a function returning printable rows, shared between the
//! `repro` binary (which prints the paper-style tables) and the criterion
//! benches (which time the same workloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cloak::{
    anonymize_with_retry, deanonymize, random_expansion, LevelRequirement, PreassignedTables,
    PrivacyProfile, RegionQuality, ReversibleEngine, RgeEngine, RpleEngine, SpatialTolerance,
    SuccessRate,
};
use keystream::{Key256, KeyManager, Level};
use mobisim::{OccupancySnapshot, SimConfig, Simulation};
use roadnet::{RoadNetwork, SegmentId};
use std::time::Instant;

/// The default transition-list length for RPLE in comparisons.
pub const DEFAULT_T: usize = 12;

/// The paper-style experiment world: a map plus frozen traffic.
pub struct World {
    /// The road network.
    pub net: RoadNetwork,
    /// Frozen users-per-segment at request time.
    pub snapshot: OccupancySnapshot,
    /// Segments with at least one user (cloaking request sites).
    pub occupied: Vec<SegmentId>,
}

impl World {
    /// Builds the full paper-scale world (6,979 junctions, 9,187
    /// segments, 10,000 cars).
    pub fn paper_scale(seed: u64) -> Self {
        Self::build(roadnet::atlanta_like(seed), 10_000, seed)
    }

    /// A smaller world for quick runs and CI.
    pub fn small(seed: u64) -> Self {
        Self::build(roadnet::grid_city(20, 20, 100.0), 1_500, seed)
    }

    fn build(net: RoadNetwork, cars: usize, seed: u64) -> Self {
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
        let occupied = snapshot.occupied_segments().collect();
        World {
            net: sim.network().share_index(),
            snapshot,
            occupied,
        }
    }

    /// Deterministic pseudo-random request sites.
    pub fn request_sites(&self, trials: usize, seed: u64) -> Vec<SegmentId> {
        let mut state = seed ^ 0x5bf0_3635;
        (0..trials)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.occupied[(state >> 33) as usize % self.occupied.len()]
            })
            .collect()
    }
}

/// One row of a printable experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Column values, already formatted.
    pub cells: Vec<String>,
}

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (e.g. "B1").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {}: {} ==", self.id, self.title)?;
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.cells.get(i).map_or(0, |c| c.len()))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, "{h:>w$}  ")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (c, w) in row.cells.iter().zip(&widths) {
                write!(f, "{c:>w$}  ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn single_level_profile(k: u32) -> PrivacyProfile {
    PrivacyProfile::builder()
        .level(LevelRequirement::with_k(k))
        .build()
        .expect("k >= 1")
}

fn keys_for(profile: &PrivacyProfile, seed: u64) -> (KeyManager, Vec<Key256>) {
    let mgr = KeyManager::from_seed(profile.level_count(), seed);
    let keys = mgr.iter().map(|(_, k)| k).collect();
    (mgr, keys)
}

/// Timed anonymization over `sites`; returns (mean µs, success rate,
/// mean region size).
pub fn time_anonymize(
    world: &World,
    engine: &dyn ReversibleEngine,
    profile: &PrivacyProfile,
    sites: &[SegmentId],
) -> (f64, SuccessRate, f64) {
    let (_, keys) = keys_for(profile, 0xbead);
    let mut total_us = 0.0;
    let mut sr = SuccessRate::new();
    let mut sizes = 0usize;
    for (i, &site) in sites.iter().enumerate() {
        let t0 = Instant::now();
        let result = anonymize_with_retry(
            &world.net,
            &world.snapshot,
            site,
            profile,
            &keys,
            i as u64 + 1,
            engine,
            8,
        );
        total_us += t0.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok((out, _)) => {
                sizes += out.payload.region_size();
                sr.record(true);
            }
            Err(_) => sr.record(false),
        }
    }
    let succ = sr.successes.max(1) as f64;
    (total_us / sites.len() as f64, sr, sizes as f64 / succ)
}

/// B1: anonymization time vs δk for RGE, RPLE and the NRE baseline.
pub fn b1_anonymize_vs_k(world: &World, ks: &[u32], trials: usize) -> Table {
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&world.net, DEFAULT_T);
    let mut rows = Vec::new();
    for &k in ks {
        let profile = single_level_profile(k);
        let sites = world.request_sites(trials, 0x517e);
        let (rge_us, _, rge_size) = time_anonymize(world, &rge, &profile, &sites);
        let (rple_us, rple_sr, _) = time_anonymize(world, &rple, &profile, &sites);
        // NRE baseline.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(k as u64);
        let req = LevelRequirement::with_k(k);
        let t0 = Instant::now();
        for &site in &sites {
            let _ = random_expansion(&world.net, &world.snapshot, site, &req, &mut rng);
        }
        let nre_us = t0.elapsed().as_secs_f64() * 1e6 / sites.len() as f64;
        rows.push(Row {
            cells: vec![
                k.to_string(),
                format!("{rge_us:.0}"),
                format!("{rple_us:.0}"),
                format!("{nre_us:.0}"),
                format!("{rge_size:.1}"),
                format!("{:.2}", rple_sr.rate()),
            ],
        });
    }
    Table {
        id: "B1",
        title: "anonymization time vs k (µs/request)",
        headers: vec!["k", "RGE", "RPLE", "NRE", "|region|", "RPLE succ"],
        rows,
    }
}

/// B2: de-anonymization (full peel) time vs δk for RGE and RPLE.
pub fn b2_deanonymize_vs_k(world: &World, ks: &[u32], trials: usize) -> Table {
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&world.net, DEFAULT_T);
    let engines: [&dyn ReversibleEngine; 2] = [&rge, &rple];
    let mut rows = Vec::new();
    for &k in ks {
        let profile = single_level_profile(k);
        let sites = world.request_sites(trials, 0x517e);
        let mut cells = vec![k.to_string()];
        for engine in engines {
            let (mgr, keys) = keys_for(&profile, 0xbead);
            let mut total_us = 0.0;
            let mut done = 0;
            for (i, &site) in sites.iter().enumerate() {
                if let Ok((out, _)) = anonymize_with_retry(
                    &world.net,
                    &world.snapshot,
                    site,
                    &profile,
                    &keys,
                    i as u64 + 1,
                    engine,
                    8,
                ) {
                    let peel = mgr.keys_down_to(Level(0)).unwrap();
                    let t0 = Instant::now();
                    let view = deanonymize(&world.net, &out.payload, &peel, engine)
                        .expect("reversal always succeeds with the right keys");
                    total_us += t0.elapsed().as_secs_f64() * 1e6;
                    assert_eq!(view.segments, vec![site]);
                    done += 1;
                }
            }
            cells.push(format!("{:.0}", total_us / done.max(1) as f64));
        }
        rows.push(Row { cells });
    }
    Table {
        id: "B2",
        title: "de-anonymization time vs k, full peel to L0 (µs/request)",
        headers: vec!["k", "RGE", "RPLE"],
        rows,
    }
}

/// B3: anonymization time vs number of levels (geometric k).
pub fn b3_levels(world: &World, level_counts: &[usize], trials: usize) -> Table {
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&world.net, DEFAULT_T);
    let mut rows = Vec::new();
    for &n in level_counts {
        let profile = PrivacyProfile::geometric(n, 5).unwrap();
        let sites = world.request_sites(trials, 0x517e);
        let (rge_us, _, size) = time_anonymize(world, &rge, &profile, &sites);
        let (rple_us, _, _) = time_anonymize(world, &rple, &profile, &sites);
        rows.push(Row {
            cells: vec![
                n.to_string(),
                format!("{:.0}", 5 * (1u32 << (n - 1))),
                format!("{rge_us:.0}"),
                format!("{rple_us:.0}"),
                format!("{size:.1}"),
            ],
        });
    }
    Table {
        id: "B3",
        title: "anonymization time vs number of levels (k = 5·2^i, µs/request)",
        headers: vec!["levels", "top k", "RGE", "RPLE", "|region|"],
        rows,
    }
}

/// B4: RPLE pre-assignment cost and memory vs transition-list length T.
pub fn b4_preassign(world: &World, ts: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &t in ts {
        let t0 = Instant::now();
        let tables = PreassignedTables::build(&world.net, t);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.push(Row {
            cells: vec![
                t.to_string(),
                format!("{ms:.1}"),
                format!("{:.2}", tables.memory_bytes() as f64 / (1 << 20) as f64),
                tables.placed_links().to_string(),
                tables.dropped_links().to_string(),
            ],
        });
    }
    Table {
        id: "B4",
        title: "RPLE pre-assignment vs transition-list length T",
        headers: vec![
            "T",
            "build ms",
            "memory MiB",
            "links placed",
            "links dropped",
        ],
        rows,
    }
}

/// B5: privacy strength — keyless adversary vs key holder.
pub fn b5_privacy(world: &World, k: u32, trials: u32) -> Table {
    let engine = RgeEngine::new();
    let profile = single_level_profile(k);
    let site = world.occupied[world.occupied.len() / 2];
    let (hit, predicted) = cloak::attack::guess_success_rate(
        &world.net,
        &world.snapshot,
        site,
        &profile,
        &engine,
        trials,
        0xa11ce,
    );
    let (support, dev) =
        cloak::attack::selection_uniformity(&world.net, site, &engine, 3000, 0xcafe);
    // Key-holder recovery rate (must be 1.0).
    let (mgr, keys) = keys_for(&profile, 0xbead);
    let mut recovered = SuccessRate::new();
    let mut entropy_sum = 0.0;
    let sites = world.request_sites(50, 0xd00d);
    for (i, &s) in sites.iter().enumerate() {
        if let Ok((out, _)) = anonymize_with_retry(
            &world.net,
            &world.snapshot,
            s,
            &profile,
            &keys,
            i as u64,
            &engine,
            8,
        ) {
            entropy_sum += cloak::attack::l0_posterior_entropy(&out.payload.segments);
            let view = deanonymize(
                &world.net,
                &out.payload,
                &mgr.keys_down_to(Level(0)).unwrap(),
                &engine,
            )
            .unwrap();
            recovered.record(view.segments == vec![s]);
        }
    }
    Table {
        id: "B5",
        title: "privacy strength: keyless adversary vs key holder",
        headers: vec!["metric", "value", "reference"],
        rows: vec![
            Row {
                cells: vec![
                    "keyless guess hit rate".into(),
                    format!("{hit:.4}"),
                    format!("{predicted:.4} (uniform 1/|region|)"),
                ],
            },
            Row {
                cells: vec![
                    "first-transition max deviation".into(),
                    format!("{dev:.4}"),
                    format!("0 ideal, over {support} candidates"),
                ],
            },
            Row {
                cells: vec![
                    "mean adversary entropy (bits)".into(),
                    format!("{:.2}", entropy_sum / recovered.attempts.max(1) as f64),
                    format!("log2(k·region scale) ≈ {:.2}", (k as f64).log2()),
                ],
            },
            Row {
                cells: vec![
                    "key-holder exact recovery".into(),
                    format!("{:.2}", recovered.rate()),
                    "1.00 required".into(),
                ],
            },
            {
                let adv = cloak::attack::density_guess_success_rate(
                    &world.net,
                    &world.snapshot,
                    site,
                    &profile,
                    &engine,
                    trials,
                    0xdead,
                );
                Row {
                    cells: vec![
                        "density-aware adversary hit rate".into(),
                        format!("{:.4}", adv.hit_rate),
                        format!(
                            "{:.4} posterior mass; ≤ {:.4} bound (k-anonymity, not a chain leak)",
                            adv.true_posterior_mass, adv.max_posterior_mass
                        ),
                    ],
                }
            },
        ],
    }
}

/// B6: cloaking success rate vs spatial tolerance σs (as a multiple of
/// the expected region extent for the requested k).
pub fn b6_success_vs_tolerance(world: &World, k: u32, factors: &[f64], trials: usize) -> Table {
    let mean_len =
        world.net.total_length(world.net.segment_ids()) / world.net.segment_count() as f64;
    // Expected segments needed ≈ k / mean users-per-segment.
    let density = world.snapshot.total_users() as f64 / world.net.segment_count() as f64;
    let base = k as f64 / density * mean_len;
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&world.net, DEFAULT_T);
    let mut rows = Vec::new();
    for &f in factors {
        let tol = SpatialTolerance::TotalLength(base * f);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(k).tolerance(tol))
            .build()
            .unwrap();
        let sites = world.request_sites(trials, 0x517e);
        let mut cells = vec![format!("{f:.1}")];
        for engine in [&rge as &dyn ReversibleEngine, &rple] {
            let (_, sr, _) = time_anonymize(world, engine, &profile, &sites);
            cells.push(format!("{:.2}", sr.rate()));
        }
        rows.push(Row { cells });
    }
    Table {
        id: "B6",
        title: "cloaking success rate vs spatial tolerance (σs as multiple of expected extent)",
        headers: vec!["σs factor", "RGE", "RPLE"],
        rows,
    }
}

/// B7: relative anonymity and relative spatial resolution vs k.
pub fn b7_quality_vs_k(world: &World, ks: &[u32], trials: usize) -> Table {
    let engine = RgeEngine::new();
    let mut rows = Vec::new();
    for &k in ks {
        let mean_len =
            world.net.total_length(world.net.segment_ids()) / world.net.segment_count() as f64;
        let density = world.snapshot.total_users() as f64 / world.net.segment_count() as f64;
        let tol = SpatialTolerance::TotalLength(3.0 * k as f64 / density * mean_len);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(k).tolerance(tol))
            .build()
            .unwrap();
        let (_, keys) = keys_for(&profile, 0xbead);
        let sites = world.request_sites(trials, 0x517e);
        let mut rel_k = 0.0;
        let mut rel_s = 0.0;
        let mut done = 0;
        for (i, &site) in sites.iter().enumerate() {
            if let Ok((out, _)) = anonymize_with_retry(
                &world.net,
                &world.snapshot,
                site,
                &profile,
                &keys,
                i as u64,
                &engine,
                8,
            ) {
                let q = RegionQuality::measure(&world.net, &world.snapshot, &profile, &out);
                rel_k += q.relative_anonymity;
                rel_s += q.relative_spatial_resolution;
                done += 1;
            }
        }
        let d = done.max(1) as f64;
        rows.push(Row {
            cells: vec![
                k.to_string(),
                format!("{:.2}", rel_k / d),
                format!("{:.2}", rel_s / d),
                format!("{done}/{}", sites.len()),
            ],
        });
    }
    Table {
        id: "B7",
        title:
            "relative anonymity (achieved/requested k) and relative spatial resolution vs k (RGE)",
        headers: vec!["k", "rel. anonymity", "rel. resolution", "succeeded"],
        rows,
    }
}

/// B8 (ablation): reversibility overhead — draw rounds per added segment
/// and voided rounds, RGE vs RPLE.
pub fn b8_overhead(world: &World, ks: &[u32], trials: usize) -> Table {
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&world.net, DEFAULT_T);
    let mut rows = Vec::new();
    for &k in ks {
        let profile = single_level_profile(k);
        let (_, keys) = keys_for(&profile, 0xbead);
        let sites = world.request_sites(trials, 0x517e);
        let mut cells = vec![k.to_string()];
        for engine in [&rge as &dyn ReversibleEngine, &rple] {
            let mut draws = 0u64;
            let mut voided = 0u64;
            let mut added = 0u64;
            for (i, &site) in sites.iter().enumerate() {
                if let Ok((out, _)) = anonymize_with_retry(
                    &world.net,
                    &world.snapshot,
                    site,
                    &profile,
                    &keys,
                    i as u64,
                    engine,
                    8,
                ) {
                    for l in &out.per_level {
                        draws += l.draws as u64;
                        voided += l.voided as u64;
                        added += l.added as u64;
                    }
                }
            }
            cells.push(format!("{:.2}", draws as f64 / added.max(1) as f64));
            cells.push(format!("{:.2}", voided as f64 / added.max(1) as f64));
        }
        rows.push(Row { cells });
    }
    Table {
        id: "B8",
        title: "reversibility overhead: draw rounds per added segment (ablation)",
        headers: vec!["k", "RGE draws", "RGE voided", "RPLE draws", "RPLE voided"],
        rows,
    }
}

/// B9: anonymous query-processing cost vs k — the trade-off `σs` exists
/// to bound (paper §II-A: region size "has a direct influence on the
/// performance of the anonymous query processing technique").
pub fn b9_query_cost_vs_k(world: &World, ks: &[u32], trials: usize) -> Table {
    use lbs::{nearest_query, refine_nearest, PoiCategory, PoiStore};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x901);
    let store = PoiStore::generate(&world.net, world.net.segment_count() / 10, &mut rng);
    let engine = RgeEngine::new();
    let mut rows = Vec::new();
    for &k in ks {
        let profile = single_level_profile(k);
        let (_, keys) = keys_for(&profile, 0xbead);
        let sites = world.request_sites(trials, 0x517e);
        let mut cand = 0usize;
        let mut visited = 0usize;
        let mut q_us = 0.0;
        let mut exact_cand = 0usize;
        let mut refine_ok = 0usize;
        let mut done = 0usize;
        for (i, &site) in sites.iter().enumerate() {
            let Ok((out, _)) = anonymize_with_retry(
                &world.net,
                &world.snapshot,
                site,
                &profile,
                &keys,
                i as u64,
                &engine,
                8,
            ) else {
                continue;
            };
            let t0 = Instant::now();
            let answer = nearest_query(
                &world.net,
                &store,
                &out.payload.segments,
                PoiCategory::Restaurant,
            );
            q_us += t0.elapsed().as_secs_f64() * 1e6;
            cand += answer.len();
            visited += answer.segments_visited;
            // The exact (non-anonymous) query for comparison.
            let exact = nearest_query(&world.net, &store, &[site], PoiCategory::Restaurant);
            exact_cand += exact.len();
            // The true nearest must be recoverable from the candidate set.
            if let (Some(a), Some(b)) = (
                refine_nearest(&world.net, &answer.candidates, site),
                refine_nearest(&world.net, &exact.candidates, site),
            ) {
                if a.id == b.id {
                    refine_ok += 1;
                }
            }
            done += 1;
        }
        let d = done.max(1) as f64;
        rows.push(Row {
            cells: vec![
                k.to_string(),
                format!("{:.1}", cand as f64 / d),
                format!("{:.1}", exact_cand as f64 / d),
                format!("{:.0}", visited as f64 / d),
                format!("{:.0}", q_us / d),
                format!("{:.2}", refine_ok as f64 / d),
            ],
        });
    }
    Table {
        id: "B9",
        title: "anonymous query processing cost vs k (nearest-POI, RGE regions)",
        headers: vec![
            "k",
            "candidates",
            "exact cands",
            "segs visited",
            "query µs",
            "refine match",
        ],
        rows,
    }
}

/// B10 (ablation): the paper's "collision" issue quantified — fraction of
/// backward steps with multiple consistent predecessors when hypothesis
/// testing runs *without* the encrypted round metadata.
pub fn b10_collision_ablation(world: &World, ks: &[u32], trials: usize) -> Table {
    use cloak::ambiguity_profile;
    let rge = RgeEngine::new();
    let rple = RpleEngine::build(&world.net, DEFAULT_T);
    let mut rows = Vec::new();
    for &k in ks {
        let profile = single_level_profile(k);
        let (_, keys) = keys_for(&profile, 0xbead);
        let sites = world.request_sites(trials, 0x517e);
        let mut cells = vec![k.to_string()];
        for engine in [&rge as &dyn ReversibleEngine, &rple] {
            let mut agg = cloak::AmbiguityReport::default();
            for (i, &site) in sites.iter().enumerate() {
                if let Ok((out, _)) = anonymize_with_retry(
                    &world.net,
                    &world.snapshot,
                    site,
                    &profile,
                    &keys,
                    i as u64,
                    engine,
                    8,
                ) {
                    let r = ambiguity_profile(&world.net, &out, &keys, engine);
                    agg.steps += r.steps;
                    agg.ambiguous_steps += r.ambiguous_steps;
                    agg.total_candidates += r.total_candidates;
                    agg.max_candidates = agg.max_candidates.max(r.max_candidates);
                }
            }
            cells.push(format!("{:.3}", agg.collision_rate()));
            cells.push(format!("{:.2}", agg.mean_candidates()));
        }
        rows.push(Row { cells });
    }
    Table {
        id: "B10",
        title: "collision ablation: backward ambiguity without round metadata",
        headers: vec![
            "k",
            "RGE coll rate",
            "RGE mean cands",
            "RPLE coll rate",
            "RPLE mean cands",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_builds() {
        let w = World::small(1);
        assert!(w.occupied.len() > 100);
        assert_eq!(w.snapshot.total_users(), 1500);
        let sites = w.request_sites(10, 2);
        assert_eq!(sites.len(), 10);
        for s in sites {
            assert!(w.snapshot.users_on(s) > 0);
        }
    }

    #[test]
    fn b1_on_small_world_has_expected_shape() {
        let w = World::small(2);
        let t = b1_anonymize_vs_k(&w, &[5, 10], 5);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), t.rows[0].cells.len());
        let text = t.to_string();
        assert!(text.contains("B1"));
    }

    #[test]
    fn b4_memory_grows_with_t() {
        let w = World::small(3);
        let t = b4_preassign(&w, &[4, 8]);
        let m4: f64 = t.rows[0].cells[2].parse().unwrap();
        let m8: f64 = t.rows[1].cells[2].parse().unwrap();
        assert!(m8 > m4);
    }

    #[test]
    fn b5_recovery_is_total() {
        let w = World::small(4);
        let t = b5_privacy(&w, 10, 60);
        let recovery: f64 = t.rows[3].cells[1].parse().unwrap();
        assert_eq!(recovery, 1.0);
    }
}
