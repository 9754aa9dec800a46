//! The workloads: what each builds, how one run seed becomes its traffic
//! and request seeds, and how many ticks each run times.
//!
//! Every workload is a closed loop with one driver: each tick starts
//! when the previous one ends, and `dt = 10 s` is simulated time. All use
//! the default RGE engine and an in-memory chain store, with verification
//! on and `batch_parallelism` pinned to 2 so the work does not depend on
//! the host's core count.

use anonymizer::{AnonymizerConfig, AttackConfig, PipelineConfig};
use cloak::AdversaryMode;
use mobisim::SimConfig;
use roadnet::{city_map, grid_city, RoadNetwork};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense traffic on a 12×12 grid through `ContinuousPipeline`, with
    /// the LBS and attack legs: many tiny regions, per-receipt stages
    /// dominate.
    Grid,
    /// A generated 5,000-segment city at 2 cars per segment through a
    /// 4-shard `ShardedPipeline`: route replanning in the sim step
    /// dominates.
    City,
    /// The same city and partition at 0.3 cars per segment: few large
    /// regions, issue and deanonymization dominate. Not listed in
    /// `BENCHMARK.json`: a few owners stuck in empty corners of their
    /// partition decide its tick cost, so its timings spread 10–27 %
    /// across run seeds, beyond any bound the benchmark may set.
    Sparse,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::City, Workload::Sparse];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::City => "city",
            Workload::Sparse => "sparse",
        }
    }
}

/// Seed of the generated city map shared by `city` and `sparse`. The map
/// is part of the workload, not of the run seed: across map seeds the
/// city's tick cost moves by about 20 %, which would swamp any change
/// the benchmark is meant to show.
pub const CITY_MAP_SEED: u64 = 7;

/// The seeds one run derives from its `--seed`. Run seed 0 gives the
/// reference configuration: traffic 42, pipeline `0x71c_c10a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `SimConfig::seed`: car placement, speeds and trips.
    pub traffic: u64,
    /// `PipelineConfig::seed`: request seeds, POIs, adversary and
    /// partition seeds.
    pub pipeline: u64,
}

impl Seeds {
    /// The seeds of run seed `seed`.
    pub fn from_run_seed(seed: u64) -> Seeds {
        Seeds {
            traffic: 42u64.wrapping_add(seed),
            pipeline: 0x71c_c10a_u64.wrapping_add(seed),
        }
    }
}

/// Everything one run of a workload is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Its seeds.
    pub seeds: Seeds,
    /// Partitions; 1 means the unsharded `ContinuousPipeline`.
    pub shards: usize,
    /// Simulated cars.
    pub cars: usize,
    /// Tracked owners, re-anonymized every tick.
    pub owners: usize,
    /// Ticks run after tick 1 and before the timed window. Covers the
    /// city's routing ramp: its step cost climbs for about 15 ticks.
    pub warmup_ticks: usize,
    /// Ticks in the timed window.
    pub timed_ticks: usize,
    /// Untraced pipeline builds per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// Fewest timed ticks: with 100 samples, 10 lie beyond p90.
pub const MIN_TIMED_TICKS: usize = 100;

impl Spec {
    /// The spec of `workload` at run seed `seed`, timing `seconds` worth
    /// of ticks. The window is a tick count, fixed per `(workload,
    /// seconds)` through a reference tick time, so every build of the
    /// program times the same ticks.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Spec {
        // (shards, cars, owners, warm-up ticks, reference tick in µs,
        // setup repeats). The reference ticks were measured once on a
        // 2-vCPU x86-64 VM; they only size the window.
        let (shards, cars, owners, warmup_ticks, tick_us, setup_repeats) = match workload {
            Workload::Grid => (1, 1_000, 64, 50, 3_800, 25),
            Workload::City => (4, 10_000, 128, 25, 115_000, 3),
            Workload::Sparse => (4, 1_500, 64, 25, 130_000, 5),
        };
        let timed_ticks = (seconds.saturating_mul(1_000_000) / tick_us).max(MIN_TIMED_TICKS as u64);
        Spec {
            workload,
            seeds: Seeds::from_run_seed(seed),
            shards,
            cars,
            owners,
            warmup_ticks,
            timed_ticks: timed_ticks as usize,
            setup_repeats,
        }
    }

    /// Generates the road network (the first step of every setup).
    pub fn network(&self) -> RoadNetwork {
        match self.workload {
            Workload::Grid => grid_city(12, 12, 100.0),
            Workload::City | Workload::Sparse => city_map(CITY_MAP_SEED, 5_000),
        }
    }

    /// The traffic simulation's configuration.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            cars: self.cars,
            seed: self.seeds.traffic,
            ..SimConfig::default()
        }
    }

    /// The anonymization service's configuration.
    pub fn anonymizer_config(&self) -> AnonymizerConfig {
        AnonymizerConfig {
            batch_parallelism: 2,
            ..AnonymizerConfig::default()
        }
    }

    /// The pipeline's configuration. Only `grid` runs the LBS and attack
    /// legs; the multi-shard path has neither.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let grid = self.workload == Workload::Grid;
        PipelineConfig {
            tracked_owners: self.owners,
            seed: self.seeds.pipeline,
            verify: true,
            lbs_probes: if grid { 4 } else { 0 },
            attack: grid.then_some(AttackConfig {
                mode: AdversaryMode::All,
                owners: usize::MAX,
                baseline: true,
                keep_records: false,
            }),
            ..PipelineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper"), None);
    }

    #[test]
    fn run_seed_zero_is_the_reference_configuration() {
        let s = Seeds::from_run_seed(0);
        assert_eq!((s.traffic, s.pipeline), (42, 0x71c_c10a));
    }

    #[test]
    fn windows_are_tick_counts_with_a_p90_floor() {
        assert_eq!(Spec::new(Workload::City, 0, 1).timed_ticks, MIN_TIMED_TICKS);
        let a = Spec::new(Workload::Grid, 3, 10);
        assert_eq!(a, Spec::new(Workload::Grid, 3, 10));
        assert!(a.timed_ticks > MIN_TIMED_TICKS);
    }
}
