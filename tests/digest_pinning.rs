//! Receipt-stream digest pinning: the continuous pipeline's per-tick
//! digests for a fixed configuration, as produced by `rcloak simulate
//! --ticks 6 --cars 300 --grid 8x8 --owners 8 --cadence 2 [--engine
//! rple]` at the default seed.
//!
//! [`TickReport::digest`] folds every issued `(owner, payload.encode())`
//! pair in order, so equality here proves a refactor changed **no byte
//! of any receipt**: same draws, same regions, same metadata. If an
//! intentional protocol change ever breaks these constants, re-pin them
//! from a trusted build and say so loudly in the commit.
//!
//! # Pin history
//!
//! * **Wire v1** (retired): pinned before the allocation-free hot-path
//!   refactor, under the xoshiro-based `DrawStream`, per-request
//!   generated keys, and the epoch-less payload encoding. First RGE
//!   digest was `0x08ab_1b44_f5d6_ed3e`, first RPLE
//!   `0x5527_b17e_13ee_f68c`. Those constants are unreachable by any
//!   current build: the keystream is now a ChaCha20-class sponge, keys
//!   come from the per-owner forward-secret chain, and payloads encode
//!   wire v2 (with the chain epoch). v1 payload bytes are explicitly
//!   rejected at decode.
//! * **Wire v2** (current): pinned below from the first trusted build of
//!   the forward-secret keystream.
//!
//! # Sharded streams
//!
//! With several shards the pipeline folds its per-shard receipt streams
//! into one digest per tick (a lone shard's digest is its own, the
//! unsharded pins above). It is pinned at 2 and 8 shards on a small
//! generated city, over enough ticks that trips replanned inside a tick
//! feed the stream as well as every car's setup trip. Two more pins
//! cover the sharded paths those leave out: a 3-shard run under journal,
//! snapshot and cloak faults (the journal retry ladder, with its health
//! totals), and a 4-shard RPLE run (one RPLE engine serving every shard).

use anonymizer::{
    AnonymizerConfig, ContinuousPipeline, EngineChoice, FaultPlan, FaultPolicy, PipelineConfig,
    ShardedPipeline, TickReport,
};
use mobisim::SimConfig;
use roadnet::{city_map, grid_city};

/// The exact configuration `rcloak simulate` builds for
/// `--ticks 6 --cars 300 --grid 8x8 --owners 8 --cadence 2 --seed 42`.
fn pipeline(engine: EngineChoice) -> ContinuousPipeline {
    let seed = 42u64;
    ContinuousPipeline::new(
        grid_city(8, 8, 100.0),
        SimConfig {
            cars: 300,
            seed,
            ..Default::default()
        },
        AnonymizerConfig {
            engine,
            ..Default::default()
        },
        PipelineConfig {
            dt: 10.0,
            snapshot_cadence: 2,
            tracked_owners: 8,
            seed: seed ^ 0x51e_71c4,
            verify: true,
            lbs_probes: 4,
            ..Default::default()
        },
    )
}

fn digests(engine: EngineChoice) -> Vec<u64> {
    let mut p = pipeline(engine);
    p.run(6)
        .expect("pinned configuration verifies cleanly")
        .iter()
        .map(|r| r.digest)
        .collect()
}

#[test]
fn rge_receipt_stream_matches_the_wire_v2_baseline() {
    assert_eq!(
        digests(EngineChoice::Rge),
        vec![
            0x80b0_db4a_cb22_03c2,
            0x8abc_8fb3_46ae_24ed,
            0x45e0_1569_0f5d_b844,
            0x84ba_02b9_0b5c_1c54,
            0x9bf8_eea3_2748_8aed,
            0x69a6_08af_9f9c_ddd5,
        ]
    );
}

#[test]
fn rple_receipt_stream_matches_the_wire_v2_baseline() {
    assert_eq!(
        digests(EngineChoice::Rple { t_len: 12 }),
        vec![
            0x4d8a_3233_7429_d395,
            0x3ea2_27cb_a300_88b1,
            0xd288_6a78_07e8_0d87,
            0xcb7e_5a0b_a2e9_4502,
            0xd28f_15d0_4369_be8d,
            0x17d3_11e0_64c5_c3d9,
        ]
    );
}

const SHARDED_MAP_SEED: u64 = 11;
const SHARDED_TICKS: usize = 8;

fn sharded_sim_config() -> SimConfig {
    SimConfig {
        cars: 1_600,
        seed: 42,
        ..Default::default()
    }
}

/// Runs the multi-shard configuration pinned below: an 800-segment
/// generated city split into `shards` partitions, with
/// `batch_parallelism` fixed so the stream cannot depend on the host's
/// core count. The retry budget matters only under a fault plan.
fn sharded_reports(
    shards: usize,
    engine: EngineChoice,
    fault: Option<FaultPlan>,
) -> Vec<TickReport> {
    let mut pipeline = ShardedPipeline::new(
        city_map(SHARDED_MAP_SEED, 800),
        sharded_sim_config(),
        AnonymizerConfig {
            engine,
            batch_parallelism: 2,
            ..Default::default()
        },
        PipelineConfig {
            tracked_owners: 16,
            seed: 0x5_4a2d,
            lbs_probes: 0,
            fault,
            fault_policy: FaultPolicy {
                journal_retries: 8,
                ..Default::default()
            },
            ..Default::default()
        },
        shards,
    );
    let reports = pipeline
        .run(SHARDED_TICKS)
        .expect("pinned configuration verifies cleanly");
    for r in &reports {
        assert_eq!(r.shard_digests.len(), shards);
        assert_eq!(r.verified, r.issued);
    }
    reports
}

fn digests_of(reports: &[TickReport]) -> Vec<u64> {
    reports.iter().map(|r| r.digest).collect()
}

/// The sharded pins cover both trip-planning paths: every car's setup
/// trip, and trips replanned inside a tick on arrival, tracked owners'
/// included. The pipeline steps its own copy of this simulation.
#[test]
fn sharded_pins_cover_setup_trips_and_in_tick_replans() {
    let mut sim = mobisim::Simulation::new(city_map(SHARDED_MAP_SEED, 800), sharded_sim_config());
    assert!(sim.cars().iter().all(|c| c.is_en_route()));
    let trips = |sim: &mobisim::Simulation, cars: usize| -> u32 {
        sim.cars()[..cars].iter().map(|c| c.trips_completed()).sum()
    };
    sim.run(SHARDED_TICKS / 2, 10.0);
    let halfway = trips(&sim, sim.cars().len());
    sim.run(SHARDED_TICKS - SHARDED_TICKS / 2, 10.0);
    assert!(halfway > 0);
    assert!(trips(&sim, sim.cars().len()) > halfway);
    assert!(trips(&sim, 16) > 0, "no tracked owner replanned a trip");
}

#[test]
fn two_shard_receipt_stream_matches_the_baseline() {
    assert_eq!(
        digests_of(&sharded_reports(2, EngineChoice::Rge, None)),
        vec![
            0xf56d_56bb_d141_01dc,
            0x2806_c2b8_5f15_4f26,
            0x6c9e_f317_719d_7c16,
            0xef44_1d96_e0d7_a79a,
            0x6042_dff7_d3ea_5a66,
            0xeb1d_1b27_7bdc_80ba,
            0xd0d5_59a4_5e2e_02d1,
            0x5e72_3a0a_e12c_7a95,
        ]
    );
}

#[test]
fn eight_shard_receipt_stream_matches_the_baseline() {
    assert_eq!(
        digests_of(&sharded_reports(8, EngineChoice::Rge, None)),
        vec![
            0xa0e9_3496_6e65_d7b5,
            0xe028_9ac3_0f83_8767,
            0x3a3a_cee0_4412_4ca7,
            0xf903_a8da_8f59_eabc,
            0x6588_7106_1fde_c5cd,
            0x9e1a_25f4_562c_0519,
            0x7661_5b46_01ce_55fc,
            0xa159_691f_38eb_dc27,
        ]
    );
}

/// Journal, snapshot and cloak faults over 3 shards: journal retries
/// re-derive the receipts the faults withheld, stale snapshots keep
/// serving, and injected cloak failures drop receipts, all in shard and
/// request order.
#[test]
fn faulty_three_shard_stream_matches_the_baseline() {
    let reports = sharded_reports(
        3,
        EngineChoice::Rge,
        Some(FaultPlan {
            seed: 5,
            journal_write_fail: 0.3,
            snapshot_capture_fail: 0.3,
            cloak_fail: 0.1,
            ..Default::default()
        }),
    );
    assert_eq!(
        digests_of(&reports),
        vec![
            0xefed_9f84_5a36_bfef,
            0x930b_b290_ae87_52e6,
            0x5a85_80f8_ae8d_69fd,
            0xd8f2_2c2f_2dfe_5453,
            0xa081_b14e_4b1f_4869,
            0x84da_7c88_329f_f37e,
            0x27c4_86cd_d9a3_e54a,
            0xd439_e991_bcd1_cdb0,
        ]
    );
    // Retries, skips, snapshot faults, injected cloak failures and
    // owners changing shard, over the run.
    let totals = reports.iter().fold([0; 5], |sum, r| {
        let h = &r.health;
        let tick = [
            h.journal_retries,
            h.journal_skips,
            h.snapshot_faults,
            h.injected_cloak_failures,
            r.handoffs as u64,
        ];
        std::array::from_fn(|i| sum[i] + tick[i])
    });
    assert_eq!(totals, [50, 0, 3, 14, 13]);
}

/// One RPLE engine behind 4 shards.
#[test]
fn four_shard_rple_stream_matches_the_baseline() {
    assert_eq!(
        digests_of(&sharded_reports(4, EngineChoice::Rple { t_len: 12 }, None)),
        vec![
            0xae37_e234_a9a2_4795,
            0xf52f_3219_6ef4_2322,
            0x89c3_ecac_f0bd_c0a0,
            0x6c9f_272a_5c41_42db,
            0x0dcc_9ed6_66d2_966f,
            0x3871_b981_02bf_0030,
            0xbaae_dd04_a219_8892,
            0x2928_f6b3_75f0_5815,
        ]
    );
}
