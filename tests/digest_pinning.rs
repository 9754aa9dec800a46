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
//!   the chain epoch. v1 payload bytes are explicitly rejected at decode.
//! * **Wire v2** (retired): pinned from the first trusted build of the
//!   forward-secret keystream. Each level's walk forked one counter lane
//!   per step, keys came from five separate derivations per receipt, and
//!   the peel searched the top level's region for its tag. First RGE
//!   digest was `0x80b0_db4a_cb22_03c2`, first RPLE
//!   `0x4d8a_3233_7429_d395`; the sharded pins below were re-pinned in
//!   the same change. v2 payload bytes are rejected at decode.
//! * **Wire v3** (current): pinned below. A level reads one draw stream
//!   in order, contexts are at most 12 bytes, tags are one block of the
//!   level's stream, the top level's anchor position rides encrypted in
//!   its metadata, and the top level's tag authenticates the whole
//!   receipt. The chain ratchet is v2's byte for byte, so journals carry
//!   over; the faulty 3-shard run's health totals did not move.
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
fn rge_receipt_stream_matches_the_wire_v3_baseline() {
    assert_eq!(
        digests(EngineChoice::Rge),
        vec![
            0xf118_bc48_3094_670b,
            0x089b_386b_06b8_8f42,
            0x3380_bc15_6956_319a,
            0x5e73_2d6a_806a_f219,
            0xd0ec_c22b_51da_033f,
            0xeeb4_ca8e_b7c8_cc0e,
        ]
    );
}

#[test]
fn rple_receipt_stream_matches_the_wire_v3_baseline() {
    assert_eq!(
        digests(EngineChoice::Rple { t_len: 12 }),
        vec![
            0x22a0_86b7_f527_3b39,
            0x98ea_3cdf_4e20_a25e,
            0xe19f_5f6f_f4ab_2faf,
            0x20b2_4ac6_88b5_51b3,
            0x548b_b15d_30ca_5a35,
            0xf5e5_c657_3019_7d1e,
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
            0xad53_4362_b885_9d8c,
            0x999f_1830_0e3d_ed92,
            0x715e_5362_1fa4_f01d,
            0x0498_be7a_4dc5_feee,
            0xad03_4bce_fa4f_3840,
            0x7390_58e2_ef33_dfc9,
            0x3b83_9313_552d_3381,
            0x90d5_87b0_bd41_8733,
        ]
    );
}

#[test]
fn eight_shard_receipt_stream_matches_the_baseline() {
    assert_eq!(
        digests_of(&sharded_reports(8, EngineChoice::Rge, None)),
        vec![
            0x13ef_1d99_63c7_e4e0,
            0x711d_2be0_103c_d7aa,
            0x601d_8820_0a76_b440,
            0x19e5_33f0_c845_ea30,
            0x4ba7_eae6_44b8_dea6,
            0xada4_fc41_8340_4865,
            0xc811_ba7f_794e_1daf,
            0xb9a4_527c_9e29_76af,
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
            0x01cc_eabf_525d_2455,
            0x16ee_36c8_3746_5bc9,
            0xe143_e385_b9c5_b2d3,
            0x3bb7_1c42_42bb_af80,
            0xbebe_5290_76f6_c6da,
            0x7814_09fe_e838_8d9d,
            0x6bf5_73a4_b511_ec6e,
            0x5d7e_2933_474b_3680,
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
            0x8cb0_09a9_0c91_dd31,
            0xcaea_db44_3c7a_b2cd,
            0xfc9d_a228_432d_76f8,
            0xdf89_5ae1_6a10_e395,
            0x40d5_efb2_343d_d841,
            0x14ed_0f08_5900_095a,
            0x6c39_5d3b_c90d_cff3,
            0xb1a3_8707_bf2e_f514,
        ]
    );
}
