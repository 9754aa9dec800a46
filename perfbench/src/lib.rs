//! End-to-end and per-layer benchmark of the ReverseCloak tick pipelines.
//!
//! One command, `perfbench --workload NAME --seed N --seconds S --trace
//! 0|1`, builds a workload from the seed, drives a fixed number of ticks
//! through the public [`anonymizer::ContinuousPipeline`] /
//! [`anonymizer::ShardedPipeline`] API with verification on, checks every
//! tick, and prints its metrics as one JSON line (see [`report`]).
//!
//! * **Untraced** (`--trace 0`, [`run::untraced`]): the program's own tick
//!   loop, timed from outside. It never runs the replay driver, so a
//!   change that legitimately alters receipts cannot break it.
//! * **Traced** (`--trace 1`, [`run::traced`]): the same ticks, first
//!   through the pipeline for its receipt digests, then through
//!   [`driver`], which makes the pipelines' public calls in the same
//!   order with a [`trace`] span around each. The run fails unless every
//!   tick digest matches; per-layer numbers come from the spans.
//!
//! The layers are the workspace crates and modules: `roadnet`, `mobisim`,
//! `keystream`, `cloak` (with `attack`), `lbs` and `anonymizer`
//! (`service`, `deanonymizer`, `pipeline`, `shard`). Keystream and cloak
//! both run inside `AnonymizerService::anonymize_batch`, so they share
//! `anonymizer.issue_ms` until spans move inside the program.
//! `perfbench/README.md` maps each per-layer metric to the end-to-end
//! metric it should move.

pub mod driver;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;

/// FNV-1a offset basis the pipelines start every receipt digest from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte run, chained from `state` (a copy of the
/// pipelines' private digest helper).
pub fn fnv_fold(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 finalizer (a copy of the service's private helper).
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Request seed of owner `idx` at `tick` (a copy of the pipelines'
/// private helper).
pub fn mix_seed(base: u64, tick: u64, idx: u64) -> u64 {
    splitmix64(
        base ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}
