//! The two run modes and the tick loop they share.

use crate::driver::{Replay, TickCounts};
use crate::trace::{SelfTimes, Tracer, TICK};
use crate::workload::Spec;
use crate::{fnv_fold, FNV_OFFSET};
use anonymizer::{ContinuousPipeline, ShardedPipeline};
use cloak::{AttackSummary, QualitySummary};
use std::time::Instant;

/// What one tick produced, in the form the pipelines and the replay
/// driver share.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// 1-based tick number.
    pub tick: u64,
    /// Receipts issued.
    pub issued: usize,
    /// Requests that failed (availability events, not violations).
    pub failed: usize,
    /// Receipts that passed the pipeline's invariant checks.
    pub verified: usize,
    /// Owners migrated between shards at the tick boundary.
    pub handoffs: usize,
    /// The pipeline's receipt digest for the tick.
    pub digest: u64,
    /// Region-quality rollup of the tick's receipts.
    pub quality: QualitySummary,
    /// The attack leg's rollup of the engine stream (grid only).
    pub attack: Option<AttackSummary>,
}

/// Something that runs ticks: a pipeline, or the replay driver.
pub trait Ticker {
    /// Runs one tick.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant.
    fn tick(&mut self) -> Result<TickOutcome, String>;
}

/// A workload's pipeline, driven through the program's public API.
#[derive(Debug)]
pub enum Pipeline {
    /// One shard: the unsharded continuous pipeline.
    Continuous(Box<ContinuousPipeline>),
    /// Several shards.
    Sharded(Box<ShardedPipeline>),
}

impl Pipeline {
    /// Generates the workload's inputs and builds its pipeline.
    pub fn build(spec: &Spec) -> Pipeline {
        let (net, sim, anon, cfg) = (
            spec.network(),
            spec.sim_config(),
            spec.anonymizer_config(),
            spec.pipeline_config(),
        );
        if spec.shards == 1 {
            Pipeline::Continuous(Box::new(ContinuousPipeline::new(net, sim, anon, cfg)))
        } else {
            Pipeline::Sharded(Box::new(ShardedPipeline::new(
                net,
                sim,
                anon,
                cfg,
                spec.shards,
            )))
        }
    }
}

impl Ticker for Pipeline {
    fn tick(&mut self) -> Result<TickOutcome, String> {
        match self {
            Pipeline::Continuous(p) => {
                let r = p.tick().map_err(|e| e.to_string())?;
                Ok(TickOutcome {
                    tick: r.tick,
                    issued: r.issued,
                    failed: r.failed,
                    verified: r.verified,
                    handoffs: 0,
                    digest: r.digest,
                    quality: r.quality,
                    attack: r.attack.map(|a| a.engine),
                })
            }
            Pipeline::Sharded(p) => {
                let r = p.tick().map_err(|e| e.to_string())?;
                Ok(TickOutcome {
                    tick: r.tick,
                    issued: r.issued,
                    failed: r.failed,
                    verified: r.verified,
                    handoffs: r.handoffs,
                    digest: r.digest,
                    quality: r.quality,
                    attack: None,
                })
            }
        }
    }
}

/// The per-tick checks: every tracked owner was either issued a receipt
/// or failed, and every issued receipt verified.
fn check(spec: &Spec, out: &TickOutcome) -> Result<(), String> {
    if out.issued + out.failed != spec.owners {
        return Err(format!(
            "tick {}: issued {} + failed {} != {} tracked owners",
            out.tick, out.issued, out.failed, spec.owners
        ));
    }
    if out.verified != out.issued {
        return Err(format!(
            "tick {}: {} of {} issued receipts verified",
            out.tick, out.verified, out.issued
        ));
    }
    Ok(())
}

/// Totals over the timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Wall time of each timed tick, in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Wall time of the whole window, in nanoseconds.
    pub wall_ns: u64,
    /// Receipts issued.
    pub issued: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Owner migrations.
    pub handoffs: u64,
    /// Region quality of every issued receipt.
    pub quality: QualitySummary,
    /// Attack rollup of the engine stream (grid only).
    pub attack: Option<AttackSummary>,
    /// FNV fold of the window's tick digests.
    pub digest_fold: u64,
}

/// One pipeline's ticks: every tick digest (index 0 is tick 1) and the
/// timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Receipt digest of every tick run.
    pub digests: Vec<u64>,
    /// The timed window.
    pub window: Window,
}

/// Runs the warm-up and the timed window on a ticker that has run tick 1
/// (whose digest is `digests[0]`).
///
/// # Errors
///
/// Fails on the first tick that errs or fails a per-tick check.
pub fn drive<T: Ticker>(t: &mut T, spec: &Spec, mut digests: Vec<u64>) -> Result<Run, String> {
    for _ in 0..spec.warmup_ticks {
        let out = t.tick()?;
        check(spec, &out)?;
        digests.push(out.digest);
    }
    let mut w = Window {
        tick_ns: Vec::with_capacity(spec.timed_ticks),
        wall_ns: 0,
        issued: 0,
        failed: 0,
        handoffs: 0,
        quality: QualitySummary::new(),
        attack: None,
        digest_fold: FNV_OFFSET,
    };
    let start = Instant::now();
    for _ in 0..spec.timed_ticks {
        let t0 = Instant::now();
        let out = t.tick()?;
        w.tick_ns.push(t0.elapsed().as_nanos() as u64);
        check(spec, &out)?;
        digests.push(out.digest);
        w.issued += out.issued as u64;
        w.failed += out.failed as u64;
        w.handoffs += out.handoffs as u64;
        w.quality.merge(&out.quality);
        if let Some(a) = &out.attack {
            w.attack.get_or_insert_with(AttackSummary::new).merge(a);
        }
        w.digest_fold = fnv_fold(w.digest_fold, &out.digest.to_le_bytes());
    }
    w.wall_ns = start.elapsed().as_nanos() as u64;
    Ok(Run { digests, window: w })
}

/// An untraced run: `setup_repeats` timed builds, then the window on the
/// last one.
#[derive(Debug)]
pub struct Untraced {
    /// Seconds from input generation to the end of tick 1, per build.
    pub setup_s: Vec<f64>,
    /// The ticks of the last build.
    pub run: Run,
}

/// Runs the program's own pipeline, timed from outside.
///
/// # Errors
///
/// Fails on any pipeline error, any failed per-tick check, or builds whose
/// first ticks disagree.
pub fn untraced(spec: &Spec, builds: usize) -> Result<Untraced, String> {
    let mut setup_s = Vec::with_capacity(builds);
    let mut kept = None;
    let mut first_digest = None;
    for _ in 0..builds.max(1) {
        // Drop the previous build before timing the next.
        drop(kept.take());
        let t0 = Instant::now();
        let mut pipeline = Pipeline::build(spec);
        let out = pipeline.tick()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        check(spec, &out)?;
        if *first_digest.get_or_insert(out.digest) != out.digest {
            return Err("two builds of one seed issued different first ticks".into());
        }
        kept = Some(pipeline);
    }
    let mut pipeline = kept.expect("at least one build");
    let digests = vec![first_digest.expect("at least one build")];
    let run = drive(&mut pipeline, spec, digests)?;
    Ok(Untraced { setup_s, run })
}

/// A traced run: the pipeline's reference ticks and their replay.
#[derive(Debug)]
pub struct Traced {
    /// The untraced pipeline over the same ticks (one build).
    pub reference: Run,
    /// The replay driver's ticks.
    pub replay: Run,
    /// The replay's spans.
    pub tracer: Tracer,
    /// The replay's per-tick counters (index 0 is tick 1).
    pub counts: Vec<TickCounts>,
}

/// Runs the pipeline, then replays the same ticks with spans.
///
/// # Errors
///
/// Fails as [`untraced`] does, or when any replayed tick digest or
/// window rollup differs from the pipeline's.
pub fn traced(spec: &Spec) -> Result<Traced, String> {
    let reference = untraced(spec, 1)?.run;
    let mut replay = Replay::build(spec);
    let first = replay.tick()?;
    check(spec, &first)?;
    let ticks = 1 + spec.warmup_ticks + spec.timed_ticks;
    replay.reserve_for(ticks);
    let run = drive(&mut replay, spec, vec![first.digest])?;
    for (i, (want, got)) in reference.digests.iter().zip(&run.digests).enumerate() {
        if want != got {
            return Err(format!(
                "tick {}: replay digest {got:016x} differs from the pipeline's {want:016x}",
                i + 1
            ));
        }
    }
    let (a, b) = (&reference.window, &run.window);
    if reference.digests.len() != run.digests.len()
        || (a.issued, a.failed, a.handoffs) != (b.issued, b.failed, b.handoffs)
        || a.quality != b.quality
        || a.attack != b.attack
    {
        return Err("replay window rollups differ from the pipeline's".into());
    }
    let (tracer, counts) = replay.finish();
    Ok(Traced {
        reference,
        replay: run,
        tracer,
        counts,
    })
}

impl Traced {
    /// Self times of the timed window's spans.
    pub fn window_self_times(&self, spec: &Spec) -> SelfTimes {
        let first = 2 + spec.warmup_ticks as u64;
        let last = first + spec.timed_ticks as u64 - 1;
        SelfTimes::over(self.tracer.spans(), first..=last)
    }

    /// Self times of the setup spans.
    pub fn setup_self_times(&self) -> SelfTimes {
        SelfTimes::over(self.tracer.spans(), 0..=0)
    }

    /// The replay's counters summed over the timed window.
    pub fn window_counts(&self, spec: &Spec) -> TickCounts {
        let first = 1 + spec.warmup_ticks;
        let mut total = TickCounts::default();
        for c in &self.counts[first..first + spec.timed_ticks] {
            total.add(c);
        }
        total
    }

    /// Share of the timed ticks' span time no child span covers, in %.
    pub fn uncovered_pct(&self, spec: &Spec) -> f64 {
        let times = self.window_self_times(spec);
        100.0 * times.self_ns(TICK) as f64 / times.total_ns(TICK).max(1) as f64
    }
}
