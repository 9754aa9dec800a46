//! The adaptive Bayesian adversary: a trajectory particle filter.
//!
//! The fixed-strategy portfolio in [`super::temporal`] prunes and
//! weights each tick's candidate set *in isolation* (the `correlate`
//! mode is explicitly memoryless; `move`/`all` carry only a support
//! set). This module upgrades the adversary to a sequential Bayesian
//! tracker that maintains a posterior over whole **trajectories**:
//!
//! * **State** — per owner, `N` particles. Each particle is a
//!   hypothesized trajectory (the segment path recorded since the
//!   adversary warmed up) with an importance weight that accumulates
//!   *multiplicatively* across ticks, so evidence compounds instead of
//!   being re-derived per observation.
//! * **Transition kernel** — the provably-sound movement model: a
//!   particle at segment `s` may move to any segment of the newly
//!   observed region within the `h`-hop reachability mask of `s`
//!   ([`roadnet::ReachIndex`], the same masks the `move` prune uses,
//!   with the same conservative `ceil(vmax·dt/min_len)+1` hop budget).
//!   A particle whose reachable set misses the region entirely is a
//!   refuted trajectory: its weight drops to zero.
//! * **Observation likelihood** — the occupancy-correlation weights of
//!   the issuing snapshot (`users(s)`, smoothed by `+0.5` when the
//!   snapshot is stale), used both as the proposal distribution and in
//!   the importance-weight update; plus replay inversion against
//!   keyless replayable schemes (the NRE control), exactly as in the
//!   fixed portfolio.
//! * **Systematic resampling** — when the per-owner effective sample
//!   size `ESS = 1/Σŵᵢ²` falls below
//!   [`AdaptiveConfig::ess_fraction`]`·N`, particles are resampled with
//!   the classic low-variance systematic scheme (one uniform draw,
//!   `N` evenly spaced cumulative positions), cloning high-mass
//!   trajectories and dropping dead ones.
//! * **Uniform-reinjection fallback** — if the weight system degenerates
//!   anyway (total mass zero after a refuting observation, or ESS
//!   collapse while resampling is disabled), the particle set is
//!   re-seeded uniformly over the *currently observed region*. The
//!   particle set is therefore never empty and never all-zero: the
//!   tracker degrades to the memoryless posterior instead of dying.
//!   Reinjections are counted ([`AdaptiveTracker::reinjections`]) and
//!   flagged as `reset` in the emitted [`AttackObservation`].
//!
//! The **reported** posterior over the owner's current segment is the
//! particle mass aggregated per region segment, defensively mixed with
//! `ε` of the uniform distribution over the observed region
//! ([`AdaptiveConfig::mix_epsilon`]). The mixture is the standard guard
//! against particle impoverishment under model misspecification, and it
//! makes the tracker *sound by construction*: anything the observation
//! itself admits (every region segment — in particular the true one)
//! keeps nonzero mass, so `true_in_support` can never be false. The
//! price is a small entropy floor of roughly `ε·log2|region|` bits,
//! negligible against the `log2 k` separation the tournament asserts.
//!
//! The tracker emits the same [`AttackObservation`] metrics as the
//! fixed portfolio and is normally driven through
//! [`super::temporal::TemporalAdversary`] with
//! [`AdversaryMode::Adaptive`](super::temporal::AdversaryMode::Adaptive),
//! which makes it a drop-in leg of the continuous pipeline — purely
//! observational, so receipt digests stay byte-identical.

use crate::attack::temporal::{
    conservative_hops, splitmix64, AttackObservation, Observation, ReachScratch, ReplayProbe,
};
use crate::baseline::{replay_expansion_matches, ExpansionScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{ReachIndex, RoadNetwork, SegmentId};
use std::collections::HashMap;
use std::sync::Arc;

/// Oldest trajectory suffix retained per particle: bounds memory on
/// long streams without affecting the posterior (weights already
/// encode the full history).
const TRAJECTORY_CAP: usize = 128;

/// Tuning knobs of the [`AdaptiveTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Particles per tracked owner.
    pub particles: usize,
    /// Whether ESS collapse triggers systematic resampling. Disabled,
    /// the tracker falls back to uniform reinjection on collapse (the
    /// degeneracy-handling property test exercises exactly this).
    pub resample: bool,
    /// Resample (or reinject) when `ESS < ess_fraction · particles`.
    pub ess_fraction: f64,
    /// Defensive uniform mixture over the observed region folded into
    /// the *reported* posterior — the soundness floor (see module
    /// docs). Clamped to `[0, 1)`.
    pub mix_epsilon: f64,
    /// Seed of the tracker's own deterministic sampling (proposals,
    /// resampling offsets, guesses).
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            particles: 256,
            resample: true,
            ess_fraction: 0.5,
            mix_epsilon: 0.02,
            seed: 0x0ada_9717,
        }
    }
}

/// Aggregate filter health, surfaced by
/// [`TemporalAdversary::adaptive_stats`](super::temporal::TemporalAdversary::adaptive_stats)
/// and the CLI footers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStats {
    /// Owners with live particle sets.
    pub tracked_owners: usize,
    /// Particles per owner.
    pub particles: usize,
    /// Mean of the per-owner effective sample sizes after the latest
    /// observation of each.
    pub mean_ess: f64,
    /// Systematic resampling events so far.
    pub resamples: u64,
    /// Uniform-reinjection fallbacks so far.
    pub reinjections: u64,
}

/// One owner's particle system.
#[derive(Debug, Clone, Default)]
struct ParticleSet {
    /// Current segment of each particle.
    segs: Vec<SegmentId>,
    /// Normalized importance weights (sum 1 after every observation).
    weights: Vec<f64>,
    /// Hypothesized trajectory of each particle (suffix-capped).
    trajectories: Vec<Vec<SegmentId>>,
    /// Effective sample size after the latest observation.
    ess: f64,
    warm: bool,
}

/// The trajectory particle filter (see module docs).
#[derive(Debug)]
pub struct AdaptiveTracker {
    cfg: AdaptiveConfig,
    /// Conservative per-tick hop budget of the transition kernel.
    hops: usize,
    /// Packed h-hop masks shared with every adversary on this network;
    /// `None` only when the budget exceeds the index's cached-hop cap
    /// ([`roadnet::IndexBudget::reach_hop_cap`]) — the transition
    /// kernel then pays a BFS per distinct particle segment, flagged
    /// via [`AttackObservation::movement_fallback`].
    reach_index: Option<Arc<ReachIndex>>,
    /// BFS fallback for uncached hop budgets.
    reach: ReachScratch,
    owners: HashMap<String, ParticleSet>,
    /// Pooled replay-inversion buffers.
    replay_scratch: ExpansionScratch,
    /// Pooled per-observation buffers.
    allowed: Vec<SegmentId>,
    order: Vec<usize>,
    region_mass: Vec<f64>,
    replay_cache: Vec<i8>,
    resamples: u64,
    reinjections: u64,
    draws: u64,
}

impl AdaptiveTracker {
    /// Builds a tracker whose transition kernel uses the same
    /// conservative hop budget as the fixed portfolio's movement model
    /// (`ceil(max_speed·dt / min_segment_length) + 1`).
    pub fn new(net: &RoadNetwork, max_speed: f64, dt: f64, cfg: AdaptiveConfig) -> Self {
        let hops = conservative_hops(net, max_speed, dt);
        let reach_index = net.cached_reach_index(hops);
        AdaptiveTracker {
            cfg: AdaptiveConfig {
                particles: cfg.particles.max(1),
                ..cfg
            },
            hops,
            reach_index,
            reach: ReachScratch::new(),
            owners: HashMap::new(),
            replay_scratch: ExpansionScratch::new(),
            allowed: Vec::new(),
            order: Vec::new(),
            region_mass: Vec::new(),
            replay_cache: Vec::new(),
            resamples: 0,
            reinjections: 0,
            draws: 0,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The transition kernel's per-tick hop budget.
    pub fn movement_hops(&self) -> usize {
        self.hops
    }

    /// Owners with live particle sets.
    pub fn tracked_owners(&self) -> usize {
        self.owners.len()
    }

    /// Effective sample size of an owner's particle system after its
    /// latest observation.
    pub fn ess(&self, owner: &str) -> Option<f64> {
        self.owners.get(owner).map(|p| p.ess)
    }

    /// Systematic resampling events so far.
    pub fn resamples(&self) -> u64 {
        self.resamples
    }

    /// Uniform-reinjection fallbacks so far (degeneracy recoveries).
    pub fn reinjections(&self) -> u64 {
        self.reinjections
    }

    /// The number of live particles held for `owner` (always exactly
    /// [`AdaptiveConfig::particles`] once tracked — the reinjection
    /// fallback guarantees the set never empties).
    pub fn particle_count(&self, owner: &str) -> Option<usize> {
        self.owners.get(owner).map(|p| p.segs.len())
    }

    /// The maximum-a-posteriori particle's hypothesized trajectory and
    /// its normalized weight.
    pub fn map_trajectory(&self, owner: &str) -> Option<(&[SegmentId], f64)> {
        let ps = self.owners.get(owner)?;
        let (i, &w) = ps
            .weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        Some((&ps.trajectories[i], w))
    }

    /// Aggregate filter health.
    pub fn stats(&self) -> AdaptiveStats {
        let n = self.owners.len();
        let mean_ess = if n == 0 {
            0.0
        } else {
            self.owners.values().map(|p| p.ess).sum::<f64>() / n as f64
        };
        AdaptiveStats {
            tracked_owners: n,
            particles: self.cfg.particles,
            mean_ess,
            resamples: self.resamples,
            reinjections: self.reinjections,
        }
    }

    /// Drops all per-owner state (the tracker starts cold again).
    pub fn reset(&mut self) {
        self.owners.clear();
    }

    /// One deterministic uniform draw in `[0, 1)`.
    fn rand01(&mut self) -> f64 {
        self.draws += 1;
        let word = splitmix64(self.cfg.seed ^ self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (word >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Re-seeds the particle system uniformly over the observed region
    /// — the documented degeneracy fallback. Never leaves the set empty.
    fn reinject(ps: &mut ParticleSet, region: &[SegmentId], particles: usize) {
        ps.segs.clear();
        ps.weights.clear();
        ps.trajectories.clear();
        for i in 0..particles {
            let seg = region[i % region.len()];
            ps.segs.push(seg);
            ps.weights.push(1.0);
            ps.trajectories.push(vec![seg]);
        }
    }

    /// Processes one observed cloak for `owner`. The contract matches
    /// [`TemporalAdversary::observe`](super::temporal::TemporalAdversary::observe):
    /// `replay` is the adversary's knowledge that the scheme is keyless
    /// and replayable, `truth` scores but never feeds the posterior, and
    /// `peel_frontier` is the caller's precomputed peel-candidate count
    /// (pass 0 when unused).
    pub fn observe(
        &mut self,
        net: &RoadNetwork,
        owner: &str,
        obs: Observation<'_>,
        replay: Option<ReplayProbe<'_>>,
        truth: Option<SegmentId>,
        peel_frontier: usize,
    ) -> AttackObservation {
        let region = obs.region;
        // An empty region admits no posterior: report zeros (not NaN)
        // and leave the owner's state untouched.
        if region.is_empty() {
            return AttackObservation::empty(obs.tick, peel_frontier);
        }
        let n = self.cfg.particles;
        // The owner's particles are taken out of their entry for the
        // observation and put back in place after it.
        let mut ps = self
            .owners
            .get_mut(owner)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut reset = false;
        let mut movement_fallback = false;

        if !ps.warm {
            Self::reinject(&mut ps, region, n);
            for (w, &seg) in ps.weights.iter_mut().zip(&ps.segs) {
                *w = obs.occupancy_weight(seg);
            }
            if ps.weights.iter().all(|&w| w == 0.0) {
                ps.weights.fill(1.0);
            }
            ps.warm = true;
        } else {
            // The transition kernel pays a BFS per distinct particle
            // segment when the hop budget exceeds the index cache cap.
            movement_fallback = self.reach_index.is_none();
            self.propagate(net, &mut ps, &obs);
        }

        // Replay inversion: a particle sitting on a segment from which
        // the keyless scheme provably would not have produced this
        // region is refuted. Cached per segment; if no segment survives
        // the replay (numerical dead end), skip the cut — mirroring the
        // fixed portfolio.
        if let Some(probe) = replay {
            self.replay_scratch.set_replay_target(net, region);
            self.replay_cache.clear();
            self.replay_cache.resize(net.segment_count(), -1);
            let mut any = false;
            for i in 0..ps.segs.len() {
                if ps.weights[i] == 0.0 {
                    continue;
                }
                let seg = ps.segs[i];
                let cached = self.replay_cache[seg.index()];
                let hit = if cached >= 0 {
                    cached == 1
                } else {
                    let mut rng = StdRng::seed_from_u64(probe.seed);
                    let hit = replay_expansion_matches(
                        net,
                        obs.snapshot,
                        seg,
                        probe.requirement,
                        &mut rng,
                        &mut self.replay_scratch,
                    );
                    self.replay_cache[seg.index()] = i8::from(hit);
                    hit
                };
                any |= hit;
            }
            if any {
                for (w, &seg) in ps.weights.iter_mut().zip(&ps.segs) {
                    if self.replay_cache[seg.index()] == 0 {
                        *w = 0.0;
                    }
                }
            }
        }

        // Degeneracy fallback #1: total mass zero (every trajectory
        // refuted) — reinject uniformly over the observed region.
        let total: f64 = ps.weights.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            Self::reinject(&mut ps, region, n);
            reset = true;
            self.reinjections += 1;
        }

        // Normalize and track the effective sample size.
        let total: f64 = ps.weights.iter().sum();
        for w in &mut ps.weights {
            *w /= total;
        }
        let ess = 1.0 / ps.weights.iter().map(|w| w * w).sum::<f64>();
        ps.ess = ess;

        // Measure the reported posterior: particle mass per region
        // segment, ε-mixed with uniform over the region (the soundness
        // floor — see module docs).
        let eps = self.cfg.mix_epsilon.clamp(0.0, 0.999_999);
        self.region_mass.clear();
        self.region_mass.resize(region.len(), 0.0);
        for (&seg, &w) in ps.segs.iter().zip(&ps.weights) {
            if let Ok(idx) = region.binary_search(&seg) {
                self.region_mass[idx] += w;
            }
        }
        let uniform = eps / region.len() as f64;
        let mut entropy = 0.0;
        let mut user_entropy = 0.0;
        let mut support = 0usize;
        for (&mass, &s) in self.region_mass.iter().zip(region) {
            let p = (1.0 - eps) * mass + uniform;
            if p > 0.0 {
                support += 1;
                entropy -= p * p.log2();
                user_entropy += p * (obs.snapshot.users_on(s).max(1) as f64).log2();
            }
        }
        let entropy = entropy.max(0.0);
        let user_entropy = (user_entropy + entropy).max(0.0);

        // Guess by sampling the reported posterior (deterministic).
        let x = self.rand01();
        let mut acc = 0.0;
        let mut guess = region[region.len() - 1];
        for (&mass, &s) in self.region_mass.iter().zip(region) {
            acc += (1.0 - eps) * mass + uniform;
            if x < acc {
                guess = s;
                break;
            }
        }
        let guess_correct = truth.map(|t| guess == t);
        let true_in_support = truth.map(|t| match region.binary_search(&t) {
            Ok(idx) => (1.0 - eps) * self.region_mass[idx] + uniform > 0.0,
            Err(_) => false,
        });

        // Degeneracy control for the *next* tick: resample on ESS
        // collapse, or fall back to reinjection when resampling is off.
        if ess < self.cfg.ess_fraction * n as f64 {
            if self.cfg.resample {
                self.systematic_resample(&mut ps);
                self.resamples += 1;
            } else {
                Self::reinject(&mut ps, region, n);
                let w = 1.0 / n as f64;
                ps.weights.fill(w);
                ps.ess = n as f64;
                reset = true;
                self.reinjections += 1;
            }
        }

        match self.owners.get_mut(owner) {
            Some(kept) => *kept = ps,
            None => {
                self.owners.insert(owner.to_string(), ps);
            }
        }

        AttackObservation {
            tick: obs.tick,
            region_size: region.len(),
            peel_frontier,
            support,
            entropy_bits: entropy,
            user_entropy_bits: user_entropy,
            region_entropy_bits: (region.len() as f64).log2(),
            guess,
            guess_correct,
            true_in_support,
            reset,
            movement_fallback,
        }
    }

    /// One transition step: every particle moves to a segment of the
    /// new region inside its h-hop reachability mask, proposed
    /// proportionally to the occupancy likelihood; the importance
    /// weight picks up the transition's marginal likelihood. Particles
    /// are processed grouped by current segment so each distinct
    /// segment's reachable set is computed once.
    fn propagate(&mut self, net: &RoadNetwork, ps: &mut ParticleSet, obs: &Observation<'_>) {
        let region = obs.region;
        self.order.clear();
        self.order.extend(0..ps.segs.len());
        let segs = std::mem::take(&mut ps.segs);
        self.order.sort_unstable_by_key(|&i| segs[i]);
        let mut start = 0;
        while start < self.order.len() {
            let seg = segs[self.order[start]];
            let mut end = start + 1;
            while end < self.order.len() && segs[self.order[end]] == seg {
                end += 1;
            }
            // Reachable subset of the region from this segment.
            self.allowed.clear();
            match &self.reach_index {
                Some(index) => {
                    let mask = index.mask(seg);
                    self.allowed.extend(
                        region
                            .iter()
                            .copied()
                            .filter(|&s| ReachIndex::mask_contains(mask, s)),
                    );
                }
                None => {
                    self.reach.expand(net, &[seg], self.hops);
                    self.allowed
                        .extend(region.iter().copied().filter(|&s| self.reach.contains(s)));
                }
            }
            if self.allowed.is_empty() {
                // Refuted trajectories: the region is unreachable.
                for &i in &self.order[start..end] {
                    ps.weights[i] = 0.0;
                }
                start = end;
                continue;
            }
            let mut lik_total = 0.0;
            for &s in &self.allowed {
                lik_total += obs.occupancy_weight(s);
            }
            // Uninformative observation (all-zero occupancy inside the
            // reachable set): propose uniformly, weight unchanged.
            let informative = lik_total > 0.0;
            let step_weight = if informative {
                lik_total / self.allowed.len() as f64
            } else {
                1.0
            };
            for idx in start..end {
                let i = self.order[idx];
                if ps.weights[i] == 0.0 {
                    // Dead particles do not move; resampling or
                    // reinjection will recycle them.
                    continue;
                }
                let next = if informative {
                    let mut x = self.rand01() * lik_total;
                    let mut chosen = *self.allowed.last().expect("non-empty");
                    for &s in &self.allowed {
                        let l = obs.occupancy_weight(s);
                        if x < l {
                            chosen = s;
                            break;
                        }
                        x -= l;
                    }
                    chosen
                } else {
                    let j = (self.rand01() * self.allowed.len() as f64) as usize;
                    self.allowed[j.min(self.allowed.len() - 1)]
                };
                ps.weights[i] *= step_weight;
                let traj = &mut ps.trajectories[i];
                traj.push(next);
                if traj.len() > TRAJECTORY_CAP {
                    traj.remove(0);
                }
            }
            start = end;
        }
        // Restore the (possibly updated) segment array.
        ps.segs = segs;
        for idx in 0..self.order.len() {
            let i = self.order[idx];
            if ps.weights[i] > 0.0 {
                if let Some(&last) = ps.trajectories[i].last() {
                    ps.segs[i] = last;
                }
            }
        }
    }

    /// Low-variance systematic resampling: one uniform offset, `N`
    /// evenly spaced cumulative positions. Weights reset to `1/N`.
    fn systematic_resample(&mut self, ps: &mut ParticleSet) {
        let n = ps.segs.len();
        if n == 0 {
            return;
        }
        let offset = self.rand01() / n as f64;
        let mut picks: Vec<usize> = Vec::with_capacity(n);
        let mut cum = 0.0;
        let mut i = 0;
        for j in 0..n {
            let target = offset + j as f64 / n as f64;
            while i < n - 1 && cum + ps.weights[i] < target {
                cum += ps.weights[i];
                i += 1;
            }
            picks.push(i);
        }
        let w = 1.0 / n as f64;
        let segs: Vec<SegmentId> = picks.iter().map(|&i| ps.segs[i]).collect();
        let trajectories: Vec<Vec<SegmentId>> =
            picks.iter().map(|&i| ps.trajectories[i].clone()).collect();
        ps.segs = segs;
        ps.trajectories = trajectories;
        ps.weights.clear();
        ps.weights.resize(n, w);
        ps.ess = n as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobisim::OccupancySnapshot;
    use roadnet::grid_city;

    fn obs<'a>(
        tick: u64,
        region: &'a [SegmentId],
        snapshot: &'a OccupancySnapshot,
    ) -> Observation<'a> {
        Observation {
            tick,
            region,
            snapshot,
            snapshot_fresh: true,
        }
    }

    #[test]
    fn cold_observation_spreads_mass_over_the_region() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
        let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, AdaptiveConfig::default());
        let region: Vec<SegmentId> = (10..20).map(SegmentId).collect();
        let a = tracker.observe(&net, "alice", obs(1, &region, &snapshot), None, None, 0);
        assert_eq!(a.region_size, 10);
        assert_eq!(a.support, 10);
        assert!(a.entropy_bits > 3.0, "near-uniform: {}", a.entropy_bits);
        assert!(a.entropy_bits.is_finite());
        assert_eq!(tracker.particle_count("alice"), Some(256));
    }

    #[test]
    fn posterior_sharpens_across_ticks_on_structured_density() {
        let net = grid_city(6, 6, 100.0);
        // All mass on one segment: the tracker should concentrate.
        let mut counts = vec![1u32; net.segment_count()];
        counts[12] = 60;
        let snapshot = OccupancySnapshot::from_counts(counts);
        let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, AdaptiveConfig::default());
        let region: Vec<SegmentId> = (8..16).map(SegmentId).collect();
        let first = tracker.observe(&net, "alice", obs(1, &region, &snapshot), None, None, 0);
        let mut last = first;
        for t in 2..6 {
            last = tracker.observe(&net, "alice", obs(t, &region, &snapshot), None, None, 0);
        }
        assert!(
            last.entropy_bits <= first.entropy_bits + 1e-9,
            "no sharpening: {} -> {}",
            first.entropy_bits,
            last.entropy_bits
        );
    }

    #[test]
    fn truth_always_keeps_mass_under_the_epsilon_mixture() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, AdaptiveConfig::default());
        let region: Vec<SegmentId> = (20..30).map(SegmentId).collect();
        for t in 1..8 {
            let a = tracker.observe(
                &net,
                "alice",
                obs(t, &region, &snapshot),
                None,
                Some(SegmentId(25)),
                0,
            );
            assert_eq!(a.true_in_support, Some(true));
        }
    }

    #[test]
    fn unreachable_jump_triggers_reinjection_not_emptiness() {
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        // Tight hop budget so a cross-map jump is provably unreachable.
        let mut tracker = AdaptiveTracker::new(&net, 5.0, 10.0, AdaptiveConfig::default());
        assert!(tracker.movement_hops() <= 2);
        let near: Vec<SegmentId> = (0..4).map(SegmentId).collect();
        let far: Vec<SegmentId> = (100..104).map(SegmentId).collect();
        tracker.observe(&net, "alice", obs(1, &near, &snapshot), None, None, 0);
        let jumped = tracker.observe(&net, "alice", obs(2, &far, &snapshot), None, None, 0);
        assert!(jumped.reset, "refuted trajectories must reinject");
        assert!(tracker.reinjections() >= 1);
        assert_eq!(
            tracker.particle_count("alice"),
            Some(256),
            "the particle set must never empty"
        );
        assert!(jumped.entropy_bits.is_finite());
    }

    #[test]
    fn empty_region_reports_zeros_without_nan() {
        let net = grid_city(4, 4, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, AdaptiveConfig::default());
        let a = tracker.observe(
            &net,
            "alice",
            obs(1, &[], &snapshot),
            None,
            Some(SegmentId(3)),
            0,
        );
        assert_eq!(a.entropy_bits, 0.0);
        assert_eq!(a.user_entropy_bits, 0.0);
        assert_eq!(a.support, 0);
        assert_eq!(a.true_in_support, None);
        assert!(a.reset);
    }

    #[test]
    fn single_segment_region_yields_zero_entropy_at_zero_epsilon() {
        let net = grid_city(4, 4, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 3);
        let cfg = AdaptiveConfig {
            mix_epsilon: 0.0,
            ..Default::default()
        };
        let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, cfg);
        let region = [SegmentId(5)];
        let a = tracker.observe(&net, "alice", obs(1, &region, &snapshot), None, None, 0);
        assert_eq!(a.entropy_bits, 0.0);
        assert_eq!(a.support, 1);
        assert!((a.user_entropy_bits - 3f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn map_trajectory_tracks_history() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, AdaptiveConfig::default());
        let region: Vec<SegmentId> = (10..18).map(SegmentId).collect();
        for t in 1..5 {
            tracker.observe(&net, "alice", obs(t, &region, &snapshot), None, None, 0);
        }
        let (traj, w) = tracker.map_trajectory("alice").expect("tracked");
        assert!(traj.len() >= 2, "trajectory history too short");
        assert!(w > 0.0);
        assert!(traj.iter().all(|s| region.contains(s)));
    }

    #[test]
    fn deterministic_given_seed() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
        let run = || {
            let mut tracker = AdaptiveTracker::new(&net, 22.0, 10.0, AdaptiveConfig::default());
            let region: Vec<SegmentId> = (4..14).map(SegmentId).collect();
            (1..6)
                .map(|t| {
                    tracker
                        .observe(&net, "alice", obs(t, &region, &snapshot), None, None, 0)
                        .entropy_bits
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }
}
