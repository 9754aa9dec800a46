//! Longitudinal adversarial analysis: what a keyless observer of the
//! *whole receipt stream* can infer over time.
//!
//! The single-cloak analysis in [`crate::attack`] scores one region in
//! isolation. A continuously running system leaks a richer signal: the
//! same owner is re-anonymized tick after tick, and an adversary who
//! subscribes to that receipt stream can correlate consecutive cloaks.
//! [`TemporalAdversary`] mounts the standard correlation attacks from the
//! location-privacy literature against a stream of observed regions:
//!
//! * **peel** ([`AdversaryMode::Peel`]) — single-cloak structure plus
//!   naive temporal intersection: the candidate set is the observed
//!   region intersected with the previous tick's candidates, on the
//!   assumption the owner moved little. Keyed cloaks make this attack
//!   *confidently wrong*: consecutive regions are freshly keyed, so the
//!   intersection often drops the true segment (tracked as
//!   [`AttackObservation::true_in_support`]).
//! * **correlate** ([`AdversaryMode::Correlate`]) — snapshot
//!   correlation: candidates are weighted by the public occupancy of the
//!   issuing snapshot (the owner is on a segment, so that segment holds
//!   at least one user), and — when the observed scheme is *replayable*
//!   (see [`ReplayProbe`]) — pruned by re-simulating the perturbation
//!   from every candidate seed.
//! * **move** ([`AdversaryMode::Move`]) — movement model: CSR-adjacency
//!   reachability bounds where the owner could have driven between
//!   ticks; candidates outside the `h`-hop reach of the previous
//!   candidate set are pruned. With a conservative speed bound this
//!   attack is *sound* (the true segment always survives).
//! * **all** ([`AdversaryMode::All`]) — the movement prune, the
//!   occupancy weighting, and the replay prune combined: the strongest
//!   *fixed-strategy* keyless adversary this module models.
//! * **adaptive** ([`AdversaryMode::Adaptive`]) — the Bayesian
//!   trajectory particle filter of [`crate::attack::adaptive`]: same
//!   movement/occupancy/replay evidence, but compounded across the whole
//!   stream as a posterior over trajectories. `observe` delegates to
//!   [`crate::attack::adaptive::AdaptiveTracker`] wholesale.
//!
//! Each observation rolls up into [`AttackObservation`] (posterior
//! entropy, anonymity-set size, guess correctness) and the running
//! [`AttackSummary`]. The headline comparison: against RGE/RPLE streams
//! the sound attacks keep the posterior near-uniform over ~k segments
//! (entropy stays around `log2 k`), while a keyless deterministic
//! baseline (NRE re-grown from public per-owner randomness — the
//! [`ReplayProbe`] control) collapses to near-zero entropy, because
//! "complete knowledge about the location perturbation algorithm"
//! includes the ability to re-run it.
//!
//! This module is an *evaluation harness*, but its inner loops lean on
//! the network's precomputed [`roadnet::GraphIndex`]: the movement
//! model's per-tick reachability question is answered by OR-ing
//! word-packed [`roadnet::ReachIndex`] masks and testing region bits
//! instead of re-running a breadth-first expansion per owner
//! ([`ReachScratch`] survives as the reference implementation and the
//! fallback for pathological hop budgets; the two are unit-tested
//! equal below). Every [`TemporalAdversary::observe`] works from the
//! [`Observation`] it is given and the owner's own carried support;
//! nothing is set up per tick.
//!
//! # Example
//!
//! ```
//! use cloak::attack::temporal::{
//!     AdversaryConfig, AdversaryMode, Observation, TemporalAdversary,
//! };
//! use cloak::{LevelRequirement, PrivacyProfile, RgeEngine};
//! use keystream::{Key256, KeyManager};
//! use mobisim::OccupancySnapshot;
//! use roadnet::{grid_city, SegmentId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = grid_city(8, 8, 100.0);
//! let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
//! let profile = PrivacyProfile::builder()
//!     .level(LevelRequirement::with_k(8))
//!     .build()?;
//! let engine = RgeEngine::new();
//! let mut adversary = TemporalAdversary::new(&net, AdversaryConfig::default());
//!
//! // The adversary watches three consecutive cloaks of the same owner.
//! for tick in 1..=3u64 {
//!     let keys: Vec<Key256> = KeyManager::from_seed(1, tick).iter().map(|(_, k)| k).collect();
//!     let out = cloak::anonymize(&net, &snapshot, SegmentId(40), &profile, &keys, tick, &engine)?;
//!     let obs = adversary.observe(
//!         &net,
//!         "alice",
//!         Observation { tick, region: &out.payload.segments, snapshot: &snapshot, snapshot_fresh: true },
//!         None,
//!         Some(SegmentId(40)),
//!     );
//!     // The keyed stream keeps the posterior wide: the adversary's
//!     // anonymity set stays at least k segments.
//!     assert!(obs.support >= 8, "support {}", obs.support);
//!     assert_eq!(obs.true_in_support, Some(true));
//! }
//! # Ok(())
//! # }
//! ```

use crate::attack::{peel_candidates_into, PeelScratch};
use crate::baseline::{replay_expansion_matches, ExpansionScratch};
use crate::profile::LevelRequirement;
use mobisim::OccupancySnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{ReachIndex, RoadNetwork, SegmentId};
use std::collections::HashMap;
use std::sync::Arc;

/// Which correlation attacks the adversary mounts per observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversaryMode {
    /// Single-cloak peel structure + naive intersection of consecutive
    /// regions (unsound against keyed streams, by design).
    Peel,
    /// Occupancy weighting from the issuing snapshots, plus replay
    /// inversion when the scheme is replayable. Memoryless otherwise.
    Correlate,
    /// Movement-model pruning: region ∩ h-hop reachability of the
    /// previous candidate set. Sound under a conservative speed bound.
    Move,
    /// Movement prune + occupancy weighting + replay inversion.
    All,
    /// The Bayesian trajectory particle filter
    /// ([`crate::attack::adaptive::AdaptiveTracker`]): movement-model
    /// transition kernel, occupancy likelihood, replay inversion,
    /// systematic resampling — the strongest *learning* adversary.
    Adaptive,
}

impl AdversaryMode {
    /// Parses the CLI spelling (`peel|correlate|move|all|adaptive`).
    pub fn parse(s: &str) -> Option<AdversaryMode> {
        match s {
            "peel" => Some(AdversaryMode::Peel),
            "correlate" => Some(AdversaryMode::Correlate),
            "move" => Some(AdversaryMode::Move),
            "all" => Some(AdversaryMode::All),
            "adaptive" => Some(AdversaryMode::Adaptive),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryMode::Peel => "peel",
            AdversaryMode::Correlate => "correlate",
            AdversaryMode::Move => "move",
            AdversaryMode::All => "all",
            AdversaryMode::Adaptive => "adaptive",
        }
    }

    /// Every mode, in CLI/tournament order.
    pub const ALL: [AdversaryMode; 5] = [
        AdversaryMode::Peel,
        AdversaryMode::Correlate,
        AdversaryMode::Move,
        AdversaryMode::All,
        AdversaryMode::Adaptive,
    ];

    /// Whether this mode carries candidate state across ticks.
    fn has_memory(self) -> bool {
        !matches!(self, AdversaryMode::Correlate)
    }

    /// Whether this mode uses the movement (reachability) model.
    fn uses_movement(self) -> bool {
        matches!(
            self,
            AdversaryMode::Move | AdversaryMode::All | AdversaryMode::Adaptive
        )
    }

    /// Whether this mode weights candidates by snapshot occupancy and
    /// replays replayable schemes.
    fn uses_snapshot(self) -> bool {
        matches!(
            self,
            AdversaryMode::Correlate | AdversaryMode::All | AdversaryMode::Adaptive
        )
    }
}

/// Configuration of a [`TemporalAdversary`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryConfig {
    /// The attack portfolio.
    pub mode: AdversaryMode,
    /// The adversary's (conservative) bound on car speed in m/s. Drives
    /// the movement model's per-tick hop budget.
    pub max_speed: f64,
    /// Seconds of real time between consecutive observations of the same
    /// owner (the pipeline's tick length).
    pub dt: f64,
    /// Seed for the adversary's own guess sampling (deterministic runs).
    pub seed: u64,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            mode: AdversaryMode::All,
            // The mobisim default speed range tops out at 20 m/s; a
            // sound adversary rounds up.
            max_speed: 22.0,
            dt: 10.0,
            seed: 0xad_5a17,
        }
    }
}

/// One tick's worth of public information about one owner's cloak: what
/// an eavesdropper on the receipt stream actually sees.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// The pipeline tick the receipt was issued at.
    pub tick: u64,
    /// The published cloaking region, sorted by segment id (exactly the
    /// payload's public segment set — chain order is withheld).
    pub region: &'a [SegmentId],
    /// The occupancy snapshot the receipt was issued under. Traffic
    /// density is public context in the paper's threat model.
    pub snapshot: &'a OccupancySnapshot,
    /// Whether the snapshot was recaptured this tick. A stale snapshot
    /// may undercount a segment the owner has since moved onto, so the
    /// occupancy prune softens to a smoothed weighting when this is
    /// false.
    pub snapshot_fresh: bool,
}

impl Observation<'_> {
    /// Occupancy weight of segment `s` under the issuing snapshot: its
    /// user count. A fresh snapshot counted the owner on its segment,
    /// so an empty segment is impossible; a stale one may lag the
    /// owner's movement, so the count is smoothed by `+0.5`.
    pub(crate) fn occupancy_weight(&self, s: SegmentId) -> f64 {
        let users = self.snapshot.users_on(s) as f64;
        if self.snapshot_fresh {
            users
        } else {
            users + 0.5
        }
    }
}

/// The adversary's knowledge that a scheme is *replayable*: its
/// perturbation draws from randomness the adversary can reconstruct (no
/// secret key). Given this, the adversary re-runs the algorithm from
/// every candidate seed and keeps the seeds that reproduce the observed
/// region — the paper's "complete knowledge about the location
/// perturbation algorithm" taken to its conclusion.
///
/// The NRE control in the continuous pipeline is exactly this: with no
/// key-distribution infrastructure there is nothing to rotate, so its
/// expansion randomness derives from public per-owner state.
#[derive(Debug, Clone, Copy)]
pub struct ReplayProbe<'a> {
    /// The requirement the keyless scheme grew the region to.
    pub requirement: &'a LevelRequirement,
    /// The (public) per-owner RNG seed the scheme perturbed with.
    pub seed: u64,
}

/// Per-owner/per-tick attack metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackObservation {
    /// The tick this observation was made at.
    pub tick: u64,
    /// Size of the observed cloaking region.
    pub region_size: usize,
    /// Keyless single-step peel candidates of the observed region (the
    /// adversary's search space for undoing one expansion step).
    pub peel_frontier: usize,
    /// The anonymity set after the attack: candidates with nonzero
    /// posterior mass.
    pub support: usize,
    /// Shannon entropy (bits) of the adversary's posterior over the
    /// owner's segment.
    pub entropy_bits: f64,
    /// Entropy of the posterior lifted to *user identities* (every user
    /// on a segment equally likely): `H_seg + Σ p(s)·log2(users(s))`.
    /// The paper's k-anonymity bound lives here — a region covering k
    /// users yields `≈ log2 k` bits however few segments it spans.
    pub user_entropy_bits: f64,
    /// `log2(region_size)` — the no-information reference the paper's
    /// claim promises.
    pub region_entropy_bits: f64,
    /// The adversary's guess, sampled from its posterior.
    pub guess: SegmentId,
    /// Whether the guess hit the true segment (when the harness supplied
    /// ground truth for scoring).
    pub guess_correct: Option<bool>,
    /// Whether the true segment survived in the posterior support (when
    /// ground truth was supplied). Always true for sound attacks;
    /// `false` exposes an unsound attack being confidently wrong.
    pub true_in_support: Option<bool>,
    /// Whether the temporal state had to be reset this tick (empty
    /// intersection — the attack lost the owner).
    pub reset: bool,
    /// Whether the movement prune ran its per-owner BFS fallback this
    /// tick because the packed reachability index was unavailable (hop
    /// budget above the index cache cap, e.g. a degenerate map with a
    /// near-zero shortest segment or a tightened
    /// [`IndexBudget`](roadnet::IndexBudget)). The fallback is
    /// bit-identical but costs a BFS per owner instead of word ops.
    pub movement_fallback: bool,
}

impl AttackObservation {
    /// The report for an empty observed region, which admits no
    /// posterior: zeros (not NaN), flagged as a reset. The guess and
    /// soundness fields stay unscored — there is nothing to guess over,
    /// and scoring would spuriously break a sound attack's
    /// `soundness() == 1.0`.
    pub(crate) fn empty(tick: u64, peel_frontier: usize) -> Self {
        AttackObservation {
            tick,
            region_size: 0,
            peel_frontier,
            support: 0,
            entropy_bits: 0.0,
            user_entropy_bits: 0.0,
            region_entropy_bits: 0.0,
            guess: SegmentId(0),
            guess_correct: None,
            true_in_support: None,
            reset: true,
            movement_fallback: false,
        }
    }
}

/// Running rollup of [`AttackObservation`]s for one observed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSummary {
    observations: u64,
    sum_entropy: f64,
    min_entropy: f64,
    sum_user_entropy: f64,
    min_user_entropy: f64,
    sum_support: f64,
    sum_region: f64,
    guesses: u64,
    correct: u64,
    truth_checks: u64,
    truth_survived: u64,
    resets: u64,
    movement_fallbacks: u64,
}

impl AttackSummary {
    /// An empty rollup.
    pub fn new() -> Self {
        AttackSummary {
            observations: 0,
            sum_entropy: 0.0,
            min_entropy: f64::INFINITY,
            sum_user_entropy: 0.0,
            min_user_entropy: f64::INFINITY,
            sum_support: 0.0,
            sum_region: 0.0,
            guesses: 0,
            correct: 0,
            truth_checks: 0,
            truth_survived: 0,
            resets: 0,
            movement_fallbacks: 0,
        }
    }

    /// Folds one observation in.
    pub fn record(&mut self, obs: &AttackObservation) {
        self.observations += 1;
        self.sum_entropy += obs.entropy_bits;
        self.min_entropy = self.min_entropy.min(obs.entropy_bits);
        self.sum_user_entropy += obs.user_entropy_bits;
        self.min_user_entropy = self.min_user_entropy.min(obs.user_entropy_bits);
        self.sum_support += obs.support as f64;
        self.sum_region += obs.region_size as f64;
        // Guess accounting only covers *scored* observations (ground
        // truth supplied), like soundness — unscored ticks must not
        // dilute the success rate.
        if let Some(correct) = obs.guess_correct {
            self.guesses += 1;
            if correct {
                self.correct += 1;
            }
        }
        if let Some(survived) = obs.true_in_support {
            self.truth_checks += 1;
            if survived {
                self.truth_survived += 1;
            }
        }
        if obs.reset {
            self.resets += 1;
        }
        if obs.movement_fallback {
            self.movement_fallbacks += 1;
        }
    }

    /// Merges another rollup in.
    pub fn merge(&mut self, other: &AttackSummary) {
        self.observations += other.observations;
        self.sum_entropy += other.sum_entropy;
        self.min_entropy = self.min_entropy.min(other.min_entropy);
        self.sum_user_entropy += other.sum_user_entropy;
        self.min_user_entropy = self.min_user_entropy.min(other.min_user_entropy);
        self.sum_support += other.sum_support;
        self.sum_region += other.sum_region;
        self.guesses += other.guesses;
        self.correct += other.correct;
        self.truth_checks += other.truth_checks;
        self.truth_survived += other.truth_survived;
        self.resets += other.resets;
        self.movement_fallbacks += other.movement_fallbacks;
    }

    /// Observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Mean posterior entropy in bits.
    pub fn mean_entropy(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.sum_entropy / self.observations as f64
        }
    }

    /// Worst (lowest) posterior entropy seen.
    pub fn min_entropy(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.min_entropy
        }
    }

    /// Mean user-identity entropy in bits (the k-anonymity axis: a
    /// region covering k users scores `≈ log2 k` however few segments
    /// it spans).
    pub fn mean_user_entropy(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.sum_user_entropy / self.observations as f64
        }
    }

    /// Worst (lowest) user-identity entropy seen.
    pub fn min_user_entropy(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.min_user_entropy
        }
    }

    /// Mean anonymity-set size after the attack.
    pub fn mean_support(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.sum_support / self.observations as f64
        }
    }

    /// Mean observed region size (the pre-attack anonymity set).
    pub fn mean_region(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.sum_region / self.observations as f64
        }
    }

    /// Fraction of posterior-sampled guesses that hit the true segment,
    /// over the observations where ground truth was supplied.
    pub fn guess_success_rate(&self) -> f64 {
        if self.guesses == 0 {
            0.0
        } else {
            self.correct as f64 / self.guesses as f64
        }
    }

    /// Fraction of scored observations where the true segment stayed in
    /// the posterior support (1.0 for sound attacks).
    pub fn soundness(&self) -> f64 {
        if self.truth_checks == 0 {
            1.0
        } else {
            self.truth_survived as f64 / self.truth_checks as f64
        }
    }

    /// Times the temporal state was reset (the attack lost the owner).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Observations where the movement prune ran its per-owner BFS
    /// fallback instead of the packed reachability index (hop budget
    /// above the index cache cap). Nonzero means the adversary paid a
    /// BFS per owner per tick — consider raising the
    /// [`IndexBudget`](roadnet::IndexBudget) reach cap.
    pub fn movement_fallbacks(&self) -> u64 {
        self.movement_fallbacks
    }
}

impl Default for AttackSummary {
    fn default() -> Self {
        AttackSummary::new()
    }
}

impl std::fmt::Display for AttackSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entropy {:.2} bits mean / {:.2} min (uniform ref {:.2}), user entropy {:.2} bits, \
             anonymity set {:.1}, guess success {:.1}%, soundness {:.0}%",
            self.mean_entropy(),
            self.min_entropy(),
            self.mean_region().max(1.0).log2(),
            self.mean_user_entropy(),
            self.mean_support(),
            self.guess_success_rate() * 100.0,
            self.soundness() * 100.0,
        )?;
        if self.movement_fallbacks > 0 {
            write!(f, ", movement BFS fallbacks {}", self.movement_fallbacks)?;
        }
        Ok(())
    }
}

/// Per-owner posterior carried between ticks.
#[derive(Debug, Clone, Default)]
struct OwnerState {
    /// Sorted candidate segments with nonzero posterior mass.
    support: Vec<SegmentId>,
    warm: bool,
}

/// Stamped scratch for the h-hop reachability expansion (reused across
/// ticks and owners; a fresh generation per expansion).
///
/// This breadth-first expansion is the **reference movement model**:
/// the adversary normally answers the same question with the network's
/// word-packed [`roadnet::ReachIndex`] masks (bit-exact, benched ≥5×
/// faster in `attack_cost`), falling back to this scratch only when the
/// hop budget exceeds what the index caches. Kept public so the
/// equivalence is testable and benchable from outside the crate.
#[derive(Debug, Default)]
pub struct ReachScratch {
    stamp: Vec<u32>,
    generation: u32,
    frontier: Vec<SegmentId>,
    next: Vec<SegmentId>,
}

impl ReachScratch {
    /// A fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks every segment within `hops` adjacency hops of `sources`.
    pub fn expand(&mut self, net: &RoadNetwork, sources: &[SegmentId], hops: usize) {
        self.stamp.resize(net.segment_count(), 0);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.frontier.clear();
        self.next.clear();
        for &s in sources {
            if let Some(slot) = self.stamp.get_mut(s.index()) {
                if *slot != self.generation {
                    *slot = self.generation;
                    self.frontier.push(s);
                }
            }
        }
        for _ in 0..hops {
            for i in 0..self.frontier.len() {
                let s = self.frontier[i];
                for &n in net.neighbor_segments_csr(s) {
                    let slot = &mut self.stamp[n.index()];
                    if *slot != self.generation {
                        *slot = self.generation;
                        self.next.push(n);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            if self.frontier.is_empty() {
                break;
            }
        }
    }

    /// Whether `s` was marked by the last [`expand`](Self::expand).
    pub fn contains(&self, s: SegmentId) -> bool {
        self.stamp
            .get(s.index())
            .is_some_and(|&g| g == self.generation)
    }
}

/// A keyless adversary subscribed to the per-tick receipt stream of a
/// continuously anonymizing system. See the module docs for the attack
/// portfolio and the [`Observation`]/[`AttackObservation`] contract.
#[derive(Debug)]
pub struct TemporalAdversary {
    cfg: AdversaryConfig,
    /// Conservative hop budget per tick, derived from the speed bound
    /// and the network's shortest segment.
    hops: usize,
    owners: HashMap<String, OwnerState>,
    reach: ReachScratch,
    /// The network's precomputed h-hop reachability masks (shared with
    /// every other adversary over the same network); `None` when the
    /// hop budget exceeds the index's cached-hop budget
    /// ([`roadnet::IndexBudget::reach_hop_cap`]) or the mode never
    /// moves. A `None` here makes `observe` take the per-owner BFS
    /// fallback, counted in [`AttackSummary::movement_fallbacks`].
    reach_index: Option<Arc<ReachIndex>>,
    /// OR-accumulator for the candidate set's packed reach masks.
    reach_union: Vec<u64>,
    /// Scratch for the single-pass articulation-point peel frontier.
    peel: PeelScratch,
    peel_out: Vec<SegmentId>,
    /// Pooled replay-inversion buffers (early-exit expansion replays).
    replay_scratch: ExpansionScratch,
    survivors: Vec<bool>,
    /// Candidate/weight buffers reused across observations.
    candidates: Vec<SegmentId>,
    weights: Vec<f64>,
    /// Counter feeding the deterministic guess sampler.
    draws: u64,
    /// The trajectory particle filter, present iff the mode is
    /// [`AdversaryMode::Adaptive`]; `observe` delegates to it wholesale
    /// (the fixed-portfolio state above stays unused).
    adaptive: Option<crate::attack::adaptive::AdaptiveTracker>,
}

/// The conservative per-tick movement hop budget every adversary in this
/// module shares: `ceil(max_speed·dt / min_segment_length) + 1`, an
/// over-approximation that keeps reachability pruning sound.
pub(crate) fn conservative_hops(net: &RoadNetwork, max_speed: f64, dt: f64) -> usize {
    let min_len = net
        .segments()
        .map(|s| s.length())
        .fold(f64::INFINITY, f64::min);
    if min_len.is_finite() && min_len > 0.0 {
        (max_speed.max(0.0) * dt.max(0.0) / min_len).ceil() as usize + 1
    } else {
        1
    }
}

impl TemporalAdversary {
    /// Builds an adversary for a road network. The movement model's hop
    /// budget is `ceil(max_speed·dt / min_segment_length) + 1` — an
    /// over-approximation that keeps the reachability prune sound.
    /// [`AdversaryMode::Adaptive`] gets a default-configured particle
    /// filter; use [`with_adaptive`](Self::with_adaptive) to tune it.
    pub fn new(net: &RoadNetwork, cfg: AdversaryConfig) -> Self {
        let adaptive = crate::attack::adaptive::AdaptiveConfig {
            seed: cfg.seed ^ 0x0ada_9717,
            ..Default::default()
        };
        Self::with_adaptive(net, cfg, adaptive)
    }

    /// [`new`](Self::new) with explicit particle-filter tuning (only
    /// consulted when the mode is [`AdversaryMode::Adaptive`]).
    pub fn with_adaptive(
        net: &RoadNetwork,
        cfg: AdversaryConfig,
        adaptive_cfg: crate::attack::adaptive::AdaptiveConfig,
    ) -> Self {
        let hops = conservative_hops(net, cfg.max_speed, cfg.dt);
        let adaptive = (cfg.mode == AdversaryMode::Adaptive).then(|| {
            crate::attack::adaptive::AdaptiveTracker::new(net, cfg.max_speed, cfg.dt, adaptive_cfg)
        });
        let reach_index = (cfg.mode.uses_movement() && adaptive.is_none())
            .then(|| net.cached_reach_index(hops))
            .flatten();
        TemporalAdversary {
            cfg,
            hops,
            owners: HashMap::new(),
            reach: ReachScratch::default(),
            reach_index,
            reach_union: Vec::new(),
            peel: PeelScratch::new(),
            peel_out: Vec::new(),
            replay_scratch: ExpansionScratch::new(),
            survivors: Vec::new(),
            candidates: Vec::new(),
            weights: Vec::new(),
            draws: 0,
            adaptive,
        }
    }

    /// Does nothing: [`observe`](Self::observe) needs nothing from it. It
    /// weights candidates from each [`Observation`]'s own snapshot and
    /// ORs each owner's movement masks itself. Kept for callers that
    /// announce each tick (perfbench's traced replay).
    pub fn begin_tick_population<'a, I>(
        &mut self,
        _snapshot: &OccupancySnapshot,
        _snapshot_fresh: bool,
        _owners: I,
    ) where
        I: IntoIterator<Item = &'a str>,
    {
    }

    /// The adversary's configuration.
    pub fn config(&self) -> &AdversaryConfig {
        &self.cfg
    }

    /// The movement model's per-tick hop budget.
    pub fn movement_hops(&self) -> usize {
        self.hops
    }

    /// Owners currently tracked.
    pub fn tracked_owners(&self) -> usize {
        match &self.adaptive {
            Some(filter) => filter.tracked_owners(),
            None => self.owners.len(),
        }
    }

    /// Particle-filter health, when the mode is
    /// [`AdversaryMode::Adaptive`].
    pub fn adaptive_stats(&self) -> Option<crate::attack::adaptive::AdaptiveStats> {
        self.adaptive.as_ref().map(|f| f.stats())
    }

    /// Drops all per-owner state (the adversary starts cold again).
    pub fn reset(&mut self) {
        self.owners.clear();
        if let Some(filter) = &mut self.adaptive {
            filter.reset();
        }
    }

    /// Processes one observed cloak for `owner` and returns the attack
    /// metrics for this tick.
    ///
    /// `replay` carries the adversary's knowledge that the observed
    /// scheme is replayable (keyless deterministic perturbation);
    /// `truth` is ground truth used *only* to score the attack
    /// ([`AttackObservation::guess_correct`] /
    /// [`AttackObservation::true_in_support`]) — it never feeds the
    /// posterior.
    pub fn observe(
        &mut self,
        net: &RoadNetwork,
        owner: &str,
        obs: Observation<'_>,
        replay: Option<ReplayProbe<'_>>,
        truth: Option<SegmentId>,
    ) -> AttackObservation {
        peel_candidates_into(net, obs.region, &mut self.peel, &mut self.peel_out);
        let peel_frontier = self.peel_out.len();
        // The adaptive mode is a different inference engine entirely:
        // hand the observation (and the precomputed peel frontier) to
        // the particle filter.
        if let Some(filter) = &mut self.adaptive {
            return filter.observe(net, owner, obs, replay, truth, peel_frontier);
        }
        // An empty observed region admits no posterior: report zeros and
        // leave the owner's temporal state untouched.
        if obs.region.is_empty() {
            return AttackObservation::empty(obs.tick, peel_frontier);
        }
        let mode = self.cfg.mode;
        // The owner's state is taken out of its entry for the observation
        // and put back in place after it.
        let mut state = self
            .owners
            .get_mut(owner)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut reset = false;
        let mut movement_fallback = false;

        // 1. Candidate support: the observed region, pruned by temporal
        //    memory when the mode carries it.
        self.candidates.clear();
        if state.warm && mode.has_memory() {
            if mode.uses_movement() {
                if let Some(index) = &self.reach_index {
                    // Packed path: OR the candidates' precomputed h-hop
                    // masks, then test each region bit — word ops over
                    // the index instead of a per-owner BFS. Identical
                    // set to the scratch expansion (unit-tested).
                    index.union_into(state.support.iter().copied(), &mut self.reach_union);
                    let union = &self.reach_union;
                    self.candidates.extend(
                        obs.region
                            .iter()
                            .copied()
                            .filter(|&s| ReachIndex::mask_contains(union, s)),
                    );
                } else {
                    // Uncached hop budget: per-owner BFS fallback —
                    // bit-identical to the packed path but linear in
                    // the support's neighborhood. Flagged so the
                    // summary surfaces the hidden cost.
                    movement_fallback = true;
                    self.reach.expand(net, &state.support, self.hops);
                    self.candidates.extend(
                        obs.region
                            .iter()
                            .copied()
                            .filter(|&s| self.reach.contains(s)),
                    );
                }
            } else {
                // Peel: naive intersection of consecutive regions (both
                // sorted, so a merge walk suffices).
                let mut prev = state.support.iter().copied().peekable();
                for &s in obs.region {
                    while prev.peek().is_some_and(|&p| p < s) {
                        prev.next();
                    }
                    if prev.peek() == Some(&s) {
                        self.candidates.push(s);
                    }
                }
            }
            if self.candidates.is_empty() {
                reset = true;
                self.candidates.extend_from_slice(obs.region);
            }
        } else {
            self.candidates.extend_from_slice(obs.region);
        }

        // 2. Posterior weights.
        self.weights.clear();
        self.weights.resize(self.candidates.len(), 1.0);
        if mode.uses_snapshot() {
            for (w, &c) in self.weights.iter_mut().zip(&self.candidates) {
                *w = obs.occupancy_weight(c);
            }
            if self.weights.iter().all(|&w| w == 0.0) {
                reset = true;
                self.weights.fill(1.0);
            }
        }

        // 3. Replay inversion: re-simulate the keyless scheme from every
        //    candidate seed; only seeds reproducing the observed region
        //    keep their mass. The pooled matcher replays the exact pick
        //    sequence but abandons a candidate the moment its walk
        //    leaves the observed region — boolean-identical to a full
        //    re-expansion and comparison.
        if let (Some(probe), true) = (replay, mode.uses_snapshot()) {
            self.replay_scratch.set_replay_target(net, obs.region);
            let mut any = false;
            self.survivors.clear();
            for (&c, &w) in self.candidates.iter().zip(&self.weights) {
                // A candidate the occupancy/movement passes already
                // killed cannot regain mass — its replay outcome is
                // unobservable, so skip the re-simulation.
                if w == 0.0 {
                    self.survivors.push(false);
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(probe.seed);
                let hit = replay_expansion_matches(
                    net,
                    obs.snapshot,
                    c,
                    probe.requirement,
                    &mut rng,
                    &mut self.replay_scratch,
                );
                any |= hit;
                self.survivors.push(hit);
            }
            if any {
                for (w, &hit) in self.weights.iter_mut().zip(&self.survivors) {
                    if !hit {
                        *w = 0.0;
                    }
                }
            }
        }

        // 4. Normalize, measure, guess. The user-identity entropy lifts
        //    the segment posterior to the users on each segment (every
        //    user of a segment equally likely): `H_user = H_seg +
        //    Σ p(s)·log2(users(s))` — the axis the paper's k-anonymity
        //    bound lives on.
        let total: f64 = self.weights.iter().sum();
        let mut entropy = 0.0;
        let mut user_entropy = 0.0;
        let mut support = 0usize;
        // `total > 0` is invariant today (empty posteriors reset to
        // uniform above), but divide-by-zero here would surface as NaN
        // entropy in every downstream rollup — keep the guard explicit.
        if total > 0.0 {
            for (&w, &c) in self.weights.iter().zip(&self.candidates) {
                if w > 0.0 {
                    support += 1;
                    let p = w / total;
                    entropy -= p * p.log2();
                    user_entropy += p * (obs.snapshot.users_on(c).max(1) as f64).log2();
                }
            }
        }
        let entropy = entropy.max(0.0);
        let user_entropy = (user_entropy + entropy).max(0.0);
        let guess = self.sample_guess(total);
        let guess_correct = truth.map(|t| guess == t);
        let true_in_support = truth.map(|t| {
            self.candidates
                .iter()
                .zip(&self.weights)
                .any(|(&c, &w)| c == t && w > 0.0)
        });

        // 5. Persist the posterior support for the next tick.
        state.support.clear();
        state.support.extend(
            self.candidates
                .iter()
                .zip(&self.weights)
                .filter(|&(_, &w)| w > 0.0)
                .map(|(&c, _)| c),
        );
        state.support.sort_unstable();
        state.warm = true;
        match self.owners.get_mut(owner) {
            Some(kept) => *kept = state,
            None => {
                self.owners.insert(owner.to_string(), state);
            }
        }

        AttackObservation {
            tick: obs.tick,
            region_size: obs.region.len(),
            peel_frontier,
            support,
            entropy_bits: entropy,
            user_entropy_bits: user_entropy,
            region_entropy_bits: (obs.region.len().max(1) as f64).log2(),
            guess,
            guess_correct,
            true_in_support,
            reset,
            movement_fallback,
        }
    }

    /// Samples a guess from the current posterior (deterministic given
    /// the adversary seed and observation order).
    fn sample_guess(&mut self, total: f64) -> SegmentId {
        self.draws += 1;
        let word = splitmix64(self.cfg.seed ^ self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut x = (word >> 11) as f64 / (1u64 << 53) as f64 * total;
        for (&c, &w) in self.candidates.iter().zip(&self.weights) {
            if w > 0.0 {
                if x < w {
                    return c;
                }
                x -= w;
            }
        }
        // Numeric fallback: the last positive-mass candidate.
        self.candidates
            .iter()
            .zip(&self.weights)
            .rev()
            .find(|&(_, &w)| w > 0.0)
            .map(|(&c, _)| c)
            .unwrap_or(SegmentId(0))
    }
}

/// SplitMix64 finalizer for the guess sampler (shared with the adaptive
/// tracker's proposal/resampling draws).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::random_expansion;
    use crate::engine::RgeEngine;
    use crate::profile::{LevelRequirement, PrivacyProfile};
    use keystream::{Key256, KeyManager};
    use roadnet::grid_city;

    fn keys_for(profile: &PrivacyProfile, seed: u64) -> Vec<Key256> {
        KeyManager::from_seed(profile.level_count(), seed)
            .iter()
            .map(|(_, k)| k)
            .collect()
    }

    /// A keyed stream: fresh keys per tick, owner wanders one segment.
    fn keyed_stream(
        net: &RoadNetwork,
        snapshot: &OccupancySnapshot,
        profile: &PrivacyProfile,
        path: &[SegmentId],
    ) -> Vec<(u64, Vec<SegmentId>, SegmentId)> {
        let engine = RgeEngine::new();
        path.iter()
            .enumerate()
            .map(|(i, &seg)| {
                let keys = keys_for(profile, 1000 + i as u64);
                let out = crate::multilevel::anonymize(
                    net, snapshot, seg, profile, &keys, i as u64, &engine,
                )
                .expect("grid cloaks succeed");
                (i as u64 + 1, out.payload.segments, seg)
            })
            .collect()
    }

    use roadnet::RoadNetwork;

    #[test]
    fn sound_modes_never_lose_the_owner() {
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(8))
            .build()
            .unwrap();
        // The owner hops along adjacent segments.
        let path = [SegmentId(40), SegmentId(40), SegmentId(41), SegmentId(42)];
        for mode in [
            AdversaryMode::Move,
            AdversaryMode::All,
            AdversaryMode::Correlate,
            AdversaryMode::Adaptive,
        ] {
            let mut adv = TemporalAdversary::new(
                &net,
                AdversaryConfig {
                    mode,
                    ..Default::default()
                },
            );
            for (tick, region, seg) in keyed_stream(&net, &snapshot, &profile, &path) {
                let obs = adv.observe(
                    &net,
                    "alice",
                    Observation {
                        tick,
                        region: &region,
                        snapshot: &snapshot,
                        snapshot_fresh: true,
                    },
                    None,
                    Some(seg),
                );
                assert_eq!(
                    obs.true_in_support,
                    Some(true),
                    "{mode:?} lost the owner at tick {tick}"
                );
                assert!(obs.support >= 2, "{mode:?}: support {}", obs.support);
                assert!(obs.entropy_bits > 1.0, "{mode:?}: {}", obs.entropy_bits);
                assert!(obs.entropy_bits <= obs.region_entropy_bits + 1e-9);
            }
            assert_eq!(adv.tracked_owners(), 1);
        }
    }

    #[test]
    fn replay_collapses_a_keyless_deterministic_stream() {
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let req = LevelRequirement::with_k(10);
        let owner_seed = 0xdead_beef;
        let mut adv = TemporalAdversary::new(&net, AdversaryConfig::default());
        let mut summary = AttackSummary::new();
        for (tick, seg) in [
            (1u64, SegmentId(40)),
            (2, SegmentId(41)),
            (3, SegmentId(41)),
        ] {
            let mut rng = StdRng::seed_from_u64(owner_seed);
            let out = random_expansion(&net, &snapshot, seg, &req, &mut rng).unwrap();
            let obs = adv.observe(
                &net,
                "victim",
                Observation {
                    tick,
                    region: &out.segments,
                    snapshot: &snapshot,
                    snapshot_fresh: true,
                },
                Some(ReplayProbe {
                    requirement: &req,
                    seed: owner_seed,
                }),
                Some(seg),
            );
            assert_eq!(obs.true_in_support, Some(true), "replay is exact");
            assert!(
                obs.support <= 2,
                "tick {tick}: replay left {} candidates",
                obs.support
            );
            assert!(obs.entropy_bits < 1.01, "tick {tick}: {}", obs.entropy_bits);
            summary.record(&obs);
        }
        assert!(summary.mean_entropy() < 1.01);
        assert!(summary.guess_success_rate() > 0.3);
        assert_eq!(summary.soundness(), 1.0);
    }

    #[test]
    fn keyed_stream_keeps_entropy_near_uniform() {
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(8))
            .build()
            .unwrap();
        let path: Vec<SegmentId> = (0..6).map(|i| SegmentId(40 + (i % 2))).collect();
        let mut adv = TemporalAdversary::new(&net, AdversaryConfig::default());
        let mut summary = AttackSummary::new();
        for (tick, region, seg) in keyed_stream(&net, &snapshot, &profile, &path) {
            let obs = adv.observe(
                &net,
                "alice",
                Observation {
                    tick,
                    region: &region,
                    snapshot: &snapshot,
                    snapshot_fresh: true,
                },
                None,
                Some(seg),
            );
            summary.record(&obs);
        }
        // k = 8 → the sound combined adversary keeps ≥ ~log2(8) bits.
        assert!(
            summary.mean_entropy() >= 2.4,
            "mean entropy {}",
            summary.mean_entropy()
        );
        assert_eq!(summary.soundness(), 1.0);
        assert!(summary.guess_success_rate() < 0.6);
        assert!(summary.mean_support() >= 6.0);
    }

    #[test]
    fn peel_mode_can_be_confidently_wrong() {
        // The naive intersection attack against a keyed stream: nothing
        // guarantees the true segment stays in the intersection. We only
        // assert the bookkeeping works; the scenario harness measures
        // the (un)soundness rate at scale.
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(6))
            .build()
            .unwrap();
        let path: Vec<SegmentId> = (0..5).map(|i| SegmentId(30 + i)).collect();
        let mut adv = TemporalAdversary::new(
            &net,
            AdversaryConfig {
                mode: AdversaryMode::Peel,
                ..Default::default()
            },
        );
        for (tick, region, seg) in keyed_stream(&net, &snapshot, &profile, &path) {
            let obs = adv.observe(
                &net,
                "alice",
                Observation {
                    tick,
                    region: &region,
                    snapshot: &snapshot,
                    snapshot_fresh: true,
                },
                None,
                Some(seg),
            );
            assert!(obs.support >= 1);
            assert!(obs.peel_frontier >= 1);
        }
    }

    #[test]
    fn packed_reach_masks_match_bfs_expansion() {
        // The satellite contract: region ∩ h-hop-reach(support) via the
        // packed index must equal the ReachScratch BFS for every small
        // hop budget, on grids and irregular maps.
        use roadnet::{irregular_city, IrregularConfig};
        for seed in 0..4u64 {
            let net: RoadNetwork = if seed % 2 == 0 {
                grid_city(9, 9, 100.0)
            } else {
                irregular_city(&IrregularConfig {
                    junctions: 70,
                    segments: 92,
                    seed,
                    ..Default::default()
                })
            };
            let n = net.segment_count() as u32;
            let support: Vec<SegmentId> = (0..6)
                .map(|i| SegmentId((seed as u32 * 31 + i * 17) % n))
                .collect();
            let mut scratch = ReachScratch::new();
            for hops in 1..=4usize {
                let index = net.reach_index(hops);
                let mut union = Vec::new();
                index.union_into(support.iter().copied(), &mut union);
                scratch.expand(&net, &support, hops);
                for s in net.segment_ids() {
                    assert_eq!(
                        roadnet::ReachIndex::mask_contains(&union, s),
                        scratch.contains(s),
                        "seed {seed} hops {hops}: packed and BFS reach disagree on {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn hop_cap_boundary_is_bit_identical_packed_vs_fallback() {
        // At h = MAX_CACHED_HOPS the movement prune rides the packed
        // index; at h = MAX_CACHED_HOPS + 1 it silently falls back to
        // the per-owner BFS. The two paths must produce bit-identical
        // observations — only the fallback flag (and the summary
        // counter) may differ. On this grid both budgets cover the
        // whole map, so the pruned sets coincide exactly.
        assert_eq!(roadnet::index::MAX_CACHED_HOPS, 16);
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let profile = PrivacyProfile::builder()
            .level(LevelRequirement::with_k(8))
            .build()
            .unwrap();
        let path = [SegmentId(40), SegmentId(41), SegmentId(42), SegmentId(42)];
        let stream = keyed_stream(&net, &snapshot, &profile, &path);
        // Shortest segment is 100, so hops = ceil(speed·dt/100) + 1.
        let mk = |speed: f64| {
            TemporalAdversary::new(
                &net,
                AdversaryConfig {
                    mode: AdversaryMode::Move,
                    max_speed: speed,
                    dt: 1.0,
                    ..Default::default()
                },
            )
        };
        let mut packed = mk(1500.0); // hops = 16 = MAX_CACHED_HOPS
        let mut fallback = mk(1600.0); // hops = 17: beyond the cache cap
        let mut packed_summary = AttackSummary::new();
        let mut fallback_summary = AttackSummary::new();
        for (tick, region, seg) in &stream {
            let observation = Observation {
                tick: *tick,
                region,
                snapshot: &snapshot,
                snapshot_fresh: true,
            };
            let a = packed.observe(&net, "alice", observation, None, Some(*seg));
            let b = fallback.observe(&net, "alice", observation, None, Some(*seg));
            assert!(!a.movement_fallback, "tick {tick}: packed path flagged");
            // The first (cold) tick never prunes, so there is no
            // fallback to take; every warm tick pays the BFS.
            assert_eq!(b.movement_fallback, *tick > 1, "tick {tick}");
            assert_eq!(
                AttackObservation {
                    movement_fallback: false,
                    ..b
                },
                a,
                "tick {tick}: packed and fallback paths diverged"
            );
            packed_summary.record(&a);
            fallback_summary.record(&b);
        }
        assert_eq!(packed_summary.movement_fallbacks(), 0);
        assert_eq!(
            fallback_summary.movement_fallbacks(),
            stream.len() as u64 - 1
        );
        assert!(format!("{fallback_summary}").contains("fallbacks"));
        assert!(!format!("{packed_summary}").contains("fallbacks"));
    }

    #[test]
    fn each_observation_is_weighted_by_its_own_snapshot() {
        // An adversary primed once through `begin_tick_population` must
        // report exactly what an unprimed one does on every later tick:
        // each observation weighs its candidates by the snapshot it
        // carries, fresh or stale, never by the priming one. The later
        // snapshots are non-uniform, because a uniform one normalizes to
        // the same posterior as any other uniform one.
        let net = grid_city(6, 6, 100.0);
        let uniform = OccupancySnapshot::uniform(net.segment_count(), 1);
        let region: Vec<SegmentId> = (10..18).map(SegmentId).collect();
        let crowded: Vec<OccupancySnapshot> = [12usize, 15, 11, 16]
            .iter()
            .map(|&hot| {
                let mut counts = vec![1u32; net.segment_count()];
                counts[hot] = 40;
                OccupancySnapshot::from_counts(counts)
            })
            .collect();
        for mode in [
            AdversaryMode::Correlate,
            AdversaryMode::All,
            AdversaryMode::Adaptive,
        ] {
            let cfg = AdversaryConfig {
                mode,
                ..Default::default()
            };
            let mut primed = TemporalAdversary::new(&net, cfg.clone());
            let mut unprimed = TemporalAdversary::new(&net, cfg);
            primed.begin_tick_population(&uniform, true, ["alice"]);
            let ticks = std::iter::once((&uniform, true))
                .chain(crowded.iter().zip([true, false, false, true]));
            for (tick, (snapshot, snapshot_fresh)) in (1u64..).zip(ticks) {
                let observation = Observation {
                    tick,
                    region: &region,
                    snapshot,
                    snapshot_fresh,
                };
                let a = primed.observe(&net, "alice", observation, None, Some(SegmentId(12)));
                let b = unprimed.observe(&net, "alice", observation, None, Some(SegmentId(12)));
                assert_eq!(a, b, "{mode:?}: tick {tick} used the priming snapshot");
            }
        }
    }

    #[test]
    fn summary_rollup_arithmetic() {
        let mut a = AttackSummary::new();
        assert_eq!(a.mean_entropy(), 0.0);
        assert_eq!(a.min_entropy(), 0.0);
        assert_eq!(a.soundness(), 1.0);
        let obs = AttackObservation {
            tick: 1,
            region_size: 8,
            peel_frontier: 3,
            support: 4,
            entropy_bits: 2.0,
            user_entropy_bits: 2.5,
            region_entropy_bits: 3.0,
            guess: SegmentId(1),
            guess_correct: Some(true),
            true_in_support: Some(true),
            reset: false,
            movement_fallback: false,
        };
        a.record(&obs);
        a.record(&AttackObservation {
            entropy_bits: 1.0,
            guess_correct: Some(false),
            true_in_support: Some(false),
            reset: true,
            movement_fallback: true,
            ..obs
        });
        assert_eq!(a.observations(), 2);
        assert!((a.mean_entropy() - 1.5).abs() < 1e-12);
        assert_eq!(a.min_entropy(), 1.0);
        assert_eq!(a.guess_success_rate(), 0.5);
        assert_eq!(a.soundness(), 0.5);
        assert_eq!(a.resets(), 1);
        assert_eq!(a.movement_fallbacks(), 1);
        // Unscored observations (no ground truth) don't dilute the
        // guess-success or soundness denominators.
        a.record(&AttackObservation {
            guess_correct: None,
            true_in_support: None,
            reset: false,
            ..obs
        });
        assert_eq!(a.observations(), 3);
        assert_eq!(a.guess_success_rate(), 0.5);
        assert_eq!(a.soundness(), 0.5);
        let mut b = AttackSummary::new();
        b.merge(&a);
        assert_eq!(b, a);
        assert!(format!("{a}").contains("entropy"));
        assert_eq!(AdversaryMode::parse("move"), Some(AdversaryMode::Move));
        assert_eq!(
            AdversaryMode::parse("adaptive"),
            Some(AdversaryMode::Adaptive)
        );
        assert_eq!(AdversaryMode::parse("bogus"), None);
        assert_eq!(AdversaryMode::All.name(), "all");
        for mode in AdversaryMode::ALL {
            assert_eq!(AdversaryMode::parse(mode.name()), Some(mode));
        }
    }

    #[test]
    fn zero_tick_summary_reports_finite_zeros() {
        // A stream the adversary never observed (the tournament's
        // zero-tick edge): every accessor must be 0.0/1.0, never NaN.
        let s = AttackSummary::new();
        assert_eq!(s.observations(), 0);
        assert_eq!(s.mean_entropy(), 0.0);
        assert_eq!(s.min_entropy(), 0.0);
        assert_eq!(s.mean_user_entropy(), 0.0);
        assert_eq!(s.min_user_entropy(), 0.0);
        assert_eq!(s.mean_support(), 0.0);
        assert_eq!(s.mean_region(), 0.0);
        assert_eq!(s.guess_success_rate(), 0.0);
        assert_eq!(s.soundness(), 1.0);
        let rendered = format!("{s}");
        assert!(!rendered.contains("NaN"), "{rendered}");
    }

    #[test]
    fn empty_region_observation_yields_zeros_not_nan() {
        let net = grid_city(4, 4, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        for mode in AdversaryMode::ALL {
            let mut adv = TemporalAdversary::new(
                &net,
                AdversaryConfig {
                    mode,
                    ..Default::default()
                },
            );
            let obs = adv.observe(
                &net,
                "alice",
                Observation {
                    tick: 1,
                    region: &[],
                    snapshot: &snapshot,
                    snapshot_fresh: true,
                },
                None,
                Some(SegmentId(3)),
            );
            assert_eq!(obs.entropy_bits, 0.0, "{mode:?}");
            assert_eq!(obs.user_entropy_bits, 0.0, "{mode:?}");
            assert_eq!(obs.support, 0, "{mode:?}");
            // Nothing to guess over: the tick stays unscored so it
            // cannot spuriously break a sound attack's soundness.
            assert_eq!(obs.guess_correct, None, "{mode:?}");
            assert_eq!(obs.true_in_support, None, "{mode:?}");
            assert!(obs.reset, "{mode:?}");
        }
    }

    #[test]
    fn single_candidate_region_yields_exact_zero_entropy() {
        let net = grid_city(4, 4, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 4);
        let region = [SegmentId(5)];
        for mode in [
            AdversaryMode::Peel,
            AdversaryMode::Correlate,
            AdversaryMode::Move,
            AdversaryMode::All,
        ] {
            let mut adv = TemporalAdversary::new(
                &net,
                AdversaryConfig {
                    mode,
                    ..Default::default()
                },
            );
            let obs = adv.observe(
                &net,
                "alice",
                Observation {
                    tick: 1,
                    region: &region,
                    snapshot: &snapshot,
                    snapshot_fresh: true,
                },
                None,
                Some(SegmentId(5)),
            );
            // Exactly 0.0 — a point posterior, not an almost-zero float.
            assert_eq!(obs.entropy_bits, 0.0, "{mode:?}");
            assert_eq!(obs.support, 1, "{mode:?}");
            // The identity axis still carries the segment's user count.
            assert!(
                (obs.user_entropy_bits - 2.0).abs() < 1e-12,
                "{mode:?}: {}",
                obs.user_entropy_bits
            );
            assert_eq!(obs.guess, SegmentId(5), "{mode:?}");
        }
    }

    #[test]
    fn empty_posterior_after_pruning_resets_with_finite_entropy() {
        // Peel memory intersected with a disjoint region empties the
        // posterior: the adversary must reset to the full region (finite
        // entropy, full support), never emit NaN.
        let net = grid_city(8, 8, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let mut adv = TemporalAdversary::new(
            &net,
            AdversaryConfig {
                mode: AdversaryMode::Peel,
                ..Default::default()
            },
        );
        let first: Vec<SegmentId> = (0..6).map(SegmentId).collect();
        let second: Vec<SegmentId> = (60..66).map(SegmentId).collect();
        adv.observe(
            &net,
            "alice",
            Observation {
                tick: 1,
                region: &first,
                snapshot: &snapshot,
                snapshot_fresh: true,
            },
            None,
            None,
        );
        let obs = adv.observe(
            &net,
            "alice",
            Observation {
                tick: 2,
                region: &second,
                snapshot: &snapshot,
                snapshot_fresh: true,
            },
            None,
            Some(SegmentId(62)),
        );
        assert!(obs.reset);
        assert_eq!(obs.support, second.len());
        assert!(obs.entropy_bits.is_finite());
        assert!((obs.entropy_bits - (second.len() as f64).log2()).abs() < 1e-9);
        assert_eq!(obs.true_in_support, Some(true));
    }
}
