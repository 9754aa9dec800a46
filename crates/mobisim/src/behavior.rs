//! Heterogeneous owner behavior models.
//!
//! The paper evaluates on GTMobiSim-style traffic where every car is an
//! endless random-destination hopper. That homogeneity makes temporal
//! attacks *easier to survive* than they should be: an adaptive tracker
//! feeds on structure — recurring anchor points, predictable departure
//! waves, long stationary dwells — none of which uniform random motion
//! exhibits. This module adds that structure:
//!
//! * [`BehaviorKind::Taxi`] — the legacy model: on arrival, pick a fresh
//!   uniformly random destination and go (random-destination hops).
//! * [`BehaviorKind::Commuter`] — a home↔work cycle: the car owns two
//!   anchor junctions and only travels during the rush windows of a
//!   tick-phase [`RushSchedule`], parked at an anchor otherwise.
//!   Per-car phase offsets stagger departures across a window, so a
//!   population of commuters produces a rush-hour *density wave*
//!   rolling through the network rather than a single spike.
//! * [`BehaviorKind::Parked`] — never moves (long-term parking). Parked
//!   cars still occupy a segment, thickening the occupancy floor the
//!   correlation adversary weights against.
//!
//! Every moving behavior routes through the simulation's
//! [`roadnet::TripRouter`] (the routes of [`roadnet::shortest_path`]) and
//! advances via the same per-`dt` budget walk as the legacy model, so
//! two structural guarantees the movement adversary relies on hold *by
//! construction* (and are property-tested in
//! `crates/mobisim/tests/behavior_prop.rs`):
//!
//! 1. **CSR adjacency** — a car only ever crosses to a neighbor of its
//!    current segment;
//! 2. **speed bound** — per-tick displacement never exceeds
//!    `speed · dt ≤ vmax · dt`.
//!
//! The default [`BehaviorMix::Uniform`] reproduces the legacy
//! simulation *exactly* (same RNG draw sequence), so existing receipt
//! digests are untouched — heterogeneity is strictly opt-in.

use crate::car::CarId;
use serde::{Deserialize, Serialize};

/// The motion archetype assigned to one car.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BehaviorKind {
    /// Endless random-destination hops (the legacy homogeneous model).
    Taxi,
    /// Home↔work cycles driven by the mix's [`RushSchedule`].
    Commuter,
    /// Never moves.
    Parked,
}

impl BehaviorKind {
    /// Short label for logs and tournament cells.
    pub fn name(self) -> &'static str {
        match self {
            BehaviorKind::Taxi => "taxi",
            BehaviorKind::Commuter => "commuter",
            BehaviorKind::Parked => "parked",
        }
    }
}

/// A tick-phase schedule of commuter departure windows.
///
/// Phases count simulation steps modulo `period`; a commuter at home
/// departs for work during `[morning.0, morning.1)` and returns during
/// `[evening.0, evening.1)`. Individual departure ticks are staggered
/// inside each window by car id, producing a travelling density wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RushSchedule {
    /// Ticks per simulated "day".
    pub period: u64,
    /// Half-open phase window of home→work departures.
    pub morning: (u64, u64),
    /// Half-open phase window of work→home departures.
    pub evening: (u64, u64),
}

impl Default for RushSchedule {
    /// A 24-tick day with 6-tick morning and evening rushes.
    fn default() -> Self {
        RushSchedule {
            period: 24,
            morning: (2, 8),
            evening: (14, 20),
        }
    }
}

impl RushSchedule {
    /// Whether `phase` falls inside the morning departure window.
    pub fn in_morning(&self, phase: u64) -> bool {
        phase >= self.morning.0 && phase < self.morning.1
    }

    /// Whether `phase` falls inside the evening departure window.
    pub fn in_evening(&self, phase: u64) -> bool {
        phase >= self.evening.0 && phase < self.evening.1
    }

    /// The staggered departure phase of car `id` inside `window`: each
    /// car leaves at a fixed offset within the window, spreading a
    /// population's departures into a wave.
    pub fn departure_phase(&self, id: CarId, window: (u64, u64)) -> u64 {
        let width = window.1.saturating_sub(window.0).max(1);
        window.0 + (id.0 as u64).wrapping_mul(0x9e37_79b9) % width
    }
}

/// The population-level behavior composition of a simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BehaviorMix {
    /// Every car is a [`BehaviorKind::Taxi`], with the legacy RNG draw
    /// sequence preserved bit-for-bit (the receipt-digest-pinned
    /// default).
    #[default]
    Uniform,
    /// Cars striped across kinds by integer weight, with commuter
    /// departures driven by `rush`.
    Heterogeneous {
        /// Weight of [`BehaviorKind::Taxi`] cars.
        taxis: u32,
        /// Weight of [`BehaviorKind::Commuter`] cars.
        commuters: u32,
        /// Weight of [`BehaviorKind::Parked`] cars.
        parked: u32,
        /// The commuters' departure schedule.
        rush: RushSchedule,
    },
}

impl BehaviorMix {
    /// The legacy homogeneous model (every car a taxi, digest-pinned).
    pub fn uniform() -> Self {
        BehaviorMix::Uniform
    }

    /// A residential city: mostly commuters, some taxis, some parked.
    pub fn commuter_city() -> Self {
        BehaviorMix::Heterogeneous {
            taxis: 1,
            commuters: 6,
            parked: 1,
            rush: RushSchedule::default(),
        }
    }

    /// A fleet-dominated city: mostly taxis with a commuter minority.
    pub fn taxi_fleet() -> Self {
        BehaviorMix::Heterogeneous {
            taxis: 6,
            commuters: 1,
            parked: 1,
            rush: RushSchedule::default(),
        }
    }

    /// An aggressive rush-hour wave: commuter-heavy with tight
    /// departure windows and a thick parked floor — the adversarial
    /// density profile the adaptive tracker feeds on.
    pub fn rush_hour() -> Self {
        BehaviorMix::Heterogeneous {
            taxis: 1,
            commuters: 8,
            parked: 3,
            rush: RushSchedule {
                period: 16,
                morning: (1, 4),
                evening: (9, 12),
            },
        }
    }

    /// The kind assigned to car `i`: deterministic weighted striping
    /// (no RNG draws, so the placement/speed draw sequence is
    /// independent of the mix).
    pub fn kind_for(&self, i: usize) -> BehaviorKind {
        match self {
            BehaviorMix::Uniform => BehaviorKind::Taxi,
            BehaviorMix::Heterogeneous {
                taxis,
                commuters,
                parked,
                ..
            } => {
                let total = (taxis + commuters + parked).max(1) as u64;
                // Spread the stripe so kinds interleave instead of
                // clustering in id ranges (tracked owners are a prefix).
                let slot = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % total;
                if slot < *taxis as u64 {
                    BehaviorKind::Taxi
                } else if slot < (*taxis + *commuters) as u64 {
                    BehaviorKind::Commuter
                } else {
                    BehaviorKind::Parked
                }
            }
        }
    }

    /// The rush schedule, when the mix has one.
    pub fn rush(&self) -> Option<RushSchedule> {
        match self {
            BehaviorMix::Uniform => None,
            BehaviorMix::Heterogeneous { rush, .. } => Some(*rush),
        }
    }
}

/// A commuter's position in its home↔work cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommutePhase {
    AtHome,
    ToWork,
    AtWork,
    ToHome,
}

/// Per-car behavior state carried by the simulation (parallel to the
/// car vector; empty under [`BehaviorMix::Uniform`]).
#[derive(Debug, Clone)]
pub(crate) struct CarBehavior {
    pub kind: BehaviorKind,
    /// Work anchor junction (commuters only).
    pub work: Option<roadnet::JunctionId>,
    /// Home anchor junction (commuters only).
    pub home: Option<roadnet::JunctionId>,
    pub phase: CommutePhase,
}

impl CarBehavior {
    pub fn new(kind: BehaviorKind) -> Self {
        CarBehavior {
            kind,
            work: None,
            home: None,
            phase: CommutePhase::AtHome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mix_is_all_taxis() {
        let mix = BehaviorMix::uniform();
        assert!((0..100).all(|i| mix.kind_for(i) == BehaviorKind::Taxi));
        assert!(mix.rush().is_none());
    }

    #[test]
    fn heterogeneous_striping_matches_weights_roughly() {
        let mix = BehaviorMix::commuter_city();
        let n = 8000;
        let commuters = (0..n)
            .filter(|&i| mix.kind_for(i) == BehaviorKind::Commuter)
            .count();
        // 6 of 8 weight → ~75%; the multiplicative stripe is not exact
        // but must be close at scale.
        assert!(
            (commuters as f64 / n as f64 - 0.75).abs() < 0.05,
            "commuter share off: {commuters}/{n}"
        );
    }

    #[test]
    fn departure_phases_stay_inside_the_window() {
        let rush = RushSchedule::default();
        for id in 0..64 {
            let p = rush.departure_phase(CarId(id), rush.morning);
            assert!(rush.in_morning(p), "car {id} departs at phase {p}");
        }
    }

    #[test]
    fn rush_windows_are_half_open() {
        let rush = RushSchedule::default();
        assert!(rush.in_morning(2));
        assert!(!rush.in_morning(8));
        assert!(rush.in_evening(14));
        assert!(!rush.in_evening(20));
    }
}
