//! Per-segment occupancy snapshots — the interface the anonymizer consumes.
//!
//! A cloaking request is evaluated against the user density *at request
//! time*; [`OccupancySnapshot`] freezes that density so anonymization and
//! later analysis see identical counts.

use crate::car::CarId;
use crate::sim::Simulation;
use roadnet::SegmentId;
use serde::{Deserialize, Serialize};

/// A frozen users-per-segment view of the traffic at some instant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancySnapshot {
    /// Simulation time the snapshot was taken at (seconds), if known.
    taken_at_ms: u64,
    counts: Vec<u32>,
    total: u64,
}

impl OccupancySnapshot {
    /// Builds a snapshot from raw per-segment counts.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        let total = counts.iter().map(|&c| c as u64).sum();
        OccupancySnapshot {
            taken_at_ms: 0,
            counts,
            total,
        }
    }

    /// Captures the current state of a simulation.
    pub fn capture(sim: &Simulation) -> Self {
        let mut snap = Self::from_counts(Vec::new());
        snap.recapture(sim);
        snap
    }

    /// Re-captures a simulation into this snapshot, reusing the counts
    /// buffer instead of allocating a fresh one — the cadence path of a
    /// continuous pipeline ([`Simulation::capture_into`] delegates
    /// here). Equivalent to `*self = OccupancySnapshot::capture(sim)`.
    pub fn recapture(&mut self, sim: &Simulation) {
        sim.occupancy_into(&mut self.counts);
        self.total = self.counts.iter().map(|&c| c as u64).sum();
        self.taken_at_ms = (sim.clock() * 1000.0) as u64;
    }

    /// Copies `source`'s counts on `segments`, and its capture time, into
    /// this snapshot; every other segment keeps its count. A sharded
    /// pipeline refreshes each shard's partition-masked snapshot this
    /// way from one full capture, in O(|segments|) per shard.
    ///
    /// # Panics
    ///
    /// Panics if a listed segment is out of range for either snapshot.
    pub fn copy_segments_from(&mut self, source: &OccupancySnapshot, segments: &[SegmentId]) {
        for &s in segments {
            let (old, new) = (self.counts[s.index()], source.counts[s.index()]);
            self.counts[s.index()] = new;
            self.total = self.total - u64::from(old) + u64::from(new);
        }
        self.taken_at_ms = source.taken_at_ms;
    }

    /// A uniform snapshot with `k` users on every segment (useful for
    /// benchmarks that want k-anonymity to depend only on region size).
    pub fn uniform(segments: usize, per_segment: u32) -> Self {
        Self::from_counts(vec![per_segment; segments])
    }

    /// Users on one segment (0 for out-of-range ids).
    pub fn users_on(&self, s: SegmentId) -> u32 {
        self.counts.get(s.index()).copied().unwrap_or(0)
    }

    /// Total users across segments in `ids`.
    pub fn users_in<I: IntoIterator<Item = SegmentId>>(&self, ids: I) -> u64 {
        ids.into_iter().map(|s| self.users_on(s) as u64).sum()
    }

    /// Total users on the map.
    pub fn total_users(&self) -> u64 {
        self.total
    }

    /// Number of segments covered by the snapshot.
    pub fn segment_count(&self) -> usize {
        self.counts.len()
    }

    /// Simulation time of capture in milliseconds.
    pub fn taken_at_ms(&self) -> u64 {
        self.taken_at_ms
    }

    /// Segments with at least one user, in id order. Borrows the
    /// snapshot instead of allocating, so per-tick metrics can scan
    /// occupancy without heap traffic; `.collect()` where a `Vec` is
    /// genuinely needed.
    pub fn occupied_segments(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| SegmentId(i as u32))
    }

    /// The segment a given car occupies per a simulation (pass-through
    /// helper so callers need not keep the simulation around).
    pub fn segment_of(sim: &Simulation, car: CarId) -> Option<SegmentId> {
        sim.car(car).map(|c| c.segment())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;
    use roadnet::grid_city;

    #[test]
    fn capture_matches_simulation() {
        let sim = Simulation::new(
            grid_city(5, 5, 100.0),
            SimConfig {
                cars: 123,
                seed: 1,
                ..Default::default()
            },
        );
        let snap = OccupancySnapshot::capture(&sim);
        assert_eq!(snap.total_users(), 123);
        assert_eq!(snap.segment_count(), sim.network().segment_count());
        let recount: u64 = sim
            .network()
            .segment_ids()
            .map(|s| snap.users_on(s) as u64)
            .sum();
        assert_eq!(recount, 123);
    }

    #[test]
    fn users_in_subsets() {
        let snap = OccupancySnapshot::from_counts(vec![3, 0, 5, 2]);
        assert_eq!(snap.users_on(SegmentId(0)), 3);
        assert_eq!(snap.users_on(SegmentId(99)), 0);
        assert_eq!(snap.users_in([SegmentId(0), SegmentId(2)]), 8);
        assert_eq!(snap.total_users(), 10);
        assert_eq!(
            snap.occupied_segments().collect::<Vec<_>>(),
            vec![SegmentId(0), SegmentId(2), SegmentId(3)]
        );
    }

    #[test]
    fn recapture_reuses_buffer_and_matches_capture() {
        let mut sim = Simulation::new(
            grid_city(5, 5, 100.0),
            SimConfig {
                cars: 80,
                seed: 3,
                ..Default::default()
            },
        );
        let mut snap = OccupancySnapshot::capture(&sim);
        sim.run(5, 10.0);
        sim.capture_into(&mut snap);
        assert_eq!(snap, OccupancySnapshot::capture(&sim));
        assert_eq!(snap.total_users(), 80);
        assert_eq!(snap.taken_at_ms(), 50_000);
    }

    #[test]
    fn copied_segments_keep_the_rest_and_the_total() {
        let mut sim = Simulation::new(
            grid_city(5, 5, 100.0),
            SimConfig {
                cars: 90,
                seed: 4,
                ..Default::default()
            },
        );
        sim.run(3, 10.0);
        let capture = OccupancySnapshot::capture(&sim);
        let n = capture.segment_count();
        let all: Vec<SegmentId> = sim.network().segment_ids().collect();
        let mut whole = OccupancySnapshot::uniform(n, 0);
        whole.copy_segments_from(&capture, &all);
        assert_eq!(whole, capture, "copying every segment is a capture");

        let (even, odd): (Vec<_>, Vec<_>) = all.iter().partition(|s| s.0 % 2 == 0);
        let mut masked = OccupancySnapshot::uniform(n, 7);
        masked.copy_segments_from(&capture, &even);
        for &s in &even {
            assert_eq!(masked.users_on(s), capture.users_on(s));
        }
        for &s in &odd {
            assert_eq!(masked.users_on(s), 7);
        }
        assert_eq!(
            masked.total_users(),
            capture.users_in(even.iter().copied()) + 7 * odd.len() as u64
        );
        assert_eq!(masked.taken_at_ms(), 30_000);
    }

    #[test]
    fn uniform_snapshot() {
        let snap = OccupancySnapshot::uniform(10, 4);
        assert_eq!(snap.total_users(), 40);
        assert_eq!(snap.users_on(SegmentId(9)), 4);
    }

    #[test]
    fn segment_of_car() {
        let sim = Simulation::new(
            grid_city(4, 4, 100.0),
            SimConfig {
                cars: 5,
                seed: 2,
                ..Default::default()
            },
        );
        let seg = OccupancySnapshot::segment_of(&sim, CarId(0)).unwrap();
        assert_eq!(seg, sim.car(CarId(0)).unwrap().segment());
        assert!(OccupancySnapshot::segment_of(&sim, CarId(99)).is_none());
    }
}

/// Spatio-temporal occupancy: users seen on each segment at any sampling
/// instant within a time window.
///
/// The paper frames location privacy as control over "different spatial
/// and temporal granularity"; cloaking against a *windowed* snapshot
/// implements the temporal half (Gruteser & Grunwald's temporal
/// cloaking): a region is k-anonymous over the window `[t-δ, t+δ]`
/// rather than a single instant, so fewer segments are needed in sparse
/// traffic at the cost of coarser time information.
impl OccupancySnapshot {
    /// Merges snapshots by per-segment maximum — a conservative
    /// "users that could plausibly be here during the window" count that
    /// never exceeds the true distinct-user count.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different segment counts or the
    /// slice is empty.
    pub fn window_max(snapshots: &[OccupancySnapshot]) -> OccupancySnapshot {
        assert!(!snapshots.is_empty(), "need at least one snapshot");
        let n = snapshots[0].segment_count();
        assert!(
            snapshots.iter().all(|s| s.segment_count() == n),
            "snapshots must cover the same network"
        );
        let mut counts = vec![0u32; n];
        for snap in snapshots {
            for (i, c) in counts.iter_mut().enumerate() {
                *c = (*c).max(snap.counts[i]);
            }
        }
        let mut out = Self::from_counts(counts);
        out.taken_at_ms = snapshots.last().expect("non-empty").taken_at_ms;
        out
    }

    /// Captures a windowed snapshot by stepping a simulation `samples`
    /// times at `dt` seconds and taking the per-segment maximum.
    ///
    /// Edge cases are well-defined: `samples` of 0 or 1 (a zero-length
    /// window) degenerates to [`OccupancySnapshot::capture`] without
    /// stepping the simulation, a window far longer than any trip simply
    /// keeps accumulating per-segment maxima, and empty traffic yields an
    /// all-zero snapshot.
    pub fn capture_window(sim: &mut Simulation, samples: usize, dt: f64) -> OccupancySnapshot {
        let mut snaps = vec![Self::capture(sim)];
        for _ in 1..samples.max(1) {
            sim.step(dt);
            snaps.push(Self::capture(sim));
        }
        Self::window_max(&snaps)
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use crate::sim::SimConfig;
    use roadnet::grid_city;

    #[test]
    fn window_max_dominates_each_instant() {
        let a = OccupancySnapshot::from_counts(vec![3, 0, 5]);
        let b = OccupancySnapshot::from_counts(vec![1, 4, 2]);
        let w = OccupancySnapshot::window_max(&[a.clone(), b.clone()]);
        for s in 0..3u32 {
            let s = SegmentId(s);
            assert!(w.users_on(s) >= a.users_on(s));
            assert!(w.users_on(s) >= b.users_on(s));
        }
        assert_eq!(w.users_on(SegmentId(0)), 3);
        assert_eq!(w.users_on(SegmentId(1)), 4);
        assert_eq!(w.users_on(SegmentId(2)), 5);
    }

    #[test]
    fn windowed_capture_never_below_instant() {
        let net = grid_city(5, 5, 100.0);
        let sim = Simulation::new(
            net,
            SimConfig {
                cars: 150,
                seed: 6,
                ..Default::default()
            },
        );
        let instant = OccupancySnapshot::capture(&sim);
        let mut sim2 = Simulation::new(
            grid_city(5, 5, 100.0),
            SimConfig {
                cars: 150,
                seed: 6,
                ..Default::default()
            },
        );
        let windowed = OccupancySnapshot::capture_window(&mut sim2, 5, 10.0);
        // The window starts at the same instant, so it dominates it.
        for s in 0..instant.segment_count() as u32 {
            assert!(windowed.users_on(SegmentId(s)) >= instant.users_on(SegmentId(s)));
        }
        // Windows make sparse traffic denser (helps cloaking in sparse areas).
        assert!(windowed.total_users() >= instant.total_users());
    }

    #[test]
    #[should_panic(expected = "at least one snapshot")]
    fn empty_window_panics() {
        let _ = OccupancySnapshot::window_max(&[]);
    }

    #[test]
    #[should_panic(expected = "same network")]
    fn mismatched_sizes_panic() {
        let a = OccupancySnapshot::from_counts(vec![1]);
        let b = OccupancySnapshot::from_counts(vec![1, 2]);
        let _ = OccupancySnapshot::window_max(&[a, b]);
    }
}
