//! The conventional one-way baseline: Non-reversible Random Expansion
//! (NRE).
//!
//! Conventional road-network cloaking (\[1\], \[2\], \[7\], \[9\] in the paper)
//! grows the region by uniformly random frontier picks until the privacy
//! requirement holds. It is cheap — no transition tables, no reversibility
//! bookkeeping — but *unidirectional*: "location information once
//! perturbed … cannot be reversed". The benchmarks use it as the
//! anonymization-cost and region-quality baseline.

use crate::error::{CloakError, StepFailure};
use crate::frontier::{candidates_into, insert_sorted, remove_sorted};
use crate::profile::LevelRequirement;
use crate::region::RegionState;
use crate::scratch::StampSet;
use keystream::Level;
use mobisim::OccupancySnapshot;
use rand::Rng;
use roadnet::{RoadNetwork, SegmentId};

/// Result of a baseline expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// The cloaking region, sorted by id.
    pub segments: Vec<SegmentId>,
    /// Expansion steps taken.
    pub steps: u32,
}

/// Pooled buffers for [`random_expansion_with`] and
/// [`replay_expansion_matches`]: the growing region, the frontier
/// dedup/sort buffers, and the replay target set. Same reuse contract as
/// [`crate::CloakScratch`] — plain state, bit-identical results for any
/// scratch.
#[derive(Debug, Clone, Default)]
pub struct ExpansionScratch {
    region: RegionState,
    stamp: StampSet,
    frontier: Vec<SegmentId>,
    admissible: Vec<SegmentId>,
    /// Membership set of the observed region a replay must reproduce.
    target: StampSet,
    target_len: usize,
}

impl ExpansionScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the observed region [`replay_expansion_matches`] tests
    /// candidate seeds against. Call once per observation; every replay
    /// for that observation then shares the membership set.
    pub fn set_replay_target(&mut self, net: &RoadNetwork, observed: &[SegmentId]) {
        self.target.begin(net.segment_count());
        for &s in observed {
            self.target.insert(s.index());
        }
        self.target_len = observed.len();
    }
}

/// Grows a one-way cloaking region from `user_segment` until `req` holds.
///
/// Allocating convenience over [`random_expansion_with`] (one throwaway
/// [`ExpansionScratch`] per call).
///
/// # Errors
///
/// Fails like the reversible engines when the frontier is exhausted or
/// the tolerance blocks every candidate.
pub fn random_expansion<R: Rng + ?Sized>(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    req: &LevelRequirement,
    rng: &mut R,
) -> Result<BaselineOutcome, CloakError> {
    random_expansion_with(
        net,
        snapshot,
        user_segment,
        req,
        rng,
        &mut ExpansionScratch::new(),
    )
}

/// [`random_expansion`] with caller-owned scratch buffers: the pipeline's
/// per-tick NRE control grows owner after owner with no steady-state
/// heap traffic beyond the returned outcome. Results are bit-identical
/// to [`random_expansion`] for any scratch state (the RNG draw sequence
/// depends only on the admissible counts, which are value-determined).
///
/// # Errors
///
/// As [`random_expansion`].
pub fn random_expansion_with<R: Rng + ?Sized>(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    req: &LevelRequirement,
    rng: &mut R,
    scratch: &mut ExpansionScratch,
) -> Result<BaselineOutcome, CloakError> {
    if net.get_segment(user_segment).is_none() {
        return Err(CloakError::UnknownSegment(user_segment));
    }
    let ExpansionScratch {
        region,
        stamp,
        frontier,
        admissible,
        ..
    } = scratch;
    region.reset_for(net);
    region.insert(net, user_segment);
    // Users and frontier are maintained incrementally around each pick
    // instead of being recomputed per step — value-identical to the full
    // recomputation (pinned by `incremental_walk_matches_full_recompute`),
    // so the RNG draw sequence is unchanged.
    let mut users = u64::from(snapshot.users_on(user_segment));
    candidates_into(net, region, stamp, frontier);
    let mut steps = 0u32;
    while users < req.k as u64 || region.len() < req.l as usize {
        if frontier.is_empty() {
            return Err(CloakError::CloakingFailed {
                level: Level(1),
                reason: StepFailure::NoCandidates,
            });
        }
        admissible.clear();
        admissible.extend(frontier.iter().copied().filter(|&c| {
            req.tolerance
                .allows_extended(net, region.total_length(), region.bounding_box(), c)
        }));
        if admissible.is_empty() {
            return Err(CloakError::CloakingFailed {
                level: Level(1),
                reason: StepFailure::RedrawBudgetExhausted,
            });
        }
        let pick = admissible[rng.gen_range(0..admissible.len())];
        region.insert(net, pick);
        users += u64::from(snapshot.users_on(pick));
        steps += 1;
        advance_frontier(net, region, stamp, frontier, pick);
    }
    Ok(BaselineOutcome {
        segments: region.to_sorted_ids(),
        steps,
    })
}

/// Updates a `(length, id)`-sorted frontier around a just-inserted pick:
/// the pick leaves the frontier, its not-yet-seen non-member neighbors
/// join at their sorted positions. Contents and order are exactly what
/// [`candidates_into`] would recompute — the comparator is a strict
/// total order (ties broken by id), so sorted insertion and a full
/// re-sort agree — provided `stamp` has tracked every frontier member
/// since the seeding [`candidates_into`] call.
fn advance_frontier(
    net: &RoadNetwork,
    region: &RegionState,
    stamp: &mut StampSet,
    frontier: &mut Vec<SegmentId>,
    pick: SegmentId,
) {
    remove_sorted(net, frontier, pick);
    for &n in net.neighbor_segments_csr(pick) {
        if !region.contains(n) && stamp.insert(n.index()) {
            insert_sorted(net, frontier, n);
        }
    }
}

/// Decides whether replaying a random expansion from `user_segment` with
/// `rng` reproduces exactly the observed region installed by
/// [`ExpansionScratch::set_replay_target`] — the adversary's replay
/// inversion against keyless deterministic schemes.
///
/// Boolean-equivalent to
/// `random_expansion(…).map(|out| out.segments == observed).unwrap_or(false)`
/// but **early-exiting**: the walk replays the exact pick sequence of
/// [`random_expansion`] and bails the moment a pick (or the seed) falls
/// outside the observed region, since the grown set could then never
/// equal it. The grown region is always a subset of the target after
/// those checks, so the final verdict reduces to a length comparison.
pub fn replay_expansion_matches<R: Rng + ?Sized>(
    net: &RoadNetwork,
    snapshot: &OccupancySnapshot,
    user_segment: SegmentId,
    req: &LevelRequirement,
    rng: &mut R,
    scratch: &mut ExpansionScratch,
) -> bool {
    if net.get_segment(user_segment).is_none() {
        return false;
    }
    let ExpansionScratch {
        region,
        stamp,
        frontier,
        admissible,
        target,
        target_len,
    } = scratch;
    if !target.contains(user_segment.index()) {
        return false;
    }
    region.reset_for(net);
    region.insert(net, user_segment);
    let mut users = u64::from(snapshot.users_on(user_segment));
    candidates_into(net, region, stamp, frontier);
    while users < req.k as u64 || region.len() < req.l as usize {
        if frontier.is_empty() {
            return false;
        }
        admissible.clear();
        admissible.extend(frontier.iter().copied().filter(|&c| {
            req.tolerance
                .allows_extended(net, region.total_length(), region.bounding_box(), c)
        }));
        if admissible.is_empty() {
            return false;
        }
        let pick = admissible[rng.gen_range(0..admissible.len())];
        if !target.contains(pick.index()) {
            return false;
        }
        region.insert(net, pick);
        users += u64::from(snapshot.users_on(pick));
        advance_frontier(net, region, stamp, frontier, pick);
    }
    region.len() == *target_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpatialTolerance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use roadnet::grid_city;

    #[test]
    fn meets_k_and_l() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
        let req = LevelRequirement::with_k(10).l(4);
        let mut rng = StdRng::seed_from_u64(1);
        let out = random_expansion(&net, &snapshot, SegmentId(0), &req, &mut rng).unwrap();
        assert!(snapshot.users_in(out.segments.iter().copied()) >= 10);
        assert!(out.segments.len() >= 4);
        assert!(out.segments.contains(&SegmentId(0)));
        assert_eq!(out.steps as usize + 1, out.segments.len());
    }

    #[test]
    fn region_is_connected() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let req = LevelRequirement::with_k(15);
        let mut rng = StdRng::seed_from_u64(2);
        let out = random_expansion(&net, &snapshot, SegmentId(17), &req, &mut rng).unwrap();
        assert!(net.segments_connected(&out.segments));
    }

    #[test]
    fn different_rng_different_regions() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let req = LevelRequirement::with_k(12);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(4);
        let a = random_expansion(&net, &snapshot, SegmentId(17), &req, &mut r1).unwrap();
        let b = random_expansion(&net, &snapshot, SegmentId(17), &req, &mut r2).unwrap();
        assert_ne!(a.segments, b.segments);
    }

    #[test]
    fn impossible_requirements_fail() {
        let net = grid_city(3, 3, 100.0);
        // Only 12 users exist but k = 100.
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let req = LevelRequirement::with_k(100);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            random_expansion(&net, &snapshot, SegmentId(0), &req, &mut rng),
            Err(CloakError::CloakingFailed { .. })
        ));
        // Tolerance too tight.
        let req = LevelRequirement::with_k(10).tolerance(SpatialTolerance::TotalLength(150.0));
        assert!(matches!(
            random_expansion(&net, &snapshot, SegmentId(0), &req, &mut rng),
            Err(CloakError::CloakingFailed { .. })
        ));
    }

    #[test]
    fn pooled_expansion_is_bit_identical_to_allocating() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
        let req = LevelRequirement::with_k(12).l(4);
        let mut scratch = ExpansionScratch::new();
        for seed in 0..20u64 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let allocating = random_expansion(&net, &snapshot, SegmentId(17), &req, &mut r1);
            let pooled =
                random_expansion_with(&net, &snapshot, SegmentId(17), &req, &mut r2, &mut scratch);
            assert_eq!(allocating, pooled, "seed {seed}");
        }
    }

    /// Pins the incremental users/frontier maintenance to a per-step
    /// full recomputation: same frontier (contents *and* order, so the
    /// same RNG draw sequence), same pick, same stop condition.
    #[test]
    fn incremental_walk_matches_full_recompute() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 2);
        let req = LevelRequirement::with_k(14).l(4);
        for seed in 0..20u64 {
            let start = SegmentId((seed as u32 * 13) % net.segment_count() as u32);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let mut region = RegionState::new(&net);
            region.insert(&net, start);
            let mut steps = 0u32;
            let reference = loop {
                if region.users(&snapshot) >= req.k as u64 && region.len() >= req.l as usize {
                    break Some(region.to_sorted_ids());
                }
                let admissible: Vec<SegmentId> = crate::frontier::candidates(&net, &region)
                    .into_iter()
                    .filter(|&c| {
                        req.tolerance.allows_extended(
                            &net,
                            region.total_length(),
                            region.bounding_box(),
                            c,
                        )
                    })
                    .collect();
                if admissible.is_empty() {
                    break None;
                }
                let pick = admissible[reference_rng.gen_range(0..admissible.len())];
                region.insert(&net, pick);
                steps += 1;
            };
            let fast = random_expansion(
                &net,
                &snapshot,
                start,
                &req,
                &mut StdRng::seed_from_u64(seed),
            );
            match (reference, fast) {
                (Some(segments), Ok(out)) => {
                    assert_eq!(segments, out.segments, "seed {seed}");
                    assert_eq!(steps, out.steps, "seed {seed}");
                }
                (None, Err(_)) => {}
                (r, f) => panic!("seed {seed}: reference {r:?} vs incremental {f:?}"),
            }
        }
    }

    #[test]
    fn replay_matcher_agrees_with_full_replay() {
        let net = grid_city(6, 6, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let req = LevelRequirement::with_k(10);
        let seed = 0xfeedu64;
        let observed = random_expansion(
            &net,
            &snapshot,
            SegmentId(20),
            &req,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
        .segments;
        let mut scratch = ExpansionScratch::new();
        scratch.set_replay_target(&net, &observed);
        // Every candidate seed across the whole network, matching and
        // not, agrees with the brute-force replay — including seeds
        // whose walks dead-end (grid corners under tight tolerance).
        for s in net.segment_ids() {
            let brute =
                random_expansion(&net, &snapshot, s, &req, &mut StdRng::seed_from_u64(seed))
                    .map(|out| out.segments == observed)
                    .unwrap_or(false);
            let fast = replay_expansion_matches(
                &net,
                &snapshot,
                s,
                &req,
                &mut StdRng::seed_from_u64(seed),
                &mut scratch,
            );
            assert_eq!(brute, fast, "seed segment {s}");
        }
        // The true seed replays to a match.
        assert!(replay_expansion_matches(
            &net,
            &snapshot,
            SegmentId(20),
            &req,
            &mut StdRng::seed_from_u64(seed),
            &mut scratch,
        ));
    }

    #[test]
    fn unknown_segment_fails() {
        let net = grid_city(3, 3, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let req = LevelRequirement::with_k(2);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(
            random_expansion(&net, &snapshot, SegmentId(777), &req, &mut rng).unwrap_err(),
            CloakError::UnknownSegment(SegmentId(777))
        );
    }
}
