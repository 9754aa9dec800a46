//! Map partitions for sharded pipelines: city-scale anonymization by
//! road-network partition.
//!
//! [`Partition::grow`] splits the map into N connected parts (seeded BFS
//! growth, quality measured by [`PartitionQuality`]), and
//! [`ContinuousPipeline`] gives each part a shard: the owners currently
//! driving inside it and a snapshot masked to it. One service serves
//! every shard; an owner whose car crosses a part boundary switches
//! shard at the next tick boundary, and every tick stage runs shard by
//! shard; see the `pipeline` module docs. Unsharded, the partition has
//! one part.
//!
//! [`ShardedPipeline`] is the N-shard constructor of that one engine,
//! kept for callers that name the sharded pipeline by type (the
//! `perfbench` package and the `city_scale` bench).

use crate::config::AnonymizerConfig;
use crate::pipeline::{ContinuousPipeline, PipelineConfig};
use keystream::MemStore;
use mobisim::SimConfig;
use roadnet::{RoadNetwork, SegmentId};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// A disjoint cover of a road network's segments by N connected parts.
///
/// Built by [`Partition::grow`]; consumed by [`ContinuousPipeline`] to
/// route each owner to the shard owning the segment their car is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    /// `shard_of[s]` = owning shard of segment `s`.
    shard_of: Vec<u32>,
    /// Per-shard member lists, each sorted ascending.
    members: Vec<Vec<SegmentId>>,
}

impl Partition {
    /// Partitions `net` into `shards` parts by seeded balanced BFS
    /// growth: seed segments are picked farthest-point-first (the first
    /// by the seed, each next maximizing its hop distance to all
    /// previous), then the parts grow breadth-first in
    /// smallest-part-first order, so they stay connected and
    /// size-balanced. Segments unreachable from every seed (disconnected
    /// components) are flooded onto the currently smallest part
    /// component by component. Deterministic per `(net, shards, seed)`.
    ///
    /// `shards` is clamped to `[1, segment_count]`.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments.
    pub fn grow(net: &RoadNetwork, shards: usize, seed: u64) -> Partition {
        let n = net.segment_count();
        assert!(n > 0, "cannot partition an empty network");
        let shards = shards.clamp(1, n);
        let seeds = pick_seeds(net, shards, seed);

        let mut shard_of = vec![u32::MAX; n];
        let mut sizes = vec![0usize; shards];
        let mut frontiers: Vec<VecDeque<SegmentId>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        for (p, &s) in seeds.iter().enumerate() {
            shard_of[s.index()] = p as u32;
            sizes[p] += 1;
            frontiers[p].push_back(s);
        }
        // Balanced growth: each step, the smallest part with a live
        // frontier claims the unclaimed neighbors of its oldest frontier
        // segment. Every segment enters exactly one frontier once, so
        // the loop pops at most n times.
        while let Some(p) = (0..shards)
            .filter(|&p| !frontiers[p].is_empty())
            .min_by_key(|&p| (sizes[p], p))
        {
            let s = frontiers[p].pop_front().expect("frontier is non-empty");
            for &next in net.neighbor_segments_csr(s) {
                if shard_of[next.index()] == u32::MAX {
                    shard_of[next.index()] = p as u32;
                    sizes[p] += 1;
                    frontiers[p].push_back(next);
                }
            }
        }
        // Disconnected leftovers: flood each stray component onto the
        // smallest part so parts stay internally connected per component.
        let mut queue = VecDeque::new();
        for s in 0..n {
            if shard_of[s] != u32::MAX {
                continue;
            }
            let p = (0..shards)
                .min_by_key(|&p| (sizes[p], p))
                .expect("at least one shard");
            shard_of[s] = p as u32;
            sizes[p] += 1;
            queue.push_back(SegmentId(s as u32));
            while let Some(cur) = queue.pop_front() {
                for &next in net.neighbor_segments_csr(cur) {
                    if shard_of[next.index()] == u32::MAX {
                        shard_of[next.index()] = p as u32;
                        sizes[p] += 1;
                        queue.push_back(next);
                    }
                }
            }
        }

        let mut members: Vec<Vec<SegmentId>> = vec![Vec::new(); shards];
        for (s, &p) in shard_of.iter().enumerate() {
            members[p as usize].push(SegmentId(s as u32));
        }
        Partition {
            shards,
            shard_of,
            members,
        }
    }

    /// Number of parts.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The part owning segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the partitioned network.
    pub fn shard_of(&self, s: SegmentId) -> usize {
        self.shard_of[s.index()] as usize
    }

    /// The segments of part `p`, sorted ascending.
    pub fn members(&self, p: usize) -> &[SegmentId] {
        &self.members[p]
    }

    /// Measures the partition against the network it was grown on.
    pub fn quality(&self, net: &RoadNetwork) -> PartitionQuality {
        let n = net.segment_count();
        let ideal = n as f64 / self.shards as f64;
        let largest = self.members.iter().map(Vec::len).max().unwrap_or(0);
        let mut edges = 0u64;
        let mut cut = 0u64;
        for s in net.segment_ids() {
            for &t in net.neighbor_segments_csr(s) {
                if t.0 <= s.0 {
                    continue; // count each adjacency pair once
                }
                edges += 1;
                if self.shard_of[s.index()] != self.shard_of[t.index()] {
                    cut += 1;
                }
            }
        }
        let connected_parts = (0..self.shards)
            .filter(|&p| self.part_is_connected(net, p))
            .count();
        PartitionQuality {
            shards: self.shards,
            balance: if ideal > 0.0 {
                largest as f64 / ideal
            } else {
                1.0
            },
            cut_fraction: if edges > 0 {
                cut as f64 / edges as f64
            } else {
                0.0
            },
            connected_parts,
        }
    }

    /// Whether part `p` induces one connected subgraph per network
    /// component it touches. BFS growth guarantees this for connected
    /// networks; the leftover flood keeps it per stray component.
    fn part_is_connected(&self, net: &RoadNetwork, p: usize) -> bool {
        let members = &self.members[p];
        let Some(&start) = members.first() else {
            return true;
        };
        let mut seen: HashSet<SegmentId> = HashSet::new();
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(s) = queue.pop_front() {
            for &t in net.neighbor_segments_csr(s) {
                if self.shard_of[t.index()] as usize == p && seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen.len() == members.len()
    }
}

/// Farthest-point seed selection on hop distance: deterministic, spreads
/// the growth fronts so parts meet near the map's natural midlines.
fn pick_seeds(net: &RoadNetwork, shards: usize, seed: u64) -> Vec<SegmentId> {
    let n = net.segment_count();
    let first = SegmentId((crate::service::splitmix64(seed) % n as u64) as u32);
    let mut seeds = vec![first];
    // min hop distance from each segment to any chosen seed.
    let mut best = vec![u32::MAX; n];
    let mut frontier = Vec::new();
    let mut next = Vec::new();
    while seeds.len() < shards {
        // BFS from the newest seed, relaxing `best`.
        let newest = *seeds.last().expect("seeds is non-empty");
        frontier.clear();
        frontier.push(newest);
        best[newest.index()] = 0;
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            next.clear();
            for &s in &frontier {
                for &t in net.neighbor_segments_csr(s) {
                    if best[t.index()] > depth {
                        best[t.index()] = depth;
                        next.push(t);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // Farthest unclaimed segment, first-max-wins; unreachable
        // segments (u32::MAX) win outright, seeding stray components.
        let far = (0..n)
            .max_by_key(|&s| (best[s], usize::MAX - s))
            .expect("network has segments");
        if best[far] == 0 {
            // Fewer segments than shards left to distinguish: reuse is
            // impossible because shards <= n, so only a fully-claimed
            // map lands here; stop early and let growth rebalance.
            break;
        }
        seeds.push(SegmentId(far as u32));
    }
    seeds
}

/// Measured quality of a [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionQuality {
    /// Number of parts.
    pub shards: usize,
    /// Largest part size over the ideal `segments / shards` (1.0 is a
    /// perfect split; BFS growth typically stays under ~1.5).
    pub balance: f64,
    /// Fraction of segment-adjacency pairs crossing a part boundary —
    /// the handoff pressure: every tracked car crossing a cut edge moves
    /// its owner to another shard.
    pub cut_fraction: f64,
    /// Parts whose member set induces a connected subgraph.
    pub connected_parts: usize,
}

impl std::fmt::Display for PartitionQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shards, balance {:.2}, cut {:.1}%, {} connected",
            self.shards,
            self.balance,
            self.cut_fraction * 100.0,
            self.connected_parts,
        )
    }
}

/// A [`ContinuousPipeline`] over `shards` map partitions with an
/// in-memory chain store ([`ContinuousPipeline::sharded`]). It
/// dereferences to the pipeline, so [`tick`](ContinuousPipeline::tick),
/// [`run`](ContinuousPipeline::run) and every accessor are the one
/// engine's.
#[derive(Debug)]
pub struct ShardedPipeline(ContinuousPipeline);

impl ShardedPipeline {
    /// Builds the pipeline over `shards` partitions (clamped to
    /// `[1, segments]`), all journaling through one in-memory store.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments.
    pub fn new(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
        shards: usize,
    ) -> Self {
        let store = Arc::new(MemStore::new());
        ShardedPipeline(
            ContinuousPipeline::sharded(net, sim_cfg, anon_cfg, cfg, shards, store)
                .expect("an empty MemStore never fails to load"),
        )
    }
}

impl std::ops::Deref for ShardedPipeline {
    type Target = ContinuousPipeline;

    fn deref(&self) -> &ContinuousPipeline {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedPipeline {
    fn deref_mut(&mut self) -> &mut ContinuousPipeline {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystream::{Level, TrustDegree};
    use roadnet::{city_map, grid_city};

    #[test]
    fn partition_covers_connects_and_balances() {
        let net = city_map(3, 2000);
        for shards in [2usize, 4, 8] {
            let part = Partition::grow(&net, shards, 0xbeef);
            assert_eq!(part.shards(), shards);
            let mut covered = 0usize;
            for p in 0..shards {
                covered += part.members(p).len();
                for &s in part.members(p) {
                    assert_eq!(part.shard_of(s), p);
                }
            }
            assert_eq!(covered, net.segment_count(), "parts are a disjoint cover");
            let quality = part.quality(&net);
            assert_eq!(
                quality.connected_parts, shards,
                "BFS growth stays connected"
            );
            assert!(
                quality.balance < 1.8,
                "{shards} shards: balance {:.2}",
                quality.balance
            );
            assert!(
                quality.cut_fraction < 0.25,
                "{shards} shards: cut {:.2}",
                quality.cut_fraction
            );
            assert!(format!("{quality}").contains("shards"));
        }
    }

    #[test]
    fn partition_is_deterministic_per_seed() {
        let net = city_map(9, 1200);
        let a = Partition::grow(&net, 4, 7);
        let b = Partition::grow(&net, 4, 7);
        assert_eq!(a, b);
        let c = Partition::grow(&net, 4, 8);
        assert_ne!(a, c, "a different seed grows a different partition");
    }

    fn sharded(shards: usize, cfg: PipelineConfig) -> ShardedPipeline {
        ShardedPipeline::new(
            grid_city(8, 8, 100.0),
            SimConfig {
                cars: 400,
                seed: 23,
                ..Default::default()
            },
            AnonymizerConfig::default(),
            cfg,
            shards,
        )
    }

    #[test]
    fn sharded_ticks_issue_verify_and_hand_off() {
        let mut p = sharded(
            3,
            PipelineConfig {
                tracked_owners: 12,
                lbs_probes: 0,
                ..Default::default()
            },
        );
        assert_eq!(p.shard_count(), 3);
        let quality = p.partition().quality(p.service().network());
        assert_eq!(quality.connected_parts, 3);
        let reports = p.run(8).unwrap();
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.tick, i as u64 + 1);
            assert_eq!(r.issued + r.failed, 12);
            assert_eq!(r.verified, r.issued, "issued receipts all verify");
            assert_eq!(r.shard_digests.len(), 3);
        }
        // One service holds every owner's record, whatever its shard.
        assert_eq!(p.service().owner_count(), 12);
        assert!(
            p.handoffs_total() > 0,
            "8 ticks of driving crosses a partition boundary"
        );
        assert_eq!(p.ticks_run(), 8);
    }

    #[test]
    fn one_shard_runs_the_unsharded_pipeline() {
        // Byte-identical receipts: one part is the unsharded pipeline,
        // digest for digest, with the lone shard's digest as the tick's.
        let cfg = PipelineConfig {
            tracked_owners: 6,
            ..Default::default()
        };
        let mut sharded = sharded(1, cfg.clone());
        let mut plain = ContinuousPipeline::new(
            grid_city(8, 8, 100.0),
            SimConfig {
                cars: 400,
                seed: 23,
                ..Default::default()
            },
            AnonymizerConfig::default(),
            cfg,
        );
        let a = sharded.run(4).unwrap();
        let b = plain.run(4).unwrap();
        assert_eq!(a, b);
        for r in &a {
            assert_eq!(r.shard_digests, vec![r.digest]);
            assert_eq!(r.handoffs, 0);
        }
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.partition().shards(), 1);
        assert_eq!(sharded.handoffs_total(), 0);
    }

    #[test]
    fn handoff_keeps_epochs_monotone_and_grants_valid() {
        let mut p = sharded(
            4,
            PipelineConfig {
                tracked_owners: 10,
                ..Default::default()
            },
        );
        let owners: Vec<String> = (0..10).map(|i| format!("car-{i}")).collect();
        // First tick issues everyone's first receipt; then grant an
        // external requester on every owner.
        p.tick().unwrap();
        let service = p.service();
        for owner in &owners {
            assert!(service.register_requester(owner, "observer", TrustDegree(10), Level(0)));
        }
        let mut last_epoch: Vec<u64> = owners
            .iter()
            .map(|o| p.owner_epoch(o).expect("anonymized on tick 1"))
            .collect();
        let crossings_before_grant = p.handoffs_total();
        for _ in 0..10 {
            let report = p.tick().unwrap();
            assert_eq!(report.verified, report.issued);
            for (i, owner) in owners.iter().enumerate() {
                let epoch = p.owner_epoch(owner).expect("chain survives the crossing");
                assert!(
                    epoch > last_epoch[i],
                    "{owner}: epoch {epoch} did not advance past {} across \
                     a tick (a genesis reset would restart at 0)",
                    last_epoch[i]
                );
                last_epoch[i] = epoch;
                // The grant made before any crossing keeps working.
                let fetched = service.fetch_keys(owner, "observer");
                assert!(!fetched.unwrap().is_empty(), "{owner}: grant lost");
            }
        }
        assert!(
            p.handoffs_total() > crossings_before_grant,
            "10 ticks of driving never crossed a partition boundary"
        );
    }

    #[test]
    fn sharded_streams_are_deterministic() {
        let run = || {
            sharded(
                4,
                PipelineConfig {
                    tracked_owners: 10,
                    lbs_probes: 0,
                    ..Default::default()
                },
            )
            .run(5)
            .unwrap()
            .iter()
            .map(|r| (r.digest, r.shard_digests.clone(), r.handoffs))
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same config, same sharded stream");
    }
}
