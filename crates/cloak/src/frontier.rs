//! The candidate frontier `CanA`: segments adjacent to the cloaking region
//! but not inside it.

use crate::region::RegionState;
use crate::scratch::StampSet;
use roadnet::{RoadNetwork, SegmentId};

/// Computes `CanA` for the current region: every segment sharing a
/// junction with a member, excluding members, sorted by `(length, id)` —
/// the column order of the RGE transition table ("the shortest segments
/// are mapped to the 1st … column").
pub fn candidates(net: &RoadNetwork, region: &RegionState) -> Vec<SegmentId> {
    let mut out = Vec::new();
    candidates_into(net, region, &mut StampSet::default(), &mut out);
    out
}

/// Like [`candidates`], writing into caller-owned buffers (both cleared
/// first) — the zero-allocation path engine steps use. `stamp` dedups
/// the frontier without a per-call membership vector.
pub fn candidates_into(
    net: &RoadNetwork,
    region: &RegionState,
    stamp: &mut StampSet,
    out: &mut Vec<SegmentId>,
) {
    out.clear();
    stamp.begin(net.segment_count());
    for s in region.iter_ids() {
        for &n in net.neighbor_segments_csr(s) {
            if !region.contains(n) && stamp.insert(n.index()) {
                out.push(n);
            }
        }
    }
    sort_by_length(net, out);
}

/// Sorts segments by `(length, id)` in place.
pub fn sort_by_length(net: &RoadNetwork, ids: &mut [SegmentId]) {
    ids.sort_by(|&a, &b| {
        net.segment(a)
            .length()
            .total_cmp(&net.segment(b).length())
            .then(a.cmp(&b))
    });
}

/// Inserts `s` into a `(length, id)`-sorted list at its place. The
/// order is strict (ties broken by id), so the list equals a full
/// re-sort of its members.
pub(crate) fn insert_sorted(net: &RoadNetwork, sorted: &mut Vec<SegmentId>, s: SegmentId) {
    let key = net.segment(s).length();
    let at = sorted
        .binary_search_by(|&m| net.segment(m).length().total_cmp(&key).then(m.cmp(&s)))
        .unwrap_or_else(|e| e);
    sorted.insert(at, s);
}

/// Removes `s` from a `(length, id)`-sorted list if it is there.
pub(crate) fn remove_sorted(net: &RoadNetwork, sorted: &mut Vec<SegmentId>, s: SegmentId) {
    if let Some(at) = position_in_sorted(net, sorted, s) {
        sorted.remove(at);
    }
}

/// Index of `target` in a `(length, id)`-sorted list, or `None`.
pub fn position_in_sorted(
    net: &RoadNetwork,
    sorted: &[SegmentId],
    target: SegmentId,
) -> Option<usize> {
    let key = (net.segment(target).length(), target);
    sorted
        .binary_search_by(|&s| {
            net.segment(s)
                .length()
                .total_cmp(&key.0)
                .then(s.cmp(&key.1))
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::grid_city;

    #[test]
    fn frontier_of_single_segment_is_its_neighbors() {
        let net = grid_city(3, 3, 100.0);
        let region = RegionState::from_segments(&net, [SegmentId(0)]);
        let mut expect = net.neighbor_segments(SegmentId(0));
        sort_by_length(&net, &mut expect);
        assert_eq!(candidates(&net, &region), expect);
    }

    #[test]
    fn frontier_excludes_members_and_has_no_dups() {
        let net = grid_city(4, 4, 100.0);
        let members = [SegmentId(0), SegmentId(1), SegmentId(2)];
        let region = RegionState::from_segments(&net, members);
        let f = candidates(&net, &region);
        for m in members {
            assert!(!f.contains(&m));
        }
        let mut d = f.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), f.len());
        // Every candidate is adjacent to some member.
        for c in &f {
            assert!(
                members.iter().any(|&m| net.segments_adjacent(m, *c)),
                "candidate {c} not adjacent to region"
            );
        }
    }

    #[test]
    fn frontier_of_empty_region_is_empty() {
        let net = grid_city(3, 3, 100.0);
        let region = RegionState::new(&net);
        assert!(candidates(&net, &region).is_empty());
    }

    #[test]
    fn frontier_of_full_network_is_empty() {
        let net = grid_city(3, 3, 100.0);
        let region = RegionState::from_segments(&net, net.segment_ids());
        assert!(candidates(&net, &region).is_empty());
    }

    #[test]
    fn position_in_sorted_finds_all() {
        let net = grid_city(4, 4, 100.0);
        let region = RegionState::from_segments(&net, [SegmentId(5)]);
        let f = candidates(&net, &region);
        for (i, &s) in f.iter().enumerate() {
            assert_eq!(position_in_sorted(&net, &f, s), Some(i));
        }
        assert_eq!(position_in_sorted(&net, &f, SegmentId(5)), None);
    }

    #[test]
    fn sorted_order_is_deterministic() {
        let net = grid_city(5, 5, 100.0);
        let region = RegionState::from_segments(&net, [SegmentId(10), SegmentId(11)]);
        assert_eq!(candidates(&net, &region), candidates(&net, &region));
    }
}
