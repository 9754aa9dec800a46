//! The trip router's priority queue: a radix heap (Ahuja, Mehlhorn,
//! Orlin and Tarjan, "Faster algorithms for the shortest path problem",
//! JACM 1990) over `(key, junction)` entries that pops them in exactly
//! the order `BinaryHeap<Reverse<(u64, u32)>>` does, for any sequence of
//! pushes and pops.
//!
//! Entries are filed by their key against `last`, the key the heap last
//! moved to:
//!
//! * bucket 0 holds every entry keyed at or below `last`;
//! * bucket `i ≥ 1` holds entries keyed above `last` whose highest bit
//!   that differs from `last` is bit `i − 1`.
//!
//! Every key in bucket `i` is below every key in bucket `j > i`: both
//! agree with `last` above bit `j − 1`, where the key in `j` has a 1 and
//! the key in `i` a 0. So the least entry is in bucket 0 when that is
//! not empty, and otherwise in the lowest non-empty bucket. A pop with
//! bucket 0 empty moves `last` up to that bucket's least key and files
//! its entries again: each lands in a lower bucket, the least ones in
//! bucket 0, and no other bucket's entries change bucket, since the new
//! `last` agrees with the old one from that bucket's bit up. Bucket 0
//! then pops its least `(key, junction)`, which is the least entry of
//! the heap, as in the binary heap.
//!
//! A goal-directed search pushes keys that rise almost monotonically
//! (a key below the last pop can only come from float rounding), so an
//! entry is filed again at most 64 times and most pops scan a bucket 0
//! of a few tied entries. A bitmask of the buckets in use lets
//! [`clear`](RadixHeap::clear) and the search for the lowest bucket
//! touch only those.

/// Buckets 0 to 64 (see the module docs).
const BUCKETS: usize = 65;

/// A min-queue of `(key, junction)` entries; see the module docs.
pub(super) struct RadixHeap {
    buckets: [Vec<(u64, u32)>; BUCKETS],
    /// Bit `i` is set when bucket `i` may hold entries.
    used: u128,
    last: u64,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            used: 0,
            last: 0,
        }
    }
}

impl RadixHeap {
    /// Empties the heap, keeping every bucket's capacity.
    pub(super) fn clear(&mut self) {
        let mut used = self.used;
        while used != 0 {
            self.buckets[used.trailing_zeros() as usize].clear();
            used &= used - 1;
        }
        self.used = 0;
        self.last = 0;
    }

    /// Adds an entry.
    pub(super) fn push(&mut self, key: u64, junction: u32) {
        let b = self.bucket(key);
        self.buckets[b].push((key, junction));
        self.used |= 1u128 << b;
    }

    /// Removes and returns the least `(key, junction)`, as
    /// `BinaryHeap<Reverse<(u64, u32)>>::pop` would.
    pub(super) fn pop(&mut self) -> Option<(u64, u32)> {
        if self.buckets[0].is_empty() {
            let above = self.used & !1;
            if above == 0 {
                return None;
            }
            let i = above.trailing_zeros() as usize;
            let mut moved = std::mem::take(&mut self.buckets[i]);
            self.used &= !(1u128 << i);
            self.last = moved
                .iter()
                .map(|&(key, _)| key)
                .min()
                .expect("used bucket");
            for &(key, junction) in &moved {
                self.push(key, junction);
            }
            moved.clear();
            self.buckets[i] = moved;
        }
        let low = &mut self.buckets[0];
        let (at, _) = low
            .iter()
            .enumerate()
            .min_by_key(|&(_, &entry)| entry)
            .expect("bucket 0 holds the least entry");
        let entry = low.swap_remove(at);
        if low.is_empty() {
            self.used &= !1;
        }
        Some(entry)
    }

    fn bucket(&self, key: u64) -> usize {
        if key <= self.last {
            0
        } else {
            64 - (key ^ self.last).leading_zeros() as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A key for the next push: mostly just above the last pop, as a
    /// search pushes them, with tied keys, keys below the last pop,
    /// float bits and the extremes mixed in.
    fn next_key(rng: &mut u64, last_pop: u64) -> u64 {
        match splitmix(rng) % 8 {
            0 => last_pop,
            1 => last_pop.saturating_sub(splitmix(rng) % 4),
            2 => splitmix(rng) % 16,
            3 => ((splitmix(rng) % 1_000_000) as f64).to_bits(),
            4 => [0, 1, u64::MAX - 1, u64::MAX][(splitmix(rng) % 4) as usize],
            5 => splitmix(rng),
            _ => last_pop.saturating_add(splitmix(rng) % 64),
        }
    }

    /// Random push/pop sequences (clears included) pop in the binary
    /// heap's order.
    fn pops_like_the_binary_heap(seed: u64) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let mut radix = RadixHeap::default();
        let mut binary = BinaryHeap::new();
        let mut last_pop = 0u64;
        for _ in 0..400 {
            match splitmix(&mut rng) % 16 {
                0..=7 => {
                    let key = next_key(&mut rng, last_pop);
                    let junction = (splitmix(&mut rng) % 8) as u32;
                    radix.push(key, junction);
                    binary.push(Reverse((key, junction)));
                }
                8..=14 => {
                    let want = binary.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(radix.pop(), want);
                    if let Some((key, _)) = want {
                        last_pop = key;
                    }
                }
                _ => {
                    radix.clear();
                    binary.clear();
                    last_pop = 0;
                }
            }
        }
        while let Some(Reverse(want)) = binary.pop() {
            prop_assert_eq!(radix.pop(), Some(want));
        }
        prop_assert_eq!(radix.pop(), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn radix_heap_pops_in_binary_heap_order(seed in any::<u64>()) {
            pops_like_the_binary_heap(seed)?;
        }
    }

    #[test]
    fn keys_below_the_last_pop_come_out_first() {
        let mut heap = RadixHeap::default();
        heap.push(10, 3);
        heap.push(20, 1);
        assert_eq!(heap.pop(), Some((10, 3)));
        heap.push(7, 9);
        heap.push(10, 2);
        heap.push(7, 4);
        assert_eq!(heap.pop(), Some((7, 4)));
        assert_eq!(heap.pop(), Some((7, 9)));
        assert_eq!(heap.pop(), Some((10, 2)));
        assert_eq!(heap.pop(), Some((20, 1)));
        assert_eq!(heap.pop(), None);
        heap.push(u64::MAX, 0);
        heap.clear();
        assert_eq!(heap.pop(), None);
    }
}
