//! Exact counts of the key stream's work, per thread.
//!
//! Every ChaCha permutation the crate runs is counted as it runs:
//! absorbing permutations (a key and context entering the sponge) apart
//! from squeezing ones (the counter-mode block function), and every tag
//! computed. The counters are plain thread-local cells, so counting costs
//! an add on a line no other thread touches, and a count taken around
//! single-threaded work is exact at any seed on any machine.
//!
//! ```
//! use keystream::{work, DrawStream, Key256};
//! let before = work::counts();
//! let mut stream = DrawStream::new(Key256::from_seed(1), b"ctx");
//! stream.next_u64();
//! let spent = work::counts().since(before);
//! assert_eq!((spent.absorbing, spent.squeezing), (1, 1));
//! ```

use std::cell::Cell;

thread_local! {
    static ABSORBING: Cell<u64> = const { Cell::new(0) };
    static SQUEEZING: Cell<u64> = const { Cell::new(0) };
    static TAGS: Cell<u64> = const { Cell::new(0) };
}

/// The key stream's work on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Permutations that absorbed a key, a context or a message.
    pub absorbing: u64,
    /// Permutations of the block function, each squeezing 64 bytes.
    pub squeezing: u64,
    /// Tags computed.
    pub tags: u64,
}

impl WorkCounts {
    /// All permutations, absorbing and squeezing.
    pub fn permutations(&self) -> u64 {
        self.absorbing + self.squeezing
    }

    /// The work done between `earlier` and `self`, two reads of one
    /// thread's counters.
    pub fn since(self, earlier: WorkCounts) -> WorkCounts {
        WorkCounts {
            absorbing: self.absorbing - earlier.absorbing,
            squeezing: self.squeezing - earlier.squeezing,
            tags: self.tags - earlier.tags,
        }
    }
}

/// The calling thread's counts since it started.
pub fn counts() -> WorkCounts {
    WorkCounts {
        absorbing: ABSORBING.with(Cell::get),
        squeezing: SQUEEZING.with(Cell::get),
        tags: TAGS.with(Cell::get),
    }
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>) {
    cell.with(|c| c.set(c.get() + 1));
}

/// Counts one absorbing permutation.
pub(crate) fn absorbed() {
    bump(&ABSORBING);
}

/// Counts one block-function permutation.
pub(crate) fn squeezed() {
    bump(&SQUEEZING);
}

/// Counts one tag.
pub(crate) fn tagged() {
    bump(&TAGS);
}
