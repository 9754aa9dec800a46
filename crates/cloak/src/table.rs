//! The RGE transition table (paper Figure 2).
//!
//! Rows are the cloaking region `CloakA` and columns the candidate
//! frontier `CanA`, both sorted by segment length (shortest first, ties by
//! id). Cell `(i, j)` holds the transition value `(i + j) mod |CanA|`
//! (0-based; the paper's `((i−1)+(j−1)) mod |CanA|` in 1-based indexing).
//!
//! * Every **row** is a complete residue system mod `|CanA|`, so a forward
//!   transition exists for every pick value.
//! * Every **column** has pairwise-distinct values whenever
//!   `|CloakA| ≤ |CanA|`, so the backward transition is unambiguous —
//!   "thus no collisions" (paper §III).
//! * When `|CloakA| > |CanA|` a column value repeats every `|CanA|` rows;
//!   the engine disambiguates with an encrypted per-step *quotient hint*
//!   (DESIGN.md §3.3) carried in the payload.

use crate::frontier::position_in_sorted;
use roadnet::{RoadNetwork, SegmentId};
use std::fmt;

/// A transition table for one expansion step, borrowed over row and
/// column slices the caller owns (engine scratch buffers), so building a
/// per-step table costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableView<'a> {
    rows: &'a [SegmentId],
    cols: &'a [SegmentId],
}

impl<'a> TableView<'a> {
    /// Wraps *already `(length, id)`-sorted* row and column lists.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty.
    pub fn new(rows: &'a [SegmentId], cols: &'a [SegmentId]) -> Self {
        assert!(!rows.is_empty(), "transition table needs at least one row");
        assert!(
            !cols.is_empty(),
            "transition table needs at least one column"
        );
        TableView { rows, cols }
    }

    /// Row segments (the cloaking region, shortest first).
    pub fn rows(&self) -> &'a [SegmentId] {
        self.rows
    }

    /// Column segments (the frontier, shortest first).
    pub fn cols(&self) -> &'a [SegmentId] {
        self.cols
    }

    /// `|CloakA|`.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// `|CanA|`.
    pub fn col_count(&self) -> usize {
        self.cols.len()
    }

    /// The transition value in cell `(i, j)` (0-based).
    pub fn value(&self, i: usize, j: usize) -> usize {
        (i + j) % self.cols.len()
    }

    /// The quotient-hint modulus: how many row "bands" share each residue.
    /// 1 when `|CloakA| ≤ |CanA|` (no hint needed).
    pub fn hint_modulus(&self) -> usize {
        self.rows.len().div_ceil(self.cols.len()).max(1)
    }

    /// Whether backward lookups need a quotient hint.
    pub fn needs_hint(&self) -> bool {
        self.rows.len() > self.cols.len()
    }

    /// Forward transition: from row `i`, the unique column whose cell
    /// value equals `pick`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `pick ≥ |CanA|`.
    pub fn forward_col(&self, i: usize, pick: usize) -> usize {
        let n = self.cols.len();
        assert!(i < self.rows.len(), "row out of range");
        assert!(pick < n, "pick out of range");
        (pick + n - (i % n)) % n
    }

    /// Backward transition: from column `j` and `pick`, the unique row in
    /// band `hint` whose cell value equals `pick` — `None` when that row
    /// index falls outside the table (the draw cannot have produced this
    /// column).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `pick ≥ |CanA|`.
    pub fn backward_row(&self, j: usize, pick: usize, hint: usize) -> Option<usize> {
        let n = self.cols.len();
        assert!(j < n, "column out of range");
        assert!(pick < n, "pick out of range");
        let base = (pick + n - j) % n;
        let i = hint * n + base;
        (i < self.rows.len()).then_some(i)
    }

    /// The row index of segment `s`, if present.
    pub fn row_of(&self, net: &RoadNetwork, s: SegmentId) -> Option<usize> {
        position_in_sorted(net, self.rows, s)
    }

    /// The column index of segment `s`, if present.
    pub fn col_of(&self, net: &RoadNetwork, s: SegmentId) -> Option<usize> {
        position_in_sorted(net, self.cols, s)
    }

    /// Renders the table like paper Figure 2 (rows/columns labelled with
    /// segment ids, cells holding transition values).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("        ");
        for c in self.cols {
            out.push_str(&format!("{:>6}", c.to_string()));
        }
        out.push('\n');
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!("{:>6} |", r.to_string()));
            for j in 0..self.cols.len() {
                out.push_str(&format!("{:>6}", self.value(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TableView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row and column lists for an `m × n` table (rows `s0..`, columns
    /// `s100..`).
    fn lists(m: usize, n: usize) -> (Vec<SegmentId>, Vec<SegmentId>) {
        (
            (0..m as u32).map(SegmentId).collect(),
            (100..100 + n as u32).map(SegmentId).collect(),
        )
    }

    #[test]
    fn paper_figure2_values() {
        // 3×3 table: cell (i,j) = (i + j) mod 3 (0-based), matching the
        // paper's ((i−1)+(j−1)) mod |CanA| in 1-based indexing.
        let (rows, cols) = lists(3, 3);
        let t = TableView::new(&rows, &cols);
        let expect = [[0, 1, 2], [1, 2, 0], [2, 0, 1]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(t.value(i, j), v);
            }
        }
    }

    #[test]
    fn paper_figure2_walkthrough() {
        // CloakA = {s8, s9, s11}, CanA = {s6, s10, s14}; last added s8 is
        // row 1 (0-based row index 1 in the paper's ordering by length —
        // here we emulate with explicit lists), R = 5 ⇒ pick = 5 mod 3 = 2.
        let rows = [SegmentId(9), SegmentId(8), SegmentId(11)];
        let cols = [SegmentId(6), SegmentId(14), SegmentId(10)];
        let t = TableView::new(&rows, &cols);
        let pick = 5 % t.col_count();
        // Forward: row of s8 (index 1) → column with value 2 is (2,2)'s
        // row-1 cell: j = (2 + 3 - 1) % 3 = 1 → s14. Transition s8 → s14.
        let j = t.forward_col(1, pick);
        assert_eq!(t.cols()[j], SegmentId(14));
        assert_eq!(t.value(1, j), pick);
        // Backward: column of s14 (index 1) + pick 2 → row 1 = s8.
        let i = t.backward_row(1, pick, 0).unwrap();
        assert_eq!(t.rows()[i], SegmentId(8));
    }

    #[test]
    fn rows_are_complete_residue_systems() {
        for (m, n) in [(1, 1), (3, 5), (5, 3), (7, 7), (10, 4)] {
            let (rows, cols) = lists(m, n);
            let t = TableView::new(&rows, &cols);
            for i in 0..m {
                let mut seen = vec![false; n];
                for j in 0..n {
                    seen[t.value(i, j)] = true;
                }
                assert!(seen.iter().all(|&v| v), "row {i} of {m}x{n} incomplete");
            }
        }
    }

    #[test]
    fn columns_unique_when_cloak_not_larger() {
        for (m, n) in [(3, 3), (3, 5), (6, 9)] {
            let (rows, cols) = lists(m, n);
            let t = TableView::new(&rows, &cols);
            assert!(!t.needs_hint());
            for j in 0..n {
                let mut seen = std::collections::HashSet::new();
                for i in 0..m {
                    assert!(seen.insert(t.value(i, j)), "dup in column {j} of {m}x{n}");
                }
            }
        }
    }

    #[test]
    fn forward_backward_are_inverse() {
        for (m, n) in [(1, 1), (3, 3), (2, 7), (9, 4), (12, 5)] {
            let (rows, cols) = lists(m, n);
            let t = TableView::new(&rows, &cols);
            for i in 0..m {
                for pick in 0..n {
                    let j = t.forward_col(i, pick);
                    assert_eq!(t.value(i, j), pick);
                    let hint = i / n;
                    let back = t.backward_row(j, pick, hint).unwrap();
                    assert_eq!(back, i, "roundtrip failed for {m}x{n} i={i} pick={pick}");
                }
            }
        }
    }

    #[test]
    fn backward_row_rejects_out_of_band() {
        let (rows, cols) = lists(3, 5);
        let t = TableView::new(&rows, &cols);
        // hint 1 would address rows 5..9 which do not exist.
        for j in 0..5 {
            for pick in 0..5 {
                let r = t.backward_row(j, pick, 1);
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn hint_modulus() {
        let modulus = |m, n| {
            let (rows, cols) = lists(m, n);
            let t = TableView::new(&rows, &cols);
            (t.hint_modulus(), t.needs_hint())
        };
        assert_eq!(modulus(3, 5), (1, false));
        assert_eq!(modulus(5, 5), (1, false));
        assert_eq!(modulus(6, 5), (2, true));
        assert_eq!(modulus(11, 5), (3, true));
    }

    #[test]
    fn row_col_lookup_by_segment() {
        use roadnet::grid_city;
        let net = grid_city(3, 3, 100.0);
        let rows = [SegmentId(0), SegmentId(1)];
        let cols = [SegmentId(2), SegmentId(3), SegmentId(4)];
        let t = TableView::new(&rows, &cols);
        assert_eq!(t.row_of(&net, SegmentId(1)), Some(1));
        assert_eq!(t.col_of(&net, SegmentId(4)), Some(2));
        assert_eq!(t.row_of(&net, SegmentId(4)), None);
        assert_eq!(t.col_of(&net, SegmentId(0)), None);
    }

    #[test]
    fn render_contains_labels_and_values() {
        let (rows, cols) = lists(2, 3);
        let t = TableView::new(&rows, &cols);
        let s = t.render();
        assert!(s.contains("s0"));
        assert!(s.contains("s102"));
        assert_eq!(s, t.to_string());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_rows_panic() {
        let _ = TableView::new(&[], &[SegmentId(0)]);
    }

    #[test]
    #[should_panic(expected = "pick out of range")]
    fn bad_pick_panics() {
        let (rows, cols) = lists(2, 3);
        TableView::new(&rows, &cols).forward_col(0, 3);
    }
}
