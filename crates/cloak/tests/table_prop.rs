//! Algebraic property tests of the RGE transition table — the structure
//! the paper's no-collision argument rests on.

use cloak::TableView;
use proptest::prelude::*;
use roadnet::SegmentId;

/// Row and column lists for an `m × n` table (rows `s0..`, columns
/// `s1000..`).
fn lists(m: usize, n: usize) -> (Vec<SegmentId>, Vec<SegmentId>) {
    (
        (0..m as u32).map(SegmentId).collect(),
        (1000..1000 + n as u32).map(SegmentId).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_row_is_a_complete_residue_system(m in 1usize..40, n in 1usize..40) {
        let (rows, cols) = lists(m, n);
        let t = TableView::new(&rows, &cols);
        for i in 0..m {
            let mut seen = vec![false; n];
            for j in 0..n {
                let v = t.value(i, j);
                prop_assert!(v < n);
                prop_assert!(!seen[v], "duplicate value {} in row {}", v, i);
                seen[v] = true;
            }
        }
    }

    #[test]
    fn columns_have_distinct_values_within_each_band(m in 1usize..40, n in 1usize..40) {
        let (rows, cols) = lists(m, n);
        let t = TableView::new(&rows, &cols);
        for j in 0..n {
            // Within a quotient band (n consecutive rows) column values
            // are pairwise distinct — the no-collision property the
            // backward walk relies on.
            for band_start in (0..m).step_by(n) {
                let mut seen = std::collections::HashSet::new();
                for i in band_start..(band_start + n).min(m) {
                    prop_assert!(seen.insert(t.value(i, j)));
                }
            }
        }
    }

    #[test]
    fn forward_then_backward_is_identity(m in 1usize..40, n in 1usize..40) {
        let (rows, cols) = lists(m, n);
        let t = TableView::new(&rows, &cols);
        for i in 0..m {
            for pick in 0..n {
                let j = t.forward_col(i, pick);
                prop_assert_eq!(t.value(i, j), pick, "cell value must equal the pick");
                let back = t.backward_row(j, pick, i / n);
                prop_assert_eq!(back, Some(i));
            }
        }
    }

    #[test]
    fn backward_rejects_rows_outside_the_table(m in 1usize..20, n in 1usize..20) {
        let (rows, cols) = lists(m, n);
        let t = TableView::new(&rows, &cols);
        let oob_hint = m.div_ceil(n); // one band past the last
        for j in 0..n {
            for pick in 0..n {
                prop_assert_eq!(t.backward_row(j, pick, oob_hint), None);
            }
        }
    }

    #[test]
    fn forward_is_injective_per_pick_within_band(m in 2usize..40, n in 2usize..40) {
        let (rows, cols) = lists(m, n);
        let t = TableView::new(&rows, &cols);
        for pick in 0..n {
            for band_start in (0..m).step_by(n) {
                let mut seen = std::collections::HashSet::new();
                for i in band_start..(band_start + n).min(m) {
                    prop_assert!(
                        seen.insert(t.forward_col(i, pick)),
                        "two rows of one band map pick {} to the same column",
                        pick
                    );
                }
            }
        }
    }

    #[test]
    fn hint_modulus_covers_all_rows(m in 1usize..60, n in 1usize..60) {
        let (rows, cols) = lists(m, n);
        let t = TableView::new(&rows, &cols);
        prop_assert!(t.hint_modulus() * n >= m);
        prop_assert!((t.hint_modulus() - 1) * n < m || t.hint_modulus() == 1);
        prop_assert_eq!(t.needs_hint(), m > n);
    }
}
