//! Helpers shared by the integration suites.

use daisy::storage::{ColumnSnapshot, Table};

/// Asserts that `snap` is current for `table` and holds, cell for cell,
/// what a fresh [`ColumnSnapshot::build`] of `table` holds.
pub fn assert_matches_fresh_build(snap: &ColumnSnapshot, table: &Table) {
    let fresh = ColumnSnapshot::build(table).unwrap();
    assert!(snap.is_current(table));
    assert_eq!(snap.len(), fresh.len());
    for row in 0..fresh.len() {
        for col in 0..fresh.column_count() {
            assert_eq!(
                snap.value(row, col),
                fresh.value(row, col),
                "({row}, {col})"
            );
            assert_eq!(
                snap.candidate_values(row, col),
                fresh.candidate_values(row, col),
                "({row}, {col})"
            );
        }
    }
}
