//! Helpers shared by the integration suites.

use std::collections::HashSet;

use daisy::common::Schema;
use daisy::core::index::canonicalize_violations;
use daisy::core::theta::ThetaMatrix;
use daisy::expr::Violation;
use daisy::storage::Tuple;

/// Brute-force oracle of one matrix check: every pair of tuples drawn from
/// a block pair reachable from `rows` that is not yet in `checked` and
/// survives the matrix's pruning, evaluated in both orientations.  Marks the
/// pairs it visits in `checked`, as the matrix marks its own.
pub fn matrix_check_oracle(
    matrix: &ThetaMatrix,
    schema: &Schema,
    tuples: &[Tuple],
    rows: &[usize],
    checked: &mut HashSet<(usize, usize)>,
) -> Vec<Violation> {
    let dc = &matrix.constraint;
    let mut found = Vec::new();
    for &row in rows {
        for col in 0..matrix.block_count() {
            let (a, b) = (row.min(col), row.max(col));
            if !checked.insert((a, b)) || !matrix.blocks_can_violate(a, b) {
                continue;
            }
            for &i in &matrix.blocks[a].members {
                for &j in &matrix.blocks[b].members {
                    for (x, y) in [(&tuples[i], &tuples[j]), (&tuples[j], &tuples[i])] {
                        if x.id != y.id && dc.violated_by(schema, &[x, y]).unwrap() {
                            found.push(Violation::pair(dc.id, x.id, y.id));
                        }
                    }
                }
            }
        }
    }
    canonicalize_violations(found)
}
