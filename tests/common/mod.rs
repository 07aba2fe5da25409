//! Helpers shared by the integration suites.
//!
//! Each suite compiles this module on its own and uses a subset of it, so
//! the helpers a suite leaves unused are not dead code.
#![allow(dead_code)]

use std::collections::HashSet;

use daisy::common::Schema;
use daisy::core::index::canonicalize_violations;
use daisy::core::theta::ThetaMatrix;
use daisy::expr::{DenialConstraint, Operand, Violation};
use daisy::storage::Tuple;

/// Brute-force count of the candidate bindings the violation-index kernel
/// residual-checks — the reference for `pairs_compared` and for the pair
/// count of `detect_delta`: directed pairs of distinct positions whose
/// equality keys are equal and whose sweep predicate holds on non-NULL
/// values, among those `admit` accepts.
pub fn candidate_bindings(
    schema: &Schema,
    tuples: &[Tuple],
    dc: &DenialConstraint,
    admit: impl Fn(usize, usize) -> bool,
) -> usize {
    let plan = dc.index_plan().expect("two-tuple DCs have an index plan");
    let key: Vec<(usize, usize)> = plan
        .key
        .iter()
        .map(|(l, r)| (schema.index_of(l).unwrap(), schema.index_of(r).unwrap()))
        .collect();
    let sweep = plan
        .sweep
        .as_ref()
        .map(|pred| match (&pred.left, &pred.right) {
            (Operand::Attr { column: l, .. }, Operand::Attr { column: r, .. }) => (
                pred.op,
                schema.index_of(l).unwrap(),
                schema.index_of(r).unwrap(),
            ),
            _ => panic!("sweep predicates compare two attributes"),
        });
    let value = |pos: usize, col: usize| tuples[pos].value(col).unwrap();
    let mut count = 0;
    for i in 0..tuples.len() {
        for j in 0..tuples.len() {
            let keys_equal = key.iter().all(|&(l, r)| value(i, l) == value(j, r));
            let sweeps = sweep.is_none_or(|(op, l, r)| {
                let (a, b) = (value(i, l), value(j, r));
                !a.is_null() && !b.is_null() && op.eval(&a, &b)
            });
            if i != j && keys_equal && sweeps && admit(i, j) {
                count += 1;
            }
        }
    }
    count
}

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
