//! The select (filter) operator: clones the qualifying tuples.

use daisy_common::{Result, Schema};
use daisy_exec::{par_map_chunks, ExecContext};
use daisy_expr::{BoolExpr, RowPredicate};
use daisy_storage::Tuple;

/// How predicates treat probabilistic cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateMode {
    /// Evaluate over the expected (most probable) value of each cell: the
    /// behaviour of a query engine that is unaware of candidate fixes.
    Expected,
    /// Possible-world semantics (§4): a tuple qualifies iff at least one
    /// candidate value of each referenced cell could satisfy the predicate.
    Possible,
}

/// Filters tuples by the predicate, preserving order and identity.
///
/// The predicate's column references are resolved against `schema` once,
/// up front: an unknown column is an error here rather than a silently
/// dropped tuple, and evaluation reads cells by ordinal.
pub fn filter_tuples(
    ctx: &ExecContext,
    schema: &Schema,
    tuples: &[Tuple],
    predicate: &BoolExpr,
    mode: PredicateMode,
) -> Result<Vec<Tuple>> {
    if matches!(predicate, BoolExpr::True) {
        return Ok(tuples.to_vec());
    }
    let resolved = RowPredicate::resolve(predicate, schema)?;
    let results: Vec<Tuple> = par_map_chunks(ctx, tuples, |chunk| {
        chunk
            .iter()
            .filter(|t| {
                let verdict = match mode {
                    PredicateMode::Expected => resolved.eval_expected(t),
                    PredicateMode::Possible => resolved.eval_possible(t),
                };
                // A tuple shorter than the schema qualifies for nothing.
                verdict.unwrap_or(false)
            })
            .cloned()
            .collect()
    });
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, TupleId, Value};
    use daisy_storage::{Candidate, Cell};

    fn schema() -> Schema {
        Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap()
    }

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::from_values(TupleId::new(0), vec![Value::Int(9001), Value::from("LA")]),
            Tuple::from_values(TupleId::new(1), vec![Value::Int(10001), Value::from("NY")]),
            Tuple::from_cells(
                TupleId::new(2),
                vec![
                    Cell::probabilistic(vec![
                        Candidate::exact(Value::Int(9001), 0.5),
                        Candidate::exact(Value::Int(10001), 0.5),
                    ]),
                    Cell::Determinate(Value::from("SF")),
                ],
            ),
        ]
    }

    #[test]
    fn expected_mode_sees_only_most_probable_world() {
        let ctx = ExecContext::sequential();
        let out = filter_tuples(
            &ctx,
            &schema(),
            &tuples(),
            &daisy_expr::BoolExpr::eq("zip", 9001),
            PredicateMode::Expected,
        )
        .unwrap();
        // The probabilistic tuple's most probable value is whichever
        // candidate wins the tie-break; the determinate 9001 tuple always
        // qualifies.
        assert!(out.iter().any(|t| t.id == TupleId::new(0)));
    }

    #[test]
    fn possible_mode_keeps_candidate_worlds() {
        let ctx = ExecContext::new(4);
        let out = filter_tuples(
            &ctx,
            &schema(),
            &tuples(),
            &daisy_expr::BoolExpr::eq("zip", 9001),
            PredicateMode::Possible,
        )
        .unwrap();
        let ids: Vec<TupleId> = out.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![TupleId::new(0), TupleId::new(2)]);
    }

    #[test]
    fn true_predicate_returns_everything() {
        let ctx = ExecContext::sequential();
        let out = filter_tuples(
            &ctx,
            &schema(),
            &tuples(),
            &daisy_expr::BoolExpr::True,
            PredicateMode::Expected,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let ctx = ExecContext::sequential();
        assert!(filter_tuples(
            &ctx,
            &schema(),
            &tuples(),
            &daisy_expr::BoolExpr::eq("state", "CA"),
            PredicateMode::Expected,
        )
        .is_err());
    }
}
