//! The select (filter) operator: a row path cloning qualifying tuples and a
//! vectorized path producing selection vectors over snapshot column codes.

use daisy_common::{DaisyError, Result, Schema};
use daisy_exec::{chunk_ranges, par_map_chunks, run_stealing, ExecContext};
use daisy_expr::{BoolExpr, CodedScalarPredicate, RowPredicate};
use daisy_storage::{ColumnSnapshot, Tuple};

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

/// Vectorized filter: evaluates the predicate over snapshot column codes
/// and returns the qualifying **positions** (a sorted selection vector)
/// instead of cloning tuples — the late-materialization protocol of the
/// vectorized executor.
///
/// Row `i` of the snapshot is position `i` of the table it was built from
/// (the caller guarantees the snapshot is current); `selection` restricts
/// evaluation to a sorted subset of positions (`None` = all rows).  Work is
/// split morsel-wise and dispatched through the work-stealing scheduler;
/// per-morsel outputs are concatenated in morsel order, so the result is
/// sorted and independent of worker count.
///
/// The kernel never leaves the snapshot.  Under
/// [`PredicateMode::Expected`] it compares the stored expected values;
/// under [`PredicateMode::Possible`] it enumerates worlds over the relaxed
/// cells' coded candidates ([`CodedScalarPredicate::eval_possible`]).
/// Either way it is byte-identical to [`filter_tuples`] over the same rows
/// by construction: codes mirror `Value::total_cmp` exactly, and both
/// kernels run the one possible-world core of `daisy-expr`.
pub fn filter_selection(
    ctx: &ExecContext,
    schema: &Schema,
    snapshot: &ColumnSnapshot,
    selection: Option<&[usize]>,
    predicate: &BoolExpr,
    mode: PredicateMode,
) -> Result<Vec<usize>> {
    let all: Vec<usize>;
    let selection: &[usize] = match selection {
        Some(positions) => positions,
        None => {
            all = (0..snapshot.len()).collect();
            &all
        }
    };
    if selection.last().is_some_and(|&last| last >= snapshot.len()) {
        return Err(DaisyError::Execution(format!(
            "selection reaches position {} of a {}-row snapshot",
            selection[selection.len() - 1],
            snapshot.len()
        )));
    }
    if matches!(predicate, BoolExpr::True) {
        return Ok(selection.to_vec());
    }
    // Resolution validates every referenced column up front, mirroring the
    // row path.
    let coded = CodedScalarPredicate::resolve(predicate, schema, snapshot)?;
    let ranges = chunk_ranges(selection.len(), ctx.morsel_count(selection.len()));
    let chunks: Vec<Vec<usize>> = run_stealing(ctx, ranges.len(), |m| {
        let (start, end) = ranges[m];
        let rows = selection[start..end].iter().copied();
        match mode {
            PredicateMode::Expected => rows.filter(|&row| coded.eval(snapshot, row)).collect(),
            PredicateMode::Possible => rows
                .filter(|&row| coded.eval_possible(snapshot, row))
                .collect(),
        }
    });
    Ok(chunks.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, TupleId, Value};
    use daisy_storage::{Candidate, Cell, Table};

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

    fn table() -> Table {
        let mut table = Table::new("t", schema());
        for tuple in tuples() {
            table.push_cells(tuple.cells.to_vec()).unwrap();
        }
        table
    }

    /// The selection-vector kernel must agree with the row path on every
    /// predicate shape × mode × worker count, including the probabilistic
    /// fallback rows.
    #[test]
    fn selection_matches_row_filter_across_modes_and_workers() {
        use daisy_expr::ComparisonOp;

        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let predicates = [
            BoolExpr::True,
            BoolExpr::eq("zip", 9001),
            BoolExpr::eq("zip", 10001),
            BoolExpr::between("zip", 9000, 9500),
            BoolExpr::cmp("zip", ComparisonOp::Ge, 10000).or(BoolExpr::eq("city", "LA")),
            BoolExpr::Not(Box::new(BoolExpr::eq("city", "SF"))),
        ];
        for predicate in &predicates {
            for mode in [PredicateMode::Expected, PredicateMode::Possible] {
                let row = filter_tuples(
                    &ExecContext::sequential(),
                    table.schema(),
                    table.tuples(),
                    predicate,
                    mode,
                )
                .unwrap();
                let row_ids: Vec<TupleId> = row.iter().map(|t| t.id).collect();
                for workers in [1usize, 2, 4, 7] {
                    let ctx = ExecContext::new(workers);
                    let selection =
                        filter_selection(&ctx, table.schema(), &snapshot, None, predicate, mode)
                            .unwrap();
                    let sel_ids: Vec<TupleId> = selection
                        .iter()
                        .map(|&pos| table.tuples()[pos].id)
                        .collect();
                    assert_eq!(
                        row_ids, sel_ids,
                        "`{predicate}` diverged under {mode:?} with {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn selection_narrows_an_input_selection() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let ctx = ExecContext::sequential();
        // Restrict to rows {1, 2}: row 0 qualifies the predicate but is not
        // in the input selection and must stay excluded.
        let out = filter_selection(
            &ctx,
            table.schema(),
            &snapshot,
            Some(&[1, 2]),
            &BoolExpr::eq("zip", 9001),
            PredicateMode::Possible,
        )
        .unwrap();
        assert_eq!(out, vec![2]);
        // A True predicate returns the input selection unchanged.
        let all = filter_selection(
            &ctx,
            table.schema(),
            &snapshot,
            Some(&[0, 2]),
            &BoolExpr::True,
            PredicateMode::Expected,
        )
        .unwrap();
        assert_eq!(all, vec![0, 2]);
    }

    #[test]
    fn selection_rejects_out_of_range_positions_and_unknown_columns() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let ctx = ExecContext::sequential();
        assert!(filter_selection(
            &ctx,
            table.schema(),
            &snapshot,
            Some(&[1, 3]),
            &BoolExpr::eq("zip", 9001),
            PredicateMode::Expected,
        )
        .is_err());
        assert!(filter_selection(
            &ctx,
            table.schema(),
            &snapshot,
            None,
            &BoolExpr::eq("state", "CA"),
            PredicateMode::Expected,
        )
        .is_err());
    }
}
