//! Differential tests: indexed violation detection against the naive
//! pairwise oracle.
//!
//! For random tables and random denial constraints mixing equality,
//! inequality and residual predicates, the hash-equality / sort-sweep
//! violation index must find exactly the violation set of a brute-force
//! quadratic scan — in full checks and in incremental (range) checks, and
//! identically to the pairwise theta kernel; and the engine, which picks
//! its kernel and read path itself, must repair exactly what the oracle's
//! violations call for, and across a range request exactly what the
//! pairwise kernel repairs.

use proptest::prelude::*;

use std::sync::Arc;

use daisy::common::{DaisyConfig, DataType, Schema, Value};
use daisy::core::accuracy::{estimate_accuracy, CleaningDecision};
use daisy::core::clean_dc::repair_dc_violations;
use daisy::core::index::id_index;
use daisy::core::theta::ThetaMatrix;
use daisy::core::{DaisyEngine, DetectionStrategy};
use daisy::exec::ExecContext;
use daisy::expr::{ComparisonOp, DcPredicate, DenialConstraint, Operand, Violation};
use daisy::storage::{ColumnSnapshot, ProvenanceStore, Table};

/// Builds a three-column table: `a` is a low-cardinality grouping column,
/// `b` a numeric column, `c` a float column with occasional NULLs so the
/// NULL comparison semantics are exercised end to end.
fn table_from_rows(rows: &[(i64, i64, i64)]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Float),
    ])
    .unwrap();
    Table::from_rows(
        "t",
        schema,
        rows.iter()
            .map(|(a, b, c)| {
                let c = if c % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float(*c as f64 / 2.0)
                };
                vec![Value::Int(*a), Value::Int(*b), c]
            })
            .collect(),
    )
    .unwrap()
}

const COLUMNS: [&str; 3] = ["a", "b", "c"];

/// Decodes one `(op, left column, right column, shape)` spec into a
/// predicate.  Shapes cover cross-tuple, reversed cross-tuple, same-tuple
/// and constant comparisons, so generated constraints mix equality keys,
/// sweeps and residuals.
fn predicate_from_spec(spec: &(usize, usize, usize, usize)) -> DcPredicate {
    let (op, lcol, rcol, shape) = *spec;
    let op = [
        ComparisonOp::Eq,
        ComparisonOp::Neq,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ][op % 6];
    let left_col = COLUMNS[lcol % 3];
    let right_col = COLUMNS[rcol % 3];
    match shape % 5 {
        0 => DcPredicate::new(Operand::attr(0, left_col), op, Operand::attr(1, right_col)),
        1 => DcPredicate::new(Operand::attr(1, left_col), op, Operand::attr(0, right_col)),
        2 => DcPredicate::new(Operand::attr(0, left_col), op, Operand::attr(0, right_col)),
        3 => DcPredicate::new(Operand::attr(1, left_col), op, Operand::attr(1, right_col)),
        _ => DcPredicate::new(
            Operand::attr(0, left_col),
            op,
            Operand::Const(Value::Int((rcol % 3) as i64 * 2)),
        ),
    }
}

/// Brute-force oracle: every ordered pair of distinct tuples, canonicalised.
fn oracle(table: &Table, dc: &DenialConstraint) -> Vec<Violation> {
    let mut expected = Vec::new();
    for x in table.tuples() {
        for y in table.tuples() {
            if x.id != y.id && dc.violated_by(table.schema(), &[x, y]).unwrap() {
                expected.push(Violation::pair(dc.id, x.id, y.id).canonical());
            }
        }
    }
    expected.sort_by(|a, b| a.tuples.cmp(&b.tuples));
    expected.dedup();
    expected
}

fn check_all(
    table: &Table,
    dc: &DenialConstraint,
    strategy: DetectionStrategy,
    blocks: usize,
) -> Vec<Violation> {
    let mut matrix =
        ThetaMatrix::build_with_strategy(table.schema(), table.tuples(), dc, blocks, strategy)
            .unwrap();
    let (violations, _) = matrix
        .check_all(&ExecContext::new(2), table.schema(), table.tuples())
        .unwrap();
    violations
}

/// The engine's incremental flow on table `t` — `SELECT … WHERE a <=
/// split`, then the whole table — replayed on the pairwise theta kernel
/// with the block layout and accuracy threshold of `config`: per request, the range check over the
/// blocks the answer spans on the partition attribute `a` (the full check
/// when the accuracy estimate asks for it), then the repair, on one matrix
/// whose checked block pairs carry over to the next request.  Returns
/// each request's error count and the table and provenance after it.
fn pairwise_range_then_full(
    config: &DaisyConfig,
    table: &Table,
    dc: &DenialConstraint,
    split: i64,
) -> Vec<(usize, Table, ProvenanceStore)> {
    let ctx = ExecContext::new(2);
    let schema = Arc::new(table.schema().qualify("t"));
    let mut matrix = ThetaMatrix::build_with_strategy(
        &schema,
        table.tuples(),
        dc,
        config.theta_blocks_per_side(),
        DetectionStrategy::Pairwise,
    )
    .unwrap();
    let mut current = table.clone();
    let mut provenance = ProvenanceStore::default();
    let mut after = Vec::new();
    for bound in [Some(Value::Int(split)), None] {
        let mut low: Option<Value> = None;
        let mut high: Option<Value> = None;
        let mut answer = 0;
        for tuple in current.tuples() {
            let a = tuple.value(0).unwrap();
            if bound.as_ref().is_some_and(|b| &a > b) {
                continue;
            }
            answer += 1;
            low = Some(low.map_or(a.clone(), |l| Value::min_of(l, a.clone())));
            high = Some(high.map_or(a.clone(), |h| Value::max_of(h, a)));
        }
        let estimate = estimate_accuracy(
            &matrix,
            answer,
            low.as_ref(),
            high.as_ref(),
            config.accuracy_threshold,
        );
        let (violations, _) = if estimate.decision == CleaningDecision::Full {
            matrix.check_all(&ctx, &schema, current.tuples()).unwrap()
        } else {
            matrix
                .check_range(&ctx, &schema, current.tuples(), low.as_ref(), high.as_ref())
                .unwrap()
        };
        let by_id = id_index(&ctx, current.tuples());
        let repair =
            repair_dc_violations(&ctx, &schema, dc, &violations, &by_id, &mut provenance).unwrap();
        drop(by_id);
        current.apply_delta(&repair.delta).unwrap();
        after.push((repair.errors_detected, current.clone(), provenance.clone()));
    }
    after
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full detection: for a random table and a random mixed-predicate DC,
    /// the indexed kernel and the pairwise kernel both find exactly the
    /// brute-force violation set.
    #[test]
    fn indexed_full_detection_matches_pairwise_oracle(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 2..70),
        specs in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 1..4),
        blocks in 1usize..6,
    ) {
        let table = table_from_rows(&rows);
        let predicates: Vec<DcPredicate> = specs.iter().map(predicate_from_spec).collect();
        let dc = DenialConstraint::new("dc", 2, predicates);
        let expected = oracle(&table, &dc);
        let indexed = check_all(&table, &dc, DetectionStrategy::Indexed, blocks);
        prop_assert_eq!(&indexed, &expected);
        let pairwise = check_all(&table, &dc, DetectionStrategy::Pairwise, blocks);
        prop_assert_eq!(&pairwise, &expected);
    }

    /// Equality-bearing DCs — the case the index is built for — with a
    /// guaranteed hash key and sweep plus a random residual tail.
    #[test]
    fn indexed_detection_matches_oracle_for_equality_bearing_dcs(
        rows in prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 2..80),
        tail in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 0..3),
    ) {
        let table = table_from_rows(&rows);
        let mut predicates = vec![
            DcPredicate::new(Operand::attr(0, "a"), ComparisonOp::Eq, Operand::attr(1, "a")),
            DcPredicate::new(Operand::attr(0, "b"), ComparisonOp::Lt, Operand::attr(1, "b")),
        ];
        predicates.extend(tail.iter().map(predicate_from_spec));
        let dc = DenialConstraint::new("dc", 2, predicates);
        let expected = oracle(&table, &dc);
        let indexed = check_all(&table, &dc, DetectionStrategy::Indexed, 4);
        prop_assert_eq!(indexed, expected);
    }

    /// Columnar read path: for random tables (with NULLs) and random
    /// mixed-predicate DCs, detection through a `ColumnSnapshot` finds
    /// byte-identical violations — and identical candidate-pair counts —
    /// to the row path, under both kernels, full and incremental.
    #[test]
    fn snapshot_read_path_matches_row_path(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 2..70),
        specs in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 1..4),
        blocks in 1usize..6,
        split in 0i64..6,
    ) {
        let table = table_from_rows(&rows);
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let predicates: Vec<DcPredicate> = specs.iter().map(predicate_from_spec).collect();
        let dc = DenialConstraint::new("dc", 2, predicates);
        let expected = oracle(&table, &dc);
        for strategy in [DetectionStrategy::Indexed, DetectionStrategy::Pairwise] {
            let run = |snap: Option<&ColumnSnapshot>| {
                let mut matrix = ThetaMatrix::build_with_strategy_snap(
                    table.schema(),
                    table.tuples(),
                    &dc,
                    blocks,
                    strategy,
                    snap,
                )
                .unwrap();
                let ctx = ExecContext::new(2);
                let full = matrix
                    .check_all_with(&ctx, table.schema(), table.tuples(), snap)
                    .unwrap();
                // A fresh matrix for the incremental flow.
                let mut matrix = ThetaMatrix::build_with_strategy_snap(
                    table.schema(),
                    table.tuples(),
                    &dc,
                    blocks,
                    strategy,
                    snap,
                )
                .unwrap();
                let first = matrix
                    .check_range_with(&ctx, table.schema(), table.tuples(), snap, None, Some(&Value::Int(split)))
                    .unwrap();
                let second = matrix
                    .check_range_with(&ctx, table.schema(), table.tuples(), snap, Some(&Value::Int(split)), None)
                    .unwrap();
                (full, first, second)
            };
            let (row_full, row_first, row_second) = run(None);
            let (col_full, col_first, col_second) = run(Some(&snapshot));
            prop_assert_eq!(&row_full.0, &expected);
            prop_assert_eq!(&col_full.0, &expected);
            prop_assert_eq!(col_full.1, row_full.1);
            prop_assert_eq!(&col_first.0, &row_first.0);
            prop_assert_eq!(col_first.1, row_first.1);
            prop_assert_eq!(&col_second.0, &row_second.0);
            prop_assert_eq!(col_second.1, row_second.1);
        }
    }

    /// End-to-end engine over random tables of up to 300 rows, in every
    /// mode the engine picks for itself: small tables on the row path and
    /// the pairwise kernel, large ones with a snapshot and whichever kernel
    /// the cost model picks.  A whole-table cleaning query repairs exactly
    /// what repairing the brute-force oracle's violations produces — same
    /// answer, repaired table, provenance and error count — and the
    /// incremental flow (a range query on the partition attribute, then
    /// the whole table) repairs exactly what the same two requests repair
    /// on the pairwise theta kernel.
    #[test]
    fn engine_sessions_agree_across_snapshot_and_detection_modes(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 8..50),
        copies in 1i64..7,
        split in 0i64..6,
    ) {
        // Copies shift the grouping column, so they never violate each
        // other and the equality key stays selective as the table grows.
        let tiled: Vec<(i64, i64, i64)> = (0..copies)
            .flat_map(|k| rows.iter().map(move |&(a, b, c)| (a + 6 * k, b, c)))
            .collect();
        let table = table_from_rows(&tiled);
        let config = DaisyConfig::default()
            .with_worker_threads(2)
            .with_cost_model(false)
            .with_theta_partitions(16);
        let engine = || {
            let mut engine = DaisyEngine::new(config.clone()).unwrap();
            engine.register_table(table.clone());
            engine
                .add_constraint_text("dc", "t1.a = t2.a & t1.b < t2.b & t1.c > t2.c")
                .unwrap();
            engine
        };

        let mut whole = engine();
        let outcome = whole.execute_sql("SELECT a, b, c FROM t").unwrap();
        let dc = whole.constraints().rules()[0].clone();
        let violations = oracle(&table, &dc);
        let ctx = ExecContext::new(2);
        let schema = Arc::new(table.schema().qualify("t"));
        let by_id = id_index(&ctx, table.tuples());
        let mut provenance = ProvenanceStore::default();
        let repair =
            repair_dc_violations(&ctx, &schema, &dc, &violations, &by_id, &mut provenance)
                .unwrap();
        drop(by_id);
        let mut expected = table.clone();
        expected.apply_delta(&repair.delta).unwrap();

        prop_assert_eq!(whole.snapshot("t").is_some(), tiled.len() >= 256);
        prop_assert_eq!(outcome.report.errors_repaired, repair.errors_detected);
        prop_assert_eq!(&outcome.result.tuples[..], expected.tuples());
        prop_assert_eq!(whole.table("t").unwrap().tuples(), expected.tuples());
        prop_assert_eq!(whole.provenance("t").unwrap().dump(), provenance.dump());

        let mut incremental = engine();
        let reference = pairwise_range_then_full(&config, &table, &dc, split);
        let range = format!("SELECT a, b, c FROM t WHERE a <= {split}");
        let mut answer = Vec::new();
        for (sql, (errors, table, provenance)) in
            [range.as_str(), "SELECT a, b, c FROM t"].into_iter().zip(&reference)
        {
            let outcome = incremental.execute_sql(sql).unwrap();
            prop_assert_eq!(outcome.report.errors_repaired, *errors);
            prop_assert_eq!(incremental.table("t").unwrap().tuples(), table.tuples());
            prop_assert_eq!(incremental.provenance("t").unwrap().dump(), provenance.dump());
            answer = outcome.result.tuples;
        }
        prop_assert_eq!(&answer[..], reference[1].1.tuples());
    }

    /// Incremental detection: two successive range checks (sharing the
    /// matrix's `checked` bookkeeping) produce identical per-call violation
    /// sets and statistics under both kernels.
    #[test]
    fn indexed_incremental_detection_matches_pairwise(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 2..70),
        specs in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 1..4),
        split in 0i64..40,
    ) {
        let table = table_from_rows(&rows);
        let predicates: Vec<DcPredicate> = specs.iter().map(predicate_from_spec).collect();
        let dc = DenialConstraint::new("dc", 2, predicates);
        let run = |strategy: DetectionStrategy| {
            let mut matrix = ThetaMatrix::build_with_strategy(
                table.schema(),
                table.tuples(),
                &dc,
                4,
                strategy,
            )
            .unwrap();
            let ctx = ExecContext::new(3);
            let first = matrix
                .check_range(&ctx, table.schema(), table.tuples(), None, Some(&Value::Int(split)))
                .unwrap();
            let second = matrix
                .check_range(&ctx, table.schema(), table.tuples(), Some(&Value::Int(split)), None)
                .unwrap();
            (first, second)
        };
        let ((pf, ps), (pt, pu)) = (run(DetectionStrategy::Pairwise), run(DetectionStrategy::Indexed));
        // Identical violations per call, and identical block bookkeeping;
        // only the candidate-pair counts may differ between kernels.
        prop_assert_eq!(&pf.0, &pt.0);
        prop_assert_eq!(&ps.0, &pu.0);
        prop_assert_eq!(pf.1.blocks_checked, pt.1.blocks_checked);
        prop_assert_eq!(pf.1.blocks_pruned, pt.1.blocks_pruned);
        prop_assert_eq!(ps.1.blocks_checked, pu.1.blocks_checked);
        prop_assert_eq!(ps.1.blocks_pruned, pu.1.blocks_pruned);
    }
}
