//! Differential tests: indexed violation detection against the naive
//! pairwise oracle.
//!
//! For random tables and random denial constraints mixing equality,
//! inequality and residual predicates, the hash-equality / sort-sweep
//! violation index must find exactly the violation set of a brute-force
//! quadratic scan — in full checks and in incremental (range) checks over
//! the theta matrix's blocks; and the engine must repair exactly what the
//! oracle's violations call for, in a whole-table request and across a
//! range request followed by the rest.

mod common;

use proptest::prelude::*;

use std::collections::HashSet;
use std::sync::Arc;

use daisy::common::{DaisyConfig, DataType, Schema, Value};
use daisy::core::accuracy::{estimate_accuracy, CleaningDecision, ACCURACY_THRESHOLD};
use daisy::core::clean_dc::repair_dc_violations;
use daisy::core::index::{id_index, MaintainedIndex};
use daisy::core::theta::ThetaMatrix;
use daisy::core::DaisyEngine;
use daisy::exec::ExecContext;
use daisy::expr::{ComparisonOp, DcPredicate, DenialConstraint, Operand, Violation};
use daisy::storage::{ProvenanceStore, Table};

use common::{candidate_bindings, matrix_check_oracle};

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

fn check_all(table: &Table, dc: &DenialConstraint, blocks: usize) -> Vec<Violation> {
    let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), dc, blocks).unwrap();
    let (violations, _) = matrix
        .check_all(&ExecContext::new(2), table.schema(), table.tuples())
        .unwrap();
    violations
}

/// The engine's incremental flow on table `t` — `SELECT … WHERE a <=
/// split`, then the whole table — replayed against the brute-force matrix
/// oracle with the block layout of `config` and the engine's accuracy
/// threshold: per request, the oracle over the blocks the answer spans on
/// the partition attribute `a` (every block when the accuracy estimate asks
/// for the full check), then the repair of what the oracle found.  The
/// matrix runs the same checks alongside, so its checked bookkeeping — which
/// the accuracy estimate reads — carries over to the next request, and each
/// of its checks must find what the oracle finds.  Returns each request's
/// error count and the table and provenance after it.
fn oracle_range_then_full(
    config: &DaisyConfig,
    table: &Table,
    dc: &DenialConstraint,
    split: i64,
) -> Vec<(usize, Table, ProvenanceStore)> {
    let ctx = ExecContext::new(2);
    let schema = Arc::new(table.schema().qualify("t"));
    let mut matrix =
        ThetaMatrix::build(&schema, table.tuples(), dc, config.theta_blocks_per_side()).unwrap();
    let mut checked = HashSet::new();
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
            ACCURACY_THRESHOLD,
        );
        let (rows, (found, _)) = if estimate.decision == CleaningDecision::Full {
            let rows: Vec<usize> = (0..matrix.block_count()).collect();
            (
                rows,
                matrix.check_all(&ctx, &schema, current.tuples()).unwrap(),
            )
        } else {
            let rows = matrix.blocks_overlapping(low.as_ref(), high.as_ref());
            let checked = matrix
                .check_range(&ctx, &schema, current.tuples(), low.as_ref(), high.as_ref())
                .unwrap();
            (rows, checked)
        };
        let violations =
            matrix_check_oracle(&matrix, &schema, current.tuples(), &rows, &mut checked);
        assert_eq!(found, violations);
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
    /// the theta matrix finds exactly the brute-force violation set at any
    /// block count.
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
        let indexed = check_all(&table, &dc, blocks);
        prop_assert_eq!(&indexed, &expected);
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
        let indexed = check_all(&table, &dc, 4);
        prop_assert_eq!(&indexed, &expected);
        // Full detection on the maintained index: the same violations, and
        // exactly the candidate bindings the brute-force counter admits.
        let plan = dc.index_plan().unwrap();
        let index = MaintainedIndex::build(table.schema(), &dc, &plan, &table).unwrap();
        let (found, pairs) = index.detect(&ExecContext::new(2), table.tuples()).unwrap();
        prop_assert_eq!(&found, &expected);
        prop_assert_eq!(pairs, candidate_bindings(table.schema(), table.tuples(), &dc, |_, _| true));
    }

    /// End-to-end engine over random tables of up to 300 rows.  A
    /// whole-table cleaning query repairs exactly what repairing the
    /// brute-force oracle's violations produces — same answer, repaired
    /// table, provenance and error count — and the incremental flow (a
    /// range query on the partition attribute, then the whole table)
    /// repairs exactly what the same two requests repair from the matrix
    /// oracle's violations.
    #[test]
    fn engine_repairs_match_the_full_and_range_oracles(
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

        prop_assert_eq!(outcome.report.errors_repaired, repair.errors_detected);
        prop_assert_eq!(&outcome.result.tuples[..], expected.tuples());
        prop_assert_eq!(whole.table("t").unwrap().tuples(), expected.tuples());
        prop_assert_eq!(whole.provenance("t").unwrap().dump(), provenance.dump());

        let mut incremental = engine();
        let reference = oracle_range_then_full(&config, &table, &dc, split);
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
    /// matrix's `checked` bookkeeping) each find exactly what the
    /// brute-force matrix oracle finds over the same not-yet-checked block
    /// pairs.
    #[test]
    fn indexed_incremental_detection_matches_pairwise(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 2..70),
        specs in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 1..4),
        split in 0i64..40,
    ) {
        let table = table_from_rows(&rows);
        let predicates: Vec<DcPredicate> = specs.iter().map(predicate_from_spec).collect();
        let dc = DenialConstraint::new("dc", 2, predicates);
        let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc, 4).unwrap();
        let ctx = ExecContext::new(3);
        let mut checked = HashSet::new();
        let split = Value::Int(split);
        for (low, high) in [(None, Some(&split)), (Some(&split), None)] {
            let (found, _) = matrix
                .check_range(&ctx, table.schema(), table.tuples(), low, high)
                .unwrap();
            let rows = matrix.blocks_overlapping(low, high);
            let expected =
                matrix_check_oracle(&matrix, table.schema(), table.tuples(), &rows, &mut checked);
            prop_assert_eq!(found, expected);
        }
    }
}
