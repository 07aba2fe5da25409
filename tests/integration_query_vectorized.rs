//! Differential tests: the vectorized query path against the row path.
//!
//! For random relaxed tables and random SP / SPJ / aggregate queries, the
//! vectorized executor — selection-vector filters, code-keyed joins, late
//! materialization — must return byte-identical results to the row path,
//! across predicate modes (`Expected` / `Possible`) and worker counts.
//! Engine-level runs must additionally agree on repaired tables, provenance
//! dumps and recorded read footprints under `DAISY_QUERY_EXEC ∈ {row, auto,
//! vectorized}`.

use std::fmt::Write as _;

use proptest::prelude::*;

use daisy::common::{DaisyConfig, DataType, QueryExecMode, Schema, Value};
use daisy::core::DaisyEngine;
use daisy::exec::ExecContext;
use daisy::query::physical::PredicateMode;
use daisy::query::{execute_with, parse_query, Catalog, LogicalPlan, QueryResult};
use daisy::storage::{Candidate, CandidateValue, Cell, Footprint, Table};

const NAMES: [&str; 5] = ["ann", "bob", "cat", "dan", "eve"];

/// Builds a relaxed three-column table: `k` is a low-cardinality join/filter
/// key, `v` a float with NULLs, `s` a dictionary string.  The `relax` tag
/// sprinkles probabilistic cells — NULL candidates, a string candidate that
/// never appears as an expected value, and the range candidates
/// (`LessThan` / `GreaterThan` / `Between`) general DCs leave behind, which
/// switch a row to the optimistic rule and never join.
fn table_from_rows(name: &str, rows: &[(i64, i64, i64, u8)]) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
    ])
    .unwrap();
    let mut table = Table::new(name, schema);
    for (k, v, s, relax) in rows {
        let k_cell = match relax % 8 {
            0 => Cell::probabilistic(vec![
                Candidate::exact(Value::Int(k % 6), 0.6),
                Candidate::exact(Value::Int((k + 1) % 6), 0.4),
            ]),
            1 => Cell::Determinate(Value::Null),
            2 => Cell::probabilistic(vec![
                Candidate::exact(Value::Int(k % 6), 0.5),
                Candidate::range(CandidateValue::LessThan(Value::Int((k + 2) % 6)), 0.5),
            ]),
            3 => Cell::probabilistic(vec![
                Candidate::range(
                    CandidateValue::Between(Value::Int(k % 4), Value::Int(k % 4 + 2)),
                    0.6,
                ),
                Candidate::range(CandidateValue::GreaterThan(Value::Int(4)), 0.4),
            ]),
            _ => Cell::Determinate(Value::Int(k % 6)),
        };
        let v_cell = match relax % 7 {
            0 => Cell::Determinate(Value::Null),
            1 => Cell::probabilistic(vec![
                Candidate::exact(Value::Float(*v as f64 / 2.0), 0.5),
                Candidate::exact(Value::Null, 0.5),
            ]),
            2 => Cell::probabilistic(vec![
                Candidate::range(
                    CandidateValue::GreaterThan(Value::Float(*v as f64 / 2.0)),
                    0.5,
                ),
                Candidate::exact(Value::Float(*v as f64 / 4.0), 0.5),
            ]),
            _ => Cell::Determinate(Value::Float(*v as f64 / 2.0)),
        };
        let s_cell = match relax % 5 {
            0 => Cell::probabilistic(vec![
                Candidate::exact(Value::from(NAMES[(*s as usize) % 5]), 0.7),
                Candidate::exact(Value::from("never-seen-expected"), 0.3),
            ]),
            _ => Cell::Determinate(Value::from(NAMES[(*s as usize) % 5])),
        };
        table.push_cells(vec![k_cell, v_cell, s_cell]).unwrap();
    }
    table
}

/// A second relation with distinct column names, for unambiguous SPJ plans.
fn right_table_from_rows(rows: &[(i64, i64, u8)]) -> Table {
    let schema = Schema::from_pairs(&[("k2", DataType::Int), ("w", DataType::Float)]).unwrap();
    let mut table = Table::new("u", schema);
    for (k, w, relax) in rows {
        let k_cell = match relax % 6 {
            0 => Cell::probabilistic(vec![
                Candidate::exact(Value::Int(k % 6), 0.55),
                Candidate::exact(Value::Null, 0.45),
            ]),
            1 => Cell::Determinate(Value::Null),
            2 => Cell::probabilistic(vec![
                Candidate::range(CandidateValue::LessThan(Value::Int(k % 6)), 0.5),
                Candidate::exact(Value::Int((k + 3) % 6), 0.5),
            ]),
            _ => Cell::Determinate(Value::Int(k % 6)),
        };
        table
            .push_cells(vec![
                k_cell,
                Cell::Determinate(Value::Float(*w as f64 / 4.0)),
            ])
            .unwrap();
    }
    table
}

/// Renders a result for byte-level comparison: schema fields plus every
/// tuple's id, lineage and cells.
fn dump(result: &QueryResult) -> String {
    let mut out = String::new();
    for field in result.schema.fields() {
        writeln!(out, "col {field}").unwrap();
    }
    for tuple in &result.tuples {
        writeln!(out, "{:?} {:?} {:?}", tuple.id, tuple.lineage, tuple.cells).unwrap();
    }
    out
}

fn sp_sql(shape: usize, x: i64) -> String {
    match shape % 7 {
        0 => format!("SELECT * FROM t WHERE k <= {}", x % 7),
        1 => format!("SELECT k, s FROM t WHERE k = {}", x % 6),
        2 => format!("SELECT s FROM t WHERE v >= {}.5", x % 10),
        3 => "SELECT * FROM t WHERE s = 'cat'".to_string(),
        4 => format!(
            "SELECT * FROM t WHERE k >= {} AND v <= {}.5",
            x % 6,
            (x + 7) % 20
        ),
        5 => "SELECT k, COUNT(*) FROM t GROUP BY k".to_string(),
        _ => format!("SELECT k FROM t WHERE s = '{}'", NAMES[(x as usize) % 5]),
    }
}

fn spj_sql(shape: usize, x: i64) -> String {
    match shape % 4 {
        0 => "SELECT t.s, u.w FROM t JOIN u ON t.k = u.k2".to_string(),
        1 => format!(
            "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k2 WHERE k <= {}",
            x % 7
        ),
        2 => format!(
            "SELECT t.s, u.k2 FROM t JOIN u ON t.k = u.k2 WHERE v >= {}.5",
            x % 8
        ),
        _ => "SELECT * FROM t JOIN u ON t.k = u.k2 WHERE s = 'ann'".to_string(),
    }
}

/// Runs one parsed plan on every path × worker count and asserts all dumps
/// equal the sequential row-path dump.
fn assert_paths_agree(catalog: &Catalog, sql: &str) -> Result<(), TestCaseError> {
    let query = parse_query(sql).unwrap();
    let plan = LogicalPlan::from_query(&query).unwrap();
    for mode in [PredicateMode::Expected, PredicateMode::Possible] {
        let row = execute_with(
            &ExecContext::sequential(),
            catalog,
            &plan,
            mode,
            QueryExecMode::Row,
        )
        .unwrap();
        let expected = dump(&row);
        for workers in [1usize, 2, 4, 7] {
            let ctx = ExecContext::new(workers);
            for exec in [QueryExecMode::Auto, QueryExecMode::Vectorized] {
                let got = execute_with(&ctx, catalog, &plan, mode, exec).unwrap();
                prop_assert!(
                    expected == dump(&got),
                    "`{sql}` diverged ({mode:?}, {exec}, {workers} workers)"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SP and aggregate plans: row path ≡ vectorized path on results for
    /// random relaxed tables, with snapshots attached (Auto vectorizes) and
    /// without (Vectorized builds ad-hoc snapshots, Auto falls back to the
    /// row kernels).
    #[test]
    fn vectorized_sp_plans_match_row_path(
        rows in prop::collection::vec((0i64..12, 0i64..40, 0i64..8, 0u8..255), 0..40),
        shapes in prop::collection::vec((0usize..7, 0i64..20), 1..4),
        attach in 0usize..2,
    ) {
        let mut catalog = Catalog::new();
        catalog.add(table_from_rows("t", &rows));
        if attach == 1 {
            catalog.refresh_snapshot("t").unwrap();
        }
        for (shape, x) in &shapes {
            assert_paths_agree(&catalog, &sp_sql(*shape, *x))?;
        }
    }

    /// SPJ plans: the code-keyed hash join (late-materialized probe and
    /// build selections, NULL keys never joining, Int/Float key coercion)
    /// returns byte-identical joined tuples — ids, lineage, cells — to the
    /// row-path join.
    #[test]
    fn vectorized_spj_plans_match_row_path(
        left in prop::collection::vec((0i64..12, 0i64..40, 0i64..8, 0u8..255), 0..30),
        right in prop::collection::vec((0i64..12, 0i64..30, 0u8..255), 0..25),
        shapes in prop::collection::vec((0usize..4, 0i64..20), 1..3),
        attach in 0usize..2,
    ) {
        let mut catalog = Catalog::new();
        catalog.add(table_from_rows("t", &left));
        catalog.add(right_table_from_rows(&right));
        if attach == 1 {
            catalog.refresh_snapshot("t").unwrap();
            catalog.refresh_snapshot("u").unwrap();
        }
        for (shape, x) in &shapes {
            assert_paths_agree(&catalog, &spj_sql(*shape, *x))?;
        }
    }

    /// End-to-end engine runs: the same cleaning workload under
    /// `query_exec ∈ {row, auto, vectorized}` × worker counts must produce
    /// byte-identical query results, repaired base tables and provenance
    /// dumps — cleaning relaxes cells mid-run (the inequality DC leaves
    /// range candidates on `b` and `c`), so the later queries read
    /// engine-made probabilistic data through the coded kernels, the third
    /// one filtering on exactly those range candidates.
    #[test]
    fn engine_agrees_across_query_exec_modes(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 8..40),
        split in 0i64..6,
    ) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_rows(
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
        .unwrap();
        let sql_first = format!("SELECT a, b, c FROM t WHERE a <= {split}");
        let sql_third = format!("SELECT a, b FROM t WHERE b >= {} AND c <= {}.5", split * 5, split + 3);
        let run = |exec: QueryExecMode, workers: usize| {
            let mut engine = DaisyEngine::new(
                DaisyConfig::default()
                    .with_worker_threads(workers)
                    .with_cost_model(false)
                    .with_query_exec(exec),
            )
            .unwrap();
            engine.register_table(table.clone());
            engine
                .add_constraint_text("dc", "t1.a = t2.a & t1.b < t2.b & t1.c > t2.c")
                .unwrap();
            let first = engine.execute_sql(&sql_first).unwrap();
            let second = engine.execute_sql("SELECT a, b, c FROM t").unwrap();
            let third = engine.execute_sql(&sql_third).unwrap();
            (
                dump(&first.result),
                dump(&second.result),
                dump(&third.result),
                first.report.errors_repaired + second.report.errors_repaired,
                engine.table("t").unwrap().tuples().to_vec(),
                engine.provenance("t").unwrap().dump(),
            )
        };
        let baseline = run(QueryExecMode::Row, 1);
        for exec in [QueryExecMode::Row, QueryExecMode::Auto, QueryExecMode::Vectorized] {
            for workers in [1usize, 2, 4, 7] {
                let replay = run(exec, workers);
                prop_assert!(
                    replay == baseline,
                    "engine diverged under query_exec={exec} workers={workers}"
                );
            }
        }
    }

    /// Sessions under footprint-recording commit validation: the vectorized
    /// path must record exactly the read footprint of the row path (it is
    /// recorded before the kernels run, by construction), and commits must
    /// land identically.
    #[test]
    fn session_footprints_agree_across_query_exec_modes(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 8..30),
        split in 0i64..6,
    ) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_rows(
            "t",
            schema,
            rows.iter()
                .map(|(a, b, c)| vec![Value::Int(*a), Value::Int(*b), Value::Float(*c as f64)])
                .collect(),
        )
        .unwrap();
        let sql = format!("SELECT a, b FROM t WHERE a <= {split}");
        let run = |exec: QueryExecMode| -> (String, Footprint, Vec<daisy::storage::Tuple>) {
            let mut engine = DaisyEngine::new(
                DaisyConfig::default()
                    .with_worker_threads(2)
                    .with_cost_model(false)
                    .with_query_exec(exec),
            )
            .unwrap();
            engine.register_table(table.clone());
            engine
                .add_constraint_text("dc", "t1.a = t2.a & t1.b < t2.b & t1.c > t2.c")
                .unwrap();
            let shared = engine.into_shared();
            let mut session = shared.session_named("probe");
            let outcome = session.execute_sql(&sql).unwrap();
            let reads = session.read_footprint().clone();
            session.commit().unwrap();
            (dump(&outcome.result), reads, shared.table("t").unwrap().tuples().to_vec())
        };
        let (row_dump, row_reads, row_table) = run(QueryExecMode::Row);
        for exec in [QueryExecMode::Auto, QueryExecMode::Vectorized] {
            let (vec_dump, vec_reads, vec_table) = run(exec);
            prop_assert!(row_dump == vec_dump, "result diverged under {exec}");
            prop_assert!(row_reads == vec_reads, "footprint diverged under {exec}");
            prop_assert!(row_table == vec_table, "committed table diverged under {exec}");
        }
    }
}
