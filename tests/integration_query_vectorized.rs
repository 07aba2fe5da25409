//! Differential tests: the vectorized query path against the row path.
//!
//! For random relaxed tables and random SP / SPJ / aggregate queries, the
//! vectorized executor — selection-vector filters, code-keyed joins, late
//! materialization — must return byte-identical results to the row path,
//! across predicate modes (`Expected` / `Possible`) and worker counts.  The
//! row path is a catalog without snapshots, the vectorized path the same
//! tables with current snapshots attached.  At engine level, which
//! vectorizes on its own once a table reaches the snapshot threshold, the
//! maintained snapshot must equal a fresh build after every request and
//! serve the row path's answers over the engine-made probabilistic data;
//! sessions must record the same read footprint on both paths and commit
//! what `run_serial` commits.

mod common;

use std::fmt::Write as _;

use proptest::prelude::*;

use std::sync::Arc;

use daisy::common::{ColumnId, DaisyConfig, DataType, Schema, Value};
use daisy::core::world::SNAPSHOT_MIN_ROWS;
use daisy::core::DaisyEngine;
use daisy::exec::ExecContext;
use daisy::query::physical::PredicateMode;
use daisy::query::{execute, parse_query, Catalog, LogicalPlan, QueryResult};
use daisy::service::{CleaningService, ServiceRequest};
use daisy::storage::{Candidate, CandidateValue, Cell, ColumnSnapshot, Footprint, Table};

use common::assert_matches_fresh_build;

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

/// `catalog` with a fresh snapshot attached to every listed table, so
/// every scan over those tables is vectorized.
fn with_snapshots(catalog: &Catalog, tables: &[&str]) -> Catalog {
    let mut vectorized = catalog.clone();
    for name in tables {
        vectorized.refresh_snapshot(name).unwrap();
    }
    vectorized
}

/// Runs one parsed plan on the row path (`rows`, no snapshot) and the
/// vectorized path (`vectorized`) at every worker count, and asserts all
/// dumps equal the sequential row-path dump.
fn assert_paths_agree(
    rows: &Catalog,
    vectorized: &Catalog,
    sql: &str,
) -> Result<(), TestCaseError> {
    let query = parse_query(sql).unwrap();
    let plan = LogicalPlan::from_query(&query).unwrap();
    for mode in [PredicateMode::Expected, PredicateMode::Possible] {
        let expected = dump(&execute(&ExecContext::sequential(), rows, &plan, mode).unwrap());
        for workers in [1usize, 2, 4, 7] {
            let ctx = ExecContext::new(workers);
            for (path, catalog) in [("row", rows), ("vectorized", vectorized)] {
                let got = execute(&ctx, catalog, &plan, mode).unwrap();
                prop_assert!(
                    expected == dump(&got),
                    "`{sql}` diverged ({mode:?}, {path}, {workers} workers)"
                );
            }
        }
    }
    Ok(())
}

/// The dirty `t(a, b, c)` of the engine-level tests, its rows repeated
/// `copies` times with the grouping column shifted so copies never
/// violate each other — enough copies cross the snapshot threshold.
fn engine_table(rows: &[(i64, i64, i64)], copies: i64, null_c: bool) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Float),
    ])
    .unwrap();
    let values = (0..copies).flat_map(|k| {
        rows.iter().map(move |&(a, b, c)| {
            let c = if null_c && c % 5 == 0 {
                Value::Null
            } else {
                Value::Float(c as f64 / 2.0)
            };
            vec![Value::Int(a + 6 * k), Value::Int(b), c]
        })
    });
    Table::from_rows("t", schema, values.collect()).unwrap()
}

/// Asserts the engine's snapshot of `t` is absent below the threshold and
/// equal to a fresh build from it on, and that reads through it answer
/// what the row path answers over the same (engine-cleaned) table.
fn assert_snapshot_serves_the_row_path(
    table: &Table,
    snapshot: Option<&ColumnSnapshot>,
    reads: &[String],
) -> Result<(), TestCaseError> {
    let mut rows = Catalog::new();
    rows.add(table.clone());
    let mut vectorized = rows.clone();
    match snapshot {
        None => prop_assert!(table.len() < SNAPSHOT_MIN_ROWS),
        Some(snap) => {
            prop_assert!(table.len() >= SNAPSHOT_MIN_ROWS);
            assert_matches_fresh_build(snap, table);
            vectorized
                .attach_snapshot("t", Arc::new(snap.clone()))
                .unwrap();
        }
    }
    for sql in reads {
        assert_paths_agree(&rows, &vectorized, sql)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SP and aggregate plans: row path ≡ vectorized path on results for
    /// random relaxed tables.
    #[test]
    fn vectorized_sp_plans_match_row_path(
        rows in prop::collection::vec((0i64..12, 0i64..40, 0i64..8, 0u8..255), 0..40),
        shapes in prop::collection::vec((0usize..7, 0i64..20), 1..4),
    ) {
        let mut catalog = Catalog::new();
        catalog.add(table_from_rows("t", &rows));
        let vectorized = with_snapshots(&catalog, &["t"]);
        for (shape, x) in &shapes {
            assert_paths_agree(&catalog, &vectorized, &sp_sql(*shape, *x))?;
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
        attach in 0usize..3,
    ) {
        let mut catalog = Catalog::new();
        catalog.add(table_from_rows("t", &left));
        catalog.add(right_table_from_rows(&right));
        // Either side alone or both vectorized: mixed plans join a pending
        // selection with materialized rows.
        let attached: &[&str] = match attach {
            0 => &["t"],
            1 => &["u"],
            _ => &["t", "u"],
        };
        let vectorized = with_snapshots(&catalog, attached);
        for (shape, x) in &shapes {
            assert_paths_agree(&catalog, &vectorized, &spj_sql(*shape, *x))?;
        }
    }

    /// End-to-end engine runs: the same cleaning workload at 1, 2, 4 and 7
    /// workers produces byte-identical query results, repaired tables and
    /// provenance dumps; after every query the maintained snapshot equals a
    /// fresh build, and both query execution paths — the row path and the
    /// vectorized path through that snapshot — answer alike.  Cleaning relaxes
    /// cells mid-run (the inequality DC leaves range candidates on `b` and
    /// `c`), so the later reads go through engine-made probabilistic data,
    /// the third one filtering on exactly those range candidates.
    #[test]
    fn engine_agrees_across_query_exec_modes(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 8..40),
        copies in 1i64..9,
        split in 0i64..6,
    ) {
        let table = engine_table(&rows, copies, true);
        let sql_first = format!("SELECT a, b, c FROM t WHERE a <= {split}");
        let sql_third = format!("SELECT a, b FROM t WHERE b >= {} AND c <= {}.5", split * 5, split + 3);
        let reads = [sql_first.clone(), sql_third.clone()];
        let run = |workers: usize| -> Result<_, TestCaseError> {
            let mut engine = DaisyEngine::new(
                DaisyConfig::default()
                    .with_worker_threads(workers)
                    .with_cost_model(false),
            )
            .unwrap();
            engine.register_table(table.clone());
            engine
                .add_constraint_text("dc", "t1.a = t2.a & t1.b < t2.b & t1.c > t2.c")
                .unwrap();
            let mut results = Vec::new();
            let mut repaired = 0;
            for sql in [&sql_first, &"SELECT a, b, c FROM t".to_string(), &sql_third] {
                let outcome = engine.execute_sql(sql).unwrap();
                assert_snapshot_serves_the_row_path(
                    engine.table("t").unwrap(),
                    engine.snapshot("t"),
                    &reads,
                )?;
                results.push(dump(&outcome.result));
                repaired += outcome.report.errors_repaired;
            }
            Ok((
                results,
                repaired,
                engine.table("t").unwrap().tuples().to_vec(),
                engine.provenance("t").unwrap().dump(),
            ))
        };
        let baseline = run(1)?;
        for workers in [2usize, 4, 7] {
            let replay = run(workers)?;
            prop_assert!(replay == baseline, "engine diverged at {} workers", workers);
        }
    }

    /// The same request in a session over a table below the snapshot
    /// threshold (the row query path) and over the same rows padded past it
    /// with copies that can neither violate the rule with them nor match
    /// the filter (the vectorized path): both record the same read
    /// footprint — the answer rows and the rule's columns — and the same
    /// answer, and each commits what `run_serial` commits for it.
    #[test]
    fn session_footprints_agree_across_query_exec_modes(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 8..30),
        split in 0i64..6,
    ) {
        let sql = format!("SELECT a, b FROM t WHERE a <= {split}");
        let run = |table: Table| -> Result<(String, Footprint), TestCaseError> {
            let engine = || {
                let mut engine = DaisyEngine::new(
                    DaisyConfig::default()
                        .with_worker_threads(2)
                        .with_cost_model(false),
                )
                .unwrap();
                engine.register_table(table.clone());
                engine
                    .add_constraint_text("dc", "t1.a = t2.a & t1.b < t2.b & t1.c > t2.c")
                    .unwrap();
                engine
            };
            let shared = engine().into_shared();
            let mut session = shared.session_named("probe");
            let outcome = session.execute_sql(&sql).unwrap();
            prop_assert_eq!(session.snapshot("t").is_some(), table.len() >= SNAPSHOT_MIN_ROWS);
            let reads = session.read_footprint().clone();
            for tuple in table.tuples() {
                for column in 0..3 {
                    prop_assert!(reads.covers_cell("t", tuple.id, ColumnId::new(column)));
                }
            }
            session.commit().unwrap();

            let serial = CleaningService::new(engine());
            let report = serial.run_serial(&[ServiceRequest::new("probe", sql.clone())]);
            let expected = report.outcomes[0].outcome.as_ref().unwrap();
            prop_assert_eq!(dump(&outcome.result), dump(&expected.result));
            let (committed, replayed) =
                (shared.table("t").unwrap(), serial.shared().table("t").unwrap());
            prop_assert_eq!(committed.tuples(), replayed.tuples());
            prop_assert_eq!(
                shared.provenance("t").map(|p| p.dump()),
                serial.shared().provenance("t").map(|p| p.dump())
            );
            Ok((dump(&outcome.result), reads))
        };
        let padded = SNAPSHOT_MIN_ROWS.div_ceil(rows.len()) as i64;
        let (row_answer, row_reads) = run(engine_table(&rows, 1, false))?;
        let (vectorized_answer, vectorized_reads) = run(engine_table(&rows, padded, false))?;
        prop_assert_eq!(row_answer, vectorized_answer);
        prop_assert_eq!(row_reads, vectorized_reads);
    }
}
