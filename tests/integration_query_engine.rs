//! End-to-end query execution through the cleaning engine.
//!
//! The same cleaning workload must produce byte-identical answers,
//! repaired tables and provenance at any worker count; and a session must
//! record the same read footprint and answer — and commit what
//! `run_serial` commits — over a small table and over the same rows padded
//! with rows that cannot interact with them.

use std::fmt::Write as _;

use proptest::prelude::*;

use daisy::common::{ColumnId, DaisyConfig, DataType, Schema, Value};
use daisy::core::DaisyEngine;
use daisy::query::QueryResult;
use daisy::service::{CleaningService, ServiceRequest};
use daisy::storage::{Footprint, Table};

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

/// The dirty `t(a, b, c)` of the engine-level tests, its rows repeated
/// `copies` times with the grouping column shifted so copies never
/// violate each other.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end engine runs: the same cleaning workload at 1, 2, 4 and 7
    /// workers produces byte-identical query results, repaired tables and
    /// provenance dumps.  Cleaning relaxes cells mid-run (the
    /// inequality DC leaves range candidates on `b` and `c`), so the later
    /// reads go through engine-made probabilistic data, the third one
    /// filtering on exactly those range candidates.
    #[test]
    fn engine_agrees_across_worker_counts(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..25), 8..40),
        copies in 1i64..9,
        split in 0i64..6,
    ) {
        let table = engine_table(&rows, copies, true);
        let sql_first = format!("SELECT a, b, c FROM t WHERE a <= {split}");
        let sql_third = format!("SELECT a, b FROM t WHERE b >= {} AND c <= {}.5", split * 5, split + 3);
        let run = |workers: usize| {
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
                results.push(dump(&outcome.result));
                repaired += outcome.report.errors_repaired;
            }
            (
                results,
                repaired,
                engine.table("t").unwrap().tuples().to_vec(),
                engine.provenance("t").unwrap().dump(),
            )
        };
        let baseline = run(1);
        for workers in [2usize, 4, 7] {
            let replay = run(workers);
            prop_assert!(replay == baseline, "engine diverged at {} workers", workers);
        }
    }

    /// The same request in a session over a small table and over the same
    /// rows padded to 256 or more with copies that can neither violate the rule with them nor match the filter: both record
    /// the same read footprint — the answer rows and the rule's columns —
    /// and the same answer, and each commits what `run_serial` commits for
    /// it.
    #[test]
    fn session_footprints_agree_on_a_small_and_a_padded_table(
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
        let padded = 256usize.div_ceil(rows.len()) as i64;
        let (small_answer, small_reads) = run(engine_table(&rows, 1, false))?;
        let (padded_answer, padded_reads) = run(engine_table(&rows, padded, false))?;
        prop_assert_eq!(small_answer, padded_answer);
        prop_assert_eq!(small_reads, padded_reads);
    }
}
