//! Differential tests for the streaming-ingest path: the persistent
//! [`MaintainedIndex`] absorbed delta by delta must be indistinguishable —
//! violations, candidate-pair counts, repaired tables, provenance — from
//! rebuilding the violation index on every check, and from a brute-force
//! quadratic oracle; and the service scheduler must replay ingest streams
//! byte-identically at any worker count.
//!
//! Three layers, matching how the incremental path is assembled:
//!
//! 1. **Index layer** — `absorb_delta` + `detect_delta` versus a fresh
//!    [`ViolationIndex`] swept with the delta admit filter, versus the
//!    quadratic oracle restricted to pairs touching the delta.
//! 2. **Engine layer** — `DaisyEngine::ingest_rows` on its maintained
//!    indexes versus the kernel-level reference (per-batch rebuild sweep
//!    plus repair): identical final tuples, provenance and cleaning
//!    reports; and a table grown by interleaved ingests and queries ends
//!    where `run_serial` ends, directly and through sessions.
//! 3. **Service layer** — mixed SQL + ingest request streams at 1/2/4/7
//!    scheduler workers: identical outcomes, tables and provenance.

use proptest::prelude::*;

use std::sync::Arc;

use daisy::common::{DaisyConfig, DataType, Schema, Value};
use daisy::core::clean_dc::repair_dc_violations;
use daisy::core::index::{canonicalize_violations, id_index, MaintainedIndex, ViolationIndex};
use daisy::core::DaisyEngine;
use daisy::exec::ExecContext;
use daisy::expr::{ComparisonOp, DcPredicate, DenialConstraint, Operand, Violation};
use daisy::service::{CleaningService, ServiceRequest};
use daisy::storage::{Delta, ProvenanceStore, Table};

/// Builds the shared three-column test table: `a` is a low-cardinality
/// grouping column, `b` numeric, `c` a float column with occasional NULLs
/// so NULL sweep exclusion is exercised through the maintained path too.
fn row_values(row: &(i64, i64, i64)) -> Vec<Value> {
    let (a, b, c) = *row;
    let c = if c % 5 == 0 {
        Value::Null
    } else {
        Value::Float(c as f64 / 2.0)
    };
    vec![Value::Int(a), Value::Int(b), c]
}

fn table_from_rows(rows: &[(i64, i64, i64)]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Float),
    ])
    .unwrap();
    Table::from_rows("t", schema, rows.iter().map(row_values).collect()).unwrap()
}

const COLUMNS: [&str; 3] = ["a", "b", "c"];

/// Decodes one `(op, left column, right column, shape)` spec into a
/// predicate, same scheme as `integration_detection_differential`.
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

/// An equality-bearing DC with a random residual tail: the shape the index
/// subsystem is built for, and one that reliably produces repairs.
fn equality_dc(tail: &[(usize, usize, usize, usize)]) -> DenialConstraint {
    let mut predicates = vec![
        DcPredicate::new(
            Operand::attr(0, "a"),
            ComparisonOp::Eq,
            Operand::attr(1, "a"),
        ),
        DcPredicate::new(
            Operand::attr(0, "b"),
            ComparisonOp::Lt,
            Operand::attr(1, "b"),
        ),
    ];
    predicates.extend(tail.iter().map(predicate_from_spec));
    DenialConstraint::new("dc", 2, predicates)
}

/// Brute-force delta-restricted oracle: every ordered pair of distinct
/// tuples with at least one member at a delta position, canonicalised.
fn delta_oracle(table: &Table, dc: &DenialConstraint, delta_from: usize) -> Vec<Violation> {
    let tuples = table.tuples();
    let mut expected = Vec::new();
    for (i, x) in tuples.iter().enumerate() {
        for (j, y) in tuples.iter().enumerate() {
            if i == j || (i < delta_from && j < delta_from) {
                continue;
            }
            if dc.violated_by(table.schema(), &[x, y]).unwrap() {
                expected.push(Violation::pair(dc.id, x.id, y.id).canonical());
            }
        }
    }
    expected.sort_by(|a, b| a.tuples.cmp(&b.tuples));
    expected.dedup();
    expected
}

/// Appends `rows` to `table` as one append delta with fresh sequential
/// ids — the same delta `DaisyEngine::ingest_rows` stages.
fn append_batch(table: &mut Table, rows: &[(i64, i64, i64)]) -> Delta {
    let mut delta = Delta::new();
    let base = table.next_tuple_id().raw();
    for (k, row) in rows.iter().enumerate() {
        delta.push_append(
            daisy::common::TupleId::new(base + k as u64),
            row_values(row),
        );
    }
    table.apply_delta(&delta).unwrap();
    delta
}

fn engine_with(base: &[(i64, i64, i64)], dc: &DenialConstraint) -> DaisyEngine {
    let mut engine = DaisyEngine::new(DaisyConfig::default().with_worker_threads(1)).unwrap();
    engine.register_table(table_from_rows(base));
    engine.add_constraint(dc.clone());
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Index layer: across a stream of append batches, the maintained
    /// index (absorbed delta by delta, never rebuilt) finds exactly the
    /// violations of (a) a fresh per-batch index rebuild swept with the
    /// delta admit filter `i ∈ Δ ∨ j ∈ Δ` — including the candidate-pair
    /// counts — and (b) the brute-force quadratic oracle restricted to
    /// pairs touching the delta.
    #[test]
    fn maintained_index_matches_rebuild_and_oracle_across_batches(
        base in prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 2..50),
        tail in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 0..3),
        batches in prop::collection::vec(
            prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 1..8),
            1..4,
        ),
    ) {
        let ctx = ExecContext::new(2);
        let dc = equality_dc(&tail);
        let plan = dc.index_plan().expect("two-tuple DCs always have a plan");
        let mut table = table_from_rows(&base);
        let schema = table.schema().as_ref().clone();
        let mut maintained = MaintainedIndex::build(&schema, &dc, &plan, &table).unwrap();

        for batch in &batches {
            let delta = append_batch(&mut table, batch);
            maintained.absorb_delta(&table, &delta).unwrap();
            prop_assert!(maintained.is_current(&table));
            let delta_from = table.len() - batch.len();
            let positions: Vec<usize> = (delta_from..table.len()).collect();
            let (incremental, incremental_pairs) = maintained
                .detect_delta(&ctx, &schema, table.tuples(), &positions)
                .unwrap();

            let rebuilt = ViolationIndex::build(&ctx, &schema, &dc, &plan, table.tuples()).unwrap();
            let (found, rebuild_pairs) = rebuilt
                .sweep_detect(&ctx, &schema, table.tuples(), |i, j| {
                    i >= delta_from || j >= delta_from
                })
                .unwrap();
            let rebuild = canonicalize_violations(found);

            prop_assert_eq!(&incremental, &rebuild);
            prop_assert_eq!(incremental_pairs, rebuild_pairs);
            prop_assert_eq!(&incremental, &delta_oracle(&table, &dc, delta_from));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine layer: an ingest stream through `DaisyEngine::ingest_rows`
    /// (on its maintained indexes) produces the repaired tables,
    /// provenance and per-batch cleaning reports of the kernel-level
    /// reference: append the batch, rebuild the violation index over the
    /// whole table, sweep only the pairs that touch the batch, repair what
    /// it finds.
    #[test]
    fn incremental_ingest_matches_rebuild_mode_end_to_end(
        base in prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 2..40),
        tail in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..5), 0..2),
        batches in prop::collection::vec(
            prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 0..6),
            1..4,
        ),
    ) {
        let ctx = ExecContext::new(1);
        let dc = equality_dc(&tail);
        let plan = dc.index_plan().expect("two-tuple DCs always have a plan");
        let mut engine = engine_with(&base, &dc);
        let mut table = table_from_rows(&base);
        let schema = Arc::clone(table.schema());
        let mut provenance: Option<ProvenanceStore> = None;
        for batch in &batches {
            let outcome = engine.ingest_rows("t", batch.iter().map(row_values).collect()).unwrap();
            if batch.is_empty() {
                prop_assert_eq!(outcome.report.errors_repaired, 0);
                continue;
            }
            append_batch(&mut table, batch);
            let delta_from = table.len() - batch.len();
            let index = ViolationIndex::build(&ctx, &schema, &dc, &plan, table.tuples()).unwrap();
            let (found, _) = index
                .sweep_detect(&ctx, &schema, table.tuples(), |i, j| {
                    i >= delta_from || j >= delta_from
                })
                .unwrap();
            let violations = canonicalize_violations(found);
            let (errors, cells) = if violations.is_empty() {
                (0, 0)
            } else {
                let by_id = id_index(&ctx, table.tuples());
                let store = provenance.get_or_insert_with(ProvenanceStore::default);
                let repair =
                    repair_dc_violations(&ctx, &schema, &dc, &violations, &by_id, store).unwrap();
                drop(by_id);
                table.apply_delta(&repair.delta).unwrap();
                (repair.errors_detected, repair.delta.len())
            };
            prop_assert_eq!(outcome.report.errors_repaired, errors);
            prop_assert_eq!(outcome.report.cells_updated, cells);
        }
        prop_assert_eq!(engine.table("t").unwrap().tuples(), table.tuples());
        prop_assert_eq!(
            engine.provenance("t").map(|p| p.dump()).unwrap_or_default(),
            provenance.map(|p| p.dump()).unwrap_or_default()
        );
    }
}

/// The rows of the growing-table stream: a fixed, dirty pattern over
/// the `equality_dc` columns (19 groups, NULLs in `c`).
fn threshold_row(i: i64) -> Vec<Value> {
    row_values(&(i % 19, (i * 37) % 101, (i * 53) % 89))
}

/// A table grown from 200 to 320 rows by ingest batches with cleaning
/// queries in between, once through `DaisyEngine::ingest_rows` and once
/// through one session per request, at 1 and 2 engine workers.  The
/// answers of both runs agree, and their final tables and provenance equal
/// `run_serial` over the same stream.
#[test]
fn growing_table_matches_serial_directly_and_in_sessions() {
    let dc = equality_dc(&[]);
    let base: Vec<Vec<Value>> = (0..200).map(threshold_row).collect();
    let mut requests = Vec::new();
    for k in 0..6i64 {
        let rows = (200 + 20 * k..220 + 20 * k).map(threshold_row).collect();
        requests.push(ServiceRequest::ingest("s", "t", rows));
        requests.push(ServiceRequest::new(
            "s",
            format!("SELECT a, b, c FROM t WHERE a <= {}", k % 4),
        ));
    }
    let engine_for = |workers: usize| {
        let mut engine =
            DaisyEngine::new(DaisyConfig::default().with_worker_threads(workers)).unwrap();
        let schema = table_from_rows(&[]).schema().as_ref().clone();
        engine.register_table(Table::from_rows("t", schema, base.clone()).unwrap());
        engine.add_constraint(dc.clone());
        engine
    };
    let serial = CleaningService::new(engine_for(1));
    serial.run_serial(&requests);
    let expected_table = serial.shared().table("t").unwrap();
    let expected_provenance = serial.shared().provenance("t").map(|p| p.dump());

    for workers in [1usize, 2] {
        let mut engine = engine_for(workers);
        let shared = engine_for(workers).into_shared();
        for request in &requests {
            let mut session = shared.session();
            let (direct, staged) = match &request.op {
                daisy::service::RequestOp::Ingest { table, rows } => (
                    engine.ingest_rows(table, rows.clone()).unwrap(),
                    session.ingest_rows(table, rows.clone()).unwrap(),
                ),
                daisy::service::RequestOp::Sql(sql) => (
                    engine.execute_sql(sql).unwrap(),
                    session.execute_sql(sql).unwrap(),
                ),
            };
            assert_eq!(direct.result.tuples, staged.result.tuples);
            assert_eq!(direct.report.errors_repaired, staged.report.errors_repaired);
            session.commit().unwrap();
        }
        assert_eq!(engine.table("t").unwrap().len(), 320);
        assert_eq!(engine.table("t").unwrap().tuples(), expected_table.tuples());
        assert_eq!(shared.table("t").unwrap().tuples(), expected_table.tuples());
        assert_eq!(
            engine.provenance("t").map(|p| p.dump()),
            expected_provenance
        );
        assert_eq!(
            shared.provenance("t").map(|p| p.dump()),
            expected_provenance
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Service layer: a mixed SQL + ingest request stream commits
    /// byte-identically at 1, 2, 4 and 7 scheduler workers — the streaming
    /// ingest path composes with speculative execution and footprint-based
    /// commit validation without breaking the determinism guarantee.
    #[test]
    fn ingest_request_streams_are_deterministic_at_any_worker_count(
        base in prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 2..30),
        batches in prop::collection::vec(
            prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 0..5),
            1..4,
        ),
    ) {
        let dc = equality_dc(&[]);
        let requests: Vec<ServiceRequest> = batches
            .iter()
            .enumerate()
            .flat_map(|(k, batch)| {
                let rows: Vec<Vec<Value>> = batch.iter().map(row_values).collect();
                vec![
                    ServiceRequest::ingest(format!("s{}", k % 3), "t", rows),
                    ServiceRequest::new(format!("s{}", (k + 1) % 3), "SELECT b FROM t WHERE a = 1"),
                ]
            })
            .collect();

        let run = |workers: usize| {
            let service = CleaningService::new(engine_with(&base, &dc));
            let report = service.run_with_workers(&requests, workers);
            let observable: Vec<(usize, Option<Vec<daisy::storage::Tuple>>)> = report
                .outcomes
                .iter()
                .map(|o| (o.submitted, o.outcome.as_ref().ok().map(|q| q.result.tuples.clone())))
                .collect();
            let table = service.shared().table("t").unwrap().tuples().to_vec();
            let provenance = service.shared().provenance("t").map(|p| p.dump());
            (observable, table, provenance)
        };

        let serial = run(1);
        for workers in [2usize, 4, 7] {
            let concurrent = run(workers);
            prop_assert!(concurrent == serial, "diverged at {} workers", workers);
        }
    }
}

/// A copy of `table`'s rows that shares no cell storage with it — the
/// reference an isolation check compares a session's view against.
fn deep_copy(table: &Table) -> Vec<daisy::storage::Tuple> {
    table
        .tuples()
        .iter()
        .map(|t| {
            daisy::storage::Tuple::from_cells(t.id, t.cells.to_vec())
                .with_lineage(t.lineage.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Session layer: versions share storage, so isolation has to be shown
    /// directly.  Every request runs in its own session — open, one write
    /// (ingest) or cleaning read (SELECT), commit — and the three steps of
    /// all sessions are interleaved at random.  Whatever the others commit
    /// in between, a session reads exactly a deep copy of the world taken
    /// when it opened (before its own request) and exactly a deep copy of
    /// its own post-request state (until its commit); and the committed
    /// tables and provenance equal `run_serial` over the requests in commit
    /// order, at 1, 2 and 4 engine workers.
    #[test]
    fn open_sessions_are_isolated_from_commits_that_share_their_storage(
        base in prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 2..30),
        plan in prop::collection::vec(
            (
                prop::collection::vec((0i64..5, 0i64..30, 0i64..25), 0..4),
                0i64..5,
                (0u32..1000, 0u32..1000, 0u32..1000),
            ),
            1..7,
        ),
    ) {
        let dc = equality_dc(&[]);
        // An empty batch stands for a cleaning SELECT.
        let requests: Vec<ServiceRequest> = plan
            .iter()
            .enumerate()
            .map(|(k, (batch, key, _))| {
                if batch.is_empty() {
                    ServiceRequest::new(format!("s{k}"), format!("SELECT b FROM t WHERE a = {key}"))
                } else {
                    ServiceRequest::ingest(format!("s{k}"), "t", batch.iter().map(row_values).collect())
                }
            })
            .collect();
        // Each request's three keys, sorted, time its open < execute < commit.
        let mut events: Vec<(u32, usize, usize)> = plan
            .iter()
            .enumerate()
            .flat_map(|(k, (_, _, (x, y, z)))| {
                let mut at = [*x, *y, *z];
                at.sort_unstable();
                (0..3).map(move |step| (at[step], k, step))
            })
            .collect();
        events.sort_unstable();

        for workers in [1usize, 2, 4] {
            let engine = |base: &[(i64, i64, i64)]| {
                let mut engine =
                    DaisyEngine::new(DaisyConfig::default().with_worker_threads(workers)).unwrap();
                engine.register_table(table_from_rows(base));
                engine.add_constraint(dc.clone());
                engine
            };
            let shared = engine(&base).into_shared();
            let mut sessions = Vec::new();
            sessions.resize_with(plan.len(), || None);
            let mut commit_order = Vec::new();
            for &(_, k, step) in &events {
                match step {
                    0 => {
                        let session = shared.session_named(&format!("s{k}"));
                        let reference = deep_copy(session.table("t").unwrap());
                        sessions[k] = Some((session, reference));
                    }
                    1 => {
                        let (session, reference) = sessions[k].as_mut().unwrap();
                        prop_assert_eq!(session.table("t").unwrap().tuples(), &reference[..]);
                        let (batch, key, _) = &plan[k];
                        if batch.is_empty() {
                            session
                                .execute_sql(&format!("SELECT b FROM t WHERE a = {key}"))
                                .unwrap();
                        } else {
                            session
                                .ingest_rows("t", batch.iter().map(row_values).collect())
                                .unwrap();
                        }
                        *reference = deep_copy(session.table("t").unwrap());
                    }
                    _ => {
                        let (mut session, reference) = sessions[k].take().unwrap();
                        prop_assert_eq!(session.table("t").unwrap().tuples(), &reference[..]);
                        session.commit().unwrap();
                        commit_order.push(k);
                    }
                }
            }

            let ordered: Vec<ServiceRequest> =
                commit_order.iter().map(|&k| requests[k].clone()).collect();
            let serial = CleaningService::new(engine(&base));
            serial.run_serial(&ordered);
            let (committed, expected) = (
                shared.table("t").unwrap(),
                serial.shared().table("t").unwrap(),
            );
            prop_assert_eq!(committed.tuples(), expected.tuples());
            prop_assert_eq!(
                shared.provenance("t").map(|p| p.dump()),
                serial.shared().provenance("t").map(|p| p.dump())
            );
        }
    }
}
