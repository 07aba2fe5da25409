//! Integration tests: cross-thread-count determinism.
//!
//! Every data-parallel primitive in `daisy-exec` is order preserving, and
//! the parallelised cleaning kernels (the partial theta-join DC check, FD
//! violation grouping in `cleanσ`, and candidate-range construction in the
//! general-DC repair) merge their per-partition results in partition order.
//! The end-to-end guarantee this buys is that **the number of worker
//! threads never changes any observable output**: query results, cleaning
//! reports, provenance, and the final probabilistic state of the base
//! tables are byte-identical whether the engine runs on 1 thread or 7.
//!
//! These tests pin that guarantee down for the three workload families the
//! other integration suites exercise (SP cleaning, SPJ cleaning, and
//! general-DC engine workloads).

mod common;

use std::sync::Arc;

use daisy::common::{ColumnId, TupleId, Value};
use daisy::core::clean_dc::repair_dc_violations;
use daisy::core::index::id_index;
use daisy::core::theta::ThetaMatrix;
use daisy::core::{DetectionMode, DetectionStrategy};
use daisy::data::errors::{inject_fd_errors, inject_inequality_errors};
use daisy::data::ssb::{generate_lineorder, generate_supplier, SsbConfig};
use daisy::data::workload::non_overlapping_range_queries;
use daisy::exec::ExecContext;
use daisy::prelude::*;
use daisy::storage::{CellProvenance, ProvenanceStore, Table, Tuple};

use common::assert_matches_fresh_build;

/// The worker counts every scenario is replayed at; 1 is the sequential
/// baseline, 7 deliberately does not divide typical block/row counts.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// A canonical provenance dump, as produced by `ProvenanceStore::dump`.
type ProvenanceDump = Vec<((TupleId, ColumnId), CellProvenance)>;

/// Everything observable about one engine session, in deterministic order.
#[derive(Debug, Clone, PartialEq)]
struct SessionSnapshot {
    /// Per-query result tuples (schema-ordered cells, candidate sets and
    /// all — `Tuple` equality is structural).
    results: Vec<Vec<Tuple>>,
    /// Per-query report counters (everything except wall-clock time).
    reports: Vec<ReportCounters>,
    /// Canonical provenance dump per table, in table-name order.
    provenance: Vec<(String, ProvenanceDump)>,
    /// Final base-table tuples per table, in table-name order.
    tables: Vec<(String, Vec<Tuple>)>,
}

#[derive(Debug, Clone, PartialEq)]
struct ReportCounters {
    strategy: CleaningStrategy,
    result_tuples: usize,
    extra_tuples: usize,
    relaxation_iterations: usize,
    errors_repaired: usize,
    cells_updated: usize,
    estimated_accuracy: f64,
}

/// Runs `queries` against a fresh engine built by `setup` and snapshots
/// every observable output.
fn snapshot(mut engine: DaisyEngine, table_names: &[&str], queries: &[Query]) -> SessionSnapshot {
    let mut results = Vec::with_capacity(queries.len());
    for query in queries {
        let outcome = engine.execute(query).expect("query must succeed");
        results.push(outcome.result.tuples);
    }
    let reports = engine
        .session()
        .queries
        .iter()
        .map(|r| ReportCounters {
            strategy: r.strategy,
            result_tuples: r.result_tuples,
            extra_tuples: r.extra_tuples,
            relaxation_iterations: r.relaxation_iterations,
            errors_repaired: r.errors_repaired,
            cells_updated: r.cells_updated,
            estimated_accuracy: r.estimated_accuracy,
        })
        .collect();
    let mut names: Vec<&str> = table_names.to_vec();
    names.sort_unstable();
    let provenance = names
        .iter()
        .map(|n| {
            (
                n.to_string(),
                engine.provenance(n).map(|p| p.dump()).unwrap_or_default(),
            )
        })
        .collect();
    let tables = names
        .iter()
        .map(|n| (n.to_string(), engine.table(n).unwrap().tuples().to_vec()))
        .collect();
    SessionSnapshot {
        results,
        reports,
        provenance,
        tables,
    }
}

/// Replays one scenario at every worker count and asserts each snapshot is
/// identical to the single-threaded baseline.
fn assert_thread_count_invariant<F>(scenario: &str, table_names: &[&str], build: F)
where
    F: Fn(usize) -> (DaisyEngine, Vec<Query>),
{
    let (engine, queries) = build(1);
    let baseline = snapshot(engine, table_names, &queries);
    assert!(
        baseline.reports.iter().any(|r| r.errors_repaired > 0),
        "scenario `{scenario}` must actually repair something to be a meaningful determinism probe"
    );
    for workers in &WORKER_COUNTS[1..] {
        let (engine, queries) = build(*workers);
        let replay = snapshot(engine, table_names, &queries);
        assert_eq!(
            baseline, replay,
            "scenario `{scenario}` diverged at {workers} worker threads"
        );
    }
}

fn config(workers: usize) -> DaisyConfig {
    DaisyConfig::default()
        .with_worker_threads(workers)
        .with_data_partitions(2 * workers)
        .with_cost_model(false)
}

#[test]
fn sp_fd_cleaning_is_thread_count_invariant() {
    let ssb = SsbConfig {
        lineorder_rows: 1_200,
        distinct_orderkeys: 120,
        distinct_suppkeys: 40,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_fd_errors(&mut table, "orderkey", "suppkey", 1.0, 0.15, 41).unwrap();
    let workload =
        non_overlapping_range_queries(&table, "suppkey", 8, &["orderkey", "suppkey"]).unwrap();

    assert_thread_count_invariant("sp", &["lineorder"], |workers| {
        let mut engine = DaisyEngine::new(config(workers)).unwrap();
        engine.register_table(table.clone());
        engine.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
        (engine, workload.queries.clone())
    });
}

#[test]
fn spj_cleaning_is_thread_count_invariant() {
    let ssb = SsbConfig {
        lineorder_rows: 1_000,
        distinct_orderkeys: 100,
        distinct_suppkeys: 40,
        ..SsbConfig::default()
    };
    let mut lineorder = generate_lineorder(&ssb).unwrap();
    let mut supplier = generate_supplier(&ssb).unwrap();
    inject_fd_errors(&mut lineorder, "orderkey", "suppkey", 1.0, 0.1, 42).unwrap();
    inject_fd_errors(&mut supplier, "address", "suppkey", 0.5, 0.5, 43).unwrap();
    let queries: Vec<Query> = [
        "SELECT lineorder.orderkey, lineorder.suppkey, supplier.name FROM lineorder \
         JOIN supplier ON lineorder.suppkey = supplier.suppkey WHERE orderkey <= 30",
        "SELECT lineorder.orderkey, supplier.address FROM lineorder \
         JOIN supplier ON lineorder.suppkey = supplier.suppkey WHERE orderkey <= 200",
    ]
    .iter()
    .map(|sql| parse_query(sql).unwrap())
    .collect();

    assert_thread_count_invariant("spj", &["lineorder", "supplier"], |workers| {
        let mut engine = DaisyEngine::new(config(workers)).unwrap();
        engine.register_table(lineorder.clone());
        engine.register_table(supplier.clone());
        engine.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
        engine.add_fd(&FunctionalDependency::new(&["address"], "suppkey"), "psi");
        (engine, queries.clone())
    });
}

#[test]
fn general_dc_engine_workload_is_thread_count_invariant() {
    let ssb = SsbConfig {
        lineorder_rows: 900,
        distinct_orderkeys: 180,
        distinct_suppkeys: 20,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_inequality_errors(&mut table, "extended_price", "discount", 0.05, 0.5, 44).unwrap();
    let queries: Vec<Query> = [
        "SELECT extended_price, discount FROM lineorder WHERE extended_price <= 4000",
        "SELECT extended_price, discount FROM lineorder WHERE extended_price >= 3000",
        "SELECT extended_price, discount FROM lineorder",
    ]
    .iter()
    .map(|sql| parse_query(sql).unwrap())
    .collect();

    assert_thread_count_invariant("engine-dc", &["lineorder"], |workers| {
        let mut engine = DaisyEngine::new(config(workers).with_theta_partitions(16)).unwrap();
        engine.register_table(table.clone());
        engine
            .add_constraint_text(
                "dc",
                "t1.extended_price < t2.extended_price & t1.discount > t2.discount",
            )
            .unwrap();
        (engine, queries.clone())
    });
}

#[test]
fn morsel_granularity_is_invariant_on_a_skewed_workload() {
    // `data_partitions` controls only morsel granularity — how finely the
    // work-stealing scheduler slices each kernel's input — and must never
    // change an observable output.  The workload is deliberately
    // equality-skewed: half the rows are collapsed onto one hot supplier,
    // so the hot hash partition dominates the candidate mass and the
    // weighted morsel cuts genuinely split it (at 16 partitions a single
    // sweep task covers only a slice of the hot partition's outer loop).
    // Half, not more: the cost model charges the hot partition
    // `max_group²`, and above about 70% of the rows that outweighs the
    // pairwise scan and the engine would not run the index sweep at all.
    // Every (workers, data_partitions) combination must produce a session
    // byte-identical to the 1-worker, 1-partition baseline.
    let ssb = SsbConfig {
        lineorder_rows: 900,
        distinct_orderkeys: 180,
        distinct_suppkeys: 20,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_inequality_errors(&mut table, "extended_price", "discount", 0.08, 0.5, 51).unwrap();
    // Collapse every other row onto supplier 1.
    let schema = table.schema().as_ref().clone();
    let suppkey = schema.index_of("suppkey").unwrap();
    let width = schema.len();
    let values: Vec<Vec<Value>> = table
        .tuples()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (0..width)
                .map(|c| {
                    if c == suppkey && i % 2 != 0 {
                        Value::Int(1)
                    } else {
                        t.value(c).unwrap()
                    }
                })
                .collect()
        })
        .collect();
    let table = Table::from_rows("lineorder", schema, values).unwrap();
    let queries: Vec<Query> = [
        "SELECT suppkey, extended_price, discount FROM lineorder WHERE extended_price <= 4000",
        "SELECT suppkey, extended_price, discount FROM lineorder",
    ]
    .iter()
    .map(|sql| parse_query(sql).unwrap())
    .collect();

    let build = |workers: usize, partitions: usize| {
        let mut engine = DaisyEngine::new(
            config(workers)
                .with_data_partitions(partitions)
                .with_theta_partitions(16),
        )
        .unwrap();
        engine.register_table(table.clone());
        engine
            .add_constraint_text(
                "dc",
                "t1.suppkey = t2.suppkey & t1.extended_price < t2.extended_price \
                 & t1.discount > t2.discount",
            )
            .unwrap();
        (engine, queries.clone())
    };

    let (engine, qs) = build(1, 1);
    // The engine resolves the kernel on the whole table, as this build does
    // (on the row path; its snapshot only discounts the index further).
    let dc = engine.constraints().rules()[0].clone();
    let schema = Arc::new(table.schema().qualify("lineorder"));
    assert_eq!(
        ThetaMatrix::build(&schema, table.tuples(), &dc, 16)
            .unwrap()
            .detection_mode(),
        DetectionMode::Indexed,
        "the skewed workload must run the indexed kernel to probe its morsel cuts"
    );
    let baseline = snapshot(engine, &["lineorder"], &qs);
    assert!(
        baseline.reports.iter().any(|r| r.errors_repaired > 0),
        "the skewed workload must actually repair something to be a meaningful probe"
    );
    for &partitions in &[1usize, 3, 16] {
        for &workers in &WORKER_COUNTS {
            let (engine, qs) = build(workers, partitions);
            let replay = snapshot(engine, &["lineorder"], &qs);
            assert_eq!(
                baseline, replay,
                "skewed session diverged at {workers} workers x {partitions} data partitions"
            );
        }
    }
}

#[test]
fn dc_detection_matches_the_pairwise_kernel_and_is_thread_count_invariant() {
    // An equality-bearing DC (inverted price/discount pairs *within a
    // supplier*), large and selective enough for the cost model to weigh
    // the indexed kernel, plus the incremental range flow of the engine.
    // The session must be invariant across worker counts, and — whatever
    // kernel the engine picked — repair exactly what the pairwise kernel's
    // violations call for.
    let ssb = SsbConfig {
        lineorder_rows: 900,
        distinct_orderkeys: 180,
        distinct_suppkeys: 20,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_inequality_errors(&mut table, "extended_price", "discount", 0.1, 0.6, 46).unwrap();
    let queries: Vec<Query> = [
        "SELECT suppkey, extended_price, discount FROM lineorder WHERE extended_price <= 4000",
        "SELECT suppkey, extended_price, discount FROM lineorder",
    ]
    .iter()
    .map(|sql| parse_query(sql).unwrap())
    .collect();
    let build = |workers: usize| {
        let mut engine = DaisyEngine::new(config(workers).with_theta_partitions(16)).unwrap();
        engine.register_table(table.clone());
        engine
            .add_constraint_text(
                "dc",
                "t1.suppkey = t2.suppkey & t1.extended_price < t2.extended_price \
                 & t1.discount > t2.discount",
            )
            .unwrap();
        (engine, queries.clone())
    };
    assert_thread_count_invariant("general-dc-detection", &["lineorder"], build);

    // The reference: the pairwise kernel over the whole table.  The first
    // query's answer spans every supplier — the partition attribute — so
    // its range check already covers every block pair, and the second
    // query finds nothing left to repair.
    let (engine, queries) = build(1);
    let suppkey = table.schema().index_of("suppkey").unwrap();
    let spanned: std::collections::BTreeSet<i64> = table
        .tuples()
        .iter()
        .filter(|t| {
            t.value(table.schema().index_of("extended_price").unwrap())
                .unwrap()
                <= Value::Int(4000)
        })
        .map(|t| match t.value(suppkey).unwrap() {
            Value::Int(k) => k,
            other => panic!("suppkey {other:?}"),
        })
        .collect();
    assert_eq!(spanned.len(), ssb.distinct_suppkeys);
    let dc = engine.constraints().rules()[0].clone();
    let schema = Arc::new(table.schema().qualify("lineorder"));
    let ctx = ExecContext::new(1);
    let mut matrix = ThetaMatrix::build_with_strategy(
        &schema,
        table.tuples(),
        &dc,
        4,
        DetectionStrategy::Pairwise,
    )
    .unwrap();
    let (violations, _) = matrix.check_all(&ctx, &schema, table.tuples()).unwrap();
    let by_id = id_index(&ctx, table.tuples());
    let mut provenance = ProvenanceStore::default();
    let repair =
        repair_dc_violations(&ctx, &schema, &dc, &violations, &by_id, &mut provenance).unwrap();
    drop(by_id);
    let mut expected = table.clone();
    expected.apply_delta(&repair.delta).unwrap();

    let session = snapshot(engine, &["lineorder"], &queries);
    assert_eq!(session.reports[0].errors_repaired, repair.errors_detected);
    assert_eq!(session.reports[1].errors_repaired, 0);
    assert_eq!(session.tables[0].1, expected.tuples());
    assert_eq!(session.provenance[0].1, provenance.dump());
}

#[test]
fn maintained_snapshot_matches_a_fresh_build_and_is_thread_count_invariant() {
    // A workload that mixes an FD (exercising the snapshot-keyed `cleanσ`
    // grouping — 1.2k rows clear the snapshot threshold) and an
    // equality-bearing general DC (exercising the coded violation index and
    // the snapshot-patched repair loop), replayed at every worker count.
    // After every query the snapshot the engine patched along its repairs
    // must hold exactly what a fresh build of the table holds.
    let ssb = SsbConfig {
        lineorder_rows: 1_200,
        distinct_orderkeys: 120,
        distinct_suppkeys: 20,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_fd_errors(&mut table, "orderkey", "suppkey", 1.0, 0.1, 47).unwrap();
    inject_inequality_errors(&mut table, "extended_price", "discount", 0.08, 0.5, 48).unwrap();
    let queries: Vec<Query> = [
        "SELECT orderkey, suppkey FROM lineorder WHERE suppkey <= 8",
        "SELECT suppkey, extended_price, discount FROM lineorder WHERE extended_price <= 4000",
        "SELECT suppkey, extended_price, discount FROM lineorder",
    ]
    .iter()
    .map(|sql| parse_query(sql).unwrap())
    .collect();
    let build = |workers: usize| {
        let mut engine = DaisyEngine::new(config(workers).with_theta_partitions(16)).unwrap();
        engine.register_table(table.clone());
        engine.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
        engine
            .add_constraint_text(
                "dc",
                "t1.suppkey = t2.suppkey & t1.extended_price < t2.extended_price \
                 & t1.discount > t2.discount",
            )
            .unwrap();
        (engine, queries.clone())
    };
    assert_thread_count_invariant("fd-and-dc-over-a-snapshot", &["lineorder"], build);

    let (mut engine, queries) = build(1);
    for query in &queries {
        engine.execute(query).unwrap();
        let table = engine.table("lineorder").unwrap();
        let snap = engine
            .snapshot("lineorder")
            .expect("1.2k rows keep a snapshot");
        assert_matches_fresh_build(snap, table);
    }
}

#[test]
fn interleaved_session_commits_are_thread_count_invariant() {
    // Two sessions branch from the same shared world, execute overlapping
    // cleaning queries *before* either commits, then commit in a fixed
    // order — the second validates stale and rebases.  The committed world
    // and both final outcomes must equal the strictly serial execution of
    // the same two requests, at every worker count.
    let ssb = SsbConfig {
        lineorder_rows: 600,
        distinct_orderkeys: 60,
        distinct_suppkeys: 15,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_fd_errors(&mut table, "orderkey", "suppkey", 1.0, 0.15, 49).unwrap();
    let sql_a = "SELECT orderkey, suppkey FROM lineorder WHERE suppkey <= 7";
    let sql_b = "SELECT orderkey, suppkey FROM lineorder WHERE suppkey <= 12";

    let shared_for = |workers: usize| {
        let mut engine = DaisyEngine::new(config(workers)).unwrap();
        engine.register_table(table.clone());
        engine.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
        engine.into_shared()
    };

    let interleaved = |workers: usize| {
        let shared = shared_for(workers);
        let mut a = shared.session();
        let mut b = shared.session();
        a.execute_sql(sql_a).unwrap();
        b.execute_sql(sql_b).unwrap();
        let ra = a.commit().unwrap();
        let rb = b.commit().unwrap();
        assert!(!ra.rebased);
        assert!(rb.rebased, "the second commit must detect the conflict");
        (
            ra.outcomes[0].result.tuples.clone(),
            rb.outcomes[0].result.tuples.clone(),
            shared.table("lineorder").unwrap().tuples().to_vec(),
            shared.provenance("lineorder").unwrap().dump(),
        )
    };
    let serial = || {
        let shared = shared_for(1);
        let mut a = shared.session();
        a.execute_sql(sql_a).unwrap();
        let ra = a.commit().unwrap();
        let mut b = shared.session();
        b.execute_sql(sql_b).unwrap();
        let rb = b.commit().unwrap();
        assert!(!rb.rebased);
        (
            ra.outcomes[0].result.tuples.clone(),
            rb.outcomes[0].result.tuples.clone(),
            shared.table("lineorder").unwrap().tuples().to_vec(),
            shared.provenance("lineorder").unwrap().dump(),
        )
    };

    let baseline = serial();
    for workers in WORKER_COUNTS {
        assert_eq!(
            interleaved(workers),
            baseline,
            "interleaved sessions diverged from serial at {workers} workers"
        );
    }
}

#[test]
fn worker_thread_env_override_preserves_results() {
    // The CI matrix forces DAISY_WORKER_THREADS; when it is set, the forced
    // count must flow into `DaisyConfig::default()` (the plumbing this test
    // pins down), and an engine built from the untouched default must
    // return the same results as one with an explicit, different worker
    // count — i.e. the override can change only the thread count, never
    // behaviour.
    if let Some(forced) = DaisyConfig::env_worker_threads() {
        assert_eq!(
            DaisyConfig::default().worker_threads,
            forced,
            "DAISY_WORKER_THREADS must size the default config"
        );
    }

    let ssb = SsbConfig {
        lineorder_rows: 400,
        distinct_orderkeys: 40,
        distinct_suppkeys: 10,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&ssb).unwrap();
    inject_fd_errors(&mut table, "orderkey", "suppkey", 1.0, 0.2, 45).unwrap();

    let run = |cfg: DaisyConfig| {
        let mut engine = DaisyEngine::new(cfg).unwrap();
        engine.register_table(table.clone());
        engine.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
        let outcome = engine
            .execute_sql("SELECT orderkey, suppkey FROM lineorder WHERE suppkey <= 5")
            .unwrap();
        (outcome.result.tuples, outcome.report.errors_repaired)
    };
    // Env-sized (or machine-sized) default vs an explicit different count.
    let default_cfg = DaisyConfig::default().with_cost_model(false);
    let other_workers = default_cfg.worker_threads + 3;
    assert_eq!(run(default_cfg), run(config(other_workers)));
}
