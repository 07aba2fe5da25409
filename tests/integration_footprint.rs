//! Integration tests: footprint-based commit validation.
//!
//! Two properties are pinned down here, on top of the worker-count
//! invariance `integration_service.rs` already enforces:
//!
//! 1. **Validation never changes an observable output.**  Concurrent
//!    sessions produce the query results, tables and provenance of
//!    `run_serial` over the same admitted requests, at every worker count
//!    — footprint validation only changes *how* a commit is admitted,
//!    never *what* it publishes.
//! 2. **Disjoint-table workloads never replay.**  Sessions cleaning different tables have disjoint
//!    rule keys and disjoint footprints, so every conflicted commit takes
//!    the `O(|delta|)` install path; the cause counters prove no request
//!    log was ever re-executed.

use proptest::prelude::*;

use daisy::common::{ColumnId, TupleId};
use daisy::prelude::*;
use daisy::storage::{CellProvenance, Tuple};

/// Worker counts every scenario replays at; 1 is the serial baseline, 7
/// exceeds the session-lane count.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

type ProvenanceDump = Vec<((TupleId, ColumnId), CellProvenance)>;

/// Everything observable about one service run, wall-clock and commit-path
/// bookkeeping excluded (validation is allowed to change *how* commits
/// are admitted, never *what* they publish).
#[derive(Debug, Clone, PartialEq)]
struct ServiceSnapshot {
    outcomes: Vec<(usize, String, Result<Vec<Tuple>, String>)>,
    commits: u64,
    final_version: u64,
    tables: Vec<(String, Vec<Tuple>)>,
    provenance: Vec<(String, ProvenanceDump)>,
}

fn snapshot_service(service: &CleaningService, report: &ServiceReport) -> ServiceSnapshot {
    let outcomes = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.submitted,
                o.session.clone(),
                o.outcome
                    .as_ref()
                    .map(|q| q.result.tuples.clone())
                    .map_err(|e| e.clone()),
            )
        })
        .collect();
    let shared = service.shared();
    let names = shared.table_names();
    let tables = names
        .iter()
        .map(|n| (n.clone(), shared.table(n).unwrap().tuples().to_vec()))
        .collect();
    let provenance = names
        .iter()
        .map(|n| {
            (
                n.clone(),
                shared.provenance(n).map(|p| p.dump()).unwrap_or_default(),
            )
        })
        .collect();
    ServiceSnapshot {
        outcomes,
        commits: report.commits,
        final_version: report.final_version,
        tables,
        provenance,
    }
}

/// A dirty two-column FD table (`lhs -> rhs` violated within groups).
fn dirty_fd_table(name: &str, groups: usize, salt: i64) -> Table {
    let schema = Schema::from_pairs(&[("lhs", DataType::Int), ("rhs", DataType::Int)]).unwrap();
    let mut rows = Vec::new();
    for g in 0..groups as i64 {
        // Three tuples per group; one dissents on the rhs.
        rows.push(vec![Value::Int(g), Value::Int(g * 10 + salt)]);
        rows.push(vec![Value::Int(g), Value::Int(g * 10 + salt)]);
        rows.push(vec![Value::Int(g), Value::Int(g * 10 + salt + 1)]);
    }
    Table::from_rows(name, schema, rows).unwrap()
}

const DISJOINT_LANES: usize = 6;

/// One table per session lane, all governed by the same FD: the canonical
/// disjoint-table workload.
fn disjoint_service(workers: usize) -> CleaningService {
    let mut engine = DaisyEngine::new(
        DaisyConfig::default()
            .with_worker_threads(1)
            .with_cost_model(false)
            .with_service_workers(workers),
    )
    .unwrap();
    for lane in 0..DISJOINT_LANES {
        engine.register_table(dirty_fd_table(&format!("region_{lane}"), 6, lane as i64));
    }
    engine.add_fd(&FunctionalDependency::new(&["lhs"], "rhs"), "phi");
    CleaningService::new(engine)
}

/// One request per lane, each session confined to its own table.  A second
/// request on the same table could legitimately replay — it may speculate
/// before its predecessor's repairs land, a genuine read conflict — so the
/// zero-replay invariant below is only guaranteed for one-shot lanes.
fn disjoint_requests() -> Vec<ServiceRequest> {
    (0..DISJOINT_LANES)
        .map(|lane| {
            ServiceRequest::new(
                format!("s{lane}"),
                format!("SELECT lhs, rhs FROM region_{lane} WHERE lhs <= 4"),
            )
        })
        .collect()
}

/// Disjoint-table sessions must produce the outputs of `run_serial` at
/// every worker count, and no commit may ever replay its request log.
#[test]
fn disjoint_tables_match_run_serial_and_never_replay() {
    let requests = disjoint_requests();
    let baseline = {
        let service = disjoint_service(1);
        let report = service.run_serial(&requests);
        snapshot_service(&service, &report)
    };
    assert!(baseline.outcomes.iter().all(|(_, _, o)| o.is_ok()));
    assert_eq!(baseline.commits, DISJOINT_LANES as u64);

    for workers in WORKER_COUNTS {
        let service = disjoint_service(workers);
        let report = service.run(&requests);
        assert_eq!(
            baseline,
            snapshot_service(&service, &report),
            "outputs diverged at {workers} workers"
        );
        assert_eq!(report.causes.total(), report.commits);
        // Disjoint rule keys and footprints: every conflicted commit
        // installs in O(|delta|) — zero replays, zero rechecks, perfect
        // clean-commit rate.
        assert_eq!(
            report.causes.full_rebase, 0,
            "a disjoint-table commit replayed at {workers} workers"
        );
        assert_eq!(report.causes.delta_recheck, 0);
        assert_eq!(report.rebases, 0);
        assert!((report.clean_commit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(
            report.causes.clean + report.causes.footprint_clean,
            report.commits
        );
    }
}

/// A shared-table (fully contended) workload: conflicted commits replay,
/// and the outputs are still those of `run_serial`.
#[test]
fn contended_tables_match_run_serial() {
    let build = |workers: usize| {
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(1)
                .with_cost_model(false)
                .with_service_workers(workers),
        )
        .unwrap();
        engine.register_table(dirty_fd_table("hot", 8, 0));
        engine.add_fd(&FunctionalDependency::new(&["lhs"], "rhs"), "phi");
        CleaningService::new(engine)
    };
    let requests: Vec<ServiceRequest> = (0..6)
        .map(|i| {
            ServiceRequest::new(
                format!("s{}", i % 3),
                format!("SELECT lhs, rhs FROM hot WHERE lhs <= {}", 2 + i),
            )
        })
        .collect();
    let baseline = {
        let service = build(1);
        let report = service.run_serial(&requests);
        snapshot_service(&service, &report)
    };
    for workers in WORKER_COUNTS {
        let service = build(workers);
        let report = service.run(&requests);
        assert_eq!(
            baseline,
            snapshot_service(&service, &report),
            "outputs diverged at {workers} workers"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings over a shared dirty table: footprint-validated
    /// concurrent commits and the serial replay must be byte-identical,
    /// whatever the schedule.
    #[test]
    fn footprint_validation_equals_serial(
        pairs in prop::collection::vec((0i64..12, 0i64..6), 8..60),
        // Each request: (session 0..3, predicate threshold).
        plan in prop::collection::vec((0usize..3, 0i64..12), 1..10),
        workers in 2usize..6,
    ) {
        let schema =
            Schema::from_pairs(&[("lhs", DataType::Int), ("rhs", DataType::Int)]).unwrap();
        let table = Table::from_rows(
            "t",
            schema,
            pairs.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]).collect(),
        )
        .unwrap();
        let requests: Vec<ServiceRequest> = plan
            .iter()
            .map(|(session, threshold)| {
                ServiceRequest::new(
                    format!("s{session}"),
                    format!("SELECT lhs, rhs FROM t WHERE lhs <= {threshold}"),
                )
            })
            .collect();
        let build = || {
            let mut engine = DaisyEngine::new(
                DaisyConfig::default()
                    .with_worker_threads(1)
                    .with_cost_model(false)
                    .with_service_workers(workers),
            )
            .unwrap();
            engine.register_table(table.clone());
            engine.add_fd(&FunctionalDependency::new(&["lhs"], "rhs"), "phi");
            CleaningService::new(engine)
        };
        let serial = build();
        let serial_report = serial.run_serial(&requests);
        let baseline = snapshot_service(&serial, &serial_report);
        let service = build();
        let report = service.run(&requests);
        let replay = snapshot_service(&service, &report);
        prop_assert!(baseline == replay, "concurrent commits diverged from serial replay");
    }
}
