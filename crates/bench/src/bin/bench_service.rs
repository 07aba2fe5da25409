//! Machine-readable perf trajectory for the concurrent cleaning service.
//!
//! Runs cleaning workloads through the multi-session scheduler across a
//! `workload shape × table size × scheduler workers` grid and writes
//! `BENCH_service.json` at the repository root.
//!
//! Workload axes:
//!
//! * **shared** — every session stripes the same `lineorder` table, the
//!   fully contended shape (shared table, shared rule: every conflicted
//!   commit replays);
//! * **disjoint** — one table per session, same FD on each: rule keys and
//!   footprints never overlap, so footprint validation installs every
//!   conflicted commit in `O(|delta|)`;
//! * **skewed** — a hot shared table plus one satellite table per session;
//!   contention concentrates on the hot stripe while satellite commits
//!   stay conflict-free.
//!
//! A second axis, **request cost against table size**, replays the skewed
//! shape as a stream of small requests — per round every session ingests
//! one row (even sessions into `hot`, odd ones into their satellite) and
//! reads two keys of `hot` — with `hot` at 300, 3 000 and 30 000 rows, and
//! reports microseconds per request serially and at 2 workers, plus the
//! cost of opening a session.  Versions of the world share their rows,
//! provenance entries and index partitions, so a request
//! should cost its delta, not its table: the curve is what shows it.
//!
//! Per measurement:
//!
//! * **commits/sec** and **speedup over serial** — wall-clock of the same
//!   admitted requests replayed one at a time;
//! * **clean-commit rate** — the fraction of commits that installed
//!   without replaying their request log;
//! * **commit-cause counters** — clean / footprint-clean / delta-recheck /
//!   full-rebase, straight from [`daisy_service::CommitCauseCounts`].
//!
//! Two things are *asserted*, not assumed, on every run:
//!
//! * determinism — every concurrent run's committed tables are compared
//!   byte-for-byte against the serial baseline's;
//! * the headline claim — on the disjoint workload, **zero** commits
//!   replay (`full_rebase == 0`) and the
//!   clean-commit rate is ≥ 0.9.
//!
//! Note: on a single-core container the concurrent numbers show scheduling
//! overhead only; the speedup materialises on multi-core hosts while the
//! byte-identical outputs hold everywhere.
//!
//! Knobs: `DAISY_BENCH_RUNS` (iterations per measurement, min is reported;
//! default 3) and `DAISY_BENCH_OUT` (output path override).

use std::time::Instant;

use daisy_common::{DaisyConfig, ServiceFairness, Value};
use daisy_core::DaisyEngine;
use daisy_data::errors::inject_fd_errors;
use daisy_data::ssb::{generate_lineorder, SsbConfig};
use daisy_expr::FunctionalDependency;
use daisy_service::{CleaningService, CommitCauseCounts, ServiceRequest};
use daisy_storage::Table;

/// One measurement row of the JSON report.
struct Measurement {
    workload: &'static str,
    rows: usize,
    sessions: usize,
    requests: usize,
    workers: usize,
    seconds: f64,
    commits_per_sec: f64,
    clean_commit_rate: f64,
    speedup_over_serial: f64,
    causes: CommitCauseCounts,
}

fn runs() -> usize {
    std::env::var("DAISY_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

fn dirty_lineorder(name: &str, rows: usize, seed: u64) -> Table {
    let config = SsbConfig {
        lineorder_rows: rows,
        distinct_orderkeys: (rows / 10).max(1),
        distinct_suppkeys: 25,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&config).unwrap();
    inject_fd_errors(&mut table, "orderkey", "suppkey", 1.0, 0.12, seed).unwrap();
    if table.name() == name {
        table
    } else {
        let next_id = table.tuples().len() as u64;
        Table::from_serde_parts(
            name,
            table.schema().clone(),
            table.tuples().to_vec(),
            next_id,
        )
    }
}

/// A workload shape: its tables plus the requests `sessions` tenants issue.
struct Workload {
    name: &'static str,
    tables: Vec<Table>,
    requests: Vec<ServiceRequest>,
    /// Disjoint rule keys and footprints: under footprint validation no
    /// commit may ever replay, and the bench asserts it.
    expect_zero_replays: bool,
}

/// Every session stripes the same table — the fully contended shape.
fn shared_workload(rows: usize, sessions: usize) -> Workload {
    let mut requests = Vec::new();
    for session in 0..sessions {
        let lo = (session * 25 / sessions) as i64;
        let hi = ((session + 1) * 25 / sessions) as i64;
        requests.push(ServiceRequest::new(
            format!("s{session}"),
            format!(
                "SELECT orderkey, suppkey FROM lineorder WHERE suppkey > {lo} AND suppkey <= {hi}"
            ),
        ));
        requests.push(ServiceRequest::new(
            format!("s{session}"),
            format!(
                "SELECT suppkey, COUNT(*) FROM lineorder WHERE suppkey <= {hi} GROUP BY suppkey"
            ),
        ));
    }
    Workload {
        name: "shared",
        tables: vec![dirty_lineorder("lineorder", rows, 11)],
        requests,
        expect_zero_replays: false,
    }
}

/// One table per session, same FD on each: rule keys and footprints are
/// disjoint by table name.  One request per session — a second request on
/// the same table could legitimately replay when it speculates before its
/// predecessor's repairs land, which would blur the zero-replay claim.
fn disjoint_workload(rows: usize, sessions: usize) -> Workload {
    let per_table = (rows / sessions).max(10);
    let tables = (0..sessions)
        .map(|s| dirty_lineorder(&format!("lineorder_{s}"), per_table, 11 + s as u64))
        .collect();
    let requests = (0..sessions)
        .map(|s| {
            ServiceRequest::new(
                format!("s{s}"),
                format!("SELECT orderkey, suppkey FROM lineorder_{s} WHERE suppkey <= 25"),
            )
        })
        .collect();
    Workload {
        name: "disjoint",
        tables,
        requests,
        expect_zero_replays: true,
    }
}

/// A hot shared table plus one satellite per session: contention
/// concentrates on the hot stripe, satellite commits stay conflict-free.
fn skewed_workload(rows: usize, sessions: usize) -> Workload {
    let satellite_rows = (rows / (2 * sessions)).max(10);
    let mut tables = vec![dirty_lineorder("hot", rows / 2, 11)];
    tables.extend(
        (0..sessions)
            .map(|s| dirty_lineorder(&format!("satellite_{s}"), satellite_rows, 31 + s as u64)),
    );
    let mut requests = Vec::new();
    for session in 0..sessions {
        let lo = (session * 25 / sessions) as i64;
        let hi = ((session + 1) * 25 / sessions) as i64;
        requests.push(ServiceRequest::new(
            format!("s{session}"),
            format!("SELECT orderkey, suppkey FROM satellite_{session} WHERE suppkey <= 25"),
        ));
        requests.push(ServiceRequest::new(
            format!("s{session}"),
            format!("SELECT orderkey, suppkey FROM hot WHERE suppkey > {lo} AND suppkey <= {hi}"),
        ));
    }
    Workload {
        name: "skewed",
        tables,
        requests,
        expect_zero_replays: false,
    }
}

fn build_service(workload: &Workload, workers: usize) -> CleaningService {
    let mut engine = DaisyEngine::new(
        DaisyConfig::default()
            .with_worker_threads(1)
            .with_cost_model(false)
            .with_service_workers(workers)
            .with_service_fairness(ServiceFairness::RoundRobin),
    )
    .unwrap();
    for table in &workload.tables {
        engine.register_table(table.clone());
    }
    engine.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
    CleaningService::new(engine)
}

fn committed_tables(service: &CleaningService) -> Vec<(String, Vec<daisy_storage::Tuple>)> {
    let shared = service.shared();
    shared
        .table_names()
        .iter()
        .map(|n| (n.clone(), shared.table(n).unwrap().tuples().to_vec()))
        .collect()
}

/// One point of the request-cost-against-table-size curve.
struct CostPoint {
    hot_rows: usize,
    requests: usize,
    serial_us_per_request: f64,
    two_worker_us_per_request: f64,
    /// Mean engine time of the ingest requests and of the `SELECT`s in the
    /// serial replay ([`CleaningReport::elapsed`](daisy_core::CleaningReport)):
    /// the write path against the cleaning read, whose relaxation scans the
    /// table.
    serial_ingest_us: f64,
    serial_select_us: f64,
    session_open_us: f64,
}

/// The skewed shape as a stream of small requests over a `hot` table of
/// `hot_rows` rows: `ROUNDS` rounds in which each of 4 sessions ingests one
/// row and reads two keys of `hot`.  One untimed round warms the service
/// (FD indexes, maintained violation indexes) first.
fn request_cost(hot_rows: usize) -> CostPoint {
    const SESSIONS: usize = 4;
    const ROUNDS: usize = 24;
    const SATELLITE_ROWS: usize = 150;
    let mut tables = vec![dirty_lineorder("hot", hot_rows, 11)];
    tables.extend(
        (0..SESSIONS)
            .map(|s| dirty_lineorder(&format!("satellite_{s}"), SATELLITE_ROWS, 31 + s as u64)),
    );
    let keys = (hot_rows / 10).max(2) as i64;
    // Rows to ingest: the values of a dirty table generated like `hot`.
    let feed = dirty_lineorder("feed", (ROUNDS + 1) * SESSIONS, 77);
    let feed_row = |i: usize| -> Vec<Value> {
        feed.tuples()[i]
            .cells
            .iter()
            .map(|c| c.expected_value())
            .collect()
    };
    let round = |r: usize| -> Vec<ServiceRequest> {
        let mut requests = Vec::with_capacity(2 * SESSIONS);
        for s in 0..SESSIONS {
            let target = if s % 2 == 0 {
                "hot".to_string()
            } else {
                format!("satellite_{s}")
            };
            requests.push(ServiceRequest::ingest(
                format!("s{s}"),
                target,
                vec![feed_row(r * SESSIONS + s)],
            ));
            let low = ((r * SESSIONS + s) as i64 * 7) % (keys - 1);
            requests.push(ServiceRequest::new(
                format!("s{s}"),
                format!(
                    "SELECT orderkey, suppkey FROM hot WHERE orderkey >= {low} AND orderkey <= {}",
                    low + 1
                ),
            ));
        }
        requests
    };
    let workload = Workload {
        name: "request-cost",
        tables,
        requests: Vec::new(),
        expect_zero_replays: false,
    };
    // (wall seconds, engine seconds of [ingests, selects], committed tables)
    // of the fastest of `runs()` replays.
    let timed = |workers: usize| {
        let mut best = (f64::INFINITY, [0.0; 2]);
        let mut tables = None;
        for _ in 0..runs() {
            let service = build_service(&workload, workers);
            service.run_with_workers(&round(0), workers);
            let mut engine = [0.0; 2];
            let start = Instant::now();
            for r in 1..=ROUNDS {
                let report = service.run_with_workers(&round(r), workers);
                for o in &report.outcomes {
                    let outcome = o.outcome.as_ref().expect("request failed");
                    engine[usize::from(!o.sql.starts_with("INGEST"))] +=
                        outcome.report.elapsed.as_secs_f64();
                }
            }
            let wall = start.elapsed().as_secs_f64();
            if wall < best.0 {
                best = (wall, engine);
            }
            tables = Some(committed_tables(&service));
        }
        (best.0, best.1, tables.unwrap())
    };
    let requests = ROUNDS * 2 * SESSIONS;
    let (serial, [ingest, select], serial_tables) = timed(1);
    let (two_workers, _, concurrent_tables) = timed(2);
    assert_eq!(
        concurrent_tables, serial_tables,
        "request stream diverged from serial at hot_rows={hot_rows}"
    );

    // Opening (and dropping) a session over the warmed world.
    let service = build_service(&workload, 1);
    service.run_serial(&round(0));
    let shared = service.shared();
    const OPENS: usize = 2_000;
    let start = Instant::now();
    for _ in 0..OPENS {
        std::hint::black_box(shared.session());
    }
    let session_open_us = start.elapsed().as_secs_f64() * 1e6 / OPENS as f64;

    CostPoint {
        hot_rows,
        requests,
        serial_us_per_request: serial * 1e6 / requests as f64,
        two_worker_us_per_request: two_workers * 1e6 / requests as f64,
        serial_ingest_us: ingest * 2e6 / requests as f64,
        serial_select_us: select * 2e6 / requests as f64,
        session_open_us,
    }
}

fn main() {
    let row_counts = [2_000usize, 8_000];
    let session_counts = [4usize, 8];
    let worker_counts = [1usize, 2, 4];
    let mut measurements = Vec::new();

    for &rows in &row_counts {
        for &sessions in &session_counts {
            let workloads = [
                shared_workload(rows, sessions),
                disjoint_workload(rows, sessions),
                skewed_workload(rows, sessions),
            ];
            for workload in &workloads {
                // Serial baseline: wall clock + committed tables for the
                // determinism assertion.
                let mut serial_best = f64::INFINITY;
                let mut serial_tables = None;
                for _ in 0..runs() {
                    let service = build_service(workload, 1);
                    let start = Instant::now();
                    let report = service.run_serial(&workload.requests);
                    serial_best = serial_best.min(start.elapsed().as_secs_f64());
                    assert_eq!(report.commits as usize, workload.requests.len());
                    serial_tables = Some(committed_tables(&service));
                }
                let serial_tables = serial_tables.unwrap();

                for &workers in &worker_counts {
                    let mut best = f64::INFINITY;
                    let mut clean_rate = 1.0;
                    let mut causes = CommitCauseCounts::default();
                    for _ in 0..runs() {
                        let service = build_service(workload, workers);
                        let start = Instant::now();
                        let report = service.run(&workload.requests);
                        let elapsed = start.elapsed().as_secs_f64();
                        if elapsed < best {
                            // Report the rate and causes of the run whose
                            // time is reported: unlike the committed
                            // outputs, they are scheduling-dependent.
                            best = elapsed;
                            clean_rate = report.clean_commit_rate();
                            causes = report.causes;
                        }
                        assert_eq!(report.commits as usize, workload.requests.len());
                        assert_eq!(
                            committed_tables(&service),
                            serial_tables,
                            "{} workload diverged from serial at {workers} workers",
                            workload.name,
                        );
                        if workload.expect_zero_replays {
                            assert_eq!(
                                report.causes.full_rebase, 0,
                                "disjoint workload replayed a commit at {workers} workers"
                            );
                            assert!(
                                report.clean_commit_rate() >= 0.9,
                                "disjoint clean-commit rate fell below 0.9"
                            );
                        }
                    }
                    let measurement = Measurement {
                        workload: workload.name,
                        rows,
                        sessions,
                        requests: workload.requests.len(),
                        workers,
                        seconds: best,
                        commits_per_sec: workload.requests.len() as f64 / best,
                        clean_commit_rate: clean_rate,
                        speedup_over_serial: serial_best / best,
                        causes,
                    };
                    println!(
                        "{:>8} rows={rows:>5} sessions={sessions} workers={workers} \
                         {:>8.2} commits/s  clean-rate {:.2}  speedup {:.2}x  \
                         causes clean={} fp={} recheck={} rebase={}",
                        measurement.workload,
                        measurement.commits_per_sec,
                        measurement.clean_commit_rate,
                        measurement.speedup_over_serial,
                        measurement.causes.clean,
                        measurement.causes.footprint_clean,
                        measurement.causes.delta_recheck,
                        measurement.causes.full_rebase,
                    );
                    measurements.push(measurement);
                }
            }
        }
    }

    let cost_curve: Vec<CostPoint> = [300usize, 3_000, 30_000]
        .into_iter()
        .map(|hot_rows| {
            let point = request_cost(hot_rows);
            println!(
                "request-cost hot_rows={hot_rows:>6} serial {:>9.1} us/request \
                 (ingest {:.1}, select {:.1})  2 workers {:>9.1} us/request  \
                 session open {:.2} us",
                point.serial_us_per_request,
                point.serial_ingest_us,
                point.serial_select_us,
                point.two_worker_us_per_request,
                point.session_open_us,
            );
            point
        })
        .collect();

    let json = render_json(&measurements, &cost_curve);
    let out = out_path();
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());
}

fn out_path() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("DAISY_BENCH_OUT") {
        return path.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json")
}

fn render_json(measurements: &[Measurement], cost_curve: &[CostPoint]) -> String {
    let host_nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"service\",\n  \"host_nproc\": {host_nproc},\n  \
         \"request_cost_by_hot_rows\": [\n"
    );
    let points: Vec<String> = cost_curve
        .iter()
        .map(|p| {
            format!(
                "    {{\"hot_rows\": {}, \"sessions\": 4, \"requests\": {}, \
                 \"serial_us_per_request\": {:.1}, \"two_worker_us_per_request\": {:.1}, \
                 \"serial_ingest_us\": {:.1}, \"serial_select_us\": {:.1}, \
                 \"session_open_us\": {:.2}}}",
                p.hot_rows,
                p.requests,
                p.serial_us_per_request,
                p.two_worker_us_per_request,
                p.serial_ingest_us,
                p.serial_select_us,
                p.session_open_us,
            )
        })
        .collect();
    json.push_str(&points.join(",\n"));
    json.push_str("\n  ],\n  \"results\": [\n");
    let lines: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "    {{\"workload\": \"{}\", \"rows\": {}, \
                 \"sessions\": {}, \"requests\": {}, \"workers\": {}, \
                 \"seconds\": {:.6}, \"commits_per_sec\": {:.2}, \
                 \"clean_commit_rate\": {:.4}, \"speedup_over_serial\": {:.3}, \
                 \"causes\": {{\"clean\": {}, \"footprint_clean\": {}, \
                 \"delta_recheck\": {}, \"full_rebase\": {}}}}}",
                m.workload,
                m.rows,
                m.sessions,
                m.requests,
                m.workers,
                m.seconds,
                m.commits_per_sec,
                m.clean_commit_rate,
                m.speedup_over_serial,
                m.causes.clean,
                m.causes.footprint_clean,
                m.causes.delta_recheck,
                m.causes.full_rebase,
            )
        })
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    json
}
