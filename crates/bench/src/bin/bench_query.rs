//! Machine-readable perf trajectory for the query execution paths.
//!
//! Times three query shapes — a selective SP filter, an SPJ join
//! (filter → code-keyed hash join → projection) and a filtered group-by
//! aggregate — over SSB lineorder/supplier at 2k/8k/32k rows under
//! `{row, vectorized}` execution × `{1, 4}` workers × a relaxed share of
//! `{0, 0.5, 1}`, and writes the measurements as `BENCH_query.json` at the
//! repository root, next to the host's core count.
//!
//! The relaxed share is the state Daisy actually serves after its first
//! cleaning queries: that share of the rows has its filter and join-key
//! cells (`suppkey`, `extended_price`, and `supplier.suppkey`) turned into
//! probabilistic cells of 2–8 exact candidates around the original value,
//! which stays the most probable one.
//!
//! The row path is a catalog without snapshots; the vectorized path is a
//! second catalog over the same shared tables with current snapshots
//! attached — the executor vectorizes exactly the scans that have one.
//!
//! Result equality is asserted **per grid cell**: before a configuration is
//! timed, its result is dumped byte-for-byte (schema, tuple ids, lineage,
//! cells) and compared against the sequential row-path reference for the
//! same query and row count — the vectorized path may only move wall-clock,
//! never output.  At 32k determinate rows, the vectorized SP filter and
//! SPJ join are additionally asserted not to fall behind the row path.
//!
//! Snapshots are built **outside** the timed region: they are the engine's
//! maintained artifact (kept current by `O(|delta|)` patching on the write
//! path), not a per-query cost.  The one-off build cost is reported
//! separately as `snapshot_build`.  Queries run under the engine's
//! `Possible` predicate mode, so on relaxed rows both paths enumerate
//! candidate worlds — the row path over `Value`s, the vectorized path over
//! the snapshot's candidate codes.
//!
//! Knobs: `DAISY_BENCH_RUNS` (iterations per measurement, min is reported;
//! default 3) and `DAISY_BENCH_OUT` (output path override).

use std::fmt::Write as _;
use std::time::Instant;

use daisy_common::Value;
use daisy_data::ssb::{generate_lineorder, generate_supplier, SsbConfig};
use daisy_exec::ExecContext;
use daisy_query::physical::PredicateMode;
use daisy_query::{execute, parse_query, Catalog, LogicalPlan, QueryResult};
use daisy_storage::{Candidate, Cell, ColumnSnapshot, Table};

/// One measurement row of the JSON report.
struct Measurement {
    query: &'static str,
    rows: usize,
    /// Percentage of rows whose filter / join-key cells are probabilistic.
    relaxed_pct: usize,
    /// `row` (a catalog without snapshots) or `vectorized` (current
    /// snapshots attached: every scan is vectorized).
    exec: &'static str,
    workers: usize,
    seconds: f64,
    result_rows: usize,
}

fn runs() -> usize {
    std::env::var("DAISY_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// Reports the minimum wall-clock seconds over `runs()` executions of `f`,
/// along with the work counter of the last execution.
fn time_min<F: FnMut() -> usize>(mut f: F) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut work = 0;
    for _ in 0..runs() {
        let start = Instant::now();
        work = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, work)
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

/// The three benched query shapes.  Filters sit below the join on the
/// driving table, so the vectorized path carries a selection vector from
/// the scan through the filter into the join probe / final projection and
/// only materializes result tuples.
const QUERIES: [(&str, &str); 3] = [
    (
        "sp_filter",
        "SELECT orderkey, extended_price FROM lineorder \
         WHERE suppkey >= 10 AND suppkey <= 14 AND extended_price >= 5000",
    ),
    (
        "spj_join",
        "SELECT lineorder.orderkey, supplier.city FROM lineorder \
         JOIN supplier ON lineorder.suppkey = supplier.suppkey \
         WHERE suppkey >= 10 AND suppkey <= 24 AND extended_price >= 30000",
    ),
    (
        "aggregate",
        "SELECT suppkey, COUNT(*) FROM lineorder \
         WHERE extended_price >= 20000 GROUP BY suppkey",
    ),
];

/// Turns the `columns` cells of `relaxed_pct` % of the rows into
/// probabilistic cells: the original value at probability one half plus 1–7
/// nearby values sharing the rest.  Which rows, how many candidates and
/// which neighbours follow from the row position alone.
fn relax_columns(table: &mut Table, columns: &[&str], relaxed_pct: usize) {
    let columns: Vec<usize> = columns
        .iter()
        .map(|c| table.column_index(c).unwrap())
        .collect();
    let ids: Vec<_> = table.tuples().iter().map(|t| t.id).collect();
    for (pos, id) in ids.into_iter().enumerate() {
        // An odd multiplier spreads consecutive positions over 0..100.
        if pos * 37 % 100 >= relaxed_pct {
            continue;
        }
        let tuple = table.tuple_mut(id).unwrap();
        for (k, &column) in columns.iter().enumerate() {
            let cell = tuple.cell_mut(column).unwrap();
            let original = cell.expected_value();
            let extra = 1 + (pos + 3 * k) % 7;
            let mut candidates = vec![Candidate::exact(original.clone(), 0.5)];
            candidates.extend((1..=extra).map(|step| {
                let step = if step % 2 == 0 {
                    step as i64
                } else {
                    -(step as i64)
                };
                let neighbour = match &original {
                    Value::Int(v) => Value::Int(v + step),
                    Value::Float(v) => Value::Float(v + step as f64),
                    other => other.clone(),
                };
                Candidate::exact(neighbour, 0.5 / extra as f64)
            }));
            *cell = Cell::probabilistic(candidates);
        }
    }
}

fn catalog_for(rows: usize, relaxed_pct: usize) -> Catalog {
    let config = SsbConfig {
        lineorder_rows: rows,
        distinct_orderkeys: rows / 10,
        distinct_suppkeys: 100,
        ..SsbConfig::default()
    };
    let mut lineorder = generate_lineorder(&config).unwrap();
    relax_columns(&mut lineorder, &["suppkey", "extended_price"], relaxed_pct);
    let mut supplier = generate_supplier(&config).unwrap();
    relax_columns(&mut supplier, &["suppkey"], relaxed_pct);
    let mut catalog = Catalog::new();
    catalog.add(lineorder);
    catalog.add(supplier);
    catalog
}

const RELAXED_PCT: [usize; 3] = [0, 50, 100];

fn main() {
    let row_counts = [2_000usize, 8_000, 32_000];
    let workers_grid = [1usize, 4];
    let mut measurements: Vec<Measurement> = Vec::new();

    for &rows in &row_counts {
        for relaxed_pct in RELAXED_PCT {
            let catalog = catalog_for(rows, relaxed_pct);

            // The maintained-artifact build, reported separately (un-timed
            // in the query measurements below).
            let (snap_seconds, _) = time_min(|| {
                ColumnSnapshot::build(catalog.table("lineorder").unwrap()).unwrap();
                rows
            });
            eprintln!("snapshot_build rows={rows} relaxed={relaxed_pct}%: {snap_seconds:.4}s");
            measurements.push(Measurement {
                query: "snapshot_build",
                rows,
                relaxed_pct,
                exec: "vectorized",
                workers: 1,
                seconds: snap_seconds,
                result_rows: rows,
            });
            let mut vectorized = Catalog::new();
            for name in ["lineorder", "supplier"] {
                vectorized.add_shared(catalog.shared(name).unwrap());
                vectorized.refresh_snapshot(name).unwrap();
            }

            for (name, sql) in QUERIES {
                let query = parse_query(sql).unwrap();
                let plan = LogicalPlan::from_query(&query).unwrap();
                // The byte-identity reference: the sequential row path.
                let reference = dump(
                    &execute(
                        &ExecContext::sequential(),
                        &catalog,
                        &plan,
                        PredicateMode::Possible,
                    )
                    .unwrap(),
                );

                for &workers in &workers_grid {
                    let ctx = ExecContext::new(workers);
                    for (exec, catalog) in [("row", &catalog), ("vectorized", &vectorized)] {
                        // Per-cell equality first, un-timed: this
                        // configuration must reproduce the reference byte
                        // for byte.
                        let result =
                            execute(&ctx, catalog, &plan, PredicateMode::Possible).unwrap();
                        assert_eq!(
                            dump(&result),
                            reference,
                            "{name}@{rows} relaxed={relaxed_pct}% diverged from the row path \
                             under {exec} with {workers} workers"
                        );
                        let (seconds, result_rows) = time_min(|| {
                            execute(&ctx, catalog, &plan, PredicateMode::Possible)
                                .unwrap()
                                .len()
                        });
                        eprintln!(
                            "{name} rows={rows} relaxed={relaxed_pct}% exec={exec} \
                             workers={workers}: {seconds:.4}s ({result_rows} result rows)"
                        );
                        measurements.push(Measurement {
                            query: name,
                            rows,
                            relaxed_pct,
                            exec,
                            workers,
                            seconds,
                            result_rows,
                        });
                    }
                }
            }
        }
    }

    let time_of = |query: &str, rows: usize, relaxed_pct: usize, exec: &str, workers: usize| {
        measurements
            .iter()
            .find(|m| {
                (m.query, m.rows, m.relaxed_pct, m.exec, m.workers)
                    == (query, rows, relaxed_pct, exec, workers)
            })
            .map(|m| m.seconds)
            .unwrap()
    };

    // The sanity gate: at 32k determinate rows late materialization must
    // keep the SP filter and the SPJ join clearly ahead of the row path
    // (results already asserted byte-identical above).  The bound was 3×
    // while the row kernel re-resolved column names per tuple; it resolves
    // them once per call now, which took most of that ratio with it — then
    // 1.5×, until row clones became pointer bumps (shared cells) and the
    // row path's own materialization stopped costing a copy per answer row:
    // what is left of the lead is 1.2–1.5×, so the gate is "not behind".
    for query in ["sp_filter", "spj_join"] {
        for &workers in &workers_grid {
            let row_path = time_of(query, 32_000, 0, "row", workers);
            let vectorized = time_of(query, 32_000, 0, "vectorized", workers);
            let speedup = row_path / vectorized.max(1e-9);
            eprintln!("{query}@32k workers={workers}: {speedup:.2}x");
            assert!(
                speedup >= 1.0,
                "{query} at 32k rows with {workers} workers must not be slower \
                 vectorized, got {speedup:.2}x ({row_path:.4}s row vs {vectorized:.4}s vectorized)"
            );
        }
    }

    let json = render_json(&row_counts, &workers_grid, &measurements, &time_of);
    let out = output_path();
    std::fs::write(&out, json).unwrap();
    eprintln!("wrote {}", out.display());
}

fn output_path() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("DAISY_BENCH_OUT") {
        return path.into();
    }
    // crates/bench → repository root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_query.json")
}

fn render_json(
    row_counts: &[usize],
    workers_grid: &[usize],
    measurements: &[Measurement],
    time_of: &dyn Fn(&str, usize, usize, &str, usize) -> f64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut json =
        format!("{{\n  \"bench\": \"query\",\n  \"host_nproc\": {nproc},\n  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"rows\": {}, \"relaxed_share\": {:.1}, \
             \"exec\": \"{}\", \"workers\": {}, \"seconds\": {:.6}, \"result_rows\": {}}}{}\n",
            m.query,
            m.rows,
            m.relaxed_pct as f64 / 100.0,
            m.exec,
            m.workers,
            m.seconds,
            m.result_rows,
            comma
        ));
    }
    // Keys: `<query>_<rows>_w<workers>` on determinate tables, with a
    // `_relaxed<pct>` suffix on relaxed ones.
    json.push_str("  ],\n  \"speedup_vectorized_over_row\": {\n");
    let mut lines = Vec::new();
    for relaxed_pct in RELAXED_PCT {
        let suffix = match relaxed_pct {
            0 => String::new(),
            pct => format!("_relaxed{pct}"),
        };
        for &rows in row_counts {
            for query in ["sp_filter", "spj_join", "aggregate"] {
                for &workers in workers_grid {
                    let speedup = time_of(query, rows, relaxed_pct, "row", workers)
                        / time_of(query, rows, relaxed_pct, "vectorized", workers).max(1e-9);
                    lines.push(format!(
                        "    \"{query}_{rows}_w{workers}{suffix}\": {speedup:.2}"
                    ));
                }
            }
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}
