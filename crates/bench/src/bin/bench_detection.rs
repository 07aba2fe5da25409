//! Machine-readable perf trajectory for violation detection.
//!
//! Times four cleaning kernels — the theta DC check, `cleanσ` for FDs
//! (clean-select), general-DC repair, and the incremental repair loop
//! (range check → repair → delta) — at 2k/8k/32k rows, plus sustained
//! streaming ingest and skew-adversarial detection, and writes the
//! measurements as `BENCH_detection.json` at the repository root (with the
//! host's core count) so future changes have a baseline to diff against.
//!
//! Knobs: `DAISY_BENCH_RUNS` (iterations per measurement, min is reported;
//! default 3) and `DAISY_BENCH_OUT` (output path override).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use daisy_bench::skew::{generate_skewed_table, key_histogram};
use daisy_common::{RuleId, TupleId, Value};
use daisy_core::clean_dc::repair_dc_violations;
use daisy_core::clean_select::clean_select_fd;
use daisy_core::fd_index::FdIndex;
use daisy_core::index::{canonicalize_violations, MaintainedIndex, ViolationIndex};
use daisy_core::relaxation::FilterTarget;
use daisy_core::theta::ThetaMatrix;
use daisy_data::errors::{inject_fd_errors, inject_inequality_errors};
use daisy_data::ssb::{generate_lineorder, SsbConfig};
use daisy_exec::{chunk_ranges, ExecContext, MorselCounters};
use daisy_expr::{DenialConstraint, FunctionalDependency};
use daisy_storage::{Delta, ProvenanceStore, Table, Tuple};

/// One measurement row of the JSON report.
struct Measurement {
    kernel: &'static str,
    rows: usize,
    seconds: f64,
    /// Kernel-specific work counter (violations found / errors detected).
    work: usize,
}

/// One row of the `skewed_keys` axis: a full skew-adversarial sweep at a
/// given `(workers, data_partitions)` point, with the morsel-scheduler
/// counters from an instrumented (un-timed) pass.
struct SkewEntry {
    workers: usize,
    data_partitions: usize,
    seconds: f64,
    violations: usize,
    pairs: usize,
    morsels: u64,
    steals: u64,
    per_worker: Vec<u64>,
    work_imbalance: f64,
}

/// The `skewed_keys` axis report for the JSON output.
struct SkewReport {
    rows: usize,
    distinct_keys: usize,
    zipf_exponent: f64,
    /// Candidate-mass imbalance static per-worker chunking would suffer at
    /// 4 workers on this workload (computed analytically from the key
    /// histogram, not measured).
    static_imbalance: f64,
    /// Which scaling assertion applied (multi-core speedup vs single-core
    /// overhead bound) and the observed number.
    scaling: String,
    entries: Vec<SkewEntry>,
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

fn dirty_lineorder(rows: usize) -> Table {
    let config = SsbConfig {
        lineorder_rows: rows,
        distinct_orderkeys: rows / 10,
        distinct_suppkeys: 100,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&config).unwrap();
    inject_inequality_errors(&mut table, "extended_price", "discount", 0.05, 0.5, 7).unwrap();
    table
}

/// The equality-bearing DC the index subsystem targets: inverted
/// price/discount pairs *within a supplier*.
fn equality_dc() -> DenialConstraint {
    DenialConstraint::parse(
        "dc",
        "t1.suppkey = t2.suppkey & t1.extended_price < t2.extended_price & t1.discount > t2.discount",
    )
    .unwrap()
}

fn main() {
    let ctx = ExecContext::sequential();
    let row_counts = [2_000usize, 8_000, 32_000];
    let mut measurements: Vec<Measurement> = Vec::new();

    for &rows in &row_counts {
        let table = dirty_lineorder(rows);
        let dc = equality_dc();

        // Kernel 1: the (full) theta DC check.
        let (seconds, work) = time_min(|| {
            let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc, 8).unwrap();
            let (violations, _) = matrix
                .check_all(&ctx, table.schema(), table.tuples())
                .unwrap();
            violations.len()
        });
        eprintln!("theta_check rows={rows}: {seconds:.4}s ({work} violations)");
        measurements.push(Measurement {
            kernel: "theta_check",
            rows,
            seconds,
            work,
        });

        // Kernel 2: clean-select for an FD (detection is hash grouping).
        let mut fd_table = generate_lineorder(&SsbConfig {
            lineorder_rows: rows,
            distinct_orderkeys: rows / 10,
            distinct_suppkeys: 50,
            ..SsbConfig::default()
        })
        .unwrap();
        inject_fd_errors(&mut fd_table, "orderkey", "suppkey", 1.0, 0.1, 7).unwrap();
        let fd = FunctionalDependency::new(&["orderkey"], "suppkey");
        let fd_index = FdIndex::build(&fd_table, &fd).unwrap();
        let answer: Vec<Tuple> = fd_table
            .tuples()
            .iter()
            .filter(|t| t.value(1).unwrap().as_int().unwrap() < 1)
            .cloned()
            .collect();
        let (seconds, work) = time_min(|| {
            let mut prov = ProvenanceStore::new();
            clean_select_fd(
                &ctx,
                RuleId::new(0),
                &fd_index,
                &answer,
                fd_table.tuples(),
                FilterTarget::Rhs,
                16,
                &mut prov,
            )
            .unwrap()
            .errors_detected
        });
        eprintln!("clean_select rows={rows}: {seconds:.4}s ({work} errors)");
        measurements.push(Measurement {
            kernel: "clean_select",
            rows,
            seconds,
            work,
        });

        // Kernel 3: general-DC repair — detection plus candidate-range
        // construction, end to end.
        let (seconds, work) = time_min(|| {
            let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc, 8).unwrap();
            let (violations, _) = matrix
                .check_all(&ctx, table.schema(), table.tuples())
                .unwrap();
            let by_id: HashMap<TupleId, &Tuple> = daisy_core::index::id_index(&ctx, table.tuples());
            let mut prov = ProvenanceStore::new();
            repair_dc_violations(&ctx, table.schema(), &dc, &violations, &by_id, &mut prov)
                .unwrap()
                .errors_detected
        });
        eprintln!("dc_repair rows={rows}: {seconds:.4}s ({work} errors)");
        measurements.push(Measurement {
            kernel: "dc_repair",
            rows,
            seconds,
            work,
        });

        // Kernel 4: the incremental repair loop — the engine's steady
        // state.  Eight suppkey range slices, each: range check → repair →
        // apply the delta to the working table.
        let (seconds, work) = time_min(|| {
            let mut work_table = table.clone();
            let mut matrix =
                ThetaMatrix::build(work_table.schema(), work_table.tuples(), &dc, 8).unwrap();
            let mut errors = 0usize;
            for slice in 0..8i64 {
                let low = Value::Int(slice * 13);
                let high = Value::Int((slice + 1) * 13);
                let tuples: Vec<Tuple> = work_table.tuples().to_vec();
                let (violations, _) = matrix
                    .check_range(&ctx, work_table.schema(), &tuples, Some(&low), Some(&high))
                    .unwrap();
                let by_id: HashMap<TupleId, &Tuple> = daisy_core::index::id_index(&ctx, &tuples);
                let mut prov = ProvenanceStore::new();
                let outcome = repair_dc_violations(
                    &ctx,
                    work_table.schema(),
                    &dc,
                    &violations,
                    &by_id,
                    &mut prov,
                )
                .unwrap();
                drop(by_id);
                errors += outcome.errors_detected;
                if !outcome.delta.is_empty() {
                    work_table.apply_delta(&outcome.delta).unwrap();
                }
            }
            errors
        });
        eprintln!("repair_loop rows={rows}: {seconds:.4}s ({work} errors)");
        measurements.push(Measurement {
            kernel: "repair_loop",
            rows,
            seconds,
            work,
        });
    }

    // Kernel 5: sustained streaming ingest — the steady state of
    // `DaisyEngine::ingest_rows`.  A 100k-row base table absorbs ten
    // 100-row batches (|Δ| = 0.1%).  The maintained path pays
    // `O(|Δ|·log group)` per batch: absorb the append delta into the
    // persistent violation index, then run delta-restricted detection
    // against it.  The baseline rebuilds the violation index from scratch
    // for every batch before running the identical delta-restricted sweep
    // (`i ∈ Δ ∨ j ∈ Δ`).  Both paths emit byte-identical violations and
    // candidate-pair counts per batch — asserted below, so the speedup is
    // pure index reuse, not different work.  The one-off base-index build
    // is reported separately: it is the engine's maintained artifact,
    // amortised across the whole stream.  Timed
    // regions cover only the per-batch work (append → absorb/build →
    // detect); the starting table and index are cloned outside the timer.
    {
        let base_rows = 100_000usize;
        let batch_size = 100usize;
        let batch_count = 10usize;
        let dc = equality_dc();
        let plan = dc.index_plan().expect("the bench DC has an index plan");
        let config = SsbConfig {
            lineorder_rows: base_rows + batch_size * batch_count,
            distinct_orderkeys: base_rows / 10,
            distinct_suppkeys: 1_000,
            ..SsbConfig::default()
        };
        let mut full = generate_lineorder(&config).unwrap();
        inject_inequality_errors(&mut full, "extended_price", "discount", 0.05, 0.5, 7).unwrap();
        let schema = full.schema().as_ref().clone();
        let width = schema.len();
        let values: Vec<Vec<Value>> = full
            .tuples()
            .iter()
            .map(|t| (0..width).map(|c| t.value(c).unwrap().clone()).collect())
            .collect();
        let base =
            Table::from_rows("lineorder", schema.clone(), values[..base_rows].to_vec()).unwrap();
        let batches: Vec<Vec<Vec<Value>>> = values[base_rows..]
            .chunks(batch_size)
            .map(|c| c.to_vec())
            .collect();
        let append_batch = |table: &mut Table, rows: &[Vec<Value>]| -> Delta {
            let mut delta = Delta::new();
            let base_id = table.next_tuple_id().raw();
            for (k, row) in rows.iter().enumerate() {
                delta.push_append(TupleId::new(base_id + k as u64), row.clone());
            }
            table.apply_delta(&delta).unwrap();
            delta
        };

        let (index_build_seconds, _) = time_min(|| {
            MaintainedIndex::build(&schema, &dc, &plan, &base).unwrap();
            base_rows
        });
        eprintln!("maintained_index_build rows={base_rows}: {index_build_seconds:.4}s");
        measurements.push(Measurement {
            kernel: "maintained_index_build",
            rows: base_rows,
            seconds: index_build_seconds,
            work: base_rows,
        });
        let base_index = MaintainedIndex::build(&schema, &dc, &plan, &base).unwrap();

        // Byte-identity first, un-timed: per batch, the maintained
        // delta-restricted pass must equal a full rebuild swept with the
        // delta admit filter — violations and candidate-pair counts.
        {
            let mut table = base.clone();
            let mut index = base_index.clone();
            let mut maintained_out = Vec::new();
            let mut rebuild_out = Vec::new();
            for batch in &batches {
                let delta = append_batch(&mut table, batch);
                index.absorb_delta(&table, &delta).unwrap();
                assert!(index.is_current(&table), "absorb left the index stale");
                let start = table.len() - batch.len();
                let positions: Vec<usize> = (start..table.len()).collect();
                maintained_out.push(
                    index
                        .detect_delta(&ctx, &schema, table.tuples(), &positions)
                        .unwrap(),
                );
                let rebuilt =
                    ViolationIndex::build(&ctx, &schema, &dc, &plan, table.tuples()).unwrap();
                let (found, pairs) = rebuilt
                    .sweep_detect(&ctx, &schema, table.tuples(), |i, j| {
                        i >= start || j >= start
                    })
                    .unwrap();
                rebuild_out.push((canonicalize_violations(found), pairs));
            }
            assert_eq!(
                maintained_out, rebuild_out,
                "maintained index diverged from the per-batch rebuild baseline"
            );
        }

        let mut maintained_seconds = f64::INFINITY;
        let mut maintained_work = 0usize;
        for _ in 0..runs() {
            let mut table = base.clone();
            let mut index = base_index.clone();
            let start = Instant::now();
            let mut violations = 0usize;
            for batch in &batches {
                let delta = append_batch(&mut table, batch);
                index.absorb_delta(&table, &delta).unwrap();
                let positions: Vec<usize> = (table.len() - batch.len()..table.len()).collect();
                let (found, _) = index
                    .detect_delta(&ctx, &schema, table.tuples(), &positions)
                    .unwrap();
                violations += found.len();
            }
            maintained_seconds = maintained_seconds.min(start.elapsed().as_secs_f64());
            maintained_work = violations;
        }
        eprintln!(
            "ingest_maintained rows={base_rows}: {maintained_seconds:.4}s \
             ({maintained_work} violations)"
        );
        measurements.push(Measurement {
            kernel: "ingest_maintained",
            rows: base_rows,
            seconds: maintained_seconds,
            work: maintained_work,
        });

        let mut rebuild_seconds = f64::INFINITY;
        let mut rebuild_work = 0usize;
        for _ in 0..runs() {
            let mut table = base.clone();
            let start = Instant::now();
            let mut violations = 0usize;
            for batch in &batches {
                append_batch(&mut table, batch);
                let tail = table.len() - batch.len();
                let rebuilt =
                    ViolationIndex::build(&ctx, &schema, &dc, &plan, table.tuples()).unwrap();
                let (found, _) = rebuilt
                    .sweep_detect(&ctx, &schema, table.tuples(), |i, j| i >= tail || j >= tail)
                    .unwrap();
                violations += canonicalize_violations(found).len();
            }
            rebuild_seconds = rebuild_seconds.min(start.elapsed().as_secs_f64());
            rebuild_work = violations;
        }
        eprintln!(
            "ingest_rebuild rows={base_rows}: {rebuild_seconds:.4}s ({rebuild_work} violations)"
        );
        measurements.push(Measurement {
            kernel: "ingest_rebuild",
            rows: base_rows,
            seconds: rebuild_seconds,
            work: rebuild_work,
        });

        assert_eq!(
            maintained_work, rebuild_work,
            "ingest paths disagree on the violations found"
        );
        let speedup = rebuild_seconds / maintained_seconds.max(1e-9);
        eprintln!("sustained_ingest speedup (violations/sec): {speedup:.1}x");
        assert!(
            speedup >= 10.0,
            "sustained ingest must sustain >= 10x the violations/sec of \
             per-batch rebuild at 1% deltas, got {speedup:.1}x"
        );
    }

    // Kernel 6: skew-adversarial detection.  A zipfian-hot equality key
    // concentrates nearly all candidate-pair mass in one hash partition;
    // static per-worker chunking pins that partition to a single worker
    // (per-worker imbalance approaches the worker count), while the
    // weighted morsel cuts split it across stealable tasks.  Every
    // (workers, data_partitions) point must produce byte-identical
    // violations and candidate-pair counts — asserted below.
    let skew_report = {
        let rows = 8_000usize;
        let distinct = 40usize;
        let exponent = 1.0f64;
        let table = generate_skewed_table(rows, distinct, exponent, 7);
        let dc = equality_dc();
        let plan = dc.index_plan().expect("the bench DC has an index plan");
        let schema = table.schema().as_ref().clone();

        // What static chunking would do at 4 workers: candidate mass per
        // key with group size g is g(g-1)/2 (the sweep enumerates ordered
        // pairs), and chunking hands contiguous runs of partitions to
        // workers, so the worker owning the hot key owns almost all of it.
        let histogram = key_histogram(&table, distinct);
        let masses: Vec<u64> = histogram
            .iter()
            .map(|&g| (g as u64) * (g as u64).saturating_sub(1) / 2)
            .collect();
        let chunk_masses: Vec<u64> = chunk_ranges(distinct, 4)
            .into_iter()
            .map(|(start, end)| masses[start..end].iter().sum())
            .collect();
        let mean_mass = chunk_masses.iter().sum::<u64>() as f64 / chunk_masses.len() as f64;
        let static_imbalance = *chunk_masses.iter().max().unwrap() as f64 / mean_mass.max(1e-9);

        let index = ViolationIndex::build(&ctx, &schema, &dc, &plan, table.tuples()).unwrap();
        let mut entries: Vec<SkewEntry> = Vec::new();
        let mut reference: Option<(Vec<_>, usize)> = None;
        for &workers in &[1usize, 4] {
            for &partitions in &[1usize, 16] {
                let run_ctx = ExecContext::new(workers).with_data_partitions(partitions);
                let (seconds, _) = time_min(|| {
                    let (found, _) = index
                        .sweep_detect(&run_ctx, &schema, table.tuples(), |_, _| true)
                        .unwrap();
                    found.len()
                });
                // One instrumented, un-timed pass for the scheduler
                // counters (the single-worker fast path bypasses the
                // morsel scheduler entirely, so it reports zero morsels).
                let counters = Arc::new(MorselCounters::new());
                let run_ctx = run_ctx.with_morsel_counters(Arc::clone(&counters));
                let (found, pairs) = index
                    .sweep_detect(&run_ctx, &schema, table.tuples(), |_, _| true)
                    .unwrap();
                eprintln!(
                    "skewed_keys workers={workers} partitions={partitions}: {seconds:.4}s \
                     ({} violations, {pairs} pairs, {} morsels, {} steals, \
                     imbalance {:.2})",
                    found.len(),
                    counters.morsels(),
                    counters.steals(),
                    counters.work_imbalance().unwrap_or(1.0)
                );
                entries.push(SkewEntry {
                    workers,
                    data_partitions: partitions,
                    seconds,
                    violations: found.len(),
                    pairs,
                    morsels: counters.morsels(),
                    steals: counters.steals(),
                    per_worker: counters.per_worker(),
                    work_imbalance: counters.work_imbalance().unwrap_or(1.0),
                });
                match &reference {
                    None => reference = Some((found, pairs)),
                    Some((ref_found, ref_pairs)) => {
                        assert_eq!(
                            ref_found, &found,
                            "skewed sweep violations diverged at workers={workers} \
                             data_partitions={partitions}"
                        );
                        assert_eq!(
                            *ref_pairs, pairs,
                            "skewed sweep pair counts diverged at workers={workers} \
                             data_partitions={partitions}"
                        );
                    }
                }
            }
        }

        // The weighted cuts must keep per-morsel work within 2x of the
        // mean at 16 partitions even though one key owns most of the mass.
        let fine = entries
            .iter()
            .find(|e| e.workers == 4 && e.data_partitions == 16)
            .unwrap();
        assert!(
            fine.work_imbalance <= 2.0,
            "morsel work imbalance {:.2} exceeds 2x at 16 data partitions \
             (static chunking imbalance on this workload: {static_imbalance:.2})",
            fine.work_imbalance
        );

        let secs = |w: usize, p: usize| {
            entries
                .iter()
                .find(|e| e.workers == w && e.data_partitions == p)
                .unwrap()
                .seconds
        };
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let scaling = if cores >= 4 {
            // Static chunking at 4 workers degenerates to the single-worker
            // time on this workload (one worker owns the hot partition), so
            // the single-worker sweep is its lower bound.
            let speedup = secs(1, 1) / secs(4, 16).max(1e-9);
            assert!(
                speedup > 1.5,
                "skewed sweep at 4 workers x 16 partitions must beat the \
                 static-chunking bound by > 1.5x on a multi-core host, got {speedup:.2}x"
            );
            format!(
                "multicore host ({cores} cores): {speedup:.2}x over the \
                 single-worker sweep, the static-chunking lower bound"
            )
        } else {
            let overhead = secs(4, 16) / secs(1, 1).max(1e-9);
            assert!(
                overhead <= 3.0,
                "morsel scheduling overhead {overhead:.2}x exceeds the 3x bound \
                 on a single-core host"
            );
            format!(
                "single-core host: scheduling overhead bounded at {overhead:.2}x \
                 the single-worker sweep; the > 1.5x speedup assertion needs >= 4 cores"
            )
        };
        eprintln!("skewed_keys scaling: {scaling}");
        SkewReport {
            rows,
            distinct_keys: distinct,
            zipf_exponent: exponent,
            static_imbalance,
            scaling,
            entries,
        }
    };

    let json = render_json(&measurements, &skew_report);
    let out = output_path();
    std::fs::write(&out, json).unwrap();
    eprintln!("wrote {}", out.display());
}

fn output_path() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("DAISY_BENCH_OUT") {
        return path.into();
    }
    // crates/bench → repository root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_detection.json")
}

fn render_json(measurements: &[Measurement], skew: &SkewReport) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json =
        format!("{{\n  \"bench\": \"detection\",\n  \"host_nproc\": {nproc},\n  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"rows\": {}, \"seconds\": {:.6}, \"work\": {}}}{}\n",
            m.kernel, m.rows, m.seconds, m.work, comma
        ));
    }
    json.push_str("  ]");

    // The streaming-ingest axis: violations per second sustained by the
    // maintained (persistent, delta-absorbed) index versus rebuilding the
    // index for every batch, over the same 1% batches with byte-identical
    // outputs (asserted in main).
    let ingest = |kernel: &str| {
        measurements
            .iter()
            .find(|m| m.kernel == kernel)
            .map(|m| (m.seconds, m.work))
    };
    if let (Some((maintained_s, work)), Some((rebuild_s, _))) =
        (ingest("ingest_maintained"), ingest("ingest_rebuild"))
    {
        json.push_str(",\n  \"sustained_ingest\": {\n");
        json.push_str(&format!(
            "    \"maintained_violations_per_sec\": {:.0},\n",
            work as f64 / maintained_s.max(1e-9)
        ));
        json.push_str(&format!(
            "    \"rebuild_violations_per_sec\": {:.0},\n",
            work as f64 / rebuild_s.max(1e-9)
        ));
        json.push_str(&format!(
            "    \"speedup_maintained_over_rebuild\": {:.2}",
            rebuild_s / maintained_s.max(1e-9)
        ));
        json.push_str("\n  }");
    }

    // The skew axis: the morsel scheduler on a zipfian-hot equality key.
    // Violations and pair counts are identical across every combination
    // (asserted in main); what varies is wall-clock and how evenly the
    // candidate mass spread over morsels.
    json.push_str(",\n  \"skewed_keys\": {\n");
    json.push_str(&format!("    \"rows\": {},\n", skew.rows));
    json.push_str(&format!("    \"distinct_keys\": {},\n", skew.distinct_keys));
    json.push_str(&format!(
        "    \"zipf_exponent\": {:.2},\n",
        skew.zipf_exponent
    ));
    json.push_str(&format!(
        "    \"static_chunking_imbalance_at_4_workers\": {:.2},\n",
        skew.static_imbalance
    ));
    json.push_str(&format!("    \"scaling\": \"{}\",\n", skew.scaling));
    json.push_str("    \"results\": [\n");
    for (i, e) in skew.entries.iter().enumerate() {
        let comma = if i + 1 == skew.entries.len() { "" } else { "," };
        let per_worker = e
            .per_worker
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "      {{\"workers\": {}, \"data_partitions\": {}, \"seconds\": {:.6}, \
             \"violations\": {}, \"pairs\": {}, \"morsels\": {}, \"steals\": {}, \
             \"per_worker_morsels\": [{}], \"work_imbalance\": {:.3}}}{}\n",
            e.workers,
            e.data_partitions,
            e.seconds,
            e.violations,
            e.pairs,
            e.morsels,
            e.steals,
            per_worker,
            e.work_imbalance,
            comma
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    json
}
