//! The traced run: per-layer metrics.
//!
//! One traced pass replays the workload's operations as `bench.request`
//! spans whose children are `query.parse` → `core.engine.execute` (on the
//! service workloads `core.session.execute` + `core.session.commit` on
//! `CleaningSession`s driven serially in admission order).  After each
//! request come *probe* spans: the layer's public kernel called on that
//! request's own inputs — the tables, provenance and snapshot as they were
//! before the request — tagged with the request's id.  Probes never touch
//! the engine under test; they work on clones.
//!
//! Only knob-free entry points are called (see the README's function list),
//! so collapsing the engine's configuration knobs never needs an edit here.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use daisy::common::{DurabilityMode, Schema, Value};
use daisy::core::clean_dc::repair_dc_violations;
use daisy::core::clean_select::clean_select_fd;
use daisy::core::index::id_index;
use daisy::core::relaxation::relax_fd;
use daisy::core::theta::ThetaMatrix;
use daisy::core::{
    CleaningPlan, CleaningReport, CleaningStep, CleaningStrategy, DaisyEngine, EngineShared,
    FdIndex, MaintainedIndex, ViolationIndex,
};
use daisy::exec::{run_stealing, ExecContext, MorselCounters};
use daisy::expr::DenialConstraint;
use daisy::offline::{offline_clean_dc, offline_clean_fd};
use daisy::query::physical::{filter_tuples, PredicateMode};
use daisy::query::{execute, parse_query, Catalog, LogicalPlan, Query};
use daisy::service::RequestOp;
use daisy::storage::{ColumnSnapshot, Delta, ProvenanceStore, Table, Tuple};
use daisy::wal::{Encoder, PersistedWorld, RealVfs, WalStore};

use crate::gen::{self, ServiceInputs, SingleInputs, Sizes};
use crate::host;
use crate::json::Json;
use crate::metrics::{Measured, PER_LAYER};
use crate::run::{
    check_outputs, context, discard, run_pass, serial_replay, FinalWorld, RunResult, Scratch,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    build_engine, parallelism, service_config, single_config, ServiceCounters, Workload,
};

/// Untraced reference passes a traced run makes before its traced pass.
const REFERENCE_PASSES: usize = 2;
/// Checkpoints `probe_wal` times.
const CHECKPOINT_PROBES: usize = 3;
/// Timed recoveries of the durable store.
const RECOVERIES: usize = 5;

/// The per-layer values of one run; a metric never set reads 0 (the layer
/// was bypassed).
#[derive(Debug, Default)]
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let current = self.0.get(name).copied().unwrap_or(0.0);
        self.set(name, current + value);
    }

    fn measured(&self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|m| Measured {
                name: m.name,
                // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
                value: self.0.get(m.name).copied().unwrap_or(0.0) + 0.0,
                unit: m.unit,
            })
            .collect()
    }
}

/// Metrics that are the median duration of one span name over the traced
/// pass: `(metric, span, factor from ms to the metric's unit)`.
const SPAN_MEDIANS: [(&str, &str, f64); 16] = [
    ("query.parse_us", "query.parse", 1e3),
    ("query.plan_us", "query.plan", 1e3),
    ("query.exec_ms", "query.exec", 1.0),
    ("storage.snapshot_build_ms", "storage.snapshot_build", 1.0),
    ("storage.snapshot_absorb_us", "storage.snapshot_absorb", 1e3),
    ("core.index.build_ms", "core.index.build", 1.0),
    ("core.index.detect_ms", "core.index.detect", 1.0),
    ("core.index.absorb_us", "core.index.absorb", 1e3),
    ("core.index.detect_delta_us", "core.index.detect_delta", 1e3),
    ("core.theta.build_ms", "core.theta.build", 1.0),
    ("core.engine.execute_ms", "core.engine.execute", 1.0),
    ("core.session.execute_ms", "core.session.execute", 1.0),
    ("core.session.commit_ms", "core.session.commit", 1.0),
    ("wal.append_us", "wal.append", 1e3),
    ("wal.encode_us", "wal.encode", 1e3),
    ("wal.checkpoint_ms", "wal.checkpoint", 1.0),
];

/// Median duration of the spans with this name, in ms (0 when none ran).
fn p50_ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ms(name))
}

/// A table as it was before a request, for the probes to work on.
struct PreTable {
    table: Table,
    schema: Arc<Schema>,
    provenance: ProvenanceStore,
    snapshot: Option<ColumnSnapshot>,
}

impl PreTable {
    fn capture(engine: &DaisyEngine, name: &str) -> Option<PreTable> {
        let table = engine.table(name).ok()?.clone();
        Some(PreTable {
            schema: Arc::new(table.schema().qualify(name)),
            provenance: engine.provenance(name).cloned().unwrap_or_default(),
            snapshot: engine.snapshot(name).cloned(),
            table,
        })
    }

    /// Times `ColumnSnapshot::build` at the table's first touch by a rule,
    /// where the engine builds its own; the result stands in when the engine
    /// had none yet.
    fn build_snapshot(&mut self, tracer: &mut Tracer) {
        let table = &self.table;
        let built = tracer.span("storage.snapshot_build", |_| {
            ColumnSnapshot::build(table).ok()
        });
        if self.snapshot.is_none() {
            self.snapshot = built;
        }
    }

    /// Applies `delta` to the pre-request table and times the snapshot
    /// patch, as the engine's write path would.
    fn absorb(&mut self, tracer: &mut Tracer, layers: &mut Layers, delta: &Delta) {
        if delta.is_empty() || self.table.apply_delta(delta).is_err() {
            return;
        }
        layers.add("storage.delta_cells", delta.len() as f64);
        if let Some(snapshot) = self.snapshot.as_mut() {
            let table = &self.table;
            tracer.span("storage.snapshot_absorb", |_| {
                let _ = snapshot.absorb_delta(table, delta);
            });
        }
    }
}

/// Probe-side state that outlives one request of a single-session pass.
struct SingleProbes {
    ctx: ExecContext,
    max_iterations: usize,
    theta_blocks: usize,
    /// The FD group index per `(table, rule)`, built at first touch as the
    /// engine builds its own.
    fd_indexes: HashMap<(String, u64), FdIndex>,
    theta: Option<ThetaMatrix>,
    theta_stats: ThetaTotals,
}

#[derive(Debug, Default)]
struct ThetaTotals {
    pairs_compared: f64,
    blocks_checked: f64,
    blocks_pruned: f64,
    violations: f64,
}

impl SingleProbes {
    fn probe_request(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        engine: &DaisyEngine,
        query: &Query,
        pre: &mut HashMap<String, PreTable>,
        strategy: CleaningStrategy,
    ) {
        tracer.span("query.plan", |_| {
            let _ = LogicalPlan::from_query(query);
        });
        let mut catalog = Catalog::new();
        for table in pre.values() {
            catalog.add(table.table.clone());
        }
        let Ok(plan) = CleaningPlan::build(query, engine.constraints(), &catalog, engine.config())
        else {
            return;
        };
        if plan.is_empty() {
            return;
        }

        // The driving table's answer over the pre-request world.
        let Some(driving) = pre.get(&query.from) else {
            return;
        };
        let driving_answer = filter_tuples(
            &self.ctx,
            &driving.schema,
            driving.table.tuples(),
            &query.filter,
            PredicateMode::Possible,
        )
        .unwrap_or_else(|_| driving.table.tuples().to_vec());

        // The qualifying part of each joined table: tuples whose join key
        // could match a key of the driving answer.
        let mut answers: HashMap<String, Vec<Tuple>> = HashMap::new();
        for join in &query.joins {
            let (Some(right), Ok(left_idx)) = (
                pre.get(&join.table),
                driving.schema.index_of(&join.left_key),
            ) else {
                continue;
            };
            let Ok(right_idx) = right.schema.index_of(&join.right_key) else {
                continue;
            };
            let keys: std::collections::HashSet<Value> = driving_answer
                .iter()
                .filter_map(|t| t.cell(left_idx).ok())
                .flat_map(|c| c.possible_values().into_iter().cloned().collect::<Vec<_>>())
                .collect();
            let qualifying = right
                .table
                .tuples()
                .iter()
                .filter(|t| {
                    t.cell(right_idx)
                        .map(|c| c.possible_values().iter().any(|v| keys.contains(v)))
                        .unwrap_or(false)
                })
                .cloned()
                .collect();
            answers.insert(join.table.clone(), qualifying);
        }
        answers.insert(query.from.clone(), driving_answer);

        for step in &plan.steps {
            let (Some(table), Some(answer)) = (pre.get_mut(&step.table), answers.get(&step.table))
            else {
                continue;
            };
            match &step.fd {
                Some(_) => self.probe_fd_step(tracer, layers, step, table, answer),
                None => {
                    let Some(rule) = engine.constraints().rule(step.rule).cloned() else {
                        continue;
                    };
                    let full = strategy == CleaningStrategy::FullRemaining;
                    self.probe_dc_step(tracer, layers, &rule, table, answer, full);
                }
            }
        }
    }

    /// `relax_fd` and `clean_select_fd` on the request's answer, then the
    /// snapshot patch for the delta they produce.
    fn probe_fd_step(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        step: &CleaningStep,
        pre: &mut PreTable,
        answer: &[Tuple],
    ) {
        let fd = step.fd.as_ref().expect("fd step");
        let key = (step.table.clone(), step.rule.raw());
        if !self.fd_indexes.contains_key(&key) {
            pre.build_snapshot(tracer);
            let (table, provenance) = (&pre.table, &pre.provenance);
            let built = tracer.span("core.index.build", |_| {
                FdIndex::build_with_provenance(table, fd, provenance)
            });
            match built {
                Ok(index) => self.fd_indexes.insert(key.clone(), index),
                Err(_) => return,
            };
        }
        let index = &self.fd_indexes[&key];
        let pool = pre.table.tuples();
        tracer.span("core.relax", |_| {
            let _ = relax_fd(index, answer, pool, step.filter_target, self.max_iterations);
        });
        let provenance = &mut pre.provenance;
        let outcome = tracer.span("core.clean_select", |_| {
            clean_select_fd(
                &self.ctx,
                step.rule,
                index,
                answer,
                pool,
                step.filter_target,
                self.max_iterations,
                provenance,
            )
        });
        if let Ok(outcome) = outcome {
            pre.absorb(tracer, layers, &outcome.delta);
        }
    }

    /// The theta-join kernels on the request's table: matrix build, index
    /// build and sweep and the full check on the request that cleans the
    /// whole table, the range check afterwards; then `repair_dc_violations`.
    fn probe_dc_step(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        rule: &DenialConstraint,
        pre: &mut PreTable,
        answer: &[Tuple],
        full: bool,
    ) {
        let schema = Arc::clone(&pre.schema);
        if self.theta.is_none() {
            pre.build_snapshot(tracer);
        }
        let tuples = pre.table.tuples();
        if self.theta.is_none() {
            let blocks = self.theta_blocks;
            self.theta = tracer
                .span("core.theta.build", |_| {
                    ThetaMatrix::build(&schema, tuples, rule, blocks)
                })
                .ok();
            if let Some(plan) = rule.index_plan() {
                let ctx = &self.ctx;
                let index = tracer.span("core.index.build", |_| {
                    ViolationIndex::build(ctx, &schema, rule, &plan, tuples)
                });
                if let Ok(index) = index {
                    tracer.span("core.index.detect", |_| {
                        let _ = index.detect(ctx, &schema, tuples);
                    });
                }
            }
        }
        let Some(matrix) = self.theta.as_mut() else {
            return;
        };
        let ctx = &self.ctx;
        let checked = if full {
            tracer.span("core.theta.check", |_| {
                matrix.check_all(ctx, &schema, tuples)
            })
        } else {
            let column = matrix.partition_column;
            let values: Vec<Value> = answer
                .iter()
                .filter_map(|t| t.value(column).ok())
                .filter(|v| !v.is_null())
                .collect();
            let low = values.iter().min().cloned();
            let high = values.iter().max().cloned();
            tracer.span("core.theta.check", |_| {
                matrix.check_range(ctx, &schema, tuples, low.as_ref(), high.as_ref())
            })
        };
        let Ok((violations, stats)) = checked else {
            return;
        };
        self.theta_stats.pairs_compared += stats.pairs_compared as f64;
        self.theta_stats.blocks_checked += stats.blocks_checked as f64;
        self.theta_stats.blocks_pruned += stats.blocks_pruned as f64;
        self.theta_stats.violations += violations.len() as f64;

        let by_id = id_index(ctx, tuples);
        let provenance = &mut pre.provenance;
        let outcome = tracer.span("core.repair_dc", |_| {
            repair_dc_violations(ctx, &schema, rule, &violations, &by_id, provenance)
        });
        drop(by_id);
        if let Ok(outcome) = outcome {
            pre.absorb(tracer, layers, &outcome.delta);
        }
    }
}

/// The traced pass of a single-session workload.  Returns the engine
/// holding the final world and the parsed requests.
fn traced_single_pass(
    inputs: &SingleInputs,
    tracer: &mut Tracer,
    layers: &mut Layers,
    ctx: &ExecContext,
) -> (DaisyEngine, Vec<Query>, usize) {
    let mut engine = build_engine(inputs, single_config());
    let mut failed = 0;
    for sql in &inputs.warm_ops {
        failed += usize::from(engine.execute_sql(sql).is_err());
    }
    let mut probes = SingleProbes {
        ctx: ctx.clone(),
        max_iterations: engine.config().max_relaxation_iterations,
        theta_blocks: engine.config().theta_blocks_per_side(),
        fd_indexes: HashMap::new(),
        theta: None,
        theta_stats: ThetaTotals::default(),
    };
    let mut queries = Vec::with_capacity(inputs.ops.len());
    for (request, sql) in inputs.ops.iter().enumerate() {
        tracer.set_request(request);
        let Ok(parsed) = parse_query(sql) else {
            failed += 1;
            continue;
        };
        let mut pre: HashMap<String, PreTable> = parsed
            .tables()
            .into_iter()
            .filter_map(|name| Some((name.to_string(), PreTable::capture(&engine, name)?)))
            .collect();
        let ok = tracer.span("bench.request", |t| {
            let query = t.span("query.parse", |_| parse_query(sql));
            match query {
                Ok(query) => t
                    .span("core.engine.execute", |_| engine.execute(&query))
                    .is_ok(),
                Err(_) => false,
            }
        });
        failed += usize::from(!ok);
        let strategy = engine
            .session()
            .queries
            .last()
            .map_or(CleaningStrategy::NotNeeded, |r| r.strategy);
        probes.probe_request(tracer, layers, &engine, &parsed, &mut pre, strategy);
        queries.push(parsed);
    }

    let totals = &probes.theta_stats;
    layers.set("core.theta.pairs_compared", totals.pairs_compared);
    let blocks = totals.blocks_checked + totals.blocks_pruned;
    if blocks > 0.0 {
        layers.set(
            "core.theta.blocks_pruned_share",
            totals.blocks_pruned / blocks,
        );
    }
    if totals.pairs_compared > 0.0 {
        layers.set(
            "core.theta.useful_pair_share",
            totals.violations / totals.pairs_compared,
        );
    }
    (engine, queries, failed)
}

/// What the engine's own `CleaningReport`s say about the timed operations:
/// strategy counts for `core.cost.*`, work sums for relax and repair.
fn set_report_counts(layers: &mut Layers, engine: &DaisyEngine, warm_ops: usize) {
    let queries = &engine.session().queries;
    let timed = &queries[warm_ops.min(queries.len())..];
    let count = |s: CleaningStrategy| timed.iter().filter(|r| r.strategy == s).count() as f64;
    layers.set(
        "core.cost.ops_incremental",
        count(CleaningStrategy::Incremental),
    );
    layers.set("core.cost.ops_full", count(CleaningStrategy::FullRemaining));
    layers.set(
        "core.cost.ops_not_needed",
        count(CleaningStrategy::NotNeeded),
    );
    layers.set(
        "core.cost.switch_op",
        timed
            .iter()
            .position(|r| r.strategy == CleaningStrategy::FullRemaining)
            .map_or(0.0, |p| p as f64 + 1.0),
    );
    let sum = |f: &dyn Fn(&CleaningReport) -> usize| timed.iter().map(f).sum::<usize>() as f64;
    layers.set("core.relax.extra_tuples", sum(&|r| r.extra_tuples));
    layers.set("core.relax.iterations", sum(&|r| r.relaxation_iterations));
    layers.set("core.repair.errors_repaired", sum(&|r| r.errors_repaired));
    layers.set("core.repair.cells_updated", sum(&|r| r.cells_updated));
}

/// `execute(ctx, catalog, plan, Possible)` of every request over the final
/// world, with current snapshots attached so the vectorized path runs.
fn probe_query_exec(
    tracer: &mut Tracer,
    layers: &mut Layers,
    ctx: &ExecContext,
    engine: &DaisyEngine,
    inputs: &SingleInputs,
    queries: &[Query],
) {
    let mut catalog = Catalog::new();
    for table in &inputs.tables {
        if let Ok(current) = engine.table(table.name()) {
            catalog.add(current.clone());
            let _ = catalog.refresh_snapshot(table.name());
        }
    }
    for (request, query) in queries.iter().enumerate() {
        tracer.set_request(request);
        let Ok(plan) = LogicalPlan::from_query(query) else {
            continue;
        };
        let result = tracer.span("query.exec", |_| {
            execute(ctx, &catalog, &plan, PredicateMode::Possible)
        });
        if let Ok(result) = result {
            layers.add("query.result_rows", result.len() as f64);
        }
    }
}

/// The offline baseline of the paper: clean every table under every rule
/// first, then answer the same queries over the cleaned catalog.
fn offline_baseline(ctx: &ExecContext, inputs: &SingleInputs, queries: &[Query]) -> f64 {
    let start = Instant::now();
    let mut catalog = Catalog::new();
    for table in &inputs.tables {
        let mut cleaned = table.clone();
        for (fd, _) in &inputs.fds {
            if fd.attributes().iter().all(|a| cleaned.schema().contains(a)) {
                let _ = offline_clean_fd(&mut cleaned, fd);
            }
        }
        for dc in &inputs.dcs {
            if dc.attributes().iter().all(|a| cleaned.schema().contains(a)) {
                let _ = offline_clean_dc(&mut cleaned, dc);
            }
        }
        catalog.add(cleaned);
    }
    for query in queries {
        if let Ok(plan) = LogicalPlan::from_query(query) {
            let _ = execute(ctx, &catalog, &plan, PredicateMode::Possible);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Probe-side replica of one service table: the table itself plus the
/// snapshot and maintained index the world keeps for it.
struct ShadowTable {
    table: Table,
    schema: Arc<Schema>,
    snapshot: Option<ColumnSnapshot>,
    index: Option<MaintainedIndex>,
}

/// The traced pass of a service workload: every request on its own
/// `CleaningSession`, serially, in the admission order of its round.
fn traced_service_pass(
    inputs: &ServiceInputs,
    dir: Option<&Path>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    ctx: &ExecContext,
) -> (Arc<EngineShared>, usize) {
    let service = crate::workloads::build_service(inputs, dir);
    let shared = Arc::clone(service.shared());
    let rule = inputs.fd.to_dc("phi");
    let plan = rule.index_plan();

    let mut shadows: HashMap<String, ShadowTable> = HashMap::new();
    for table in &inputs.tables {
        let schema = Arc::new(table.schema().as_ref().clone());
        let snapshot = tracer.span("storage.snapshot_build", |_| {
            ColumnSnapshot::build(table).ok()
        });
        let index = plan.as_ref().and_then(|plan| {
            tracer
                .span("core.index.build", |_| {
                    MaintainedIndex::build(&schema, &rule, plan, table)
                })
                .ok()
        });
        shadows.insert(
            table.name().to_string(),
            ShadowTable {
                table: table.clone(),
                schema,
                snapshot,
                index,
            },
        );
    }

    let mut failed = 0;
    let mut request_id = 0;
    for round in &inputs.rounds {
        for &position in &service.admission_order(round) {
            let request = &round[position];
            tracer.set_request(request_id);
            request_id += 1;
            let receipt = tracer.span("bench.request", |t| {
                let mut session = shared.session_named(&request.session);
                let executed = t.span("core.session.execute", |_| match &request.op {
                    RequestOp::Sql(sql) => session.execute_sql(sql).map(|_| ()),
                    RequestOp::Ingest { table, rows } => {
                        session.ingest_rows(table, rows.clone()).map(|_| ())
                    }
                });
                executed
                    .and_then(|()| t.span("core.session.commit", |_| session.commit()))
                    .ok()
            });
            let Some(receipt) = receipt else {
                failed += 1;
                continue;
            };
            for (table_name, delta) in &receipt.staged {
                let Some(shadow) = shadows.get_mut(table_name) else {
                    continue;
                };
                let rows_before = shadow.table.len();
                if shadow.table.apply_delta(delta).is_err() {
                    continue;
                }
                layers.add("storage.delta_cells", delta.len() as f64);
                let table = &shadow.table;
                if let Some(snapshot) = shadow.snapshot.as_mut() {
                    tracer.span("storage.snapshot_absorb", |_| {
                        let _ = snapshot.absorb_delta(table, delta);
                    });
                }
                if let Some(index) = shadow.index.as_mut() {
                    tracer.span("core.index.absorb", |_| {
                        let _ = index.absorb_delta(table, delta);
                    });
                    if !delta.appends().is_empty() {
                        let appended: Vec<usize> = (rows_before..table.len()).collect();
                        tracer.span("core.index.detect_delta", |_| {
                            let _ =
                                index.detect_delta(ctx, &shadow.schema, table.tuples(), &appended);
                        });
                    }
                }
            }
        }
    }
    drop(service);
    (shared, failed)
}

/// Bytes of the most probable value of every cell: the user's data.
fn user_bytes<'a>(tables: impl IntoIterator<Item = &'a Table>) -> f64 {
    let mut bytes = 0usize;
    for table in tables {
        for tuple in table.tuples() {
            for cell in &tuple.cells {
                bytes += match cell.most_probable() {
                    Value::Null => 0,
                    Value::Bool(_) => 1,
                    Value::Int(_) | Value::Float(_) => 8,
                    Value::Str(s) => s.len(),
                };
            }
        }
    }
    bytes as f64
}

fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// WAL probes over the commits the traced durable pass logged: every
/// `LoggedCommit` appended to a fresh store under the same policy, the
/// encoder alone, timed checkpoints of the final world, and what a reopen
/// of the store replays.
fn probe_wal(
    tracer: &mut Tracer,
    layers: &mut Layers,
    shared: &EngineShared,
    inputs: &ServiceInputs,
    store_dir: &Path,
    fresh_dir: &Path,
) {
    let version = shared.version();
    let Ok(commits) = shared.deltas_between(0..version) else {
        return;
    };
    let config = service_config(true);
    let seed = PersistedWorld {
        version: 0,
        tables: inputs.tables.clone(),
        provenance: Vec::new(),
    };
    let opened = WalStore::open(
        Arc::new(RealVfs),
        fresh_dir,
        DurabilityMode::Commit,
        config.checkpoint_interval,
        &seed,
    );
    let Ok((mut store, _)) = opened else {
        return;
    };
    let mut encoded_bytes = 0usize;
    for (request, commit) in commits.iter().enumerate() {
        tracer.set_request(request);
        let bytes = tracer.span("wal.encode", |_| {
            let mut encoder = Encoder::new();
            commit.encode_body(&mut encoder);
            encoder.into_bytes()
        });
        encoded_bytes += bytes.len();
        tracer.span("wal.append", |_| {
            let _ = store.append_commit(commit);
        });
    }
    if !commits.is_empty() {
        layers.set(
            "wal.log_bytes_per_commit",
            encoded_bytes as f64 / commits.len() as f64,
        );
    }

    let mut tables: Vec<Table> = shared
        .table_names()
        .iter()
        .filter_map(|name| shared.table(name).ok())
        .map(|t| t.as_ref().clone())
        .collect();
    tables.sort_by(|a, b| a.name().cmp(b.name()));
    let provenance = tables
        .iter()
        .filter_map(|t| {
            Some((
                t.name().to_string(),
                shared.provenance(t.name())?.as_ref().clone(),
            ))
        })
        .collect();
    let user = user_bytes(&tables);
    let world = PersistedWorld {
        version,
        tables,
        provenance,
    };
    let before = dir_bytes(fresh_dir);
    for _ in 0..CHECKPOINT_PROBES {
        tracer.span("wal.checkpoint", |_| {
            let _ = store.checkpoint_now(&world);
        });
    }
    // Re-writing the checkpoint of one version replaces the file, so the
    // growth is one checkpoint's size.
    layers.set("wal.checkpoint_bytes", dir_bytes(fresh_dir) - before);
    drop(store);
    if user > 0.0 {
        layers.set("wal.store_bytes_per_user_byte", dir_bytes(store_dir) / user);
    }
}

/// Scheduling cost of the morsel scheduler alone: `run_stealing` over empty
/// morsels, as many as the context cuts a 10 000-row input into.
fn probe_dispatch(ctx: &ExecContext) -> f64 {
    let morsels = ctx.morsel_count(10_000).max(1);
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_stealing(ctx, morsels, |i| i));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// One traced run: the per-layer metrics of `workload`.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    cleared_env: &[String],
) -> RunResult {
    let mut scratch = Scratch::new().expect("scratch directory inside the checkout");
    let context = context(workload, seed, seconds, sizes, scratch.path(), cleared_env);
    let mut layers = Layers::default();
    let mut tracer = Tracer::new();
    let counters = MorselCounters::new();
    let config = if workload.is_service() {
        service_config(false)
    } else {
        single_config()
    };
    let ctx = ExecContext::new(config.worker_threads)
        .with_data_partitions(config.data_partitions)
        .with_morsel_counters(Arc::clone(&counters));

    // Generation alone, apart from engine construction.
    let start = Instant::now();
    if workload.is_service() {
        std::hint::black_box(gen::service(seed, sizes));
    } else {
        std::hint::black_box(workload.single_inputs(seed, sizes));
    }
    layers.set("data.generate_s", start.elapsed().as_secs_f64());

    // Untraced reference passes: the baseline of the overhead share and the
    // source of the service's own counters.
    let mut attempted = 0;
    let mut failed = 0;
    let mut reference = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let mut last = None;
    for _ in 0..REFERENCE_PASSES {
        if let Some(world) = last.take() {
            discard(world);
        }
        host::reset_peak_rss();
        let (timings, world) = run_pass(workload, seed, sizes, &mut scratch, false);
        peak_rss_mb.push(host::peak_rss_mb());
        attempted += timings.attempted;
        failed += timings.failed;
        reference.push(timings.workload_s);
        last = Some(world);
    }
    let last = last.expect("at least one reference pass");
    let untraced_s = median(&reference);
    let service_counters: Option<ServiceCounters> = match &last {
        FinalWorld::Service { counters, .. } => Some(*counters),
        FinalWorld::Single { .. } => None,
    };
    let store_dir = match &last {
        FinalWorld::Service { dir, .. } => dir.clone(),
        FinalWorld::Single { .. } => None,
    };

    // The traced pass.
    let ops;
    let mut offline = None;
    let mut traced_shared = None;
    let mut durable_serial = None;
    let traced_dir = (workload == Workload::ServiceDurable).then(|| scratch.fresh_dir());
    if workload.is_service() {
        let inputs = gen::service(seed, sizes);
        ops = inputs.rounds.iter().map(Vec::len).sum();
        let (shared, pass_failed) = traced_service_pass(
            &inputs,
            traced_dir.as_deref(),
            &mut tracer,
            &mut layers,
            &ctx,
        );
        failed += pass_failed;
        if let Some(store_dir) = &store_dir {
            let fresh = scratch.fresh_dir();
            probe_wal(
                &mut tracer,
                &mut layers,
                &shared,
                &inputs,
                store_dir,
                &fresh,
            );
            // The serial baseline of a durable service is durable too.
            durable_serial = Some(serial_replay(&inputs, Some(&scratch.fresh_dir())));
        }
        traced_shared = Some(shared);
    } else {
        let inputs = workload.single_inputs(seed, sizes);
        ops = inputs.ops.len();
        let (engine, queries, pass_failed) =
            traced_single_pass(&inputs, &mut tracer, &mut layers, &ctx);
        failed += pass_failed;
        probe_query_exec(&mut tracer, &mut layers, &ctx, &engine, &inputs, &queries);
        set_report_counts(&mut layers, &engine, inputs.warm_ops.len());
        if workload != Workload::CleanRead {
            offline = Some(offline_baseline(&ctx, &inputs, &queries));
        }
    }
    attempted += ops;

    // Output checks on the last reference pass's world; the durable store
    // recovers several times for `wal.recover_ms`.
    let checks = check_outputs(workload, last, RECOVERIES);
    attempted += 1;
    failed += usize::from(!checks.failures.is_empty());
    drop(traced_shared);
    let serial_s = match durable_serial {
        Some(serial) => {
            failed += usize::from(!serial.all_ok || serial.digest != checks.live_digest);
            serial.seconds
        }
        None => checks.serial_s,
    };

    // ---- per-layer metrics from the spans ---------------------------------
    let request_ms = tracer.total_ms("bench.request");
    let traced_s = request_ms / 1e3;
    let execute_ms = if workload.is_service() {
        request_ms
    } else {
        tracer.total_ms("core.engine.execute")
    };
    for (metric, span, scale) in SPAN_MEDIANS {
        layers.set(metric, p50_ms(&tracer, span) * scale);
    }
    // Kernels whose work sits in one or a few calls of the pass (the full
    // theta check, the relaxation that reaches the whole table, the repair
    // after it) report their total over the pass; a median over mostly
    // empty calls would hide them.
    let relax_ms = tracer.total_ms("core.relax");
    layers.set("core.theta.check_ms", tracer.total_ms("core.theta.check"));
    layers.set("core.relax.ms", relax_ms);
    // `clean_select_fd` relaxes before it repairs; the relaxation probe ran
    // on the same inputs just before, so the difference is the repair.
    let repair_ms: f64 = tracer
        .durations_ms("core.clean_select")
        .iter()
        .zip(tracer.durations_ms("core.relax"))
        .map(|(both, relax)| (both - relax).max(0.0))
        .chain(tracer.durations_ms("core.repair_dc"))
        .sum();
    layers.set("core.repair.ms", repair_ms);
    if workload.is_service() {
        // What a request costs outside execute and commit: opening the
        // session (a copy-on-write clone of the world) and dropping it.
        layers.set(
            "core.session.open_ms",
            median(&tracer.self_ms("bench.request")),
        );
    }

    // Probe shares of request time.  The violation-index probes of a theta
    // workload repeat work the theta check already contains, so they are
    // left out of the sum that defines the unattributed share.
    let share = |ms: f64| {
        if execute_ms > 0.0 {
            ms / execute_ms
        } else {
            0.0
        }
    };
    let query_ms = tracer.total_ms("query.parse")
        + tracer.total_ms("query.plan")
        + tracer.total_ms("query.exec");
    let storage_ms =
        tracer.total_ms("storage.snapshot_build") + tracer.total_ms("storage.snapshot_absorb");
    let index_ms = tracer.total_ms("core.index.build")
        + tracer.total_ms("core.index.detect")
        + tracer.total_ms("core.index.absorb")
        + tracer.total_ms("core.index.detect_delta");
    let theta_ms = tracer.total_ms("core.theta.build") + tracer.total_ms("core.theta.check");
    let wal_ms = tracer.total_ms("wal.append");
    layers.set("query.probe_share", share(query_ms));
    layers.set("storage.probe_share", share(storage_ms));
    layers.set("core.index.probe_share", share(index_ms));
    layers.set("core.theta.probe_share", share(theta_ms));
    layers.set("core.relax.probe_share", share(relax_ms));
    layers.set("core.repair.probe_share", share(repair_ms));
    layers.set("wal.probe_share", share(wal_ms));
    if !workload.is_service() {
        let nested_index = if theta_ms > 0.0 { 0.0 } else { index_ms };
        let explained = query_ms + storage_ms + nested_index + theta_ms + relax_ms + repair_ms;
        layers.set("core.engine.unattributed_share", 1.0 - share(explained));
    }

    if let Some(c) = service_counters {
        layers.set("core.session.commits_clean", c.clean as f64);
        layers.set(
            "core.session.commits_footprint_clean",
            c.footprint_clean as f64,
        );
        layers.set("core.session.commits_delta_recheck", c.delta_recheck as f64);
        layers.set("core.session.commits_full_rebase", c.full_rebase as f64);
        if c.commits > 0 {
            let commits = c.commits as f64;
            layers.set(
                "core.session.clean_commit_share",
                (c.commits - c.rebases) as f64 / commits,
            );
            layers.set("service.rebase_share", c.rebases as f64 / commits);
            layers.set("wal.fsyncs_per_commit", c.fsyncs as f64 / commits);
        }
        layers.set("wal.checkpoints", c.checkpoints as f64);
        layers.set("service.serial_s", serial_s);
        if untraced_s > 0.0 {
            layers.set("service.speedup_over_serial", serial_s / untraced_s);
        }
    }
    if let Some(dir) = &store_dir {
        layers.set("wal.recover_ms", median(&checks.recovery_s) * 1e3);
        // What recovery replays on top of the newest checkpoint: reopen the
        // store the way `EngineShared::recover` does and ask.
        let seed_world = PersistedWorld {
            version: 0,
            tables: Vec::new(),
            provenance: Vec::new(),
        };
        let config = service_config(true);
        if let Ok((_, recovered)) = WalStore::open(
            Arc::new(RealVfs),
            dir,
            config.durability,
            config.checkpoint_interval,
            &seed_world,
        ) {
            layers.set("wal.replayed_commits", recovered.replayed as f64);
        }
    }
    if let Some(offline_s) = offline {
        layers.set("offline.clean_s", offline_s);
        if untraced_s > 0.0 {
            layers.set("offline.over_daisy", offline_s / untraced_s);
        }
    }
    layers.set("quality.repair_f1", checks.quality.f1);
    layers.set("quality.repair_precision", checks.quality.precision);
    layers.set("quality.repair_recall", checks.quality.recall);
    layers.set("quality.detected_share", checks.quality.detected);

    layers.set("exec.morsels", counters.morsels() as f64);
    layers.set("exec.steals", counters.steals() as f64);
    layers.set(
        "exec.work_imbalance",
        counters.work_imbalance().unwrap_or(0.0),
    );
    layers.set("exec.dispatch_us", probe_dispatch(&ctx));

    // The traced service pass replays serially, so its untraced counterpart
    // is the serial replay, not the concurrent run.
    let overhead_base = if workload.is_service() {
        serial_s
    } else {
        untraced_s
    };
    if overhead_base > 0.0 {
        layers.set(
            "bench.trace_overhead_share",
            (traced_s - overhead_base) / overhead_base,
        );
    }
    layers.set("bench.traced_workload_s", traced_s);
    layers.set("bench.untraced_workload_s", untraced_s);
    layers.set("bench.spans", tracer.spans.len() as f64);
    layers.set("bench.ops", ops as f64);

    let (user_s, sys_s) = host::cpu_seconds();
    layers.set("host.nproc", host::nproc() as f64);
    layers.set("host.peak_rss_mb", median(&peak_rss_mb));
    layers.set("host.cpu_user_s", user_s);
    layers.set("host.cpu_sys_s", sys_s);
    layers.set("host.invol_ctx_switches", host::involuntary_ctx_switches());

    let trace_path = Path::new(".bench_scratch").join(format!("trace_{}.tsv", workload.name()));
    let trace_written = tracer.write_tsv(&trace_path).is_ok();

    let mut detail = context.fields().to_vec();
    detail.extend([
        (
            "reference_passes".to_string(),
            Json::Num(REFERENCE_PASSES as f64),
        ),
        ("parallelism".to_string(), Json::Num(parallelism() as f64)),
        (
            "trace_file".to_string(),
            if trace_written {
                Json::str(trace_path.display().to_string())
            } else {
                Json::Null
            },
        ),
        (
            "check_failures".to_string(),
            Json::Arr(checks.failures.iter().map(Json::str).collect()),
        ),
    ]);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.measured(),
        detail: Json::Obj(detail),
    }
}
