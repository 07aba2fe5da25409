//! The metrics the benchmark declares; `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds (a unit test
//! holds the two together).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured with tracing off, on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the baseline median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "workload_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "first_result_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: measured in the traced run, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in layer order.  A layer a workload bypasses
/// reports 0 for its metrics on that workload.
pub const PER_LAYER: [PerLayer; 77] = [
    lower("query.parse_us", "us"),
    lower("query.plan_us", "us"),
    lower("query.exec_ms", "ms"),
    lower("query.result_rows", "count"),
    lower("query.probe_share", "ratio"),
    lower("storage.snapshot_build_ms", "ms"),
    lower("storage.snapshot_absorb_us", "us"),
    lower("storage.delta_cells", "count"),
    lower("storage.probe_share", "ratio"),
    lower("core.index.build_ms", "ms"),
    lower("core.index.detect_ms", "ms"),
    lower("core.index.absorb_us", "us"),
    lower("core.index.detect_delta_us", "us"),
    lower("core.index.probe_share", "ratio"),
    lower("core.theta.build_ms", "ms"),
    lower("core.theta.check_ms", "ms"),
    lower("core.theta.pairs_compared", "count"),
    higher("core.theta.blocks_pruned_share", "ratio"),
    higher("core.theta.useful_pair_share", "ratio"),
    lower("core.theta.probe_share", "ratio"),
    lower("core.relax.ms", "ms"),
    lower("core.relax.extra_tuples", "count"),
    lower("core.relax.iterations", "count"),
    lower("core.relax.probe_share", "ratio"),
    lower("core.repair.ms", "ms"),
    higher("core.repair.errors_repaired", "count"),
    lower("core.repair.cells_updated", "count"),
    lower("core.repair.probe_share", "ratio"),
    lower("core.engine.execute_ms", "ms"),
    lower("core.engine.unattributed_share", "ratio"),
    lower("core.cost.switch_op", "count"),
    lower("core.cost.ops_incremental", "count"),
    lower("core.cost.ops_full", "count"),
    higher("core.cost.ops_not_needed", "count"),
    lower("core.session.open_ms", "ms"),
    lower("core.session.execute_ms", "ms"),
    lower("core.session.commit_ms", "ms"),
    higher("core.session.commits_clean", "count"),
    higher("core.session.commits_footprint_clean", "count"),
    higher("core.session.commits_delta_recheck", "count"),
    lower("core.session.commits_full_rebase", "count"),
    higher("core.session.clean_commit_share", "ratio"),
    higher("service.speedup_over_serial", "ratio"),
    lower("service.rebase_share", "ratio"),
    lower("service.serial_s", "s"),
    lower("exec.morsels", "count"),
    lower("exec.steals", "count"),
    lower("exec.work_imbalance", "ratio"),
    lower("exec.dispatch_us", "us"),
    lower("wal.append_us", "us"),
    lower("wal.encode_us", "us"),
    lower("wal.checkpoint_ms", "ms"),
    lower("wal.checkpoints", "count"),
    lower("wal.checkpoint_bytes", "B"),
    lower("wal.fsyncs_per_commit", "ratio"),
    lower("wal.log_bytes_per_commit", "B"),
    lower("wal.store_bytes_per_user_byte", "ratio"),
    lower("wal.recover_ms", "ms"),
    lower("wal.replayed_commits", "count"),
    lower("wal.probe_share", "ratio"),
    lower("offline.clean_s", "s"),
    lower("offline.over_daisy", "ratio"),
    higher("quality.repair_f1", "ratio"),
    higher("quality.repair_precision", "ratio"),
    higher("quality.repair_recall", "ratio"),
    higher("quality.detected_share", "ratio"),
    lower("data.generate_s", "s"),
    lower("host.nproc", "count"),
    lower("host.peak_rss_mb", "MiB"),
    lower("host.cpu_user_s", "s"),
    lower("host.cpu_sys_s", "s"),
    lower("host.invol_ctx_switches", "count"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.traced_workload_s", "s"),
    lower("bench.untraced_workload_s", "s"),
    lower("bench.spans", "count"),
    lower("bench.ops", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}
