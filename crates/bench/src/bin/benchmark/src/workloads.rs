//! The six workloads: set-up and the timed region of one untraced pass.
//!
//! Untraced passes touch only the `daisy` facade surface: `DaisyEngine`,
//! `CleaningService`, `ServiceRequest` and `DaisyConfig::default()` with
//! `with_worker_threads` / `with_service_workers` / `with_durability`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use daisy::prelude::{CleaningService, DaisyConfig, DaisyEngine, DurabilityMode, ServiceReport};

use crate::gen::{self, ServiceInputs, SingleInputs, Sizes};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpExploreFd,
    DcTheta,
    SpjMixed,
    CleanRead,
    ServiceMem,
    ServiceDurable,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SpExploreFd,
        Workload::DcTheta,
        Workload::SpjMixed,
        Workload::CleanRead,
        Workload::ServiceMem,
        Workload::ServiceDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpExploreFd => "sp_explore_fd",
            Workload::DcTheta => "dc_theta",
            Workload::SpjMixed => "spj_mixed",
            Workload::CleanRead => "clean_read",
            Workload::ServiceMem => "service_mem",
            Workload::ServiceDurable => "service_durable",
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SpExploreFd => {
                "paper fig05/06: SP range queries over an FD-dirty lineorder; the first query \
                 relaxes and repairs, the rest read the probabilistic table; no theta, join, \
                 service or wal work"
            }
            Workload::DcTheta => {
                "paper fig10: inequality DC; theta-join detection dominates the first query, \
                 the tail reads a probabilistic table; the FD path does nothing"
            }
            Workload::SpjMixed => {
                "paper fig11-13: SP, join and group-by queries over lineorder and supplier with \
                 two FDs; join and aggregate operators and clean-join work; no theta, no wal"
            }
            Workload::CleanRead => {
                "bypass: read-only queries over an already repaired world, so cleaning finds \
                 nothing to do; a detect, relax, repair or wal change predicts no change here"
            }
            Workload::ServiceMem => {
                "4 sessions ingesting and reading through the in-memory service: commit \
                 contention, admission, validate and rebase do the work; wal does none"
            }
            Workload::ServiceDurable => {
                "the service_mem request stream through a durable service with fsync per \
                 commit: only wal differs, so the gap to service_mem is append, fsync and \
                 checkpoint cost"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServiceMem | Workload::ServiceDurable)
    }

    /// What the repair of the final world must reach.  Both values differ
    /// from seed to seed, and a run must be correct on *every* seed, so each
    /// floor sits at least six standard deviations under the mean seen over
    /// 32 seeds between 0 and 2⁶⁴ − 1 (README, "Output checks"): it catches a
    /// repair that broke, not one that drifted.  The F1 of `dc_theta` has no
    /// floor: range candidates never restore the exact value, and it is 0 on
    /// some seeds.
    pub fn quality_floors(self) -> QualityFloors {
        let (f1, detected) = match self {
            Workload::SpExploreFd => (0.25, 0.97),
            Workload::DcTheta => (0.0, 0.93),
            Workload::SpjMixed => (0.27, 0.97),
            Workload::CleanRead => (0.31, 0.97),
            Workload::ServiceMem | Workload::ServiceDurable => (0.13, 0.72),
        };
        QualityFloors { f1, detected }
    }

    /// Digest of the request stream the workload issues for `seed`.  The
    /// two service workloads share one stream by construction.
    pub fn stream_digest(self, seed: u64, sizes: &Sizes) -> u64 {
        if self.is_service() {
            gen::stream_digest(&gen::service(seed, sizes).rounds)
        } else {
            gen::ops_digest(&self.single_inputs(seed, sizes))
        }
    }

    /// The inputs of a single-session workload.
    pub fn single_inputs(self, seed: u64, sizes: &Sizes) -> SingleInputs {
        match self {
            Workload::SpExploreFd => gen::sp_explore_fd(seed, sizes),
            Workload::DcTheta => gen::dc_theta(seed, sizes),
            Workload::SpjMixed => gen::spj_mixed(seed, sizes),
            Workload::CleanRead => gen::clean_read(seed, sizes),
            Workload::ServiceMem | Workload::ServiceDurable => {
                unreachable!("service workloads use gen::service")
            }
        }
    }
}

/// Floors of the output check on repair quality (see `checks::Quality`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityFloors {
    pub f1: f64,
    pub detected: f64,
}

/// Worker threads of a single-session engine and scheduler workers of a
/// service: never more runnable threads than cores.
pub fn parallelism() -> usize {
    crate::host::nproc().min(4)
}

/// The configuration of single-session passes.
pub fn single_config() -> DaisyConfig {
    DaisyConfig::default().with_worker_threads(parallelism())
}

/// The configuration of service passes.
pub fn service_config(durable: bool) -> DaisyConfig {
    let config = DaisyConfig::default()
        .with_worker_threads(1)
        .with_service_workers(parallelism());
    if durable {
        config.with_durability(DurabilityMode::Commit)
    } else {
        config
    }
}

/// What one untraced pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassTimings {
    pub setup_s: f64,
    pub workload_s: f64,
    /// Latency of every timed operation, in issue order.
    pub op_ms: Vec<f64>,
    /// Latency of the first operation the fresh engine or service ran.
    pub first_ms: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Runs `op`, returning its latency in ms and whether it succeeded (an
/// `Err` and a panic both count as failures).
fn timed<T, E>(op: impl FnOnce() -> Result<T, E>) -> (f64, Option<T>) {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(op));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, outcome.ok().and_then(Result::ok))
}

/// Builds a fresh engine over the inputs (tables and rules registered).
pub fn build_engine(inputs: &SingleInputs, config: DaisyConfig) -> DaisyEngine {
    let mut engine = DaisyEngine::new(config).expect("valid config");
    for table in &inputs.tables {
        engine.register_table(table.clone());
    }
    for (fd, name) in &inputs.fds {
        engine.add_fd(fd, name);
    }
    for dc in &inputs.dcs {
        engine.add_constraint(dc.clone());
    }
    engine
}

/// Set-up of a single-session pass: inputs from the seed, a fresh engine,
/// and the untimed warm operations (the first of which, if there is one, is
/// the pass's first operation).
pub fn single_setup(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    timings: &mut PassTimings,
) -> (SingleInputs, DaisyEngine) {
    let start = Instant::now();
    let inputs = workload.single_inputs(seed, sizes);
    let mut engine = build_engine(&inputs, single_config());
    for (i, sql) in inputs.warm_ops.iter().enumerate() {
        let (ms, ok) = timed(|| engine.execute_sql(sql));
        if i == 0 {
            timings.first_ms = ms;
        }
        timings.attempted += 1;
        timings.failed += usize::from(ok.is_none());
    }
    timings.setup_s = start.elapsed().as_secs_f64();
    (inputs, engine)
}

/// One untraced pass of a single-session workload; returns the engine
/// holding the final world.  With `first_only` the timed region stops after
/// the first operation (an extra cold start).
pub fn single_pass(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    first_only: bool,
) -> (PassTimings, SingleInputs, DaisyEngine) {
    let mut timings = PassTimings::default();
    let (inputs, mut engine) = single_setup(workload, seed, sizes, &mut timings);
    let ops = if first_only && !inputs.warm_ops.is_empty() {
        &inputs.ops[..0]
    } else if first_only {
        &inputs.ops[..1]
    } else {
        &inputs.ops[..]
    };
    let start = Instant::now();
    for sql in ops {
        let (ms, ok) = timed(|| engine.execute_sql(sql));
        timings.op_ms.push(ms);
        timings.attempted += 1;
        timings.failed += usize::from(ok.is_none());
    }
    timings.workload_s = start.elapsed().as_secs_f64();
    if inputs.warm_ops.is_empty() {
        timings.first_ms = timings.op_ms[0];
    }
    (timings, inputs, engine)
}

/// Builds a fresh service over the inputs; `dir` makes it durable.
pub fn build_service(inputs: &ServiceInputs, dir: Option<&Path>) -> CleaningService {
    let mut engine = DaisyEngine::new(service_config(dir.is_some())).expect("valid config");
    for table in &inputs.tables {
        engine.register_table(table.clone());
    }
    engine.add_fd(&inputs.fd, "phi");
    match dir {
        Some(dir) => CleaningService::with_persistence(engine, dir).expect("fresh store opens"),
        None => CleaningService::new(engine),
    }
}

/// Sums of the service's own counters over the rounds of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub commits: u64,
    pub rebases: u64,
    pub clean: u64,
    pub footprint_clean: u64,
    pub delta_recheck: u64,
    pub full_rebase: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
}

impl ServiceCounters {
    pub fn add(&mut self, report: &ServiceReport) {
        self.commits += report.commits;
        self.rebases += report.rebases;
        self.clean += report.causes.clean;
        self.footprint_clean += report.causes.footprint_clean;
        self.delta_recheck += report.causes.delta_recheck;
        self.full_rebase += report.causes.full_rebase;
        self.fsyncs += report.fsyncs;
        self.checkpoints += report.checkpoints;
    }
}

/// One untraced pass of a service workload: a fresh service (durable when
/// `dir` is given, which must not exist yet) and one `run` per round.
pub fn service_pass(
    seed: u64,
    sizes: &Sizes,
    dir: Option<&Path>,
    first_only: bool,
) -> (PassTimings, ServiceInputs, CleaningService, ServiceCounters) {
    let mut timings = PassTimings::default();
    let start = Instant::now();
    let inputs = gen::service(seed, sizes);
    let service = build_service(&inputs, dir);
    timings.setup_s = start.elapsed().as_secs_f64();

    let rounds = if first_only {
        &inputs.rounds[..1]
    } else {
        &inputs.rounds[..]
    };
    let mut counters = ServiceCounters::default();
    let start = Instant::now();
    for round in rounds {
        let (ms, report) = timed(|| Ok::<_, ()>(service.run(round)));
        timings.op_ms.push(ms);
        timings.attempted += 1;
        match report {
            Some(report) => {
                counters.add(&report);
                let all_ok = report.outcomes.iter().all(|o| o.outcome.is_ok());
                timings.failed += usize::from(!all_ok);
            }
            None => timings.failed += 1,
        }
    }
    timings.workload_s = start.elapsed().as_secs_f64();
    timings.first_ms = timings.op_ms[0];
    (timings, inputs, service, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tests::TEST_SIZES;

    #[test]
    fn service_mem_and_service_durable_issue_the_same_stream() {
        assert_eq!(
            Workload::ServiceMem.stream_digest(9, &TEST_SIZES),
            Workload::ServiceDurable.stream_digest(9, &TEST_SIZES)
        );
        assert_ne!(
            Workload::ServiceMem.stream_digest(9, &TEST_SIZES),
            Workload::ServiceMem.stream_digest(10, &TEST_SIZES)
        );
    }

    #[test]
    fn names_parse_back() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
