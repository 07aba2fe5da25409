//! One untraced run of one workload: passes, cold starts, output checks and
//! the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use daisy::prelude::{CleaningService, DaisyEngine, EngineShared};
use daisy::storage::Table;

use crate::checks::{repair_quality, world_digest, Quality};
use crate::gen::{ServiceInputs, SingleInputs, Sizes};
use crate::host;
use crate::json::Json;
use crate::metrics::{Measured, END_TO_END};
use crate::stats::{median, percentile, spread};
use crate::workloads::{
    build_service, service_config, service_pass, single_config, single_pass, PassTimings,
    QualityFloors, ServiceCounters, Workload,
};

/// A scratch directory inside the checkout (`.bench_scratch/<pid>-<n>` under
/// the working directory), removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = PathBuf::from(".bench_scratch").join(unique);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path, next: 0 })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for a store directory that does not exist yet.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.path.join(format!("store{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Only succeeds when no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// The world a pass left, kept for the output checks.
pub enum FinalWorld {
    Single {
        inputs: SingleInputs,
        engine: Box<DaisyEngine>,
    },
    Service {
        inputs: ServiceInputs,
        service: CleaningService,
        counters: ServiceCounters,
        /// The store directory of a durable pass.
        dir: Option<PathBuf>,
    },
}

/// Runs one pass (or, with `first_only`, one cold start).
pub fn run_pass(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    scratch: &mut Scratch,
    first_only: bool,
) -> (PassTimings, FinalWorld) {
    if workload.is_service() {
        let dir = (workload == Workload::ServiceDurable).then(|| scratch.fresh_dir());
        let (timings, inputs, service, counters) =
            service_pass(seed, sizes, dir.as_deref(), first_only);
        let world = FinalWorld::Service {
            inputs,
            service,
            counters,
            dir,
        };
        (timings, world)
    } else {
        let (timings, inputs, engine) = single_pass(workload, seed, sizes, first_only);
        let engine = Box::new(engine);
        (timings, FinalWorld::Single { inputs, engine })
    }
}

/// Drops a world and deletes its store directory, if it has one.
pub fn discard(world: FinalWorld) {
    if let FinalWorld::Service { service, dir, .. } = world {
        drop(service);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Number of passes that fill `seconds`, given what the first one took.
fn pass_target(seconds: f64, first_pass_s: f64) -> usize {
    ((seconds / first_pass_s.max(1e-3)).round() as usize).clamp(3, 12)
}

/// The untraced passes and cold starts of one run.
pub struct Passes {
    pub passes: Vec<PassTimings>,
    pub cold_starts: Vec<PassTimings>,
    pub last: FinalWorld,
    /// Peak RSS of each pass (`VmHWM`, reset before the pass's set-up and
    /// read after its timed region).  Where the kernel refuses the reset,
    /// every entry is the peak since process start.
    pub peak_rss_mb: Vec<f64>,
}

/// Cold starts a run makes at least and at most.
const MIN_COLD_STARTS: usize = 5;
const MAX_COLD_STARTS: usize = 11;
/// Time the cold starts may take beyond the minimum count, in seconds.
const COLD_START_BUDGET_S: f64 = 2.5;

/// Runs the cold starts — set-up plus the first operation on a fresh engine
/// or service, the one population `first_result_ms` and `setup_s` are taken
/// from, so that neither median moves with how many passes fit the run —
/// and then passes until `seconds` of timed region are filled (at least
/// three).  Cold starts number at least five and at most eleven; past five
/// they stop once they have taken two and a half seconds in all.
pub fn run_passes(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    scratch: &mut Scratch,
) -> Passes {
    // The process's first cold start also pays for its own warm-up (first
    // touch of code and heap); it is made and not recorded.
    discard(run_pass(workload, seed, sizes, scratch, true).1);
    let mut cold_starts = Vec::new();
    let cold_clock = Instant::now();
    while cold_starts.len() < MIN_COLD_STARTS
        || (cold_starts.len() < MAX_COLD_STARTS
            && cold_clock.elapsed().as_secs_f64() < COLD_START_BUDGET_S)
    {
        let (timings, world) = run_pass(workload, seed, sizes, scratch, true);
        discard(world);
        cold_starts.push(timings);
    }

    host::reset_peak_rss();
    let (first, mut last) = run_pass(workload, seed, sizes, scratch, false);
    let mut peak_rss_mb = vec![host::peak_rss_mb()];
    let target = pass_target(seconds, first.workload_s);
    let mut passes = vec![first];
    while passes.len() < target {
        discard(last);
        host::reset_peak_rss();
        let (timings, world) = run_pass(workload, seed, sizes, scratch, false);
        peak_rss_mb.push(host::peak_rss_mb());
        passes.push(timings);
        last = world;
    }
    Passes {
        passes,
        cold_starts,
        last,
        peak_rss_mb,
    }
}

/// The outcome of the output checks on the last pass's world.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks that failed, by name (empty when all passed).
    pub failures: Vec<String>,
    pub quality: Quality,
    /// Wall time of the serial replay (service workloads).
    pub serial_s: f64,
    /// Recovery times of the durable store, in seconds.
    pub recovery_s: Vec<f64>,
    pub live_digest: u64,
}

fn committed_tables(shared: &EngineShared) -> Vec<std::sync::Arc<Table>> {
    shared
        .table_names()
        .iter()
        .map(|name| shared.table(name).expect("listed table"))
        .collect()
}

fn shared_digest(shared: &EngineShared) -> u64 {
    let tables = committed_tables(shared);
    world_digest(tables.iter().map(|t| t.as_ref()))
}

/// A `run_serial` replay of a request stream on a fresh service.
#[derive(Debug, Clone, Copy)]
pub struct SerialReplay {
    /// Wall time of the rounds.
    pub seconds: f64,
    /// Digest of the tables it committed.
    pub digest: u64,
    pub all_ok: bool,
}

/// Replays `inputs.rounds` through `CleaningService::run_serial` on a fresh
/// service (durable when `dir` is given).
pub fn serial_replay(inputs: &ServiceInputs, dir: Option<&Path>) -> SerialReplay {
    let service = build_service(inputs, dir);
    let start = Instant::now();
    let mut all_ok = true;
    for round in &inputs.rounds {
        let report = service.run_serial(round);
        all_ok &= report.outcomes.iter().all(|o| o.outcome.is_ok());
    }
    SerialReplay {
        seconds: start.elapsed().as_secs_f64(),
        digest: shared_digest(service.shared()),
        all_ok,
    }
}

/// Checks the world the last pass left:
///
/// * `repair_f1` and the detected share are at or above the workload's
///   floors;
/// * service workloads: the committed tables equal a `run_serial` replay of
///   the same request stream on a fresh in-memory service;
/// * `service_durable`: the store recovers (`recoveries` times, timed, each
///   until one read query answers) to the live world it replaced.
pub fn check_outputs(workload: Workload, world: FinalWorld, recoveries: usize) -> Checks {
    check_outputs_with_floors(workload, world, recoveries, workload.quality_floors())
}

fn check_outputs_with_floors(
    workload: Workload,
    world: FinalWorld,
    recoveries: usize,
    floors: QualityFloors,
) -> Checks {
    let mut checks = Checks::default();
    match world {
        FinalWorld::Single { inputs, engine } => {
            let triples: Vec<(&Table, &Table, &Table)> = inputs
                .tables
                .iter()
                .zip(&inputs.truth)
                .map(|(dirty, truth)| {
                    let cleaned = engine.table(dirty.name()).expect("registered table");
                    (cleaned, dirty, truth)
                })
                .collect();
            checks.quality = repair_quality(&triples);
            checks.live_digest = world_digest(triples.iter().map(|t| t.0));
        }
        FinalWorld::Service {
            inputs,
            service,
            dir,
            ..
        } => {
            let live = committed_tables(service.shared());
            checks.live_digest = world_digest(live.iter().map(|t| t.as_ref()));
            let triples: Vec<(&Table, &Table, &Table)> = inputs
                .dirty_final
                .iter()
                .zip(&inputs.truth)
                .map(|(dirty, truth)| {
                    let cleaned = live
                        .iter()
                        .find(|t| t.name() == dirty.name())
                        .expect("committed table");
                    (cleaned.as_ref(), dirty, truth)
                })
                .collect();
            checks.quality = repair_quality(&triples);

            let serial = serial_replay(&inputs, None);
            checks.serial_s = serial.seconds;
            if !serial.all_ok {
                checks
                    .failures
                    .push("serial replay had failing requests".into());
            }
            if serial.digest != checks.live_digest {
                checks
                    .failures
                    .push("committed tables differ from the serial replay".into());
            }

            if let Some(dir) = dir {
                let live_version = service.shared().version();
                drop(live);
                drop(service);
                for _ in 0..recoveries {
                    let mut bootstrap =
                        DaisyEngine::new(service_config(true)).expect("valid config");
                    for table in &inputs.tables {
                        bootstrap.register_table(table.clone());
                    }
                    bootstrap.add_fd(&inputs.fd, "phi");
                    let start = Instant::now();
                    let recovered = EngineShared::recover(bootstrap, &dir);
                    let answered = recovered.as_ref().ok().map(|shared| {
                        shared
                            .session()
                            .execute_sql("SELECT orderkey, suppkey FROM hot WHERE orderkey <= 1")
                            .is_ok()
                    });
                    checks.recovery_s.push(start.elapsed().as_secs_f64());
                    match (recovered, answered) {
                        (Ok(shared), Some(true)) => {
                            if shared.version() != live_version
                                || shared_digest(&shared) != checks.live_digest
                            {
                                checks
                                    .failures
                                    .push("recovered world differs from the live world".into());
                            }
                        }
                        (Ok(_), _) => checks
                            .failures
                            .push("recovered world failed a read query".into()),
                        (Err(err), _) => checks.failures.push(format!("recovery failed: {err}")),
                    }
                }
            }
        }
    }
    for (what, value, floor) in [
        ("repair_f1", checks.quality.f1, floors.f1),
        ("detected_share", checks.quality.detected, floors.detected),
    ] {
        if value < floor {
            checks.failures.push(format!(
                "{}: {what} {value:.4} is below the floor {floor:.4}",
                workload.name()
            ));
        }
    }
    checks.failures.dedup();
    checks
}

/// The result of one invocation for one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Measured>,
    /// Context that is not a metric: host facts, configuration, the values
    /// of every pass and their spread.
    pub detail: Json,
}

impl RunResult {
    /// The result line of the benchmark contract.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// Host facts, build and configuration: everything a reader needs to know a
/// number did not come from a knobbed run.
pub fn context(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    scratch: &Path,
    cleared_env: &[String],
) -> Json {
    let config = if workload.is_service() {
        service_config(workload == Workload::ServiceDurable)
    } else {
        single_config()
    };
    Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("build_profile", Json::str(host::build_profile())),
        ("git_commit", Json::str(host::git_commit())),
        ("scratch_fs", Json::str(host::filesystem_type(scratch))),
        (
            "cleared_env",
            Json::Arr(cleared_env.iter().map(Json::str).collect()),
        ),
        ("config", Json::str(format!("{config:?}"))),
        ("sizes", Json::str(format!("{sizes:?}"))),
    ])
}

/// One untraced run: the end-to-end metrics of `workload`.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    cleared_env: &[String],
) -> RunResult {
    let mut scratch = Scratch::new().expect("scratch directory inside the checkout");
    let context = context(workload, seed, seconds, sizes, scratch.path(), cleared_env);
    let Passes {
        passes,
        cold_starts,
        last,
        peak_rss_mb,
    } = run_passes(workload, seed, seconds, sizes, &mut scratch);
    let checks = check_outputs(workload, last, 1);

    let all = || passes.iter().chain(&cold_starts);
    let mut attempted: usize = all().map(|p| p.attempted).sum();
    let mut failed: usize = all().map(|p| p.failed).sum();
    // Every output check is one more operation that can fail.
    attempted += 1;
    failed += usize::from(!checks.failures.is_empty());

    let workload_s: Vec<f64> = passes.iter().map(|p| p.workload_s).collect();
    let p50: Vec<f64> = passes.iter().map(|p| median(&p.op_ms)).collect();
    // A pass with fewer than 200 operations has no p95; the run is then
    // reported incorrect rather than given a made-up percentile.
    let p95: Result<Vec<f64>, String> = passes.iter().map(|p| percentile(&p.op_ms, 95.0)).collect();
    let percentile_error = p95.as_ref().err().cloned();
    failed += usize::from(percentile_error.is_some());
    let p95 = p95.unwrap_or_else(|_| vec![0.0; passes.len()]);
    let setup_s: Vec<f64> = cold_starts.iter().map(|p| p.setup_s).collect();
    let first_ms: Vec<f64> = cold_starts.iter().map(|p| p.first_ms).collect();

    // The samples behind every reported median, by metric name.
    let samples: [(&str, &[f64]); 6] = [
        ("workload_s", &workload_s),
        ("op_p50_ms", &p50),
        ("op_p95_ms", &p95),
        ("first_result_ms", &first_ms),
        ("setup_s", &setup_s),
        ("peak_rss_mb", &peak_rss_mb),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (_, values) = samples
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| unreachable!("no samples for declared metric {}", m.name));
            Measured {
                name: m.name,
                value: median(values),
                unit: m.unit,
            }
        })
        .collect();

    let sample_record = |values: &[f64]| {
        Json::obj([
            ("n", Json::Num(values.len() as f64)),
            ("spread", Json::Num(spread(values))),
            // What `--compare` judges by: how far the median of n such
            // samples is expected to move, the quartile distance over √n.
            (
                "median_spread",
                Json::Num(spread(values) / (values.len().max(1) as f64).sqrt()),
            ),
            ("values", nums(values)),
        ])
    };
    let mut detail = context.fields().to_vec();
    detail.extend([
        ("passes".to_string(), Json::Num(passes.len() as f64)),
        (
            "ops_per_pass".to_string(),
            Json::Num(passes[0].op_ms.len() as f64),
        ),
        (
            "cold_starts".to_string(),
            Json::Num(cold_starts.len() as f64),
        ),
        (
            "samples".to_string(),
            Json::obj(
                samples
                    .iter()
                    .map(|(name, values)| (*name, sample_record(values))),
            ),
        ),
        ("repair_f1".to_string(), Json::Num(checks.quality.f1)),
        (
            "detected_share".to_string(),
            Json::Num(checks.quality.detected),
        ),
        (
            "world_digest".to_string(),
            Json::str(format!("{:016x}", checks.live_digest)),
        ),
        (
            "check_failures".to_string(),
            Json::Arr(
                checks
                    .failures
                    .iter()
                    .chain(percentile_error.iter())
                    .map(Json::str)
                    .collect(),
            ),
        ),
        (
            "stream_digest".to_string(),
            Json::str(format!("{:016x}", workload.stream_digest(seed, sizes))),
        ),
    ]);
    if workload.is_service() {
        detail.push(("serial_replay_s".to_string(), Json::Num(checks.serial_s)));
    }
    if let Some(&recovery) = checks.recovery_s.first() {
        detail.push(("recovery_s".to_string(), Json::Num(recovery)));
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Json::Obj(detail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tests::TEST_SIZES;
    use crate::metrics::PER_LAYER;

    fn metric_names(line: &str) -> Vec<String> {
        let parsed = Json::parse(line).expect("result line parses");
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").expect("metrics");
        for (_, metric) in metrics.fields() {
            let keys: Vec<&str> = metric.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
            assert!(metric.get("value").and_then(Json::as_f64).is_some());
        }
        metrics.fields().iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let result = run_untraced(Workload::SpExploreFd, 3, 0.05, &TEST_SIZES, &[]);
        assert!(result.correct, "{}", result.detail.render());
        assert_eq!(result.failed, 0);
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&result.contract_line()), declared);
        assert!(result.metrics.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_checks_the_durable_world() {
        let result = crate::probes::run_traced(Workload::ServiceDurable, 3, 0.05, &TEST_SIZES, &[]);
        assert!(result.correct, "{}", result.detail.render());
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&result.contract_line()), declared);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        assert!(value("wal.append_us") > 0.0);
        assert!(value("wal.recover_ms") > 0.0);
        assert!(value("core.session.commit_ms") > 0.0);
        assert_eq!(value("core.theta.check_ms"), 0.0);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        // A floor no repair can reach.
        let world = run_pass(
            Workload::SpExploreFd,
            3,
            &TEST_SIZES,
            &mut Scratch::new().expect("scratch"),
            true,
        )
        .1;
        let unreachable = QualityFloors {
            f1: 2.0,
            detected: 0.0,
        };
        let checks = check_outputs_with_floors(Workload::SpExploreFd, world, 1, unreachable);
        assert_eq!(checks.failures.len(), 1);
        assert!(checks.failures[0].contains("repair_f1") && checks.failures[0].contains("floor"));
    }
}
