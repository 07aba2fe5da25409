//! Engine configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{DaisyError, Result};

/// How the multi-session service orders concurrent cleaning requests for
/// admission (and therefore for commit — the two orders are the same).
///
/// The service assigns every request a global sequence number at admission;
/// commits are serialized in sequence order, so the admission policy *is*
/// the externally observable execution order.  Both policies are
/// deterministic functions of the submitted request list, which is what
/// makes the concurrent-vs-serial differential harness possible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceFairness {
    /// Interleave sessions round-robin (in order of first appearance), so a
    /// burst from one session cannot starve the others (the default).
    #[default]
    RoundRobin,
    /// Admit requests strictly in submission order.
    Fifo,
}

impl ServiceFairness {
    /// Parses the textual forms accepted by [`SERVICE_FAIRNESS_ENV`]
    /// (case-insensitive, surrounding whitespace ignored).
    pub fn parse(text: &str) -> Option<ServiceFairness> {
        match text.trim().to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Some(ServiceFairness::RoundRobin),
            "fifo" => Some(ServiceFairness::Fifo),
            _ => None,
        }
    }

    /// The policy forced through [`SERVICE_FAIRNESS_ENV`], if the variable
    /// is set to a recognised value.  Invalid values are ignored
    /// (`RoundRobin` applies).
    pub fn from_env() -> Option<ServiceFairness> {
        ServiceFairness::parse(&std::env::var(SERVICE_FAIRNESS_ENV).ok()?)
    }
}

impl fmt::Display for ServiceFairness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceFairness::RoundRobin => "round-robin",
            ServiceFairness::Fifo => "fifo",
        };
        write!(f, "{s}")
    }
}

/// Environment variable overriding the default admission-fairness policy of
/// the multi-session service (`round-robin` / `fifo`).
pub const SERVICE_FAIRNESS_ENV: &str = "DAISY_SERVICE_FAIRNESS";

/// When to `fsync` the write-ahead commit log of a durable engine
/// (`daisy-wal`).
///
/// * `Off` — append every commit record but never force it to stable
///   storage; the OS flushes at its leisure.  A crash may lose a suffix of
///   acknowledged commits, but recovery still yields a *prefix-consistent*
///   world (the hash chain self-truncates any torn tail).
/// * `Commit` — `fsync` after every appended record: an acknowledged commit
///   is durable, full stop.  The strictest (and slowest) policy.
/// * `Batch` — `fsync` once every few records (and always before a
///   checkpoint is written), amortising the sync cost; a crash loses at
///   most the unsynced suffix of acknowledged commits.
///
/// The knob only decides when bytes reach stable storage — the record
/// stream itself is identical under every mode, so recovery semantics
/// (checkpoint + chain-verified replay) never change, only how much tail a
/// power cut can shave off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DurabilityMode {
    /// Append without ever forcing a sync.
    Off,
    /// Sync after every commit record (the default).
    #[default]
    Commit,
    /// Sync every few records and before each checkpoint.
    Batch,
}

impl DurabilityMode {
    /// Parses the textual forms accepted by [`DURABILITY_ENV`]
    /// (case-insensitive, surrounding whitespace ignored).
    pub fn parse(text: &str) -> Option<DurabilityMode> {
        match text.trim().to_ascii_lowercase().as_str() {
            "off" => Some(DurabilityMode::Off),
            "commit" => Some(DurabilityMode::Commit),
            "batch" => Some(DurabilityMode::Batch),
            _ => None,
        }
    }

    /// The mode forced through [`DURABILITY_ENV`], if the variable is set
    /// to a recognised value.  Invalid values are ignored (`Commit`
    /// applies).
    pub fn from_env() -> Option<DurabilityMode> {
        DurabilityMode::parse(&std::env::var(DURABILITY_ENV).ok()?)
    }

    /// `true` when an acknowledged commit implies its record was synced
    /// (only the `Commit` policy makes that promise).
    pub fn syncs_every_commit(self) -> bool {
        matches!(self, DurabilityMode::Commit)
    }
}

impl fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DurabilityMode::Off => "off",
            DurabilityMode::Commit => "commit",
            DurabilityMode::Batch => "batch",
        };
        write!(f, "{s}")
    }
}

/// Environment variable overriding the default commit-log sync policy
/// (`off` / `commit` / `batch`).
pub const DURABILITY_ENV: &str = "DAISY_DURABILITY";

/// Environment variable overriding the checkpoint interval of a durable
/// engine (positive integers only): a full-world checkpoint is written
/// every this-many commits, bounding the delta suffix recovery must
/// replay.
pub const CHECKPOINT_INTERVAL_ENV: &str = "DAISY_CHECKPOINT_INTERVAL";

/// Environment variable overriding the commit-log capacity of the shared
/// session core (positive integers only).
///
/// The commit log is the bounded ring of recent commit records footprint
/// validation intersects against; a session that branched further back than
/// the ring reaches falls back to a full rebase.  Larger values admit more
/// long-running sessions to the cheap commit paths at the cost of retaining
/// more staged deltas.
pub const COMMIT_LOG_ENV: &str = "DAISY_COMMIT_LOG";

/// Environment variable overriding the default number of scheduler workers
/// of the multi-session service (positive integers only).
///
/// Scheduler workers execute whole cleaning requests concurrently; the
/// serialized commit turnstile makes the outputs byte-identical for any
/// worker count, so — like [`WORKER_THREADS_ENV`] — forcing a value only
/// changes wall-clock time, never results.
pub const SERVICE_WORKERS_ENV: &str = "DAISY_SERVICE_WORKERS";

/// Tunable knobs of the Daisy engine.
///
/// The defaults mirror the setup of the paper's evaluation (§7): the
/// theta-join matrix is split into `p = 64` partitions and the cost model is
/// enabled so that the engine may switch from incremental to full cleaning
/// mid-workload (Fig. 7 / Fig. 12).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaisyConfig {
    /// Number of partitions of the theta-join cartesian-product matrix
    /// (`p` in §4.2).  Must be a positive perfect square so that the matrix
    /// splits into `sqrt(p) × sqrt(p)` blocks.
    pub theta_partitions: usize,
    /// Enables the cost model of §5.2.3.  When disabled, Daisy always cleans
    /// incrementally ("Daisy w/o cost" in Fig. 7).
    pub use_cost_model: bool,
    /// Number of worker threads used by the execution substrate.
    pub worker_threads: usize,
    /// Morsel granularity of the execution substrate: every parallel
    /// kernel splits its input into up to `worker_threads ×
    /// data_partitions` morsels, dispatched through the work-stealing
    /// scheduler of `daisy-exec`.  Finer granularity gives the scheduler
    /// more slack to rebalance skew (one hot equality key no longer pins a
    /// whole worker); `1` degenerates to classic one-chunk-per-worker
    /// static chunking.  Morsel outputs are merged in morsel-index order,
    /// so — like `worker_threads` — this knob only changes wall-clock
    /// time, never results.  The default honours [`DATA_PARTITIONS_ENV`].
    pub data_partitions: usize,
    /// Maximum number of relaxation iterations (safety bound for the
    /// transitive-closure loop of Algorithm 1).
    pub max_relaxation_iterations: usize,
    /// Number of scheduler workers the multi-session service uses to execute
    /// cleaning requests concurrently; the default honours
    /// [`SERVICE_WORKERS_ENV`] and otherwise matches the machine's available
    /// parallelism.  Commits stay serialized, so this knob never changes
    /// results.
    pub service_workers: usize,
    /// How the multi-session service orders concurrent requests for
    /// admission and commit; the default honours [`SERVICE_FAIRNESS_ENV`]
    /// and otherwise interleaves sessions round-robin.
    pub service_fairness: ServiceFairness,
    /// How many recent commit records the shared session core retains for
    /// footprint validation; the default honours [`COMMIT_LOG_ENV`] and
    /// otherwise keeps 128.  Sessions branched further back than the ring
    /// reaches fall back to a full rebase.
    pub commit_log_capacity: usize,
    /// When a durable engine forces its write-ahead commit log to stable
    /// storage; the default honours [`DURABILITY_ENV`] and otherwise syncs
    /// every commit.  The record stream is identical under every mode, so
    /// the knob only decides how much acknowledged tail a crash can lose —
    /// never what a recovered world looks like.
    pub durability: DurabilityMode,
    /// How many commits a durable engine lets accumulate between full-world
    /// checkpoints; the default honours [`CHECKPOINT_INTERVAL_ENV`] and
    /// otherwise checkpoints every 32 commits.  Smaller intervals shorten
    /// the delta suffix recovery replays at the cost of more checkpoint
    /// writes; the knob never changes recovered results.
    pub checkpoint_interval: usize,
}

impl Default for DaisyConfig {
    fn default() -> Self {
        DaisyConfig {
            theta_partitions: 64,
            use_cost_model: true,
            worker_threads: default_threads(),
            data_partitions: default_data_partitions(),
            max_relaxation_iterations: 64,
            service_workers: default_service_workers(),
            service_fairness: ServiceFairness::from_env().unwrap_or_default(),
            commit_log_capacity: DaisyConfig::env_commit_log_capacity()
                .unwrap_or(DaisyConfig::DEFAULT_COMMIT_LOG_CAPACITY),
            durability: DurabilityMode::from_env().unwrap_or_default(),
            checkpoint_interval: DaisyConfig::env_checkpoint_interval()
                .unwrap_or(DaisyConfig::DEFAULT_CHECKPOINT_INTERVAL),
        }
    }
}

/// Environment variable overriding the default worker-thread count.
///
/// Every data-parallel primitive is order preserving, so forcing a worker
/// count only changes wall-clock time, never results — which is what lets
/// CI run the whole test suite at several fixed thread counts.
pub const WORKER_THREADS_ENV: &str = "DAISY_WORKER_THREADS";

/// Environment variable overriding the default morsel granularity
/// (`data_partitions`, positive integers only).
///
/// Morsel outputs are merged in morsel-index order, so — like
/// [`WORKER_THREADS_ENV`] — forcing a granularity only changes wall-clock
/// time, never results; CI runs the suite at both the degenerate (`1`) and
/// a fine (`16`) setting to pin that down.
pub const DATA_PARTITIONS_ENV: &str = "DAISY_DATA_PARTITIONS";

fn default_threads() -> usize {
    DaisyConfig::env_worker_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

fn default_data_partitions() -> usize {
    DaisyConfig::env_data_partitions().unwrap_or(DaisyConfig::DEFAULT_DATA_PARTITIONS)
}

fn default_service_workers() -> usize {
    DaisyConfig::env_service_workers().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Parses a worker-thread override value.  Split out of the env lookup so
/// the parsing rules are testable without mutating process environment
/// (`std::env::set_var` races with concurrent `getenv` in parallel tests).
fn parse_worker_threads(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

impl DaisyConfig {
    /// The commit-log capacity used when neither [`COMMIT_LOG_ENV`] nor a
    /// builder overrides it.
    pub const DEFAULT_COMMIT_LOG_CAPACITY: usize = 128;

    /// The checkpoint interval used when neither [`CHECKPOINT_INTERVAL_ENV`]
    /// nor a builder overrides it: frequent enough to keep recovery replay
    /// short, rare enough that serializing full tables stays off the
    /// commit fast path.
    pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 32;

    /// The morsel granularity used when neither [`DATA_PARTITIONS_ENV`] nor
    /// a builder overrides it: two morsels per worker, enough slack for the
    /// work-stealing scheduler to rebalance moderate skew without
    /// per-morsel overhead dominating small inputs.
    pub const DEFAULT_DATA_PARTITIONS: usize = 2;

    /// The worker-thread override from [`WORKER_THREADS_ENV`], if the
    /// variable is set to a positive integer.  Invalid or non-positive
    /// values are ignored (the machine default applies).
    pub fn env_worker_threads() -> Option<usize> {
        parse_worker_threads(std::env::var(WORKER_THREADS_ENV).ok().as_deref())
    }

    /// The commit-log-capacity override from [`COMMIT_LOG_ENV`], if the
    /// variable is set to a positive integer.  Invalid or non-positive
    /// values are ignored (the default capacity applies).
    pub fn env_commit_log_capacity() -> Option<usize> {
        parse_worker_threads(std::env::var(COMMIT_LOG_ENV).ok().as_deref())
    }

    /// The service-worker override from [`SERVICE_WORKERS_ENV`], if the
    /// variable is set to a positive integer.  Invalid or non-positive
    /// values are ignored (the machine default applies).
    pub fn env_service_workers() -> Option<usize> {
        parse_worker_threads(std::env::var(SERVICE_WORKERS_ENV).ok().as_deref())
    }

    /// The morsel-granularity override from [`DATA_PARTITIONS_ENV`], if the
    /// variable is set to a positive integer.  Invalid or non-positive
    /// values are ignored (the default granularity applies).
    pub fn env_data_partitions() -> Option<usize> {
        parse_worker_threads(std::env::var(DATA_PARTITIONS_ENV).ok().as_deref())
    }

    /// The checkpoint-interval override from [`CHECKPOINT_INTERVAL_ENV`],
    /// if the variable is set to a positive integer.  Invalid or
    /// non-positive values are ignored (the default interval applies).
    pub fn env_checkpoint_interval() -> Option<usize> {
        parse_worker_threads(std::env::var(CHECKPOINT_INTERVAL_ENV).ok().as_deref())
    }

    /// Validates the configuration, returning a descriptive error for any
    /// out-of-range knob.
    pub fn validate(&self) -> Result<()> {
        if self.theta_partitions == 0 {
            return Err(DaisyError::Config("theta_partitions must be > 0".into()));
        }
        let root = (self.theta_partitions as f64).sqrt().round() as usize;
        if root * root != self.theta_partitions {
            return Err(DaisyError::Config(format!(
                "theta_partitions must be a perfect square, got {}",
                self.theta_partitions
            )));
        }
        if self.worker_threads == 0 {
            return Err(DaisyError::Config("worker_threads must be > 0".into()));
        }
        if self.data_partitions == 0 {
            return Err(DaisyError::Config("data_partitions must be > 0".into()));
        }
        if self.max_relaxation_iterations == 0 {
            return Err(DaisyError::Config(
                "max_relaxation_iterations must be > 0".into(),
            ));
        }
        if self.service_workers == 0 {
            return Err(DaisyError::Config("service_workers must be > 0".into()));
        }
        if self.commit_log_capacity == 0 {
            return Err(DaisyError::Config("commit_log_capacity must be > 0".into()));
        }
        if self.checkpoint_interval == 0 {
            return Err(DaisyError::Config("checkpoint_interval must be > 0".into()));
        }
        Ok(())
    }

    /// Returns the number of blocks per side of the theta-join matrix
    /// (`sqrt(p)`).
    pub fn theta_blocks_per_side(&self) -> usize {
        (self.theta_partitions as f64).sqrt().round() as usize
    }

    /// Builder-style setter for the number of theta-join partitions.
    pub fn with_theta_partitions(mut self, p: usize) -> Self {
        self.theta_partitions = p;
        self
    }

    /// Builder-style setter for the cost-model switch.
    pub fn with_cost_model(mut self, enabled: bool) -> Self {
        self.use_cost_model = enabled;
        self
    }

    /// Builder-style setter for the worker-thread count.
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = n;
        self
    }

    /// Builder-style setter for the number of data partitions.
    pub fn with_data_partitions(mut self, n: usize) -> Self {
        self.data_partitions = n;
        self
    }

    /// Builder-style setter for the service scheduler-worker count.
    pub fn with_service_workers(mut self, n: usize) -> Self {
        self.service_workers = n;
        self
    }

    /// Builder-style setter for the service admission-fairness policy.
    pub fn with_service_fairness(mut self, fairness: ServiceFairness) -> Self {
        self.service_fairness = fairness;
        self
    }

    /// Builder-style setter for the commit-log capacity.
    pub fn with_commit_log_capacity(mut self, n: usize) -> Self {
        self.commit_log_capacity = n;
        self
    }

    /// Builder-style setter for the commit-log sync policy.
    pub fn with_durability(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        self
    }

    /// Builder-style setter for the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, n: usize) -> Self {
        self.checkpoint_interval = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(DaisyConfig::default().validate().is_ok());
    }

    #[test]
    fn non_square_theta_partitions_rejected() {
        let cfg = DaisyConfig::default().with_theta_partitions(50);
        assert!(cfg.validate().is_err());
        let cfg = DaisyConfig::default().with_theta_partitions(49);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.theta_blocks_per_side(), 7);
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(DaisyConfig::default()
            .with_worker_threads(0)
            .validate()
            .is_err());
        assert!(DaisyConfig::default()
            .with_data_partitions(0)
            .validate()
            .is_err());
    }

    #[test]
    fn env_override_parses_positive_integers_only() {
        // The parsing rules are tested through the pure helper rather than
        // `std::env::set_var`, which would race with concurrent `getenv`
        // calls from other tests constructing `DaisyConfig::default()`.
        assert_eq!(parse_worker_threads(Some("3")), Some(3));
        assert_eq!(parse_worker_threads(Some(" 7 ")), Some(7));
        assert_eq!(parse_worker_threads(Some("0")), None);
        assert_eq!(parse_worker_threads(Some("not-a-number")), None);
        assert_eq!(parse_worker_threads(Some("")), None);
        assert_eq!(parse_worker_threads(Some("-2")), None);
        assert_eq!(parse_worker_threads(None), None);
        // Whatever the ambient environment says, the default stays valid.
        assert!(DaisyConfig::default().validate().is_ok());
    }

    #[test]
    fn data_partitions_env_parses_and_default_honors_it() {
        // The granularity override shares the positive-integer parsing
        // rules of the worker-thread knob; both are tested via the pure
        // helper to avoid `set_var` races in parallel tests.
        assert_eq!(parse_worker_threads(Some("16")), Some(16));
        assert_eq!(parse_worker_threads(Some("0")), None);
        let cfg = DaisyConfig::default().with_data_partitions(16);
        assert_eq!(cfg.data_partitions, 16);
        assert!(cfg.validate().is_ok());
        // Whatever the ambient environment says, the default stays valid
        // and reflects a forced granularity when one is set.
        assert!(DaisyConfig::default().validate().is_ok());
        match DaisyConfig::env_data_partitions() {
            Some(forced) => assert_eq!(DaisyConfig::default().data_partitions, forced),
            None => assert_eq!(
                DaisyConfig::default().data_partitions,
                DaisyConfig::DEFAULT_DATA_PARTITIONS
            ),
        }
    }

    #[test]
    fn builders_chain() {
        let cfg = DaisyConfig::default()
            .with_cost_model(false)
            .with_theta_partitions(16)
            .with_worker_threads(2);
        assert!(!cfg.use_cost_model);
        assert_eq!(cfg.theta_partitions, 16);
        assert_eq!(cfg.worker_threads, 2);
    }

    #[test]
    fn service_knobs_parse_and_validate() {
        // Fairness parsing via the pure helper (no `set_var` races).
        assert_eq!(
            ServiceFairness::parse("round-robin"),
            Some(ServiceFairness::RoundRobin)
        );
        assert_eq!(
            ServiceFairness::parse(" RR "),
            Some(ServiceFairness::RoundRobin)
        );
        assert_eq!(ServiceFairness::parse("fifo"), Some(ServiceFairness::Fifo));
        assert_eq!(ServiceFairness::parse("lifo"), None);
        for f in [ServiceFairness::RoundRobin, ServiceFairness::Fifo] {
            assert_eq!(ServiceFairness::parse(&f.to_string()), Some(f));
        }
        // Worker-count validation and builders.
        assert!(DaisyConfig::default()
            .with_service_workers(0)
            .validate()
            .is_err());
        let cfg = DaisyConfig::default()
            .with_service_workers(3)
            .with_service_fairness(ServiceFairness::Fifo);
        assert_eq!(cfg.service_workers, 3);
        assert_eq!(cfg.service_fairness, ServiceFairness::Fifo);
        // Whatever the ambient environment says, the default stays valid.
        assert!(DaisyConfig::default().validate().is_ok());
        if let Some(forced) = DaisyConfig::env_service_workers() {
            assert_eq!(DaisyConfig::default().service_workers, forced);
        }
        if let Some(forced) = ServiceFairness::from_env() {
            assert_eq!(DaisyConfig::default().service_fairness, forced);
        }
    }

    #[test]
    fn commit_log_capacity_parses_and_validates() {
        // The capacity override shares the positive-integer parsing rules of
        // the worker-thread knob; both are tested via the pure helper.
        assert_eq!(parse_worker_threads(Some("256")), Some(256));
        assert_eq!(parse_worker_threads(Some("0")), None);
        // Zero capacity would make every commit a full rebase — rejected.
        assert!(DaisyConfig::default()
            .with_commit_log_capacity(0)
            .validate()
            .is_err());
        let cfg = DaisyConfig::default().with_commit_log_capacity(8);
        assert_eq!(cfg.commit_log_capacity, 8);
        assert!(cfg.validate().is_ok());
        // Whatever the ambient environment says, the default stays valid.
        assert!(DaisyConfig::default().validate().is_ok());
        if let Some(forced) = DaisyConfig::env_commit_log_capacity() {
            assert_eq!(DaisyConfig::default().commit_log_capacity, forced);
        }
    }

    #[test]
    fn durability_mode_parses_and_round_trips() {
        // Parsing rules via the pure helper (no `set_var` races).
        assert_eq!(DurabilityMode::parse("off"), Some(DurabilityMode::Off));
        assert_eq!(
            DurabilityMode::parse(" Commit "),
            Some(DurabilityMode::Commit)
        );
        assert_eq!(DurabilityMode::parse("BATCH"), Some(DurabilityMode::Batch));
        assert_eq!(DurabilityMode::parse("fsync"), None);
        assert_eq!(DurabilityMode::parse(""), None);
        for m in [
            DurabilityMode::Off,
            DurabilityMode::Commit,
            DurabilityMode::Batch,
        ] {
            assert_eq!(DurabilityMode::parse(&m.to_string()), Some(m));
        }
        // Only the per-commit policy promises sync-on-ack.
        assert!(DurabilityMode::Commit.syncs_every_commit());
        assert!(!DurabilityMode::Off.syncs_every_commit());
        assert!(!DurabilityMode::Batch.syncs_every_commit());
        let cfg = DaisyConfig::default().with_durability(DurabilityMode::Batch);
        assert_eq!(cfg.durability, DurabilityMode::Batch);
        // Whatever the ambient environment says, the default stays valid.
        assert!(DaisyConfig::default().validate().is_ok());
        if let Some(forced) = DurabilityMode::from_env() {
            assert_eq!(DaisyConfig::default().durability, forced);
        }
    }

    #[test]
    fn checkpoint_interval_parses_and_validates() {
        // The interval override shares the positive-integer parsing rules
        // of the worker-thread knob; both are tested via the pure helper.
        assert_eq!(parse_worker_threads(Some("4")), Some(4));
        assert_eq!(parse_worker_threads(Some("-1")), None);
        // A zero interval would demand a checkpoint before every commit's
        // record is even appended — rejected.
        assert!(DaisyConfig::default()
            .with_checkpoint_interval(0)
            .validate()
            .is_err());
        let cfg = DaisyConfig::default().with_checkpoint_interval(4);
        assert_eq!(cfg.checkpoint_interval, 4);
        assert!(cfg.validate().is_ok());
        // Whatever the ambient environment says, the default stays valid.
        assert!(DaisyConfig::default().validate().is_ok());
        if let Some(forced) = DaisyConfig::env_checkpoint_interval() {
            assert_eq!(DaisyConfig::default().checkpoint_interval, forced);
        }
    }
}
