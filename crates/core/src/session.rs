//! Concurrent multi-session cleaning: a shared, versioned engine core plus
//! cheap copy-on-write session handles.
//!
//! [`DaisyEngine`] owns its tables exclusively — one session, one mutable
//! world.  This module splits that ownership for multi-tenant serving:
//!
//! * [`EngineShared`] is the canonical core: **one root pointer** to the
//!   current [`WorldState`] — itself a set of pointers over immutable,
//!   shared pieces (see [`world`](crate::world) for what each component
//!   shares and what a write detaches) — tagged with a monotonically
//!   increasing **commit version**.
//! * [`CleaningSession`] is a per-request handle: opening one takes the
//!   root pointer under the lock and copies the version's pointers outside
//!   it (reference-count bumps only — a *consistent snapshot*), executes
//!   queries against it with repairs staged as copy-on-write overlays (the
//!   engine's existing [`Delta`] machinery, recorded per session), and
//!   publishes everything back through [`CleaningSession::commit`].
//!
//! A session's first write to a table copies the row table (pointers),
//! then only the rows, provenance entries, snapshot columns and index
//! partitions it writes; every later write finds them private.  A commit
//! installs by swapping the root pointer.  **Nothing is freed while the
//! commit mutex is held**: the version a commit supersedes, a private
//! world a rebase abandons, superseded outcomes, evicted ring records and
//! the checkpoint image are parked until the guard is gone, and a
//! superseded version is freed by whichever session drops the last handle
//! to it.
//!
//! # The commit protocol
//!
//! Commits are **serialized and optimistic**.  A session remembers the
//! version it branched from; `commit` takes the shared lock and
//!
//! 1. **validates** — if the shared version still equals the session's base
//!    version, nothing committed in between: the session's world *is* the
//!    serial successor state, and installing it is a pointer swap (the
//!    table revisions and columnar snapshots inside were already advanced
//!    through the engine's `apply_delta_patching`/`absorb_delta` write
//!    path);
//! 2. otherwise consults the **commit log** — a bounded ring of recent
//!    `(version, write Footprint, touched rules, staged deltas)` records
//!    (footprint validation): if no intervening commit advanced a
//!    `(table, rule)` cleaning state this session touched, wrote a cell
//!    this session wrote (write–write), or wrote a cell this session read,
//!    the session's
//!    staged deltas are **rebased onto the current world in
//!    `O(|delta|)`** — deltas re-applied, provenance grafted cell-by-cell,
//!    derived rule state swapped in — with no re-execution at all;
//! 3. if intervening writes *did* land on cells this session read, a
//!    **semi-naive re-validation** restricted to exactly those conflicting
//!    cells runs first: when every such cell still holds the value the
//!    session observed (byte-identical, candidate sets included), the
//!    session's execution is provably unaffected and the `O(|delta|)`
//!    install above still applies;
//! 4. **rebases fully** only when the cheap checks fail (or the ring does
//!    not reach back to the session's branch point) — the session
//!    re-clones the now-current shared world and replays its request log
//!    against it (still holding the lock, so the replay cannot be
//!    invalidated), then installs.
//!
//! Because every commit lands in a state byte-identical to what a serial
//! execution would have produced, **any interleaving of sessions whose
//! commits happen in a fixed order produces byte-identical tables, reports
//! and provenance to replaying the same requests serially in that order**
//! — at any worker count; the property the scheduler in `daisy-service`
//! relies on and `tests/integration_service.rs` /
//! `tests/integration_footprint.rs` enforce.  [`CommitReceipt::cause`] reports which path each commit took.
//!
//! ```
//! use daisy_core::DaisyEngine;
//! use daisy_common::{DaisyConfig, DataType, Schema, Value};
//! use daisy_expr::FunctionalDependency;
//! use daisy_storage::Table;
//!
//! let schema = Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
//! let table = Table::from_rows("cities", schema, vec![
//!     vec![Value::Int(9001), Value::from("Los Angeles")],
//!     vec![Value::Int(9001), Value::from("San Francisco")],
//!     vec![Value::Int(10001), Value::from("New York")],
//! ]).unwrap();
//!
//! let mut engine = DaisyEngine::new(DaisyConfig::default().with_worker_threads(2)).unwrap();
//! engine.register_table(table);
//! engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
//!
//! // Freeze the engine into a shared core and clean through a session.
//! let shared = engine.into_shared();
//! let mut session = shared.session();
//! let outcome = session
//!     .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
//!     .unwrap();
//! assert!(outcome.report.errors_repaired > 0);
//!
//! // Until the session commits, the shared table is untouched…
//! assert_eq!(shared.table("cities").unwrap().probabilistic_tuple_count(), 0);
//! let receipt = session.commit().unwrap();
//! // …after it, the staged repairs are the canonical state.
//! assert!(!receipt.rebased);
//! assert!(receipt.cells_committed > 0);
//! assert!(shared.table("cities").unwrap().probabilistic_tuple_count() > 0);
//! ```

use std::collections::{HashSet, VecDeque};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use daisy_common::{ColumnId, DaisyConfig, DaisyError, Result, TupleId, Value};
use daisy_query::Query;
use daisy_storage::{ColumnSnapshot, Delta, Footprint, ProvenanceStore, Table};
use daisy_wal::{LoggedCommit, PersistedWorld, RealVfs, Vfs, WalStats, WalStore};

use crate::durability::{logged_commit, persisted_world, restore_world, WorldSnapshot};
use crate::engine::{DaisyEngine, QueryOutcome};
use crate::report::SessionReport;
use crate::world::{RuleKey, WorldState};

/// The canonical, versioned world that concurrent sessions clean against.
///
/// Constructed with [`DaisyEngine::into_shared`] after tables and
/// constraints are registered.  All mutation happens through the serialized
/// commit path of [`CleaningSession::commit`].
#[derive(Debug)]
pub struct EngineShared {
    config: DaisyConfig,
    state: Mutex<SharedState>,
    /// Lock-free mirror of [`SharedState::version`], published with
    /// `Release` after each commit bumps the canonical counter under the
    /// lock — so the hot [`EngineShared::version`] read (every
    /// [`CleaningSession::verify_current`] poll) never contends with a
    /// commit in flight.
    version: AtomicU64,
}

#[derive(Debug)]
struct SharedState {
    /// Number of commits applied so far; sessions validate against it.
    version: u64,
    /// The root pointer of the current version.  A session takes a handle
    /// under the lock and clones the world *outside* it; a commit swaps
    /// the pointer and whoever drops the last handle to the superseded
    /// version frees it — never the holder of this mutex.
    world: Arc<WorldState>,
    /// Ring of the most recent commits (bounded by `capacity`), newest
    /// last — what footprint validation intersects against.
    log: VecDeque<CommitRecord>,
    /// Ring bound ([`DaisyConfig::commit_log_capacity`] /
    /// `DAISY_COMMIT_LOG`).  A session that branched more than this many
    /// commits ago cannot be validated cell-by-cell and falls back to a
    /// full rebase.
    capacity: usize,
    /// The durable store, when the core was opened with
    /// [`EngineShared::recover`].  Lives under the commit mutex so the
    /// write-ahead append is serialized with the install it precedes.
    persistence: Option<WalStore>,
}

/// What one published commit looked like, for later sessions to validate
/// against without replaying anything.
#[derive(Debug)]
struct CommitRecord {
    /// The exact cells the commit wrote ([`Footprint::from_deltas`]).
    write: Footprint,
    /// The `(table, rule)` cleaning states the commit advanced.
    touched_rules: HashSet<RuleKey>,
    /// The staged deltas, kept for cell-level conflict enumeration and the
    /// semi-naive recheck.
    staged: Vec<(String, Delta)>,
}

/// What one commit supersedes, parked until the commit mutex is released
/// (see [`CleaningSession::commit`]).
#[derive(Default)]
struct Retired {
    /// The shared version the commit replaced.
    root: Option<Arc<WorldState>>,
    /// Private worlds the session abandoned (full rebase) or moved on from
    /// (footprint install).
    worlds: Vec<WorldState>,
    /// Speculative outcomes a replay superseded.
    outcomes: Vec<QueryOutcome>,
    /// Ring records the commit evicted.
    records: Vec<CommitRecord>,
    /// The write-ahead record, once appended.
    logged: Option<LoggedCommit>,
    /// The checkpoint image, once written.
    checkpoint: Option<PersistedWorld>,
}

impl SharedState {
    /// The records of every commit after `base`, oldest first; `None` when
    /// the ring no longer reaches back that far.
    fn records_since(&self, base: u64) -> Option<Vec<&CommitRecord>> {
        let needed = usize::try_from(self.version.saturating_sub(base)).ok()?;
        if needed > self.log.len() {
            return None;
        }
        Some(self.log.iter().skip(self.log.len() - needed).collect())
    }

    /// Appends a record, moving whatever the ring evicts into `evicted` for
    /// the caller to drop once the mutex is released.
    fn push_record(&mut self, record: CommitRecord, evicted: &mut Vec<CommitRecord>) {
        while self.log.len() >= self.capacity {
            evicted.extend(self.log.pop_front());
        }
        self.log.push_back(record);
    }
}

impl EngineShared {
    /// Wraps an engine's world into a shared core (see
    /// [`DaisyEngine::into_shared`]).
    pub(crate) fn from_engine(engine: DaisyEngine) -> Arc<EngineShared> {
        let config = engine.config().clone();
        let world = Arc::new(engine.world().clone());
        let capacity = config.commit_log_capacity;
        Arc::new(EngineShared {
            config,
            state: Mutex::new(SharedState {
                version: 0,
                world,
                log: VecDeque::new(),
                capacity,
                persistence: None,
            }),
            version: AtomicU64::new(0),
        })
    }

    /// Opens (or recovers) a durable core in `dir`.
    ///
    /// `engine` is the *bootstrap*: tables and constraints registered as at
    /// first deployment.  Constraints are configuration and are never
    /// persisted; tables and provenance are.  On a fresh directory the
    /// bootstrap world is checkpointed as version 0 and becomes the
    /// canonical state.  On an existing directory the newest valid
    /// checkpoint is loaded, the commit-log suffix is replayed on top, a
    /// torn (unsynced) tail is self-truncated, and any damage to
    /// acknowledged state surfaces as [`DaisyError::CorruptLog`].  Every
    /// derived structure (indexes, θ-matrices, trackers, snapshots) is
    /// dropped and rebuilt lazily against the recovered tables.
    ///
    /// Subsequent commits append to the write-ahead log *before*
    /// installing (per [`DaisyConfig::durability`]) and periodically write
    /// full-world checkpoints (every
    /// [`DaisyConfig::checkpoint_interval`] commits).
    pub fn recover(engine: DaisyEngine, dir: &Path) -> Result<Arc<EngineShared>> {
        EngineShared::recover_with_vfs(engine, dir, Arc::new(RealVfs))
    }

    /// [`EngineShared::recover`] with an explicit filesystem — the hook the
    /// crash-injection harness uses to kill the store at every write, sync
    /// and rename boundary.
    pub fn recover_with_vfs(
        engine: DaisyEngine,
        dir: &Path,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Arc<EngineShared>> {
        let config = engine.config().clone();
        let bootstrap = engine.world().clone();
        let seed = persisted_world(0, &bootstrap);
        let (store, recovered) = WalStore::open(
            vfs,
            dir,
            config.durability,
            config.checkpoint_interval,
            &seed,
        )?;
        let world = Arc::new(if recovered.fresh {
            bootstrap
        } else {
            restore_world(&bootstrap, &recovered.world)
        });
        let version = recovered.world.version;
        let capacity = config.commit_log_capacity;
        Ok(Arc::new(EngineShared {
            config,
            state: Mutex::new(SharedState {
                version,
                world,
                log: VecDeque::new(),
                capacity,
                persistence: Some(store),
            }),
            version: AtomicU64::new(version),
        }))
    }

    /// The durability counters (records, fsyncs, checkpoints) of the
    /// attached store, or `None` for an in-memory core.
    pub fn persistence_stats(&self) -> Option<WalStats> {
        self.lock().persistence.as_ref().map(|p| p.stats())
    }

    /// Reconstructs the world as of commit `version` from the durable
    /// store: the newest checkpoint at or below it plus a replay of the
    /// logged delta suffix.
    ///
    /// # Errors
    ///
    /// [`DaisyError::Execution`] for an in-memory core or a version
    /// outside the logged range; [`DaisyError::CorruptLog`] if the store
    /// is damaged.
    pub fn world_at(&self, version: u64) -> Result<WorldSnapshot> {
        let state = self.lock();
        let store = state.persistence.as_ref().ok_or_else(|| {
            DaisyError::Execution("world_at requires a durable core (EngineShared::recover)".into())
        })?;
        Ok(WorldSnapshot::new(store.world_at(version)?))
    }

    /// The logged commits that take `world_at(range.start)` to
    /// `world_at(range.end)` — versions `range.start + 1 ..= range.end`,
    /// each carrying its staged deltas, write footprint, touched rules and
    /// provenance diff.
    pub fn deltas_between(&self, range: Range<u64>) -> Result<Vec<LoggedCommit>> {
        let state = self.lock();
        let store = state.persistence.as_ref().ok_or_else(|| {
            DaisyError::Execution(
                "deltas_between requires a durable core (EngineShared::recover)".into(),
            )
        })?;
        store.deltas_between(range)
    }

    /// The configuration every session inherits.
    pub fn config(&self) -> &DaisyConfig {
        &self.config
    }

    /// The current commit version (starts at 0, +1 per commit).
    ///
    /// Served from an atomic mirror of the locked counter: a one-integer
    /// staleness probe does not queue behind the serialized commit path.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Opens a new session over a consistent snapshot of the current world.
    ///
    /// This is cheap — `O(#tables + #cached rules)` map entries and
    /// reference-count bumps, independent of data size, and only the root
    /// pointer is taken under the commit mutex — which is what makes a
    /// per-request session handle viable.  Measured (`BENCH_service.json`,
    /// `session_open_us`, 5 tables and 5 cached rules, best of 3 runs on a
    /// 2-core host): 1.3 µs over a 300-row hot table, 1.2 µs over 3 000
    /// rows, 1.7 µs over 30 000.
    pub fn session(self: &Arc<Self>) -> CleaningSession {
        self.session_named("anonymous")
    }

    /// Opens a session like [`EngineShared::session`], labelled with a
    /// request identifier — the name a
    /// [`DaisyError::StaleSession`] diagnostic carries if the session goes
    /// stale.
    pub fn session_named(self: &Arc<Self>, label: &str) -> CleaningSession {
        let (version, root) = {
            let state = self.lock();
            (state.version, Arc::clone(&state.world))
        };
        // Outside the lock: copy the version's root pointers, then let go of
        // the version (freeing it here if a commit superseded it meanwhile).
        let world = WorldState::clone(&root);
        drop(root);
        let mut engine = DaisyEngine::from_world(self.config.clone(), world)
            .expect("shared config was validated at construction");
        engine.set_record_deltas(true);
        CleaningSession {
            shared: Arc::clone(self),
            engine,
            base_version: version,
            label: label.to_string(),
            log: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// A shared handle to the current committed state of a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.lock().world.catalog.shared(name)
    }

    /// The committed provenance store of a table, if any cell was cleaned.
    pub fn provenance(&self, table: &str) -> Option<Arc<ProvenanceStore>> {
        let store = self.lock().world.provenance.get(table).cloned();
        store.map(Arc::new)
    }

    /// The committed table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.lock()
            .world
            .catalog
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedState> {
        self.state.lock().expect("engine shared state poisoned")
    }
}

/// Which validation path a commit took (see the
/// [module docs](self#the-commit-protocol)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitCause {
    /// No commit intervened since the session branched: pointer-swap
    /// install.
    Clean,
    /// Commits intervened, but their footprints were disjoint from
    /// everything this session read, wrote or cleaned: the staged deltas
    /// were rebased onto the current world in `O(|delta|)`.
    FootprintClean,
    /// Intervening writes landed on cells this session read, but the
    /// semi-naive recheck found every such cell value-stable: same
    /// `O(|delta|)` install as [`CommitCause::FootprintClean`].
    DeltaRecheck,
    /// Validation failed — a shared `(table, rule)` cleaning state, a
    /// write–write overlap, an intervening append the session depends on,
    /// a value-unstable read, or a branch point older than the commit
    /// log reaches: the session's request log was replayed against the
    /// current world — the serial fallback.
    FullRebase,
}

impl CommitCause {
    /// Short machine-readable name, used by benchmark and service
    /// counters.
    pub fn as_str(self) -> &'static str {
        match self {
            CommitCause::Clean => "clean",
            CommitCause::FootprintClean => "footprint-clean",
            CommitCause::DeltaRecheck => "delta-recheck",
            CommitCause::FullRebase => "full-rebase",
        }
    }

    /// `true` only for the full replay path.
    pub fn is_rebase(self) -> bool {
        matches!(self, CommitCause::FullRebase)
    }
}

impl std::fmt::Display for CommitCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one commit published.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// The shared version after this commit.
    pub version: u64,
    /// `true` when the commit found the shared world advanced and had to
    /// replay its request log against the newer state (the serial
    /// fallback); `false` means the optimistic execution was installed
    /// as-is or rebased in `O(|delta|)` without re-execution.
    pub rebased: bool,
    /// Which validation path the commit took.
    pub cause: CommitCause,
    /// The final outcome of every request in this commit, in execution
    /// order.  When `rebased`, these supersede the speculative outcomes
    /// returned by [`CleaningSession::execute`].
    pub outcomes: Vec<QueryOutcome>,
    /// The staged deltas that were published, `(table, delta)` in
    /// application order.
    pub staged: Vec<(String, Delta)>,
    /// Total cells across the staged deltas.
    pub cells_committed: usize,
}

/// One replayable request of a session: a parsed query or a streaming
/// ingest batch.  The rebase path replays these in order against the
/// current world — a replayed ingest mints fresh tuple ids there, which is
/// exactly what a serial execution would have done.
#[derive(Debug, Clone)]
enum SessionOp {
    Query(Query),
    Ingest {
        table: String,
        rows: Vec<Vec<Value>>,
    },
}

/// A per-request cleaning handle over a consistent snapshot of the shared
/// world.  See the [module docs](self) for the lifecycle and an example.
#[derive(Debug)]
pub struct CleaningSession {
    shared: Arc<EngineShared>,
    engine: DaisyEngine,
    base_version: u64,
    /// The request identifier stale-session diagnostics carry.
    label: String,
    /// Requests executed since the last commit, for rebase replay.
    log: Vec<SessionOp>,
    /// Speculative outcomes matching `log`.
    outcomes: Vec<QueryOutcome>,
}

impl CleaningSession {
    /// Parses and executes a SQL query against the session's private world,
    /// staging any repairs.  The outcome is *speculative* until
    /// [`commit`](CleaningSession::commit) validates it against the shared
    /// world.
    pub fn execute_sql(&mut self, sql: &str) -> Result<QueryOutcome> {
        let query = daisy_query::parse_query(sql)?;
        self.execute(&query)
    }

    /// Executes a parsed query against the session's private world, staging
    /// any repairs.
    ///
    /// Each query is transactional within the session: if execution fails
    /// partway (e.g. the projection references an unknown column after the
    /// driving table was already cleaned), the private world and the staged
    /// overlay are rolled back to their pre-query state — a failed query
    /// can never leak repairs into a later commit.
    pub fn execute(&mut self, query: &Query) -> Result<QueryOutcome> {
        let checkpoint = self.engine.world().clone();
        let staged_len = self.engine.delta_log().len();
        let (reads, touched) = self.engine.footprint_checkpoint();
        match self.engine.execute(query) {
            Ok(outcome) => {
                self.log.push(SessionOp::Query(query.clone()));
                self.outcomes.push(outcome.clone());
                Ok(outcome)
            }
            Err(err) => {
                self.engine.rollback_to(checkpoint, staged_len);
                self.engine.restore_footprints(reads, touched);
                Err(err)
            }
        }
    }

    /// Streams a batch of new rows into `table` through the session's
    /// private world: the rows are staged as an append [`Delta`] and only
    /// the `Δ × (T ∪ Δ)` candidate pairs are detected and repaired against
    /// the world's maintained violation indexes (see
    /// [`DaisyEngine::ingest_rows`]).  Transactional and speculative like
    /// [`execute`](CleaningSession::execute): a failed batch rolls back
    /// completely, a successful one is validated (and replayed with fresh
    /// tuple ids if necessary) at [`commit`](CleaningSession::commit).
    pub fn ingest_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<QueryOutcome> {
        let checkpoint = self.engine.world().clone();
        let staged_len = self.engine.delta_log().len();
        let (reads, touched) = self.engine.footprint_checkpoint();
        match self.engine.ingest_rows(table, rows.clone()) {
            Ok(outcome) => {
                self.log.push(SessionOp::Ingest {
                    table: table.to_string(),
                    rows,
                });
                self.outcomes.push(outcome.clone());
                Ok(outcome)
            }
            Err(err) => {
                self.engine.rollback_to(checkpoint, staged_len);
                self.engine.restore_footprints(reads, touched);
                Err(err)
            }
        }
    }

    /// `Ok(())` while the session's branch point is still the current
    /// shared version; a typed [`DaisyError::StaleSession`] — naming this
    /// session and how many commits it fell behind — once another commit
    /// advanced the shared world.  Callers use it to retry-or-fail
    /// deliberately instead of parsing diagnostics.
    pub fn verify_current(&self) -> Result<()> {
        let shared_version = self.shared.version();
        if shared_version == self.base_version {
            Ok(())
        } else {
            Err(DaisyError::StaleSession {
                session: self.label.clone(),
                base_version: self.base_version,
                shared_version,
            })
        }
    }

    /// The label this session was opened with (see
    /// [`EngineShared::session_named`]).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The shared version this session's current world branched from.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// The session's private view of a table (staged repairs included).
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.engine.table(name)
    }

    /// The session's private provenance store for a table.
    pub fn provenance(&self, table: &str) -> Option<&ProvenanceStore> {
        self.engine.provenance(table)
    }

    /// The session's private columnar snapshot of a table, if one is
    /// maintained (see [`DaisyEngine::snapshot`]).
    pub fn snapshot(&self, table: &str) -> Option<&ColumnSnapshot> {
        self.engine.snapshot(table)
    }

    /// The per-query cleaning reports accumulated since the last commit.
    pub fn report(&self) -> &SessionReport {
        self.engine.session()
    }

    /// The cells this session's queries consulted since the last commit —
    /// the read half of footprint-based commit validation.
    pub fn read_footprint(&self) -> &Footprint {
        self.engine.reads()
    }

    /// The repairs staged since the last commit, `(table, delta)` in
    /// application order — the session's copy-on-write overlay.
    pub fn staged(&self) -> &[(String, Delta)] {
        self.engine.delta_log()
    }

    /// `true` when the session has staged repairs that a commit would
    /// publish.
    pub fn has_staged_changes(&self) -> bool {
        !self.engine.delta_log().is_empty()
    }

    /// Publishes the session's world back into the shared core.
    ///
    /// Validates optimistically and rebases on conflict (see the
    /// [module docs](self)); either way, on success the shared world equals
    /// the state a serial execution of all committed requests would have
    /// produced, and this session continues from the freshly committed
    /// version with an empty log.
    ///
    /// # Errors
    ///
    /// Replay errors propagate and nothing is installed; the shared world
    /// is left exactly as the previous commit published it.  The session
    /// itself should be discarded after a commit error.
    pub fn commit(&mut self) -> Result<CommitReceipt> {
        let shared = Arc::clone(&self.shared);
        // Everything this commit supersedes is parked here.  Declared before
        // the guard, so on every path — early returns included — it is
        // dropped *after* the mutex is released: freeing a world (or an
        // answer, a log record, a checkpoint image) is never done while
        // other sessions wait to open or commit.
        let mut retired = Retired::default();
        let mut state = shared.lock();
        let cause = if state.version == self.base_version {
            CommitCause::Clean
        } else {
            self.classify_conflict(&state)
        };
        if cause == CommitCause::FullRebase {
            // Re-execute the log against the now-current world while holding
            // the lock — the serial fallback that makes interleavings
            // order-equivalent.
            let current = WorldState::clone(&state.world);
            retired.worlds.push(self.engine.reset_world(current));
            retired.outcomes = std::mem::take(&mut self.outcomes);
            for op in &self.log {
                let outcome = match op {
                    SessionOp::Query(query) => self.engine.execute(query)?,
                    SessionOp::Ingest { table, rows } => {
                        self.engine.ingest_rows(table, rows.clone())?
                    }
                };
                self.outcomes.push(outcome);
            }
        }
        let staged = self.engine.take_delta_log();
        let touched = self.engine.take_touched_rules();
        let write = Footprint::from_deltas(&staged);
        let cells_committed = staged.iter().map(|(_, d)| d.len()).sum();
        let new_world = match cause {
            CommitCause::Clean | CommitCause::FullRebase => self.engine.world().clone(),
            CommitCause::FootprintClean | CommitCause::DeltaRecheck => {
                // The cheap path: rebase the staged overlay onto the current
                // world in O(|delta|) — no re-execution.
                merge_world(&state.world, self.engine.world(), &staged, &touched)?
            }
        };
        if state.persistence.is_some() {
            // Write-ahead: the record must be durably logged (per the sync
            // policy) before anything installs.  On failure nothing is
            // installed and the error propagates — the commit was never
            // acknowledged, and reopening the store self-truncates any
            // partial frame.
            let record = retired.logged.insert(logged_commit(
                state.version + 1,
                &state.world,
                &new_world,
                &staged,
                &touched,
                &write,
            ));
            let store = state.persistence.as_mut().expect("checked above");
            store.append_commit(record)?;
        }
        if matches!(
            cause,
            CommitCause::FootprintClean | CommitCause::DeltaRecheck
        ) {
            // The merged world is also where this session continues from.
            retired
                .worlds
                .push(self.engine.install_world(new_world.clone()));
        }
        retired.root = Some(std::mem::replace(&mut state.world, Arc::new(new_world)));
        state.version += 1;
        shared.version.store(state.version, Ordering::Release);
        self.base_version = state.version;
        state.push_record(
            CommitRecord {
                write,
                touched_rules: touched,
                staged: staged.clone(),
            },
            &mut retired.records,
        );
        if state
            .persistence
            .as_ref()
            .is_some_and(|p| p.checkpoint_due())
        {
            // Post-acknowledgement and best-effort: a failed checkpoint
            // costs recovery time (longer replay), never correctness — the
            // log already holds the commit.  The image shares every row and
            // provenance entry with the live world.
            let snapshot = retired
                .checkpoint
                .insert(persisted_world(state.version, &state.world));
            if let Some(store) = state.persistence.as_mut() {
                let _ = store.checkpoint_now(snapshot);
            }
        }
        let receipt = CommitReceipt {
            version: state.version,
            rebased: cause.is_rebase(),
            cause,
            outcomes: std::mem::take(&mut self.outcomes),
            staged,
            cells_committed,
        };
        drop(state);
        drop(retired);
        self.log.clear();
        self.engine.clear_session_report();
        self.engine.clear_footprints();
        Ok(receipt)
    }

    /// Decides by footprint validation which commit path a conflicted
    /// session can take (the shared version is known to have advanced).
    fn classify_conflict(&self, state: &SharedState) -> CommitCause {
        // The ring must reach back to the session's branch point.
        let Some(records) = state.records_since(self.base_version) else {
            return CommitCause::FullRebase;
        };
        // Any `(table, rule)` cleaning state both an intervening commit and
        // this session advanced makes the session's derived structures
        // (group indexes, θ-matrices, cost trackers, fully-cleaned marks)
        // unmergeable: full replay.
        let touched = self.engine.touched_rules();
        if records
            .iter()
            .any(|r| r.touched_rules.iter().any(|k| touched.contains(k)))
        {
            return CommitCause::FullRebase;
        }
        // Coarse footprint intersection first: a record whose write
        // footprint is disjoint from everything this session read or wrote
        // is dismissed in O(ranges) without looking at a single update.
        // `Footprint::from_deltas` covers both the updated cells and every
        // appended row, so `writes` (and each record's `write`) already
        // carries append extents.  Notably, two sessions that branched from
        // the same world and both appended to one table necessarily claimed
        // the same tuple ids — their write footprints collide and the later
        // commit replays, minting fresh ids.
        let writes = Footprint::from_deltas(self.engine.delta_log());
        let reads = self.engine.reads();
        let mut dependencies = reads.clone();
        dependencies.union(&writes);
        let mut conflicts: Vec<(&str, TupleId, ColumnId)> = Vec::new();
        for record in &records {
            // Intervening appends are invisible to the cell-level update
            // sweep below and can never be proven value-stable (the session
            // never saw the row at all), so any overlap with what this
            // session read, wrote or appended forces a replay.
            for (table, delta) in &record.staged {
                if delta.appends().is_empty() {
                    continue;
                }
                let mut appended = Footprint::new();
                appended.record_rows(table, delta.appends().iter().map(|a| a.id));
                if appended.intersects(&dependencies) {
                    return CommitCause::FullRebase;
                }
            }
            if !record.write.intersects(&dependencies) {
                continue;
            }
            // Cell-level sweep, only for records that coarsely overlap.
            for (table, delta) in &record.staged {
                for update in delta.updates() {
                    if writes.covers_cell(table, update.tuple, update.column) {
                        // Write–write: install order would matter.
                        return CommitCause::FullRebase;
                    }
                    if reads.covers_cell(table, update.tuple, update.column) {
                        conflicts.push((table.as_str(), update.tuple, update.column));
                    }
                }
            }
        }
        if conflicts.is_empty() {
            return CommitCause::FootprintClean;
        }
        // Semi-naive recheck, restricted to the conflicting cells: if every
        // cell this session read still holds the exact value it observed
        // (candidate sets included), the execution is provably unaffected.
        if conflicts.iter().all(|(table, tuple, column)| {
            cell_equal(self.engine.world(), &state.world, table, *tuple, *column)
        }) {
            CommitCause::DeltaRecheck
        } else {
            CommitCause::FullRebase
        }
    }
}

/// `true` when both worlds hold byte-identical cells at the given
/// coordinate (missing table or tuple on either side counts as unstable).
fn cell_equal(
    a: &WorldState,
    b: &WorldState,
    table: &str,
    tuple: TupleId,
    column: ColumnId,
) -> bool {
    let (Ok(ta), Ok(tb)) = (a.catalog.table(table), b.catalog.table(table)) else {
        return false;
    };
    let idx = column.raw() as usize;
    match (ta.tuple(tuple), tb.tuple(tuple)) {
        (Some(ra), Some(rb)) => ra.cell(idx) == rb.cell(idx),
        _ => false,
    }
}

/// Rebases a validated session's effects onto the current shared world in
/// `O(|delta| + |touched rules|)`:
///
/// * staged deltas re-apply through the same table/snapshot/index write
///   protocol the engine uses (`apply_delta` + `absorb_delta`, for the
///   columnar snapshot and every maintained violation index alike),
/// * provenance entries graft cell-by-cell (the session's additions are
///   confined to its staged cells),
/// * derived cleaning state (`FdIndex`, `ThetaMatrix`, cost trackers,
///   fully-cleaned marks) swaps in wholesale for the rules only this
///   session touched,
/// * session-built columnar snapshots carry over when their revision still
///   matches the merged table.
///
/// Footprint validation already proved the inputs of all of the above are
/// identical to what a serial replay would have consumed, so the merged
/// world is byte-identical to the serial successor state.
fn merge_world(
    current: &WorldState,
    session: &WorldState,
    staged: &[(String, Delta)],
    touched: &HashSet<RuleKey>,
) -> Result<WorldState> {
    let mut merged = current.clone();
    for key in touched {
        if let Some(index) = session.fd_indexes.get(key) {
            merged.fd_indexes.insert(key.clone(), Arc::clone(index));
        }
        if let Some(matrix) = session.theta_matrices.get(key) {
            merged
                .theta_matrices
                .insert(key.clone(), Arc::clone(matrix));
        }
        if let Some(tracker) = session.trackers.get(key) {
            merged.trackers.insert(key.clone(), tracker.clone());
        }
        if session.fully_cleaned.contains(key) {
            merged.fully_cleaned.insert(key.clone());
        }
    }
    for (name, delta) in staged {
        let table = merged.catalog.table_mut(name)?;
        table.apply_delta(delta)?;
        if let Some(snap) = merged.snapshots.get_mut(name) {
            Arc::make_mut(snap).absorb_delta(table, delta)?;
        }
        for (key, index) in merged.violation_indexes.iter_mut() {
            if key.0 == *name {
                Arc::make_mut(index).absorb_delta(table, delta)?;
            }
        }
        if let Some(session_prov) = session.provenance.get(name) {
            merged
                .provenance
                .entry(name.clone())
                .or_default()
                .merge_cells_from(
                    session_prov,
                    delta.updates().iter().map(|u| (u.tuple, u.column)),
                );
        }
    }
    for (name, snap) in &session.snapshots {
        if !merged.snapshots.contains_key(name) && snap.is_current(merged.catalog.table(name)?) {
            merged.snapshots.insert(name.clone(), Arc::clone(snap));
        }
    }
    // Maintained violation indexes carry over like snapshots: an index the
    // session built rides along when its revision matches the merged table
    // (stale ones are dropped on the floor — the next ingest rebuilds).
    for (key, index) in &session.violation_indexes {
        if !merged.violation_indexes.contains_key(key)
            && index.is_current(merged.catalog.table(&key.0)?)
        {
            merged
                .violation_indexes
                .insert(key.clone(), Arc::clone(index));
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema, Value};
    use daisy_expr::FunctionalDependency;
    use daisy_storage::Cell;

    fn shared_cities() -> Arc<EngineShared> {
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        let table = Table::from_rows(
            "cities",
            schema,
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap();
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(table);
        engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
        engine.into_shared()
    }

    /// A core over `t(key, rhs, note)`: 64 keys of four rows each (256 rows,
    /// the snapshot threshold), the groups of keys 0 and 5 dirty, warmed by one committed request (a
    /// clean one-row ingest plus a `SELECT` that repairs group 0) so the
    /// shared world owns a snapshot, a maintained violation index and
    /// provenance entries — one shared piece per component to check.
    fn warmed_groups() -> Arc<EngineShared> {
        let schema = Schema::from_pairs(&[
            ("key", DataType::Int),
            ("rhs", DataType::Int),
            ("note", DataType::Str),
        ])
        .unwrap();
        let rows = (0..4 * 64i64)
            .map(|i| {
                let key = i / 4;
                let dirty = (key == 0 || key == 5) && i % 4 == 1;
                vec![
                    Value::Int(key),
                    Value::Int(if dirty { -1 - key } else { key * 7 }),
                    Value::from(format!("row {i}")),
                ]
            })
            .collect();
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(1)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(Table::from_rows("t", schema, rows).unwrap());
        engine.add_fd(&FunctionalDependency::new(&["key"], "rhs"), "phi");
        let shared = engine.into_shared();
        let mut warm = shared.session();
        warm.ingest_rows(
            "t",
            vec![vec![Value::Int(100), Value::Int(700), Value::from("warm")]],
        )
        .unwrap();
        warm.execute_sql("SELECT key FROM t WHERE key = 0").unwrap();
        warm.commit().unwrap();
        shared
    }

    /// The shared world's current version.
    fn root(shared: &EngineShared) -> Arc<WorldState> {
        Arc::clone(&shared.lock().world)
    }

    /// The ids of the rows a session's staged deltas wrote or appended.
    fn staged_rows(session: &CleaningSession) -> HashSet<TupleId> {
        session
            .staged()
            .iter()
            .flat_map(|(_, delta)| {
                let updated = delta.updates().iter().map(|u| u.tuple);
                updated.chain(delta.appends().iter().map(|a| a.id))
            })
            .collect()
    }

    #[test]
    fn a_write_detaches_only_the_rows_it_touches() {
        let shared = warmed_groups();
        let base = root(&shared);
        let mut session = shared.session();
        session
            .execute_sql("SELECT key FROM t WHERE key = 5")
            .unwrap();
        let touched = staged_rows(&session);
        assert!(!touched.is_empty());

        let check = |world: &WorldState| {
            let before = base.catalog.table("t").unwrap();
            let after = world.catalog.table("t").unwrap();
            let mut untouched = 0;
            for (old, new) in before.tuples().iter().zip(after.tuples()) {
                assert_eq!(
                    new.cells.shares_storage_with(&old.cells),
                    !touched.contains(&new.id),
                    "row {}",
                    new.id
                );
                untouched += usize::from(!touched.contains(&new.id));
            }
            assert!(untouched >= 252);
        };
        // In the session's private world, and — the commit being a pointer
        // swap — in the version it publishes.
        check(session.engine.world());
        session.commit().unwrap();
        check(&root(&shared));
    }

    #[test]
    fn a_write_detaches_only_the_provenance_entries_it_records() {
        let shared = warmed_groups();
        let base = root(&shared);
        let before = &base.provenance["t"];
        assert!(!before.is_empty());

        // Reading an already repaired range records nothing: the store
        // stays pointer-equal, through the session and through its commit.
        let mut reader = shared.session();
        reader
            .execute_sql("SELECT key FROM t WHERE key = 0")
            .unwrap();
        assert!(reader.provenance("t").unwrap().shares_storage_with(before));
        reader.commit().unwrap();
        assert!(root(&shared).provenance["t"].shares_storage_with(before));

        // A repair records entries for the cells it writes and shares the
        // rest.
        let mut writer = shared.session();
        writer
            .execute_sql("SELECT key FROM t WHERE key = 5")
            .unwrap();
        let after = writer.provenance("t").unwrap();
        assert!(!after.shares_storage_with(before));
        for ((tuple, column), _) in before.dump() {
            assert!(after.shares_cell_with(before, tuple, column));
        }
        let written: Vec<(TupleId, ColumnId)> = writer
            .staged()
            .iter()
            .flat_map(|(_, d)| d.updates().iter().map(|u| (u.tuple, u.column)))
            .collect();
        assert!(!written.is_empty());
        for (tuple, column) in written {
            assert!(after.cell(tuple, column).is_some());
            assert!(!after.shares_cell_with(before, tuple, column));
        }
    }

    #[test]
    fn a_write_detaches_only_the_snapshot_columns_it_touches() {
        let shared = warmed_groups();
        let base = root(&shared);
        let before = &base.snapshots["t"];
        let mut session = shared.session();
        session
            .execute_sql("SELECT key FROM t WHERE key = 5")
            .unwrap();
        let written: HashSet<usize> = session
            .staged()
            .iter()
            .flat_map(|(_, d)| d.updates().iter().map(|u| u.column.index()))
            .collect();
        assert!(written.contains(&1) && !written.contains(&2));
        let after = &session.engine.world().snapshots["t"];
        assert!(after.is_current(session.table("t").unwrap()));
        for column in 0..3 {
            assert_eq!(
                after.shares_column_with(before, column),
                !written.contains(&column),
                "column {column}"
            );
        }
        // Integer candidates intern nothing, updates move no row.
        assert!(after.shares_dictionary_with(before));
        assert!(after.shares_row_map_with(before));
    }

    #[test]
    fn a_write_detaches_only_the_index_partitions_it_touches() {
        let shared = warmed_groups();
        let base = root(&shared);
        let before = base.violation_indexes.values().next().unwrap();
        let mut session = shared.session();
        // One clean row under an existing key: exactly that key's partition
        // takes a new member.
        session
            .ingest_rows(
                "t",
                vec![vec![Value::Int(7), Value::Int(49), Value::from("new")]],
            )
            .unwrap();
        let after = session
            .engine
            .world()
            .violation_indexes
            .values()
            .next()
            .unwrap();
        assert!(after.is_current(session.table("t").unwrap()));
        assert_eq!(after.partition_count(), before.partition_count());
        assert_eq!(
            after.partitions_shared_with(before),
            before.partition_count() - 1
        );
        // The rows are shared as well: an append copies the row table, not
        // the rows.
        let (old, new) = (
            base.catalog.table("t").unwrap().tuples(),
            session.table("t").unwrap().tuples(),
        );
        assert_eq!(new.len(), old.len() + 1);
        assert!(old
            .iter()
            .zip(new)
            .all(|(o, n)| n.cells.shares_storage_with(&o.cells)));
    }

    #[test]
    fn session_stages_then_commit_publishes() {
        let shared = shared_cities();
        let mut session = shared.session();
        let outcome = session
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        assert!(outcome.report.errors_repaired > 0);
        assert!(session.has_staged_changes());
        // Isolation: the shared world is untouched pre-commit.
        assert_eq!(
            shared.table("cities").unwrap().probabilistic_tuple_count(),
            0
        );
        assert_eq!(shared.version(), 0);
        assert!(shared.provenance("cities").is_none_or(|p| p.is_empty()));

        let receipt = session.commit().unwrap();
        assert!(!receipt.rebased);
        assert_eq!(receipt.version, 1);
        assert!(receipt.cells_committed > 0);
        assert_eq!(receipt.outcomes.len(), 1);
        assert!(shared.table("cities").unwrap().probabilistic_tuple_count() > 0);
        assert!(!shared.provenance("cities").unwrap().is_empty());
        assert!(!session.has_staged_changes());
    }

    #[test]
    fn conflicting_commit_rebases_to_serial_state() {
        let shared = shared_cities();

        // Two sessions branch from version 0 and race on the same rows.
        let mut first = shared.session();
        let mut second = shared.session();
        let sql = "SELECT zip FROM cities WHERE city = 'Los Angeles'";
        first.execute_sql(sql).unwrap();
        second.execute_sql(sql).unwrap();

        let first_receipt = first.commit().unwrap();
        assert!(!first_receipt.rebased);
        assert_eq!(first_receipt.cause, CommitCause::Clean);
        let second_receipt = second.commit().unwrap();
        assert!(second_receipt.rebased, "stale session must rebase");
        // Both sessions advanced the same (table, rule) cleaning state, so
        // even footprint validation must take the full-replay path.
        assert_eq!(second_receipt.cause, CommitCause::FullRebase);
        assert_eq!(shared.version(), 2);

        // The rebased world must equal a serial replay of both requests.
        let serial = {
            let shared = shared_cities();
            let mut session = shared.session();
            session.execute_sql(sql).unwrap();
            session.commit().unwrap();
            session.execute_sql(sql).unwrap();
            session.commit().unwrap();
            shared
        };
        assert_eq!(
            shared.table("cities").unwrap().tuples(),
            serial.table("cities").unwrap().tuples()
        );
        assert_eq!(
            shared.provenance("cities").unwrap().dump(),
            serial.provenance("cities").unwrap().dump()
        );
    }

    #[test]
    fn sessions_snapshot_cheaply_and_read_consistently() {
        let shared = shared_cities();
        let reader = shared.session();
        // A writer commits new probabilistic state…
        let mut writer = shared.session();
        writer
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        writer.commit().unwrap();
        // …but the reader's snapshot still observes its branch point.
        assert_eq!(
            reader.table("cities").unwrap().probabilistic_tuple_count(),
            0
        );
        assert!(shared.table("cities").unwrap().probabilistic_tuple_count() > 0);
        assert_eq!(reader.base_version(), 0);
    }

    #[test]
    fn failed_query_rolls_back_partial_repairs() {
        // The projection fails on an unknown column, but only *after* the
        // driving table was filtered and cleaned — the session must roll
        // everything back so no repairs leak into a later commit.
        let shared = shared_cities();
        let mut session = shared.session();
        let err = session.execute_sql("SELECT bogus FROM cities WHERE city = 'Los Angeles'");
        assert!(err.is_err());
        assert!(!session.has_staged_changes());
        assert_eq!(
            session.table("cities").unwrap().probabilistic_tuple_count(),
            0
        );
        assert!(session.report().queries.is_empty());
        // A commit after the failure publishes nothing.
        let receipt = session.commit().unwrap();
        assert_eq!(receipt.cells_committed, 0);
        assert!(receipt.outcomes.is_empty());
        assert_eq!(
            shared.table("cities").unwrap().probabilistic_tuple_count(),
            0
        );
        // The session remains fully usable afterwards.
        let outcome = session
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        assert!(outcome.report.errors_repaired > 0);
        session.commit().unwrap();
        assert!(shared.table("cities").unwrap().probabilistic_tuple_count() > 0);
    }

    #[test]
    fn session_report_resets_after_every_commit() {
        let shared = shared_cities();
        let mut session = shared.session();
        session
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        assert_eq!(session.report().queries.len(), 1);
        session.commit().unwrap();
        // Clean (non-rebased) commits reset the report too.
        assert!(session.report().queries.is_empty());
        session
            .execute_sql("SELECT city FROM cities WHERE zip = 9001")
            .unwrap();
        assert_eq!(session.report().queries.len(), 1);
    }

    #[test]
    fn empty_commit_still_advances_the_version() {
        let shared = shared_cities();
        let mut session = shared.session();
        let receipt = session.commit().unwrap();
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.cells_committed, 0);
        assert!(receipt.staged.is_empty());
    }

    /// Two tables with the same dirty shape, cleaned by different sessions:
    /// disjoint rule keys and disjoint footprints.
    fn shared_two_regions() -> Arc<EngineShared> {
        let rows = || {
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
            ]
        };
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(Table::from_rows("east", schema.clone(), rows()).unwrap());
        engine.register_table(Table::from_rows("west", schema, rows()).unwrap());
        engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
        engine.into_shared()
    }

    /// A constraint-free table: sessions over it are pure readers/writers
    /// with no `(table, rule)` cleaning state in play.
    fn shared_plain() -> Arc<EngineShared> {
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        let table = Table::from_rows(
            "plain",
            schema,
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap();
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(table);
        engine.into_shared()
    }

    #[test]
    fn disjoint_table_commits_install_without_replay() {
        let east_sql = "SELECT zip FROM east WHERE city = 'Los Angeles'";
        let west_sql = "SELECT zip FROM west WHERE city = 'Los Angeles'";

        let shared = shared_two_regions();
        let mut a = shared.session();
        let mut b = shared.session();
        a.execute_sql(east_sql).unwrap();
        b.execute_sql(west_sql).unwrap();
        assert_eq!(a.commit().unwrap().cause, CommitCause::Clean);
        let receipt = b.commit().unwrap();
        // The interleaved cleaning of a *different* table never replays.
        assert_eq!(receipt.cause, CommitCause::FootprintClean);
        assert!(!receipt.rebased);
        assert!(receipt.cells_committed > 0);
        assert_eq!(shared.version(), 2);

        // The merged world is byte-identical to the serial replay.
        let serial = {
            let shared = shared_two_regions();
            let mut s = shared.session();
            s.execute_sql(east_sql).unwrap();
            s.commit().unwrap();
            s.execute_sql(west_sql).unwrap();
            s.commit().unwrap();
            shared
        };
        for table in ["east", "west"] {
            assert_eq!(
                shared.table(table).unwrap().tuples(),
                serial.table(table).unwrap().tuples(),
                "table `{table}` diverged from serial replay"
            );
            assert_eq!(
                shared.provenance(table).unwrap().dump(),
                serial.provenance(table).unwrap().dump(),
                "provenance of `{table}` diverged from serial replay"
            );
        }

        // The session stays fully usable on the merged world.
        let again = b.execute_sql(west_sql).unwrap();
        assert_eq!(again.report.errors_repaired, 0, "west is already cleaned");
        assert_eq!(b.commit().unwrap().cause, CommitCause::Clean);
    }

    #[test]
    fn stable_intervening_write_passes_the_delta_recheck() {
        let shared = shared_plain();
        let mut reader = shared.session();
        // The reader consults `zip` (filter column) and the matching row.
        reader
            .execute_sql("SELECT city FROM plain WHERE zip = 9001")
            .unwrap();

        // An intervener rewrites the very cell the reader filtered on —
        // with the value it already held.
        let mut writer = shared.session();
        let mut delta = Delta::new();
        delta.push_update(
            daisy_common::TupleId::new(0),
            ColumnId::new(0),
            Cell::Determinate(Value::Int(9001)),
        );
        writer.engine.apply_delta_patching("plain", &delta).unwrap();
        assert_eq!(writer.commit().unwrap().cause, CommitCause::Clean);

        // Footprints overlap, but the cell is value-stable: the recheck —
        // restricted to that one cell — admits the commit without replay.
        let receipt = reader.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::DeltaRecheck);
        assert!(!receipt.rebased);
    }

    #[test]
    fn unstable_intervening_write_forces_full_rebase() {
        let shared = shared_plain();
        let mut reader = shared.session();
        reader
            .execute_sql("SELECT city FROM plain WHERE zip = 9001")
            .unwrap();

        let mut writer = shared.session();
        let mut delta = Delta::new();
        delta.push_update(
            daisy_common::TupleId::new(0),
            ColumnId::new(0),
            Cell::Determinate(Value::Int(7777)),
        );
        writer.engine.apply_delta_patching("plain", &delta).unwrap();
        writer.commit().unwrap();

        // The reader's filter saw zip = 9001; the cell now reads 7777 —
        // its answer is invalid and must be recomputed.
        let receipt = reader.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::FullRebase);
        assert!(receipt.rebased);
        // The replayed outcome reflects the new value: no row matches.
        assert_eq!(receipt.outcomes[0].result.len(), 0);
    }

    #[test]
    fn write_write_conflicts_force_full_rebase() {
        let shared = shared_plain();
        let mut a = shared.session();
        let mut b = shared.session();
        let stage = |s: &mut CleaningSession, city: &str| {
            let mut delta = Delta::new();
            delta.push_update(
                daisy_common::TupleId::new(0),
                ColumnId::new(1),
                Cell::Determinate(Value::from(city)),
            );
            s.engine.apply_delta_patching("plain", &delta).unwrap();
        };
        stage(&mut a, "Pasadena");
        stage(&mut b, "Glendale");
        assert_eq!(a.commit().unwrap().cause, CommitCause::Clean);
        // Same cell written on both sides: install order matters, so the
        // second commit must take the serial path (whose replay of the
        // empty request log drops the manually staged delta).
        let receipt = b.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::FullRebase);
        assert_eq!(
            shared
                .table("plain")
                .unwrap()
                .tuple(daisy_common::TupleId::new(0))
                .unwrap()
                .cell(1)
                .unwrap(),
            &Cell::Determinate(Value::from("Pasadena"))
        );
    }

    #[test]
    fn commit_log_overflow_falls_back_to_full_rebase() {
        // The ring bound comes from the config now; a tiny capacity makes
        // the overflow cheap to provoke.
        let capacity = 4;
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        let table = Table::from_rows(
            "plain",
            schema,
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap();
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false)
                .with_commit_log_capacity(capacity),
        )
        .unwrap();
        engine.register_table(table);
        let shared = engine.into_shared();

        let mut ancient = shared.session();
        ancient.execute_sql("SELECT city FROM plain").unwrap();
        // Push the ring past capacity: the ancient session's branch point
        // is no longer covered by the retained records.
        for _ in 0..(capacity + 2) {
            shared.session().commit().unwrap();
        }
        let receipt = ancient.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::FullRebase);

        // A session still inside the retained window keeps the cheap path.
        let mut recent = shared.session();
        recent.execute_sql("SELECT city FROM plain").unwrap();
        shared.session().commit().unwrap();
        assert_eq!(recent.commit().unwrap().cause, CommitCause::FootprintClean);
    }

    #[test]
    fn session_ingest_stages_commits_and_replays_with_fresh_ids() {
        let shared = shared_cities();
        let mut a = shared.session();
        let mut b = shared.session();
        let batch_a = vec![vec![Value::Int(9001), Value::from("Pasadena")]];
        let batch_b = vec![vec![Value::Int(10001), Value::from("Albany")]];
        let outcome = a.ingest_rows("cities", batch_a.clone()).unwrap();
        assert!(outcome.report.errors_repaired > 0);
        b.ingest_rows("cities", batch_b.clone()).unwrap();
        // Staged only: the shared table has not grown yet.
        assert_eq!(shared.table("cities").unwrap().len(), 5);

        assert_eq!(a.commit().unwrap().cause, CommitCause::Clean);
        // Both sessions branched from the same next tuple id, so their
        // appends collide — the second commit must replay (minting a fresh
        // id for its row) rather than merge.
        let receipt = b.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::FullRebase);
        assert_eq!(shared.table("cities").unwrap().len(), 7);

        // The committed world equals the serial execution of both ingests.
        let serial = {
            let shared = shared_cities();
            let mut s = shared.session();
            s.ingest_rows("cities", batch_a).unwrap();
            s.commit().unwrap();
            s.ingest_rows("cities", batch_b).unwrap();
            s.commit().unwrap();
            shared
        };
        assert_eq!(
            shared.table("cities").unwrap().tuples(),
            serial.table("cities").unwrap().tuples()
        );
        assert_eq!(
            shared.provenance("cities").unwrap().dump(),
            serial.provenance("cities").unwrap().dump()
        );
    }

    #[test]
    fn disjoint_ingests_merge_without_replay_and_carry_their_indexes() {
        let shared = shared_two_regions();
        let mut a = shared.session();
        let mut b = shared.session();
        a.ingest_rows(
            "east",
            vec![vec![Value::Int(9001), Value::from("Pasadena")]],
        )
        .unwrap();
        b.ingest_rows("west", vec![vec![Value::Int(10001), Value::from("Albany")]])
            .unwrap();
        assert_eq!(a.commit().unwrap().cause, CommitCause::Clean);
        // Different tables: appends and footprints are disjoint, so the
        // second ingest installs in O(|delta|) without replay.
        let receipt = b.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::FootprintClean);
        assert_eq!(shared.table("east").unwrap().len(), 6);
        assert_eq!(shared.table("west").unwrap().len(), 6);
        // The merged world kept b's maintained index for west, current.
        let state = shared.lock();
        let west = state.world.catalog.table("west").unwrap();
        let index = state
            .world
            .violation_indexes
            .iter()
            .find(|((table, _), _)| table == "west")
            .map(|(_, index)| index)
            .expect("west's maintained index carried through the merge");
        assert!(index.is_current(west));
    }

    #[test]
    fn failed_ingest_rolls_back_completely() {
        let shared = shared_cities();
        let mut session = shared.session();
        // Wrong arity: the append delta fails to apply.
        let err = session.ingest_rows("cities", vec![vec![Value::Int(1)]]);
        assert!(err.is_err());
        assert!(!session.has_staged_changes());
        assert_eq!(session.table("cities").unwrap().len(), 5);
        let receipt = session.commit().unwrap();
        assert_eq!(receipt.cells_committed, 0);
    }

    #[test]
    fn intervening_append_forces_a_reader_to_replay() {
        let shared = shared_plain();
        let mut reader = shared.session();
        // The reader scans the whole table: its answer depends on the
        // table's extent, not just existing cell values.
        reader.execute_sql("SELECT city FROM plain").unwrap();

        let mut writer = shared.session();
        writer
            .ingest_rows("plain", vec![vec![Value::Int(123), Value::from("Fresno")]])
            .unwrap();
        assert_eq!(writer.commit().unwrap().cause, CommitCause::Clean);

        // No cell the reader saw changed — but a row appeared.  The
        // update-level recheck cannot prove the read stable, so the commit
        // must take the serial path.
        let receipt = reader.commit().unwrap();
        assert_eq!(receipt.cause, CommitCause::FullRebase);
    }

    #[test]
    fn stale_sessions_surface_typed_errors() {
        let shared = shared_cities();
        let mut fresh = shared.session_named("req-42");
        assert!(fresh.verify_current().is_ok());
        assert_eq!(fresh.label(), "req-42");
        fresh
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();

        let mut other = shared.session();
        other.execute_sql("SELECT city FROM cities").unwrap();
        other.commit().unwrap();

        let err = fresh.verify_current().unwrap_err();
        assert_eq!(err.category(), "stale-session");
        assert_eq!(err.elapsed_commits(), Some(1));
        match &err {
            DaisyError::StaleSession {
                session,
                base_version,
                shared_version,
            } => {
                assert_eq!(session, "req-42");
                assert_eq!(*base_version, 0);
                assert_eq!(*shared_version, 1);
            }
            other => panic!("expected StaleSession, got {other:?}"),
        }
    }
}
