//! Integration tests: the durable core end to end.
//!
//! * A durable service restarted over its directory serves the exact
//!   tables and provenance it acknowledged before shutdown, at every sync
//!   policy, and keeps committing from the recovered version.
//! * The [`ServiceReport`] durability counters follow the policy: per-commit
//!   fsyncs under `commit`, none under `off` (checkpoints aside).
//! * **Corruption is never silent.**  Flipping a single byte anywhere in
//!   the commit log makes recovery either self-truncate an unsynced tail
//!   (landing on an exact acknowledged prefix) or refuse to load with
//!   [`DaisyError::CorruptLog`] — it never serves altered data.  Damaged
//!   checkpoints fall back to older ones plus log replay; only when every
//!   checkpoint is gone does recovery fail.
//!
//! All stores live in scratch directories under the system temp dir — the
//! workspace tree stays clean (CI enforces this after the test run).

use daisy::common::{ColumnId, DaisyError, TupleId};
use daisy::prelude::*;
use daisy::storage::{CellProvenance, Tuple};
use daisy::wal::{ScratchDir, FRAME_HEADER_LEN, LOG_FILE, LOG_HEADER_LEN};

/// Rows per FD group; one tuple dissents so every group needs cleaning.
const GROUPS: usize = 5;

fn dirty_table() -> Table {
    let schema = Schema::from_pairs(&[("lhs", DataType::Int), ("rhs", DataType::Int)]).unwrap();
    let mut rows = Vec::new();
    for g in 0..GROUPS as i64 {
        rows.push(vec![Value::Int(g), Value::Int(g * 10)]);
        rows.push(vec![Value::Int(g), Value::Int(g * 10)]);
        rows.push(vec![Value::Int(g), Value::Int(g * 10 + 1)]);
    }
    Table::from_rows("t", schema, rows).unwrap()
}

fn engine(durability: DurabilityMode, checkpoint_interval: usize) -> DaisyEngine {
    let mut engine = DaisyEngine::new(
        DaisyConfig::default()
            .with_worker_threads(1)
            .with_cost_model(false)
            .with_durability(durability)
            .with_checkpoint_interval(checkpoint_interval),
    )
    .unwrap();
    engine.register_table(dirty_table());
    engine.add_fd(&FunctionalDependency::new(&["lhs"], "rhs"), "phi");
    engine
}

fn requests(n: usize) -> Vec<ServiceRequest> {
    (0..n)
        .map(|i| {
            ServiceRequest::new(
                format!("s{i}"),
                format!("SELECT lhs, rhs FROM t WHERE lhs = {}", i % GROUPS),
            )
        })
        .collect()
}

type ProvenanceDump = Vec<((TupleId, ColumnId), CellProvenance)>;

/// The observable committed state: tables plus provenance, byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
struct WorldDump {
    tables: Vec<(String, Vec<Tuple>)>,
    provenance: Vec<(String, ProvenanceDump)>,
}

fn dump(shared: &EngineShared) -> WorldDump {
    let names = shared.table_names();
    WorldDump {
        tables: names
            .iter()
            .map(|n| (n.clone(), shared.table(n).unwrap().tuples().to_vec()))
            .collect(),
        provenance: names
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    shared.provenance(n).map(|p| p.dump()).unwrap_or_default(),
                )
            })
            .collect(),
    }
}

#[test]
fn durable_service_recovers_after_restart() {
    let dir = ScratchDir::new();
    let before = {
        let service =
            CleaningService::with_persistence(engine(DurabilityMode::Commit, 3), dir.path())
                .unwrap();
        let report = service.run(&requests(5));
        assert!(report.outcomes.iter().all(|o| o.outcome.is_ok()));
        assert_eq!(report.final_version, 5);
        assert!(
            report.fsyncs >= report.commits,
            "commit mode syncs per commit"
        );
        assert!(
            report.checkpoints >= 1,
            "interval 3 over 5 commits checkpoints"
        );
        dump(service.shared())
    };

    // Restart over the same directory with the same bootstrap.
    let service =
        CleaningService::with_persistence(engine(DurabilityMode::Commit, 3), dir.path()).unwrap();
    assert_eq!(service.shared().version(), 5);
    assert_eq!(dump(service.shared()), before, "recovered state diverged");

    // The recovered core keeps serving and versions continue.
    let report = service.run(&requests(2));
    assert!(report.outcomes.iter().all(|o| o.outcome.is_ok()));
    assert_eq!(report.final_version, 7);
}

/// A request that records no provenance leaves the table's store
/// pointer-equal to the committed one — so the commit record is built
/// without walking the store — and logs an empty provenance diff.
#[test]
fn a_request_that_records_no_provenance_logs_an_empty_provenance_diff() {
    let dir = ScratchDir::new();
    let shared = EngineShared::recover(engine(DurabilityMode::Commit, 100), dir.path()).unwrap();
    let sql = "SELECT lhs, rhs FROM t WHERE lhs = 0";

    let mut first = shared.session_named("repairs");
    assert!(first.execute_sql(sql).unwrap().report.errors_repaired > 0);
    first.commit().unwrap();
    let committed = shared.provenance("t").unwrap();
    assert!(!committed.is_empty());

    // The same range again: already repaired, nothing to record.
    let mut second = shared.session_named("reads");
    assert_eq!(second.execute_sql(sql).unwrap().report.errors_repaired, 0);
    assert!(second
        .provenance("t")
        .unwrap()
        .shares_storage_with(&committed));
    second.commit().unwrap();
    assert!(shared
        .provenance("t")
        .unwrap()
        .shares_storage_with(&committed));

    let logged = shared.deltas_between(0..2).unwrap();
    assert_eq!(logged.len(), 2);
    assert!(!logged[0].provenance.is_empty());
    assert!(logged[1].provenance.is_empty());
    assert!(logged[1].staged.is_empty());
}

#[test]
fn every_durability_mode_round_trips_a_clean_shutdown() {
    for mode in [
        DurabilityMode::Off,
        DurabilityMode::Commit,
        DurabilityMode::Batch,
    ] {
        let dir = ScratchDir::new();
        let before = {
            let service = CleaningService::with_persistence(engine(mode, 100), dir.path()).unwrap();
            let report = service.run(&requests(4));
            assert!(report.outcomes.iter().all(|o| o.outcome.is_ok()));
            dump(service.shared())
        };
        let service = CleaningService::with_persistence(engine(mode, 100), dir.path()).unwrap();
        assert_eq!(service.shared().version(), 4, "{mode} lost commits");
        assert_eq!(dump(service.shared()), before, "{mode} diverged");
    }
}

#[test]
fn fsync_counters_follow_the_policy() {
    // `off` with a large checkpoint interval: the run itself never syncs.
    let dir = ScratchDir::new();
    let service =
        CleaningService::with_persistence(engine(DurabilityMode::Off, 100), dir.path()).unwrap();
    let report = service.run(&requests(4));
    assert_eq!(report.fsyncs, 0);
    assert_eq!(report.checkpoints, 0);

    // `commit`: at least one fsync per commit, plus checkpoint syncs.
    let dir = ScratchDir::new();
    let service =
        CleaningService::with_persistence(engine(DurabilityMode::Commit, 2), dir.path()).unwrap();
    let report = service.run(&requests(4));
    assert!(report.fsyncs >= report.commits);
    assert_eq!(report.checkpoints, 2);
}

/// Runs a workload and returns the scratch dir plus the acknowledged world
/// after every commit (index = version).
fn committed_history(
    mode: DurabilityMode,
    interval: usize,
    n: usize,
) -> (ScratchDir, Vec<WorldDump>) {
    let dir = ScratchDir::new();
    let shared = EngineShared::recover(engine(mode, interval), dir.path()).unwrap();
    let mut history = vec![dump(&shared)];
    for request in requests(n) {
        let mut session = shared.session_named(&request.session);
        match &request.op {
            RequestOp::Sql(sql) => {
                session.execute_sql(sql).unwrap();
            }
            RequestOp::Ingest { table, rows } => {
                session.ingest_rows(table, rows.clone()).unwrap();
            }
        }
        session.commit().unwrap();
        history.push(dump(&shared));
    }
    (dir, history)
}

/// Every single-byte flip in the commit log either refuses to load
/// (`CorruptLog`) or recovers an exact acknowledged prefix — never altered
/// data, never a half-commit.
#[test]
fn log_byte_flips_are_never_silently_wrong() {
    let (dir, history) = committed_history(DurabilityMode::Commit, 100, 3);
    let log_path = dir.path().join(LOG_FILE);
    let pristine = std::fs::read(&log_path).unwrap();
    for i in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[i] ^= 0x10;
        std::fs::write(&log_path, &bad).unwrap();
        match EngineShared::recover(engine(DurabilityMode::Commit, 100), dir.path()) {
            Err(err) => assert_eq!(
                err.category(),
                "corrupt-log",
                "flip at byte {i}: unexpected error {err}"
            ),
            Ok(shared) => {
                // Only a tail truncation (the flip landed in the final
                // record) may recover — and then to an exact earlier
                // acknowledged world, bit for bit.
                let version = shared.version() as usize;
                assert!(
                    version < history.len(),
                    "flip at byte {i} recovered unknown version {version}"
                );
                assert_eq!(
                    dump(&shared),
                    history[version],
                    "flip at byte {i} recovered an altered world"
                );
            }
        }
        // Recovery may have self-truncated the corrupted file; restore it.
        std::fs::write(&log_path, &pristine).unwrap();
    }
}

/// A truncated length prefix (garbage tail shorter than a frame header) is
/// a torn tail: recovery self-truncates and serves the full history.
#[test]
fn truncated_length_prefix_recovers_the_full_history() {
    let (dir, history) = committed_history(DurabilityMode::Commit, 100, 3);
    let log_path = dir.path().join(LOG_FILE);
    let pristine = std::fs::read(&log_path).unwrap();
    for extra in 1..FRAME_HEADER_LEN {
        let mut torn = pristine.clone();
        torn.extend(std::iter::repeat_n(0xCD, extra));
        std::fs::write(&log_path, &torn).unwrap();
        let shared = EngineShared::recover(engine(DurabilityMode::Commit, 100), dir.path())
            .unwrap_or_else(|e| panic!("{extra} garbage bytes should be a torn tail: {e}"));
        assert_eq!(shared.version() as usize, history.len() - 1);
        assert_eq!(dump(&shared), history[history.len() - 1]);
        std::fs::write(&log_path, &pristine).unwrap();
    }
}

/// Splicing a bit-exact duplicate of the last record onto the log (valid
/// CRC, stale chain) is detected as corruption, not replayed twice.
#[test]
fn duplicate_record_splice_is_rejected() {
    let (dir, _) = committed_history(DurabilityMode::Commit, 100, 3);
    let log_path = dir.path().join(LOG_FILE);
    let pristine = std::fs::read(&log_path).unwrap();
    // Walk the frames to find where the last record starts.
    let mut offset = LOG_HEADER_LEN as usize;
    let mut last_start = offset;
    while offset < pristine.len() {
        last_start = offset;
        let len = u32::from_le_bytes(pristine[offset..offset + 4].try_into().unwrap()) as usize;
        offset += FRAME_HEADER_LEN + len;
    }
    let mut spliced = pristine.clone();
    spliced.extend_from_slice(&pristine[last_start..]);
    std::fs::write(&log_path, &spliced).unwrap();
    let err = EngineShared::recover(engine(DurabilityMode::Commit, 100), dir.path()).unwrap_err();
    assert_eq!(err.category(), "corrupt-log");
}

/// A damaged newest checkpoint falls back to an older one plus log replay
/// and still recovers the exact final world; destroying every checkpoint
/// (while the log shows commits) is unrecoverable corruption.
#[test]
fn corrupt_checkpoints_fall_back_then_fail_loudly() {
    let (dir, history) = committed_history(DurabilityMode::Commit, 2, 5);
    let checkpoints: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    assert!(checkpoints.len() >= 2, "interval 2 over 5 commits");

    // Flip a byte in the middle of every checkpoint, one at a time: each
    // falls back (older checkpoint or deeper replay) to the same world.
    for path in &checkpoints {
        let pristine = std::fs::read(path).unwrap();
        let mut bad = pristine.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(path, &bad).unwrap();
        let shared = EngineShared::recover(engine(DurabilityMode::Commit, 2), dir.path())
            .unwrap_or_else(|e| panic!("single corrupt checkpoint must fall back: {e}"));
        assert_eq!(shared.version() as usize, history.len() - 1);
        assert_eq!(dump(&shared), history[history.len() - 1]);
        std::fs::write(path, &pristine).unwrap();
    }

    // Now corrupt all of them: the log alone cannot vouch for the state.
    for path in &checkpoints {
        let mut bad = std::fs::read(path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(path, &bad).unwrap();
    }
    let err = EngineShared::recover(engine(DurabilityMode::Commit, 2), dir.path()).unwrap_err();
    assert!(
        matches!(err, DaisyError::CorruptLog { .. }),
        "all-checkpoints-corrupt must be typed corruption, got {err}"
    );
}
