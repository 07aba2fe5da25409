//! # daisy-core
//!
//! The primary contribution of the Daisy paper (Giannakopoulou et al.,
//! SIGMOD 2020): cleaning denial-constraint violations *through relaxation*,
//! interleaved with query execution.
//!
//! * [`fd_index::FdIndex`] — pre-computed lhs/rhs group indexes for a
//!   functional dependency (the statistics Daisy pre-computes, §6),
//! * [`relaxation`] — Algorithm 1: query-result relaxation for FDs, with the
//!   iteration / result-size estimates of Lemmas 1–3,
//! * [`clean_select`] — the `cleanσ` operator for FDs (§4.1),
//! * [`index`] — the violation-index subsystem: hash-equality partitioning
//!   plus sort-based inequality sweeps for near-linear general-DC detection,
//! * [`theta`] — the partitioned cartesian-product matrix and incremental
//!   partial theta-join used to detect general-DC violations (§4.2), with a
//!   per-rule choice between pairwise and indexed candidate enumeration,
//! * [`accuracy`] — Algorithm 2: error estimation, accuracy, and support,
//! * [`clean_dc`] — the `cleanσ` operator for general DCs with holistic,
//!   SAT-assisted candidate-range fixes (§4.2),
//! * [`clean_join`] — the `clean⋈` operator (§4.4),
//! * [`multirule`] — probability merging across overlapping rules (§4.3),
//! * [`repair`] — materialising probabilistic repairs into a deterministic
//!   relation (the `DaisyP` selection of Table 5 plus human-in-the-loop
//!   accepts),
//! * [`cost`] — the cost model and the incremental-vs-full decision (§5.2),
//! * [`planner`] — the cleaning-aware logical planner (§5.1),
//! * [`engine`] — [`engine::DaisyEngine`], the query-driven cleaning session
//!   that gradually turns a dirty dataset probabilistic (§6),
//! * [`world`] — [`world::WorldState`], the engine's cheaply cloneable
//!   (copy-on-write) bundle of tables and derived cleaning structures,
//! * [`session`] — the concurrent multi-session layer:
//!   [`session::EngineShared`] (the versioned canonical world) and
//!   [`session::CleaningSession`] (per-request copy-on-write handles with a
//!   serialized, optimistic commit path),
//! * [`durability`] — the bridge to the `daisy-wal` write-ahead log:
//!   commit records, checkpoint serialization, recovery, and the
//!   [`durability::WorldSnapshot`] time-travel view.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod clean_dc;
pub mod clean_join;
pub mod clean_select;
pub mod cost;
pub mod durability;
pub mod engine;
pub mod fd_index;
pub mod index;
pub mod multirule;
pub mod planner;
pub mod relaxation;
pub mod repair;
pub mod report;
pub mod session;
pub mod theta;
pub mod world;

pub use cost::{DetectionEstimate, DetectionMode, DetectionStrategy};
pub use durability::WorldSnapshot;
pub use engine::{DaisyEngine, QueryOutcome};
pub use fd_index::FdIndex;
pub use index::{MaintainedIndex, ViolationIndex};
pub use planner::{CleaningPlan, CleaningStep};
pub use repair::{
    accept_candidate, materialize_repairs, restore_originals, AppliedRepair, MaterializeOutcome,
    RepairPolicy,
};
pub use report::{CleaningReport, CleaningStrategy, SessionReport};
pub use session::{CleaningSession, CommitCause, CommitReceipt, EngineShared};
pub use world::WorldState;
