//! # daisy-storage
//!
//! In-memory relational storage with **attribute-level uncertainty**, the
//! representation Daisy (SIGMOD 2020) uses to make a dataset gradually
//! probabilistic as queries clean it:
//!
//! * [`cell::Cell`] — a cell is either a single determinate [`Value`] or a
//!   set of [`cell::Candidate`] fixes, each carrying a frequency-based
//!   probability and the possible-world identifier it belongs to,
//! * [`tuple::Tuple`] — a row with a stable [`TupleId`] and join lineage,
//!   its cells behind one shared copy-on-write slice ([`tuple::Cells`]) so a
//!   row clone is a pointer bump,
//! * [`table::Table`] — a named relation supporting in-place probabilistic
//!   updates via [`delta::Delta`]s,
//! * [`provenance::ProvenanceStore`] — per-cell provenance (original value,
//!   which rule produced which candidates, which tuples conflicted), enabling
//!   incremental merging when new rules appear (Table 7 of the paper),
//! * [`statistics::TableStatistics`] — the pre-computed group-by statistics
//!   Daisy uses to prune error checks and drive its cost model,
//! * [`snapshot::ColumnSnapshot`] — a typed, dictionary-encoded columnar
//!   view of a table's expected values and candidate sets, versioned by the
//!   table revision and maintained incrementally from [`delta::Delta`]s; the
//!   read path of the violation-detection kernels and the vectorized query
//!   operators,
//! * [`footprint::Footprint`] — per-session read/write sets at table /
//!   column / tuple-interval granularity, the conflict test of the
//!   optimistic commit protocol,
//! * [`csv`] — minimal CSV import/export.
//!
//! [`Value`]: daisy_common::Value
//! [`TupleId`]: daisy_common::TupleId

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell;
pub mod csv;
pub mod delta;
pub mod footprint;
pub mod provenance;
pub mod snapshot;
pub mod statistics;
pub mod table;
pub mod tuple;
pub mod worlds;

pub use cell::{Candidate, CandidateValue, Cell};
pub use delta::{CellUpdate, Delta, RowAppend};
pub use footprint::{Footprint, RowSet, TableFootprint};
pub use provenance::{CellProvenance, ProvenanceStore, RuleEvidence};
pub use snapshot::{
    CodedCandidate, CodedCandidates, ColumnCode, ColumnSnapshot, ConstProbe, StringDictionary,
};
pub use statistics::{
    key_statistics, ColumnStatistics, FdGroupStatistics, KeyStatistics, TableStatistics,
};
pub use table::Table;
pub use tuple::{Cells, Tuple};
pub use worlds::{
    enumerate_worlds, marginal_probability, most_probable_world, world_count, TupleWorld,
    WorldEnumeration,
};
