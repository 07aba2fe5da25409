//! # daisy-common
//!
//! Foundational types shared by every crate of the Daisy workspace:
//!
//! * [`value::Value`] — the dynamically typed scalar that cells hold,
//! * [`datatype::DataType`] — the logical type of a column,
//! * [`schema::Schema`] / [`schema::Field`] — relation schemas,
//! * [`ids`] — strongly typed identifiers (tuples, possible worlds, rules, columns),
//! * [`error::DaisyError`] — the common error type,
//! * [`config::DaisyConfig`] — engine configuration knobs.
//!
//! Daisy (Giannakopoulou et al., SIGMOD 2020) interleaves the cleaning of
//! denial-constraint violations with query execution.  The representation it
//! relies on — attribute-level uncertainty where a cell holds a set of
//! candidate values tagged with the possible world they belong to — is built
//! on top of these primitives in `daisy-storage`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod datatype;
pub mod error;
pub mod ids;
pub mod schema;
pub mod value;

pub use config::{
    DaisyConfig, DurabilityMode, ServiceFairness, CHECKPOINT_INTERVAL_ENV, COMMIT_LOG_ENV,
    DURABILITY_ENV, SERVICE_FAIRNESS_ENV, SERVICE_WORKERS_ENV, WORKER_THREADS_ENV,
};
pub use datatype::DataType;
pub use error::{DaisyError, Result};
pub use ids::{ColumnId, RuleId, TupleId, WorldId};
pub use schema::{Field, Schema};
pub use value::Value;
