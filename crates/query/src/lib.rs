//! # daisy-query
//!
//! The query layer of Daisy: a parser for the SP / SPJ / group-by query
//! template of the paper (§5), a logical plan, and probabilistic-aware
//! physical operators (scan, filter, project, hash equi-join with
//! candidate-overlap join keys, incremental join, group-by aggregation).
//!
//! The cleaning operators themselves (`cleanσ`, `clean⋈`) live in
//! `daisy-core`; they are woven between these query operators by the
//! cleaning-aware planner.  The physical operators here are deliberately
//! exposed as standalone functions over `(Schema, Vec<Tuple>)` so the
//! cleaning planner can re-use them when it splices extra stages (relaxation,
//! incremental join updates) into a plan.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod catalog;
pub mod executor;
pub mod logical;
pub mod parser;
pub mod physical;
pub mod result;

pub use ast::{AggregateFunc, Query, SelectItem};
pub use catalog::Catalog;
pub use executor::execute;
pub use logical::LogicalPlan;
pub use parser::parse_query;
pub use result::QueryResult;
