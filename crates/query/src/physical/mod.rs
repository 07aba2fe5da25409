//! Physical operators.
//!
//! Every operator is a standalone function over `(Schema, &[Tuple])` so that
//! the cleaning-aware planner of `daisy-core` can interleave its own
//! operators (relaxation, cleaning, incremental join updates) between them.
//! Operators preserve tuple identity and lineage wherever possible.

pub mod aggregate;
pub mod filter;
pub mod join;
pub mod project;

pub use aggregate::{aggregate, AggregateSpec};
pub use filter::{filter_tuples, PredicateMode};
pub use join::{hash_join, validate_join_keys, JoinOutput};
pub use project::project;
