//! # daisy
//!
//! Facade crate for the Daisy workspace: a Rust reproduction of *Cleaning
//! Denial Constraint Violations through Relaxation* (Giannakopoulou,
//! Karpathiotakis, Ailamaki — SIGMOD 2020).
//!
//! Daisy interleaves the cleaning of denial-constraint (DC) violations with
//! exploratory SP / SPJ / group-by queries: query results are *relaxed* with
//! the correlated tuples needed to detect and repair the violations that
//! affect them, erroneous cells are replaced by probabilistic candidate
//! fixes, and the changes are written back so the dataset becomes gradually
//! probabilistic.  A cost model switches from incremental to full cleaning
//! when the workload makes that cheaper.
//!
//! ## Quick start
//!
//! ```
//! use daisy::prelude::*;
//!
//! // A dirty table violating the FD zip → city (Table 1 of the paper).
//! let schema = Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
//! let table = Table::from_rows("cities", schema, vec![
//!     vec![Value::Int(9001), Value::from("Los Angeles")],
//!     vec![Value::Int(9001), Value::from("San Francisco")],
//!     vec![Value::Int(10001), Value::from("New York")],
//! ]).unwrap();
//!
//! let mut engine = DaisyEngine::with_defaults();
//! engine.register_table(table);
//! engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
//!
//! let outcome = engine.execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'").unwrap();
//! assert!(outcome.result.len() >= 1);
//! assert!(outcome.report.errors_repaired > 0);
//! ```
//!
//! ## Concurrent sessions
//!
//! A single [`DaisyEngine`](daisy_core::DaisyEngine) owns its tables
//! exclusively.  To serve many concurrent requests over the same data,
//! freeze it into a shared core and clean through cheap copy-on-write
//! sessions — or let the [`service`] scheduler do it for you:
//!
//! ```
//! use daisy::prelude::*;
//!
//! let schema = Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
//! let table = Table::from_rows("cities", schema, vec![
//!     vec![Value::Int(9001), Value::from("Los Angeles")],
//!     vec![Value::Int(9001), Value::from("San Francisco")],
//!     vec![Value::Int(10001), Value::from("New York")],
//! ]).unwrap();
//!
//! let mut engine = DaisyEngine::with_defaults();
//! engine.register_table(table);
//! engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
//!
//! let service = CleaningService::new(engine);
//! let report = service.run(&[
//!     ServiceRequest::new("a", "SELECT zip FROM cities WHERE city = 'Los Angeles'"),
//!     ServiceRequest::new("b", "SELECT city FROM cities WHERE zip = 9001"),
//! ]);
//! assert!(report.outcomes.iter().all(|o| o.outcome.is_ok()));
//! assert_eq!(report.final_version, 2);
//! ```

#![deny(missing_docs)]

pub use daisy_common as common;
pub use daisy_core as core;
pub use daisy_data as data;
pub use daisy_exec as exec;
pub use daisy_expr as expr;
pub use daisy_offline as offline;
pub use daisy_query as query;
pub use daisy_service as service;
pub use daisy_storage as storage;
pub use daisy_wal as wal;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use daisy_common::{
        DaisyConfig, DataType, DurabilityMode, Field, Schema, ServiceFairness, Value,
    };
    pub use daisy_core::{
        CleaningReport, CleaningSession, CleaningStrategy, CommitCause, CommitReceipt, DaisyEngine,
        EngineShared, QueryOutcome, WorldSnapshot,
    };
    pub use daisy_expr::{BoolExpr, ConstraintSet, DenialConstraint, FunctionalDependency};
    pub use daisy_query::{parse_query, Query};
    pub use daisy_service::{
        CleaningService, CommitCauseCounts, RequestOp, RequestOutcome, ServiceReport,
        ServiceRequest,
    };
    pub use daisy_storage::{Cell, Footprint, Table};
}
