//! # daisy-expr
//!
//! The rule and expression layer of Daisy:
//!
//! * [`scalar::ScalarExpr`] / [`scalar::BoolExpr`] — filter expressions over
//!   single tuples with the paper's probabilistic semantics ("a tuple
//!   qualifies iff at least one candidate value qualifies", §4),
//! * [`constraint::DenialConstraint`] — universally quantified denial
//!   constraints `∀ t1,…,tk ¬(p1 ∧ … ∧ pm)` with arbitrary comparison
//!   predicates between tuple attributes,
//! * [`constraint::FunctionalDependency`] — the FD special case `X → Y`,
//!   with conversion to/from two-tuple DCs,
//! * [`resolved::ResolvedPredicate`] — DC predicates resolved once to
//!   column ordinals, the residual check of the violation-index kernels,
//! * [`violation::Violation`] — detected constraint violations,
//! * [`sat`] — a small DPLL SAT solver used to decide which subset of DC
//!   atoms must invert their condition to repair a multi-atom violation
//!   (§4.2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constraint;
pub mod operators;
mod possible;
pub mod resolved;
pub mod sat;
pub mod scalar;
pub mod violation;

pub use constraint::{
    ConstraintSet, DcPredicate, DenialConstraint, FunctionalDependency, IndexPlan, Operand,
    PredicateKind,
};
pub use operators::ComparisonOp;
pub use resolved::{resolve_predicates, ResolvedPredicate};
pub use sat::{Clause, Literal, SatSolver};
pub use scalar::{BoolExpr, RowPredicate, ScalarExpr};
pub use violation::Violation;
