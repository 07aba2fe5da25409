//! The possible-world evaluation core of WHERE predicates.
//!
//! A [`BoolExpr`] is resolved **once** per filter call into a [`Resolved`]
//! tree — column names become ordinals, literal-to-literal comparisons are
//! folded — and then evaluated per row through the [`Row`] trait, which says
//! where a row's operands come from: `&Value`s of a
//! [`Tuple`](daisy_storage::Tuple) for the row kernel
//! ([`RowPredicate`](crate::scalar::RowPredicate)), snapshot codes for the
//! coded kernel
//! ([`CodedScalarPredicate`](crate::columnar::CodedScalarPredicate)).
//!
//! The semantics of §4 live here and nowhere else:
//!
//! * a row without a probabilistic referenced cell evaluates over expected
//!   values;
//! * when every candidate of every referenced probabilistic cell is an
//!   exact value, the possible worlds of those cells are enumerated (at
//!   most [`MAX_WORLDS`]) and the row qualifies iff one world satisfies the
//!   whole predicate — so `{3, 17}` does *not* satisfy `x >= 5 AND x <= 10`;
//! * range candidates (the holistic fixes of general DCs) or a world count
//!   beyond the bound switch the row to the optimistic rule: each
//!   column-to-literal comparison holds if *some* candidate of its cell
//!   could satisfy it, column-to-column comparisons read expected values.  It
//!   over-approximates but never loses a qualifying row.
//!
//! Both kernels therefore agree by construction — they differ only in the
//! [`Scalar`] they compare, and both scalars order like
//! [`Value::total_cmp`] and go through [`ComparisonOp::eval_parts`].

use std::cmp::Ordering;

use daisy_common::{Result, Schema, Value};

use crate::operators::ComparisonOp;
use crate::scalar::{BoolExpr, ScalarExpr};

/// Bound on the number of enumerated candidate combinations per row.
const MAX_WORLDS: usize = 4096;

/// An operand value the core compares: `&Value` or a snapshot code.
pub(crate) trait Scalar: Copy {
    /// `true` for SQL NULL.
    fn is_null(self) -> bool;

    /// Total order mirroring [`Value::total_cmp`] (NULL sorts first).
    fn total_cmp(self, other: Self) -> Ordering;
}

impl Scalar for &Value {
    fn is_null(self) -> bool {
        Value::is_null(self)
    }

    fn total_cmp(self, other: Self) -> Ordering {
        Value::total_cmp(self, other)
    }
}

/// A candidate value domain over [`Scalar`]s — `CandidateValue` without the
/// ownership.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Domain<S> {
    /// A concrete value.
    Exact(S),
    /// Any value strictly less than the bound.
    LessThan(S),
    /// Any value strictly greater than the bound.
    GreaterThan(S),
    /// Any value in the closed interval.
    Between(S, S),
}

/// The candidates of one probabilistic cell: a `Copy` handle fetched once
/// per cell and world-enumeration level.
pub(crate) trait CandidateList: Copy {
    /// What the candidates' values are.
    type Scalar: Scalar;

    /// Number of candidates.
    fn len(self) -> usize;

    /// `true` when every candidate is an exact value.
    fn all_exact(self) -> bool;

    /// The `index`-th candidate.
    fn get(self, index: usize) -> Domain<Self::Scalar>;
}

/// One row as the core reads it.
pub(crate) trait Row {
    /// How the resolved predicate stores a literal for this kind of row.
    type Literal;
    /// What comparisons run on.
    type Scalar: Scalar;
    /// The candidates of one of the row's probabilistic cells.
    type Candidates: CandidateList<Scalar = Self::Scalar>;

    /// A predicate literal as a scalar.
    fn literal(&self, literal: &Self::Literal) -> Self::Scalar;

    /// The expected (most probable) value of a cell.
    fn expected(&self, column: usize) -> Self::Scalar;

    /// The candidates of a cell; `None` when it is determinate.
    fn candidates(&self, column: usize) -> Option<Self::Candidates>;
}

/// A resolved [`BoolExpr`] node.
#[derive(Debug, Clone, PartialEq)]
enum Node<L> {
    /// `TRUE`, or a literal-to-literal comparison folded at resolve time
    /// (snapshot probes cannot order two strings absent from the
    /// dictionary, and no row can change the outcome).
    Const(bool),
    Not(Box<Node<L>>),
    And(Box<Node<L>>, Box<Node<L>>),
    Or(Box<Node<L>>, Box<Node<L>>),
    /// `column op literal`; `literal op column` is stored flipped.
    ColumnLiteral {
        column: usize,
        op: ComparisonOp,
        literal: L,
    },
    /// `left op right` over two columns.
    Columns {
        left: usize,
        op: ComparisonOp,
        right: usize,
    },
}

/// A WHERE predicate resolved against a schema, generic over how literals
/// are stored (`&Value` for tuples, dictionary probes for snapshots).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Resolved<L> {
    node: Node<L>,
    /// Referenced column ordinals, deduplicated and sorted.
    columns: Vec<usize>,
}

/// The cells an enumerated world pins to one candidate each, innermost
/// first; a stack-allocated list, so enumeration never touches the heap.
struct Pinned<'p, S> {
    column: usize,
    value: S,
    outer: Option<&'p Pinned<'p, S>>,
}

fn compare<S: Scalar>(op: ComparisonOp, left: S, right: S) -> bool {
    op.eval_parts(left.is_null(), right.is_null(), || left.total_cmp(right))
}

impl<L> Resolved<L> {
    /// Resolves `expr` against `schema`; `literal` converts each literal
    /// operand.  Fails for unknown (or ambiguous) columns.
    pub(crate) fn resolve<'e>(
        expr: &'e BoolExpr,
        schema: &Schema,
        literal: impl Fn(&'e Value) -> L,
    ) -> Result<Resolved<L>> {
        let mut columns = Vec::new();
        let node = Self::compile(expr, schema, &literal, &mut columns)?;
        columns.sort_unstable();
        columns.dedup();
        Ok(Resolved { node, columns })
    }

    fn compile<'e>(
        expr: &'e BoolExpr,
        schema: &Schema,
        literal: &impl Fn(&'e Value) -> L,
        columns: &mut Vec<usize>,
    ) -> Result<Node<L>> {
        let mut column = |name: &str| -> Result<usize> {
            let column = schema.index_of(name)?;
            columns.push(column);
            Ok(column)
        };
        Ok(match expr {
            BoolExpr::True => Node::Const(true),
            BoolExpr::Compare { left, op, right } => match (left, right) {
                (ScalarExpr::Literal(l), ScalarExpr::Literal(r)) => Node::Const(op.eval(l, r)),
                (ScalarExpr::Column(name), ScalarExpr::Literal(value)) => Node::ColumnLiteral {
                    column: column(name)?,
                    op: *op,
                    literal: literal(value),
                },
                (ScalarExpr::Literal(value), ScalarExpr::Column(name)) => Node::ColumnLiteral {
                    column: column(name)?,
                    op: op.flip(),
                    literal: literal(value),
                },
                (ScalarExpr::Column(l), ScalarExpr::Column(r)) => Node::Columns {
                    left: column(l)?,
                    op: *op,
                    right: column(r)?,
                },
            },
            BoolExpr::Not(e) => Node::Not(Box::new(Self::compile(e, schema, literal, columns)?)),
            BoolExpr::And(a, b) => Node::And(
                Box::new(Self::compile(a, schema, literal, columns)?),
                Box::new(Self::compile(b, schema, literal, columns)?),
            ),
            BoolExpr::Or(a, b) => Node::Or(
                Box::new(Self::compile(a, schema, literal, columns)?),
                Box::new(Self::compile(b, schema, literal, columns)?),
            ),
        })
    }

    /// The referenced column ordinals (deduplicated, sorted).
    pub(crate) fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Evaluates over the expected value of each cell.
    pub(crate) fn eval_expected<R: Row<Literal = L>>(&self, row: &R) -> bool {
        self.node.eval_world(row, None)
    }

    /// Evaluates with possible-world semantics (see the module docs).
    pub(crate) fn eval_possible<R: Row<Literal = L>>(&self, row: &R) -> bool {
        let mut probabilistic = false;
        let mut worlds = 1usize;
        for &column in &self.columns {
            let Some(candidates) = row.candidates(column) else {
                continue;
            };
            probabilistic = true;
            if !candidates.all_exact() {
                return self.node.eval_optimistic(row);
            }
            worlds = worlds.saturating_mul(candidates.len().max(1));
        }
        if !probabilistic {
            self.eval_expected(row)
        } else if worlds > MAX_WORLDS {
            self.node.eval_optimistic(row)
        } else {
            self.node.any_world_satisfies(row, &self.columns, None)
        }
    }
}

impl<L> Node<L> {
    /// Evaluates in one world: pinned cells read their pinned candidate,
    /// every other cell its expected value.
    fn eval_world<R: Row<Literal = L>>(
        &self,
        row: &R,
        pinned: Option<&Pinned<'_, R::Scalar>>,
    ) -> bool {
        let cell = |column: usize| {
            let mut world = pinned;
            while let Some(pin) = world {
                if pin.column == column {
                    return pin.value;
                }
                world = pin.outer;
            }
            row.expected(column)
        };
        match self {
            Node::Const(fixed) => *fixed,
            Node::Not(e) => !e.eval_world(row, pinned),
            Node::And(a, b) => a.eval_world(row, pinned) && b.eval_world(row, pinned),
            Node::Or(a, b) => a.eval_world(row, pinned) || b.eval_world(row, pinned),
            Node::ColumnLiteral {
                column,
                op,
                literal,
            } => compare(*op, cell(*column), row.literal(literal)),
            Node::Columns { left, op, right } => compare(*op, cell(*left), cell(*right)),
        }
    }

    /// Pins one exact candidate per probabilistic column of `remaining` in
    /// turn and reports whether any combination satisfies the predicate.
    fn any_world_satisfies<R: Row<Literal = L>>(
        &self,
        row: &R,
        remaining: &[usize],
        pinned: Option<&Pinned<'_, R::Scalar>>,
    ) -> bool {
        let Some((&column, rest)) = remaining.split_first() else {
            return self.eval_world(row, pinned);
        };
        let Some(candidates) = row.candidates(column) else {
            return self.any_world_satisfies(row, rest, pinned);
        };
        (0..candidates.len()).any(|i| {
            let Domain::Exact(value) = candidates.get(i) else {
                unreachable!("worlds are enumerated over exact candidates only")
            };
            let pin = Pinned {
                column,
                value,
                outer: pinned,
            };
            self.any_world_satisfies(row, rest, Some(&pin))
        })
    }

    /// The optimistic per-comparison evaluation: a column-to-literal
    /// comparison holds if *some* candidate of the cell could satisfy it;
    /// column-to-column comparisons read expected values.
    fn eval_optimistic<R: Row<Literal = L>>(&self, row: &R) -> bool {
        match self {
            Node::Not(e) => !e.eval_optimistic(row),
            Node::And(a, b) => a.eval_optimistic(row) && b.eval_optimistic(row),
            Node::Or(a, b) => a.eval_optimistic(row) || b.eval_optimistic(row),
            Node::ColumnLiteral {
                column,
                op,
                literal,
            } => {
                let literal = row.literal(literal);
                match row.candidates(*column) {
                    None => compare(*op, row.expected(*column), literal),
                    Some(candidates) => (0..candidates.len())
                        .any(|i| domain_possibly_satisfies(candidates.get(i), *op, literal)),
                }
            }
            Node::Const(_) | Node::Columns { .. } => self.eval_world(row, None),
        }
    }
}

/// `true` if the domain contains some value satisfying `op literal`.  Range
/// domains are treated as dense, and their bounds compare in the total
/// order (NULL first) like `Value`'s `<`.
fn domain_possibly_satisfies<S: Scalar>(domain: Domain<S>, op: ComparisonOp, literal: S) -> bool {
    let lt = |a: S, b: S| a.total_cmp(b) == Ordering::Less;
    let le = |a: S, b: S| a.total_cmp(b) != Ordering::Greater;
    match domain {
        Domain::Exact(value) => compare(op, value, literal),
        Domain::LessThan(bound) => match op {
            ComparisonOp::Eq | ComparisonOp::Gt | ComparisonOp::Ge => lt(literal, bound),
            ComparisonOp::Neq | ComparisonOp::Lt | ComparisonOp::Le => true,
        },
        Domain::GreaterThan(bound) => match op {
            ComparisonOp::Eq | ComparisonOp::Lt | ComparisonOp::Le => lt(bound, literal),
            ComparisonOp::Neq | ComparisonOp::Gt | ComparisonOp::Ge => true,
        },
        Domain::Between(low, high) => match op {
            ComparisonOp::Eq => le(low, literal) && le(literal, high),
            ComparisonOp::Neq => true,
            ComparisonOp::Lt => lt(low, literal),
            ComparisonOp::Le => le(low, literal),
            ComparisonOp::Gt => lt(literal, high),
            ComparisonOp::Ge => le(literal, high),
        },
    }
}
