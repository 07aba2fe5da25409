//! The possible-world evaluation core of WHERE predicates.
//!
//! A [`BoolExpr`] is resolved **once** per filter call into a [`Resolved`]
//! tree — column names become ordinals, literal-to-literal comparisons are
//! folded — and then evaluated per [`Tuple`], comparing `&Value`s in place
//! ([`RowPredicate`](crate::scalar::RowPredicate) is the public handle).
//!
//! The semantics of §4 live here and nowhere else:
//!
//! * a tuple without a probabilistic referenced cell evaluates over
//!   expected values;
//! * when every candidate of every referenced probabilistic cell is an
//!   exact value, the possible worlds of those cells are enumerated (at
//!   most [`MAX_WORLDS`]) and the tuple qualifies iff one world satisfies
//!   the whole predicate — so `{3, 17}` does *not* satisfy
//!   `x >= 5 AND x <= 10`;
//! * range candidates (the holistic fixes of general DCs) or a world count
//!   beyond the bound switch the tuple to the optimistic rule: each
//!   column-to-literal comparison holds if *some* candidate of its cell
//!   could satisfy it, column-to-column comparisons read expected values.  It
//!   over-approximates but never loses a qualifying tuple.

use std::cmp::Ordering;

use daisy_common::{Result, Schema, Value};
use daisy_storage::{Candidate, CandidateValue, Cell, Tuple};

use crate::operators::ComparisonOp;
use crate::scalar::{BoolExpr, ScalarExpr};

/// Bound on the number of enumerated candidate combinations per tuple.
const MAX_WORLDS: usize = 4096;

/// A resolved [`BoolExpr`] node.
#[derive(Debug, Clone, PartialEq)]
enum Node<'e> {
    /// `TRUE`, or a literal-to-literal comparison folded at resolve time
    /// (no tuple can change the outcome).
    Const(bool),
    Not(Box<Node<'e>>),
    And(Box<Node<'e>>, Box<Node<'e>>),
    Or(Box<Node<'e>>, Box<Node<'e>>),
    /// `column op literal`; `literal op column` is stored flipped.
    ColumnLiteral {
        column: usize,
        op: ComparisonOp,
        literal: &'e Value,
    },
    /// `left op right` over two columns.
    Columns {
        left: usize,
        op: ComparisonOp,
        right: usize,
    },
}

/// A WHERE predicate resolved against a schema; literals borrow from the
/// expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Resolved<'e> {
    node: Node<'e>,
    /// Referenced column ordinals, deduplicated and sorted.
    columns: Vec<usize>,
}

/// The cells an enumerated world pins to one candidate each, innermost
/// first; a stack-allocated list, so enumeration never touches the heap.
struct Pinned<'p, 't> {
    column: usize,
    value: &'t Value,
    outer: Option<&'p Pinned<'p, 't>>,
}

/// The candidates of a cell; `None` when it is determinate.
fn candidates(tuple: &Tuple, column: usize) -> Option<&[Candidate]> {
    match &tuple.cells[column] {
        Cell::Determinate(_) => None,
        Cell::Probabilistic(candidates) => Some(candidates),
    }
}

impl<'e> Resolved<'e> {
    /// Resolves `expr` against `schema`.  Fails for unknown (or ambiguous)
    /// columns.
    pub(crate) fn resolve(expr: &'e BoolExpr, schema: &Schema) -> Result<Resolved<'e>> {
        let mut columns = Vec::new();
        let node = Self::compile(expr, schema, &mut columns)?;
        columns.sort_unstable();
        columns.dedup();
        Ok(Resolved { node, columns })
    }

    fn compile(expr: &'e BoolExpr, schema: &Schema, columns: &mut Vec<usize>) -> Result<Node<'e>> {
        let mut column = |name: &str| -> Result<usize> {
            let column = schema.index_of(name)?;
            columns.push(column);
            Ok(column)
        };
        Ok(match expr {
            BoolExpr::True => Node::Const(true),
            BoolExpr::Compare { left, op, right } => match (left, right) {
                (ScalarExpr::Literal(l), ScalarExpr::Literal(r)) => Node::Const(op.eval(l, r)),
                (ScalarExpr::Column(name), ScalarExpr::Literal(literal)) => Node::ColumnLiteral {
                    column: column(name)?,
                    op: *op,
                    literal,
                },
                (ScalarExpr::Literal(literal), ScalarExpr::Column(name)) => Node::ColumnLiteral {
                    column: column(name)?,
                    op: op.flip(),
                    literal,
                },
                (ScalarExpr::Column(l), ScalarExpr::Column(r)) => Node::Columns {
                    left: column(l)?,
                    op: *op,
                    right: column(r)?,
                },
            },
            BoolExpr::Not(e) => Node::Not(Box::new(Self::compile(e, schema, columns)?)),
            BoolExpr::And(a, b) => Node::And(
                Box::new(Self::compile(a, schema, columns)?),
                Box::new(Self::compile(b, schema, columns)?),
            ),
            BoolExpr::Or(a, b) => Node::Or(
                Box::new(Self::compile(a, schema, columns)?),
                Box::new(Self::compile(b, schema, columns)?),
            ),
        })
    }

    /// The referenced column ordinals (deduplicated, sorted).
    pub(crate) fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Evaluates over the expected value of each cell.  The caller checks
    /// that `tuple` has every referenced column.
    pub(crate) fn eval_expected(&self, tuple: &Tuple) -> bool {
        self.node.eval_world(tuple, None)
    }

    /// Evaluates with possible-world semantics (see the module docs).  The
    /// caller checks that `tuple` has every referenced column.
    pub(crate) fn eval_possible(&self, tuple: &Tuple) -> bool {
        let mut probabilistic = false;
        let mut worlds = 1usize;
        for &column in &self.columns {
            let Some(list) = candidates(tuple, column) else {
                continue;
            };
            probabilistic = true;
            if !list.iter().all(|c| c.value.as_exact().is_some()) {
                return self.node.eval_optimistic(tuple);
            }
            worlds = worlds.saturating_mul(list.len().max(1));
        }
        if !probabilistic {
            self.eval_expected(tuple)
        } else if worlds > MAX_WORLDS {
            self.node.eval_optimistic(tuple)
        } else {
            self.node.any_world_satisfies(tuple, &self.columns, None)
        }
    }
}

impl Node<'_> {
    /// Evaluates in one world: pinned cells read their pinned candidate,
    /// every other cell its expected value.
    fn eval_world<'t>(&self, tuple: &'t Tuple, pinned: Option<&Pinned<'_, 't>>) -> bool {
        let cell = |column: usize| {
            let mut world = pinned;
            while let Some(pin) = world {
                if pin.column == column {
                    return pin.value;
                }
                world = pin.outer;
            }
            tuple.cells[column].expected_ref()
        };
        match self {
            Node::Const(fixed) => *fixed,
            Node::Not(e) => !e.eval_world(tuple, pinned),
            Node::And(a, b) => a.eval_world(tuple, pinned) && b.eval_world(tuple, pinned),
            Node::Or(a, b) => a.eval_world(tuple, pinned) || b.eval_world(tuple, pinned),
            Node::ColumnLiteral {
                column,
                op,
                literal,
            } => op.eval(cell(*column), literal),
            Node::Columns { left, op, right } => op.eval(cell(*left), cell(*right)),
        }
    }

    /// Pins one exact candidate per probabilistic column of `remaining` in
    /// turn and reports whether any combination satisfies the predicate.
    fn any_world_satisfies<'t>(
        &self,
        tuple: &'t Tuple,
        remaining: &[usize],
        pinned: Option<&Pinned<'_, 't>>,
    ) -> bool {
        let Some((&column, rest)) = remaining.split_first() else {
            return self.eval_world(tuple, pinned);
        };
        let Some(list) = candidates(tuple, column) else {
            return self.any_world_satisfies(tuple, rest, pinned);
        };
        list.iter().any(|candidate| {
            let Some(value) = candidate.value.as_exact() else {
                unreachable!("worlds are enumerated over exact candidates only")
            };
            let pin = Pinned {
                column,
                value,
                outer: pinned,
            };
            self.any_world_satisfies(tuple, rest, Some(&pin))
        })
    }

    /// The optimistic per-comparison evaluation: a column-to-literal
    /// comparison holds if *some* candidate of the cell could satisfy it;
    /// column-to-column comparisons read expected values.
    fn eval_optimistic(&self, tuple: &Tuple) -> bool {
        match self {
            Node::Not(e) => !e.eval_optimistic(tuple),
            Node::And(a, b) => a.eval_optimistic(tuple) && b.eval_optimistic(tuple),
            Node::Or(a, b) => a.eval_optimistic(tuple) || b.eval_optimistic(tuple),
            Node::ColumnLiteral {
                column,
                op,
                literal,
            } => match &tuple.cells[*column] {
                Cell::Determinate(value) => op.eval(value, literal),
                Cell::Probabilistic(list) => list
                    .iter()
                    .any(|c| domain_possibly_satisfies(&c.value, *op, literal)),
            },
            Node::Const(_) | Node::Columns { .. } => self.eval_world(tuple, None),
        }
    }
}

/// `true` if the domain contains some value satisfying `op literal`.  Range
/// domains are treated as dense, and their bounds compare in the total
/// order (NULL first) like `Value`'s `<`.
fn domain_possibly_satisfies(domain: &CandidateValue, op: ComparisonOp, literal: &Value) -> bool {
    let lt = |a: &Value, b: &Value| a.total_cmp(b) == Ordering::Less;
    let le = |a: &Value, b: &Value| a.total_cmp(b) != Ordering::Greater;
    match domain {
        CandidateValue::Exact(value) => op.eval(value, literal),
        CandidateValue::LessThan(bound) => match op {
            ComparisonOp::Eq | ComparisonOp::Gt | ComparisonOp::Ge => lt(literal, bound),
            ComparisonOp::Neq | ComparisonOp::Lt | ComparisonOp::Le => true,
        },
        CandidateValue::GreaterThan(bound) => match op {
            ComparisonOp::Eq | ComparisonOp::Lt | ComparisonOp::Le => lt(bound, literal),
            ComparisonOp::Neq | ComparisonOp::Gt | ComparisonOp::Ge => true,
        },
        CandidateValue::Between(low, high) => match op {
            ComparisonOp::Eq => le(low, literal) && le(literal, high),
            ComparisonOp::Neq => true,
            ComparisonOp::Lt => lt(low, literal),
            ComparisonOp::Le => le(low, literal),
            ComparisonOp::Gt => lt(literal, high),
            ComparisonOp::Ge => le(literal, high),
        },
    }
}
