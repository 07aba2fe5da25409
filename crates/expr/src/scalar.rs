//! Filter expressions over single tuples.
//!
//! These expressions implement the WHERE clause of the paper's query
//! template (`<col><op><val>` combined with AND/OR).  Evaluation has two
//! modes:
//!
//! * [`BoolExpr::eval_expected`] — evaluates over the expected
//!   (most-probable) value of each cell; this is what a query over the
//!   *dirty* data sees before cleaning.
//! * [`BoolExpr::eval_possible`] — the probabilistic semantics of §4: the
//!   tuple qualifies if at least one candidate value of each referenced cell
//!   could satisfy the predicate.  Daisy uses this after cleaning so that
//!   tuples whose candidate fixes may fall in the query range are retained
//!   (e.g. Table 3's `{9001 50%, 10001 50%}` tuple qualifies `zip = 9001`).
//!
//! Both resolve the expression against the schema first; a caller that
//! evaluates one expression over many tuples resolves it once into a
//! [`RowPredicate`] and evaluates that.

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use daisy_common::{DaisyError, Result, Schema, Value};
use daisy_storage::Tuple;

use crate::operators::ComparisonOp;
use crate::possible::Resolved;

/// A scalar expression: a column reference or a literal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalarExpr {
    /// A column referenced by name.
    Column(String),
    /// A constant.
    Literal(Value),
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Column(name.into())
    }

    /// Shorthand for a literal.
    pub fn lit(value: impl Into<Value>) -> Self {
        ScalarExpr::Literal(value.into())
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
        }
    }
}

/// A boolean filter expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoolExpr {
    /// `column op literal` (or `column op column`).
    Compare {
        /// Left operand.
        left: ScalarExpr,
        /// Comparison operator.
        op: ComparisonOp,
        /// Right operand.
        right: ScalarExpr,
    },
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Always true (used for queries without a WHERE clause).
    True,
}

impl BoolExpr {
    /// Builds `column op literal`.
    pub fn cmp(column: impl Into<String>, op: ComparisonOp, value: impl Into<Value>) -> Self {
        BoolExpr::Compare {
            left: ScalarExpr::Column(column.into()),
            op,
            right: ScalarExpr::Literal(value.into()),
        }
    }

    /// Builds `column = literal`.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        BoolExpr::cmp(column, ComparisonOp::Eq, value)
    }

    /// Builds `low <= column AND column <= high`.
    pub fn between(
        column: impl Into<String> + Clone,
        low: impl Into<Value>,
        high: impl Into<Value>,
    ) -> Self {
        BoolExpr::And(
            Box::new(BoolExpr::cmp(column.clone(), ComparisonOp::Ge, low)),
            Box::new(BoolExpr::cmp(column, ComparisonOp::Le, high)),
        )
    }

    /// Conjunction helper.
    pub fn and(self, other: BoolExpr) -> Self {
        BoolExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: BoolExpr) -> Self {
        BoolExpr::Or(Box::new(self), Box::new(other))
    }

    /// The set of column names referenced by the expression.
    pub fn columns(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut HashSet<String>) {
        match self {
            BoolExpr::Compare { left, right, .. } => {
                if let ScalarExpr::Column(c) = left {
                    out.insert(c.clone());
                }
                if let ScalarExpr::Column(c) = right {
                    out.insert(c.clone());
                }
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            BoolExpr::Not(e) => e.collect_columns(out),
            BoolExpr::True => {}
        }
    }

    /// Evaluates over the expected (most probable) value of each cell.
    /// Fails when any referenced column is unknown to `schema`, whether or
    /// not its comparison would have been reached.
    pub fn eval_expected(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        RowPredicate::resolve(self, schema)?.eval_expected(tuple)
    }

    /// Evaluates with possible-world semantics (§4): the tuple qualifies iff
    /// there is an assignment of one candidate value per referenced
    /// probabilistic cell under which the whole predicate is true.
    ///
    /// For exact (point) candidates the possible worlds of the referenced
    /// cells are enumerated (their number is bounded); this makes
    /// conjunctions over the same cell sound — `{3, 17}` does *not* satisfy
    /// `x >= 5 AND x <= 10` even though each conjunct is satisfied by some
    /// candidate.  When a referenced cell carries range candidates (the
    /// holistic fixes of general DCs) or the world count explodes, evaluation
    /// falls back to the optimistic per-comparison check, which
    /// over-approximates but never loses qualifying tuples.
    pub fn eval_possible(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        RowPredicate::resolve(self, schema)?.eval_possible(tuple)
    }

    /// Extracts, when the expression is a simple range over `column`
    /// (conjunctions of comparisons against literals), the implied closed
    /// interval `[low, high]`.  Returns `None` when the expression does not
    /// constrain the column or is not a pure conjunction.
    ///
    /// Used by the theta-join partial-matrix construction (§4.2) to know
    /// which value range a query touches.
    pub fn range_of(&self, column: &str) -> Option<(Option<Value>, Option<Value>)> {
        match self {
            BoolExpr::Compare {
                left: ScalarExpr::Column(c),
                op,
                right: ScalarExpr::Literal(v),
            } if column_matches(c, column) => match op {
                ComparisonOp::Eq => Some((Some(v.clone()), Some(v.clone()))),
                ComparisonOp::Ge => Some((Some(v.clone()), None)),
                ComparisonOp::Gt => Some((Some(v.clone()), None)),
                ComparisonOp::Le => Some((None, Some(v.clone()))),
                ComparisonOp::Lt => Some((None, Some(v.clone()))),
                ComparisonOp::Neq => None,
            },
            BoolExpr::Compare {
                left: ScalarExpr::Literal(v),
                op,
                right: ScalarExpr::Column(c),
            } if column_matches(c, column) => BoolExpr::Compare {
                left: ScalarExpr::Column(c.clone()),
                op: op.flip(),
                right: ScalarExpr::Literal(v.clone()),
            }
            .range_of(column),
            BoolExpr::And(a, b) => {
                let ra = a.range_of(column);
                let rb = b.range_of(column);
                match (ra, rb) {
                    (Some((lo_a, hi_a)), Some((lo_b, hi_b))) => Some((
                        merge_bound(lo_a, lo_b, true),
                        merge_bound(hi_a, hi_b, false),
                    )),
                    (Some(r), None) | (None, Some(r)) => Some(r),
                    (None, None) => None,
                }
            }
            _ => None,
        }
    }
}

fn column_matches(expr_col: &str, target: &str) -> bool {
    expr_col == target
        || expr_col.ends_with(&format!(".{target}"))
        || target.ends_with(&format!(".{expr_col}"))
}

fn merge_bound(a: Option<Value>, b: Option<Value>, is_lower: bool) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if is_lower {
            Value::max_of(x, y)
        } else {
            Value::min_of(x, y)
        }),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// A [`BoolExpr`] resolved against a schema for evaluation over many
/// tuples: column names are looked up once, each evaluation reads cells by
/// ordinal and compares `&Value`s in place — nothing is allocated per
/// tuple.  The possible-world core it runs lives in
/// `daisy-expr/src/possible.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPredicate<'e> {
    resolved: Resolved<'e>,
}

impl<'e> RowPredicate<'e> {
    /// Resolves the expression's column references against `schema`.  Fails
    /// for unknown (or ambiguous) columns.
    pub fn resolve(expr: &'e BoolExpr, schema: &Schema) -> Result<RowPredicate<'e>> {
        Ok(RowPredicate {
            resolved: Resolved::resolve(expr, schema)?,
        })
    }

    /// Fails when `tuple` is shorter than the schema the predicate was
    /// resolved against.
    fn check_arity(&self, tuple: &Tuple) -> Result<()> {
        match self.resolved.columns().last() {
            Some(&column) if column >= tuple.arity() => Err(DaisyError::Execution(format!(
                "cell index {column} out of bounds"
            ))),
            _ => Ok(()),
        }
    }

    /// See [`BoolExpr::eval_expected`].
    pub fn eval_expected(&self, tuple: &Tuple) -> Result<bool> {
        self.check_arity(tuple)?;
        Ok(self.resolved.eval_expected(tuple))
    }

    /// See [`BoolExpr::eval_possible`].
    pub fn eval_possible(&self, tuple: &Tuple) -> Result<bool> {
        self.check_arity(tuple)?;
        Ok(self.resolved.eval_possible(tuple))
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::True => write!(f, "TRUE"),
            BoolExpr::Compare { left, op, right } => write!(f, "{left} {op} {right}"),
            BoolExpr::And(a, b) => write!(f, "({a} AND {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            BoolExpr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, TupleId};
    use daisy_storage::{Candidate, Cell};

    fn schema() -> Schema {
        Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap()
    }

    fn clean_tuple() -> Tuple {
        Tuple::from_values(
            TupleId::new(0),
            vec![Value::Int(9001), Value::from("Los Angeles")],
        )
    }

    fn dirty_tuple() -> Tuple {
        // zip is probabilistic: {9001 50%, 10001 50%}
        Tuple::from_cells(
            TupleId::new(1),
            vec![
                Cell::probabilistic(vec![
                    Candidate::exact(Value::Int(9001), 0.5),
                    Candidate::exact(Value::Int(10001), 0.5),
                ]),
                Cell::Determinate(Value::from("San Francisco")),
            ],
        )
    }

    #[test]
    fn expected_evaluation_over_clean_tuple() {
        let s = schema();
        let t = clean_tuple();
        assert!(BoolExpr::eq("zip", 9001).eval_expected(&s, &t).unwrap());
        assert!(!BoolExpr::eq("zip", 10001).eval_expected(&s, &t).unwrap());
        assert!(BoolExpr::eq("city", "Los Angeles")
            .and(BoolExpr::cmp("zip", ComparisonOp::Lt, 10000))
            .eval_expected(&s, &t)
            .unwrap());
        assert!(BoolExpr::eq("city", "X")
            .or(BoolExpr::eq("zip", 9001))
            .eval_expected(&s, &t)
            .unwrap());
        assert!(BoolExpr::True.eval_expected(&s, &t).unwrap());
        assert!(!BoolExpr::Not(Box::new(BoolExpr::True))
            .eval_expected(&s, &t)
            .unwrap());
    }

    #[test]
    fn possible_evaluation_keeps_candidate_worlds() {
        // Table 3 of the paper: the {9001, 10001} tuple qualifies zip = 9001.
        let s = schema();
        let t = dirty_tuple();
        assert!(BoolExpr::eq("zip", 9001).eval_possible(&s, &t).unwrap());
        assert!(BoolExpr::eq("zip", 10001).eval_possible(&s, &t).unwrap());
        assert!(!BoolExpr::eq("zip", 10002).eval_possible(&s, &t).unwrap());
        // Under expected-value semantics only the most probable (first max)
        // candidate is visible.
        let visible = BoolExpr::eq("zip", 9001).eval_expected(&s, &t).unwrap()
            ^ BoolExpr::eq("zip", 10001).eval_expected(&s, &t).unwrap();
        assert!(
            visible,
            "exactly one world is visible to expected evaluation"
        );
    }

    #[test]
    fn possible_range_predicates_consider_all_candidates() {
        let s = schema();
        let t = dirty_tuple();
        assert!(BoolExpr::cmp("zip", ComparisonOp::Ge, 10000)
            .eval_possible(&s, &t)
            .unwrap());
        assert!(BoolExpr::cmp("zip", ComparisonOp::Lt, 9500)
            .eval_possible(&s, &t)
            .unwrap());
        assert!(!BoolExpr::cmp("zip", ComparisonOp::Gt, 20000)
            .eval_possible(&s, &t)
            .unwrap());
        assert!(BoolExpr::cmp("zip", ComparisonOp::Neq, 9001)
            .eval_possible(&s, &t)
            .unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        let t = clean_tuple();
        assert!(BoolExpr::eq("state", "CA").eval_expected(&s, &t).is_err());
        assert!(BoolExpr::eq("state", "CA").eval_possible(&s, &t).is_err());
    }

    #[test]
    fn possible_conjunctions_over_one_cell_need_a_single_world() {
        // A zip cell {9001, 10001} must NOT satisfy 9500 <= zip <= 9900: no
        // single candidate lies in the range even though each bound is
        // individually satisfiable by some candidate.
        let s = schema();
        let t = dirty_tuple();
        assert!(!BoolExpr::between("zip", 9500, 9900)
            .eval_possible(&s, &t)
            .unwrap());
        assert!(BoolExpr::between("zip", 9000, 9500)
            .eval_possible(&s, &t)
            .unwrap());
        assert!(BoolExpr::between("zip", 10000, 11000)
            .eval_possible(&s, &t)
            .unwrap());
        // Disjunctions may mix worlds: zip = 9001 OR zip = 10001 holds.
        assert!(BoolExpr::eq("zip", 9001)
            .or(BoolExpr::eq("zip", 10001))
            .eval_possible(&s, &t)
            .unwrap());
        // A conjunction across two different cells picks one world per cell.
        assert!(BoolExpr::eq("zip", 10001)
            .and(BoolExpr::eq("city", "San Francisco"))
            .eval_possible(&s, &t)
            .unwrap());
    }

    #[test]
    fn possible_evaluation_falls_back_for_range_candidates() {
        // Range candidates (general-DC fixes) use the optimistic evaluation.
        let s = Schema::from_pairs(&[("salary", DataType::Int)]).unwrap();
        let t = Tuple::from_cells(
            TupleId::new(0),
            vec![Cell::probabilistic(vec![
                Candidate::range(
                    daisy_storage::CandidateValue::LessThan(Value::Int(2000)),
                    0.5,
                ),
                Candidate::exact(Value::Int(3000), 0.5),
            ])],
        );
        assert!(BoolExpr::between("salary", 1000, 1500)
            .eval_possible(&s, &t)
            .unwrap());
        assert!(!BoolExpr::cmp("salary", ComparisonOp::Gt, 5000)
            .eval_possible(&s, &t)
            .unwrap());
    }

    #[test]
    fn columns_are_collected() {
        let e = BoolExpr::eq("zip", 9001).and(BoolExpr::eq("city", "LA"));
        let cols = e.columns();
        assert!(cols.contains("zip") && cols.contains("city"));
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn range_extraction_from_conjunctions() {
        let e = BoolExpr::between("zip", 1000, 2000);
        assert_eq!(
            e.range_of("zip"),
            Some((Some(Value::Int(1000)), Some(Value::Int(2000))))
        );
        assert_eq!(e.range_of("city"), None);

        let eq = BoolExpr::eq("zip", 9001);
        assert_eq!(
            eq.range_of("zip"),
            Some((Some(Value::Int(9001)), Some(Value::Int(9001))))
        );

        // Intersection of two constraints on the same column.
        let narrow =
            BoolExpr::cmp("zip", ComparisonOp::Ge, 1500).and(BoolExpr::between("zip", 1000, 2000));
        assert_eq!(
            narrow.range_of("zip"),
            Some((Some(Value::Int(1500)), Some(Value::Int(2000))))
        );

        // Disjunctions do not yield a single range.
        let disj = BoolExpr::eq("zip", 1).or(BoolExpr::eq("zip", 2));
        assert_eq!(disj.range_of("zip"), None);
    }

    #[test]
    fn qualified_columns_match_in_range_extraction() {
        let e = BoolExpr::between("lineorder.orderkey", 10, 20);
        assert!(e.range_of("orderkey").is_some());
        let e2 = BoolExpr::between("orderkey", 10, 20);
        assert!(e2.range_of("lineorder.orderkey").is_some());
    }

    #[test]
    fn display_forms() {
        let e = BoolExpr::eq("city", "LA").and(BoolExpr::cmp("zip", ComparisonOp::Le, 99));
        assert_eq!(e.to_string(), "(city = 'LA' AND zip <= 99)");
    }
}
