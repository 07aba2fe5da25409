//! Columnar predicate evaluation: DC and query predicates over snapshot
//! column codes.
//!
//! The row path evaluates a [`DcPredicate`] by resolving each operand's
//! column name through the schema and cloning a
//! [`Value`](daisy_common::Value) out of a tuple — per candidate pair, per
//! predicate.  When detection runs over a
//! [`ColumnSnapshot`], a predicate is instead resolved **once** into a
//! [`CodedPredicate`]: column names become column indices, constants become
//! dictionary-resolved [`ConstProbe`]s, and each evaluation is a pair of
//! array reads plus a scalar comparison.
//!
//! The same trick applies to query WHERE clauses: a [`BoolExpr`] resolves
//! into a [`CodedScalarPredicate`] — one coded comparison tree evaluated
//! per *row* instead of per tuple pair — which is what the vectorized
//! filter kernel of `daisy-query` runs over selection vectors, under
//! expected-value and possible-world semantics alike (the snapshot carries
//! every relaxed cell's candidates in coded form).
//!
//! Semantics are byte-identical with the row path by construction: the
//! NULL rules come from the shared [`ComparisonOp::eval_parts`] core, and
//! [`ColumnCode`]'s total order mirrors
//! [`Value::total_cmp`](daisy_common::Value::total_cmp) (including
//! NaN-sorts-last and int/float coercion).
//!
//! A `CodedPredicate` / `CodedScalarPredicate` borrows nothing but is only
//! meaningful against the snapshot it was resolved for (probes cache
//! dictionary ranks); resolve per pass, immediately before use.

use std::cmp::Ordering;

use daisy_common::{DaisyError, Result, Schema};
use daisy_storage::{CodedCandidate, CodedCandidates, ColumnCode, ColumnSnapshot, ConstProbe};

use crate::constraint::{DcPredicate, Operand};
use crate::operators::ComparisonOp;
use crate::possible::{CandidateList, Domain, Resolved, Row, Scalar};
use crate::scalar::BoolExpr;

/// One operand of a [`CodedPredicate`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum CodedOperand {
    /// An attribute of the `tuple`-th bound tuple, resolved to its column.
    Cell {
        /// 0 for `t1`, 1 for `t2`.
        tuple: usize,
        /// Column index in the snapshot.
        column: usize,
    },
    /// A constant, resolved against the snapshot dictionary.
    Const(ConstProbe),
}

/// A DC predicate resolved for evaluation over one snapshot's column codes.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedPredicate {
    op: ComparisonOp,
    left: CodedOperand,
    right: CodedOperand,
    /// Pre-evaluated result when both operands are constants (the predicate
    /// is then row-independent and probes cannot express inexact-vs-inexact
    /// string comparisons faithfully).
    const_result: Option<bool>,
}

impl CodedPredicate {
    /// Resolves a predicate against a schema and snapshot.  Fails for
    /// operands referencing tuples beyond `t2` (the index kernels bind
    /// exactly two tuples) or unknown columns.
    pub fn resolve(
        pred: &DcPredicate,
        schema: &Schema,
        snapshot: &ColumnSnapshot,
    ) -> Result<CodedPredicate> {
        let resolve_operand = |operand: &Operand| -> Result<CodedOperand> {
            match operand {
                Operand::Attr { tuple, column } => {
                    if *tuple > 1 {
                        return Err(DaisyError::Plan(format!(
                            "columnar evaluation binds two tuples but `{pred}` references t{}",
                            tuple + 1
                        )));
                    }
                    Ok(CodedOperand::Cell {
                        tuple: *tuple,
                        column: schema.index_of(column)?,
                    })
                }
                Operand::Const(v) => Ok(CodedOperand::Const(snapshot.probe_value(v))),
            }
        };
        let left = resolve_operand(&pred.left)?;
        let right = resolve_operand(&pred.right)?;
        let const_result = match (&pred.left, &pred.right) {
            (Operand::Const(l), Operand::Const(r)) => Some(pred.op.eval(l, r)),
            _ => None,
        };
        Ok(CodedPredicate {
            op: pred.op,
            left,
            right,
            const_result,
        })
    }

    /// Evaluates the predicate for the binding `(t1 = rows[0], t2 =
    /// rows[1])` over the snapshot it was resolved for.
    pub fn eval(&self, snapshot: &ColumnSnapshot, rows: [usize; 2]) -> bool {
        if let Some(fixed) = self.const_result {
            return fixed;
        }
        let fetch = |operand: &CodedOperand| -> Fetched {
            match operand {
                CodedOperand::Cell { tuple, column } => {
                    Fetched::Cell(snapshot.ordering_code(rows[*tuple], *column))
                }
                CodedOperand::Const(probe) => Fetched::Const(*probe),
            }
        };
        let left = fetch(&self.left);
        let right = fetch(&self.right);
        self.op
            .eval_parts(left.is_null(), right.is_null(), || left.total_cmp(right))
    }
}

/// A fetched operand: a cell code or a constant probe.
#[derive(Clone, Copy)]
pub(crate) enum Fetched {
    Cell(ColumnCode),
    Const(ConstProbe),
}

impl Scalar for Fetched {
    fn is_null(self) -> bool {
        match self {
            Fetched::Cell(code) => code.is_null(),
            Fetched::Const(probe) => probe.is_null(),
        }
    }

    /// Mirrors `Value::total_cmp` on the underlying values.  Const/const
    /// never reaches here (pre-evaluated at resolve).
    fn total_cmp(self, other: Fetched) -> Ordering {
        match (self, other) {
            (Fetched::Cell(a), Fetched::Cell(b)) => a.total_cmp(b),
            (Fetched::Cell(cell), Fetched::Const(probe)) => probe.cmp_cell(cell),
            (Fetched::Const(probe), Fetched::Cell(cell)) => probe.cmp_cell(cell).reverse(),
            (Fetched::Const(_), Fetched::Const(_)) => {
                unreachable!("const/const predicates are pre-evaluated")
            }
        }
    }
}

/// A query WHERE predicate ([`BoolExpr`]) resolved for evaluation over one
/// snapshot's column codes — the single-tuple counterpart of
/// [`CodedPredicate`].
///
/// Both evaluation modes are byte-identical to their per-tuple
/// counterparts by construction.  [`CodedScalarPredicate::eval`] mirrors
/// [`BoolExpr::eval_expected`]: a current snapshot stores exactly the
/// expected value of every cell.  [`CodedScalarPredicate::eval_possible`]
/// mirrors [`BoolExpr::eval_possible`]: the snapshot stores every relaxed
/// cell's candidates as codes, and world enumeration and the optimistic
/// rule are the one shared core of `daisy-expr/src/possible.rs`, which the
/// per-tuple kernel runs too.  Comparisons on either side go through
/// [`ComparisonOp::eval_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct CodedScalarPredicate {
    resolved: Resolved<ConstProbe>,
}

/// One snapshot row as the possible-world core reads it.
struct SnapshotRow<'a> {
    snapshot: &'a ColumnSnapshot,
    row: usize,
}

impl<'a> Row for SnapshotRow<'a> {
    type Literal = ConstProbe;
    type Scalar = Fetched;
    type Candidates = CodedCandidates<'a>;

    fn literal(&self, literal: &ConstProbe) -> Fetched {
        Fetched::Const(*literal)
    }

    fn expected(&self, column: usize) -> Fetched {
        Fetched::Cell(self.snapshot.ordering_code(self.row, column))
    }

    fn candidates(&self, column: usize) -> Option<CodedCandidates<'a>> {
        self.snapshot.candidates(self.row, column)
    }
}

impl CandidateList for CodedCandidates<'_> {
    type Scalar = Fetched;

    fn len(self) -> usize {
        CodedCandidates::len(self)
    }

    fn all_exact(self) -> bool {
        CodedCandidates::all_exact(self)
    }

    fn get(self, index: usize) -> Domain<Fetched> {
        match CodedCandidates::get(self, index) {
            CodedCandidate::Exact(v) => Domain::Exact(Fetched::Cell(v)),
            CodedCandidate::LessThan(b) => Domain::LessThan(Fetched::Cell(b)),
            CodedCandidate::GreaterThan(b) => Domain::GreaterThan(Fetched::Cell(b)),
            CodedCandidate::Between(lo, hi) => {
                Domain::Between(Fetched::Cell(lo), Fetched::Cell(hi))
            }
        }
    }
}

impl CodedScalarPredicate {
    /// Resolves a WHERE predicate against a schema and snapshot.  Fails for
    /// unknown columns — the same up-front validation the row-path filter
    /// kernel performs.
    pub fn resolve(
        expr: &BoolExpr,
        schema: &Schema,
        snapshot: &ColumnSnapshot,
    ) -> Result<CodedScalarPredicate> {
        let resolved = Resolved::resolve(expr, schema, |literal| snapshot.probe_value(literal))?;
        Ok(CodedScalarPredicate { resolved })
    }

    /// Evaluates the predicate for one snapshot row over expected values.
    pub fn eval(&self, snapshot: &ColumnSnapshot, row: usize) -> bool {
        self.resolved.eval_expected(&SnapshotRow { snapshot, row })
    }

    /// Evaluates the predicate for one snapshot row with possible-world
    /// semantics (§4): does some choice of candidates for the row's relaxed
    /// cells satisfy it?
    pub fn eval_possible(&self, snapshot: &ColumnSnapshot, row: usize) -> bool {
        self.resolved.eval_possible(&SnapshotRow { snapshot, row })
    }
}

/// Resolves every predicate of a list (helper for the index kernels).
pub fn resolve_predicates(
    predicates: &[DcPredicate],
    schema: &Schema,
    snapshot: &ColumnSnapshot,
) -> Result<Vec<CodedPredicate>> {
    predicates
        .iter()
        .map(|p| CodedPredicate::resolve(p, schema, snapshot))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr;
    use daisy_common::{DataType, Value};
    use daisy_storage::Table;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("zip", DataType::Int),
            ("city", DataType::Str),
            ("rate", DataType::Float),
        ])
        .unwrap();
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![
                    Value::Int(9001),
                    Value::from("Los Angeles"),
                    Value::Float(0.5),
                ],
                vec![
                    Value::Int(9001),
                    Value::from("San Francisco"),
                    Value::Float(f64::NAN),
                ],
                vec![Value::Null, Value::from("Aachen"), Value::Float(0.25)],
                vec![Value::Int(10001), Value::Null, Value::Float(0.5)],
                vec![Value::Int(2), Value::from("Aachen"), Value::Null],
            ],
        )
        .unwrap()
    }

    /// Every operator × operand shape × row pair must agree with the row
    /// path exactly — including NULLs, NaN, int/float coercion and string
    /// constants absent from the dictionary.
    #[test]
    fn coded_eval_matches_row_eval_everywhere() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let schema = table.schema();
        let ops = [
            ComparisonOp::Eq,
            ComparisonOp::Neq,
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ];
        let operands = [
            Operand::attr(0, "zip"),
            Operand::attr(0, "city"),
            Operand::attr(0, "rate"),
            Operand::attr(1, "zip"),
            Operand::attr(1, "city"),
            Operand::attr(1, "rate"),
            Operand::Const(Value::Int(9001)),
            Operand::Const(Value::Float(0.5)),
            Operand::Const(Value::from("Los Angeles")), // present in dict
            Operand::Const(Value::from("Miami")),       // absent from dict
            Operand::Const(Value::from("Aachen!")),     // absent, after "Aachen"
            Operand::Const(Value::Null),
        ];
        for left in &operands {
            for right in &operands {
                for op in ops {
                    let pred = DcPredicate::new(left.clone(), op, right.clone());
                    let coded = CodedPredicate::resolve(&pred, schema, &snapshot).unwrap();
                    for i in 0..table.len() {
                        for j in 0..table.len() {
                            let t1 = &table.tuples()[i];
                            let t2 = &table.tuples()[j];
                            let row = pred.eval(schema, &[t1, t2]).unwrap();
                            let col = coded.eval(&snapshot, [i, j]);
                            assert_eq!(row, col, "`{pred}` diverged on rows ({i}, {j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn const_const_predicates_are_pre_evaluated() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        // Both absent from the dictionary: probes alone could not order
        // them, the resolve-time evaluation must.
        let pred = DcPredicate::new(
            Operand::Const(Value::from("absent-a")),
            ComparisonOp::Lt,
            Operand::Const(Value::from("absent-b")),
        );
        let coded = CodedPredicate::resolve(&pred, table.schema(), &snapshot).unwrap();
        assert!(coded.eval(&snapshot, [0, 0]));
        let pred = DcPredicate::new(
            Operand::Const(Value::Int(5)),
            ComparisonOp::Gt,
            Operand::Const(Value::Int(7)),
        );
        let coded = CodedPredicate::resolve(&pred, table.schema(), &snapshot).unwrap();
        assert!(!coded.eval(&snapshot, [0, 0]));
    }

    #[test]
    fn resolve_rejects_bad_references() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let three_tuples = DcPredicate::new(
            Operand::attr(2, "zip"),
            ComparisonOp::Eq,
            Operand::attr(0, "zip"),
        );
        assert!(CodedPredicate::resolve(&three_tuples, table.schema(), &snapshot).is_err());
        let unknown = DcPredicate::new(
            Operand::attr(0, "nope"),
            ComparisonOp::Eq,
            Operand::attr(1, "zip"),
        );
        assert!(CodedPredicate::resolve(&unknown, table.schema(), &snapshot).is_err());
    }

    /// Every operator × scalar-operand shape × boolean connective must agree
    /// with `eval_expected` exactly on every row — including NULLs, NaN,
    /// int/float coercion and string literals absent from the dictionary.
    /// Probabilistic cells are included: a current snapshot stores their
    /// expected value, so the coded path still mirrors `eval_expected`.
    #[test]
    fn coded_scalar_eval_matches_expected_eval_everywhere() {
        use daisy_storage::{Candidate, Cell};

        let mut table = table();
        // Relax one zip cell: {9001, 10001}, expected 9001.
        let id = table.tuples()[0].id;
        *table.tuple_mut(id).unwrap().cell_mut(0).unwrap() = Cell::probabilistic(vec![
            Candidate::exact(Value::Int(9001), 0.6),
            Candidate::exact(Value::Int(10001), 0.4),
        ]);
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let schema = table.schema();
        let ops = [
            ComparisonOp::Eq,
            ComparisonOp::Neq,
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ];
        let scalars = [
            ScalarExpr::col("zip"),
            ScalarExpr::col("city"),
            ScalarExpr::col("rate"),
            ScalarExpr::lit(Value::Int(9001)),
            ScalarExpr::lit(Value::Float(0.5)),
            ScalarExpr::lit(Value::Float(f64::NAN)),
            ScalarExpr::lit(Value::from("Los Angeles")), // present in dict
            ScalarExpr::lit(Value::from("Miami")),       // absent from dict
            ScalarExpr::lit(Value::from("Aachen!")),     // absent, after "Aachen"
            ScalarExpr::lit(Value::Null),
        ];
        let mut exprs: Vec<BoolExpr> = vec![BoolExpr::True];
        for left in &scalars {
            for right in &scalars {
                for op in ops {
                    exprs.push(BoolExpr::Compare {
                        left: left.clone(),
                        op,
                        right: right.clone(),
                    });
                }
            }
        }
        // Boolean connectives over a few representative comparisons.
        let a = BoolExpr::cmp("zip", ComparisonOp::Ge, 9001);
        let b = BoolExpr::eq("city", "Aachen");
        let c = BoolExpr::cmp("rate", ComparisonOp::Lt, 0.5);
        exprs.push(a.clone().and(b.clone()));
        exprs.push(a.clone().or(c.clone()));
        exprs.push(BoolExpr::Not(Box::new(a.clone())).and(b.or(c)));
        for expr in &exprs {
            let coded = CodedScalarPredicate::resolve(expr, schema, &snapshot).unwrap();
            for (i, tuple) in table.tuples().iter().enumerate() {
                let row = expr.eval_expected(schema, tuple).unwrap();
                let col = coded.eval(&snapshot, i);
                assert_eq!(row, col, "`{expr}` diverged on row {i}");
            }
        }
    }

    /// A relaxed cell qualifies under possible-world semantics through any
    /// of its candidates — read from the snapshot, not from the tuple — and
    /// a conjunction over one cell still needs a single world.
    #[test]
    fn coded_scalar_possible_eval_reads_snapshot_candidates() {
        use daisy_storage::{Candidate, Cell};

        let mut table = table();
        let id = table.tuples()[1].id;
        *table.tuple_mut(id).unwrap().cell_mut(2).unwrap() = Cell::probabilistic(vec![
            Candidate::exact(Value::Float(0.5), 0.6),
            Candidate::exact(Value::Float(0.9), 0.4),
        ]);
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let resolve =
            |expr: &BoolExpr| CodedScalarPredicate::resolve(expr, table.schema(), &snapshot);
        let high = resolve(&BoolExpr::cmp("rate", ComparisonOp::Gt, 0.8)).unwrap();
        assert!(!high.eval(&snapshot, 1), "the expected value is 0.5");
        assert!(high.eval_possible(&snapshot, 1), "the 0.9 world qualifies");
        assert!(
            !high.eval_possible(&snapshot, 0),
            "row 0 is determinate 0.5"
        );
        let between = resolve(&BoolExpr::between("rate", 0.6, 0.8)).unwrap();
        assert!(!between.eval_possible(&snapshot, 1));
        // Literal-only predicates are folded at resolve time.
        let trivial = resolve(&BoolExpr::Compare {
            left: ScalarExpr::lit(1),
            op: ComparisonOp::Lt,
            right: ScalarExpr::lit(2),
        })
        .unwrap();
        assert!(trivial.eval(&snapshot, 0) && trivial.eval_possible(&snapshot, 1));
    }

    #[test]
    fn coded_scalar_resolve_rejects_unknown_columns() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let expr = BoolExpr::eq("nope", 1).or(BoolExpr::eq("zip", 9001));
        assert!(CodedScalarPredicate::resolve(&expr, table.schema(), &snapshot).is_err());
    }

    #[test]
    fn resolve_batch_maps_every_predicate() {
        let table = table();
        let snapshot = ColumnSnapshot::build(&table).unwrap();
        let preds = vec![
            DcPredicate::new(
                Operand::attr(0, "zip"),
                ComparisonOp::Eq,
                Operand::attr(1, "zip"),
            ),
            DcPredicate::new(
                Operand::attr(0, "rate"),
                ComparisonOp::Gt,
                Operand::attr(1, "rate"),
            ),
        ];
        let coded = resolve_predicates(&preds, table.schema(), &snapshot).unwrap();
        assert_eq!(coded.len(), 2);
        // Rows 0 and 1 share zip 9001.
        assert!(coded[0].eval(&snapshot, [0, 1]));
        assert!(!coded[0].eval(&snapshot, [0, 3]));
    }
}
