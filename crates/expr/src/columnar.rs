//! Columnar predicate evaluation: DC predicates over snapshot column
//! codes.
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
//! Semantics are byte-identical with the row path by construction: the
//! NULL rules come from the shared [`ComparisonOp::eval_parts`] core, and
//! [`ColumnCode`]'s total order mirrors
//! [`Value::total_cmp`](daisy_common::Value::total_cmp) (including
//! NaN-sorts-last and int/float coercion).
//!
//! A `CodedPredicate` borrows nothing but is only meaningful against the
//! snapshot it was resolved for (probes cache dictionary ranks); resolve
//! per pass, immediately before use.

use std::cmp::Ordering;

use daisy_common::{DaisyError, Result, Schema};
use daisy_storage::{ColumnCode, ColumnSnapshot, ConstProbe};

use crate::constraint::{DcPredicate, Operand};
use crate::operators::ComparisonOp;

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
enum Fetched {
    Cell(ColumnCode),
    Const(ConstProbe),
}

impl Fetched {
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
