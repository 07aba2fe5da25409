//! DC predicates resolved once for evaluation over tuple bindings.
//!
//! [`DcPredicate::eval`] resolves each operand's column name through the
//! schema and clones a [`Value`] out of a tuple — per candidate pair, per
//! predicate.  The violation-index kernels evaluate the same residual
//! predicates over millions of candidate pairs, so they resolve each one
//! **once** into a [`ResolvedPredicate`]: column names become column
//! ordinals, constants are owned, and each evaluation reads the cells'
//! expected values by reference ([`Cell::expected_ref`]) and compares them
//! with [`ComparisonOp::eval`] — the same comparison `DcPredicate::eval`
//! makes, so the two agree on every binding by construction.
//!
//! [`Cell::expected_ref`]: daisy_storage::Cell::expected_ref

use daisy_common::{DaisyError, Result, Schema, Value};
use daisy_storage::Tuple;

use crate::constraint::{DcPredicate, Operand};
use crate::operators::ComparisonOp;

/// One operand of a [`ResolvedPredicate`].
#[derive(Debug, Clone, PartialEq)]
enum ResolvedOperand {
    /// An attribute of the `tuple`-th bound tuple, resolved to its column.
    Cell {
        /// 0 for `t1`, 1 for `t2`.
        tuple: usize,
        /// Column ordinal in the schema.
        column: usize,
    },
    /// A constant.
    Const(Value),
}

impl ResolvedOperand {
    fn read<'a>(&'a self, binding: [&'a Tuple; 2]) -> Result<&'a Value> {
        match self {
            ResolvedOperand::Cell { tuple, column } => {
                Ok(binding[*tuple].cell(*column)?.expected_ref())
            }
            ResolvedOperand::Const(v) => Ok(v),
        }
    }
}

/// A DC predicate whose operands are resolved against one schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPredicate {
    op: ComparisonOp,
    left: ResolvedOperand,
    right: ResolvedOperand,
}

impl ResolvedPredicate {
    /// Resolves a predicate against a schema.  Fails for operands
    /// referencing tuples beyond `t2` (the index kernels bind exactly two
    /// tuples) or unknown columns.
    pub fn resolve(pred: &DcPredicate, schema: &Schema) -> Result<ResolvedPredicate> {
        let resolve_operand = |operand: &Operand| -> Result<ResolvedOperand> {
            match operand {
                Operand::Attr { tuple, column } => {
                    if *tuple > 1 {
                        return Err(DaisyError::Plan(format!(
                            "resolved evaluation binds two tuples but `{pred}` references t{}",
                            tuple + 1
                        )));
                    }
                    Ok(ResolvedOperand::Cell {
                        tuple: *tuple,
                        column: schema.index_of(column)?,
                    })
                }
                Operand::Const(v) => Ok(ResolvedOperand::Const(v.clone())),
            }
        };
        Ok(ResolvedPredicate {
            op: pred.op,
            left: resolve_operand(&pred.left)?,
            right: resolve_operand(&pred.right)?,
        })
    }

    /// Evaluates the predicate for the binding `(t1, t2)` on the cells'
    /// expected values.  Errors only when a tuple lacks a resolved column.
    pub fn eval(&self, binding: [&Tuple; 2]) -> Result<bool> {
        Ok(self
            .op
            .eval(self.left.read(binding)?, self.right.read(binding)?))
    }
}

/// Resolves every predicate of a list (helper for the index kernels).
pub fn resolve_predicates(
    predicates: &[DcPredicate],
    schema: &Schema,
) -> Result<Vec<ResolvedPredicate>> {
    predicates
        .iter()
        .map(|p| ResolvedPredicate::resolve(p, schema))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::DataType;
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

    /// Every operator × operand shape × row pair must agree with
    /// `DcPredicate::eval` exactly — including NULLs, NaN, int/float
    /// coercion, string constants absent from the table and constant ×
    /// constant shapes.
    #[test]
    fn resolved_eval_matches_dc_predicate_eval_everywhere() {
        let table = table();
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
            Operand::Const(Value::from("Los Angeles")), // present in the table
            Operand::Const(Value::from("Miami")),       // absent from the table
            Operand::Const(Value::from("Aachen!")),     // absent, after "Aachen"
            Operand::Const(Value::Null),
        ];
        for left in &operands {
            for right in &operands {
                for op in ops {
                    let pred = DcPredicate::new(left.clone(), op, right.clone());
                    let resolved = ResolvedPredicate::resolve(&pred, schema).unwrap();
                    for t1 in table.tuples() {
                        for t2 in table.tuples() {
                            let by_name = pred.eval(schema, &[t1, t2]).unwrap();
                            let by_ordinal = resolved.eval([t1, t2]).unwrap();
                            assert_eq!(
                                by_name, by_ordinal,
                                "`{pred}` diverged on ({}, {})",
                                t1.id, t2.id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_rejects_bad_references() {
        let table = table();
        let three_tuples = DcPredicate::new(
            Operand::attr(2, "zip"),
            ComparisonOp::Eq,
            Operand::attr(0, "zip"),
        );
        assert!(ResolvedPredicate::resolve(&three_tuples, table.schema()).is_err());
        let unknown = DcPredicate::new(
            Operand::attr(0, "nope"),
            ComparisonOp::Eq,
            Operand::attr(1, "zip"),
        );
        assert!(ResolvedPredicate::resolve(&unknown, table.schema()).is_err());
    }

    #[test]
    fn resolve_batch_maps_every_predicate() {
        let table = table();
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
        let resolved = resolve_predicates(&preds, table.schema()).unwrap();
        assert_eq!(resolved.len(), 2);
        // Rows 0 and 1 share zip 9001.
        let rows = table.tuples();
        assert!(resolved[0].eval([&rows[0], &rows[1]]).unwrap());
        assert!(!resolved[0].eval([&rows[0], &rows[3]]).unwrap());
    }
}
