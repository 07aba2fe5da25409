//! Comparison operators shared by query predicates and denial constraints.

use std::fmt;

use serde::{Deserialize, Serialize};

use daisy_common::Value;

/// A binary comparison operator (`=`, `≠`, `<`, `≤`, `>`, `≥`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComparisonOp {
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl ComparisonOp {
    /// Evaluates the operator over two values using the total value order.
    ///
    /// Comparisons against NULL are false, except `≠` which follows the
    /// "dirty data is still data" convention: NULL ≠ v holds when v is
    /// non-NULL so that FD violations involving a NULL rhs are detectable.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        let (left_null, right_null) = (left.is_null(), right.is_null());
        if left_null || right_null {
            return match self {
                ComparisonOp::Neq => left_null != right_null,
                ComparisonOp::Eq => left_null && right_null,
                _ => false,
            };
        }
        let ord = left.total_cmp(right);
        match self {
            ComparisonOp::Eq => ord == std::cmp::Ordering::Equal,
            ComparisonOp::Neq => ord != std::cmp::Ordering::Equal,
            ComparisonOp::Lt => ord == std::cmp::Ordering::Less,
            ComparisonOp::Le => ord != std::cmp::Ordering::Greater,
            ComparisonOp::Gt => ord == std::cmp::Ordering::Greater,
            ComparisonOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }

    /// The negated operator: repairing a DC atom means making the atom
    /// false, i.e. enforcing the inverse condition (§4.2).
    pub fn negate(self) -> ComparisonOp {
        match self {
            ComparisonOp::Eq => ComparisonOp::Neq,
            ComparisonOp::Neq => ComparisonOp::Eq,
            ComparisonOp::Lt => ComparisonOp::Ge,
            ComparisonOp::Le => ComparisonOp::Gt,
            ComparisonOp::Gt => ComparisonOp::Le,
            ComparisonOp::Ge => ComparisonOp::Lt,
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> ComparisonOp {
        match self {
            ComparisonOp::Lt => ComparisonOp::Gt,
            ComparisonOp::Le => ComparisonOp::Ge,
            ComparisonOp::Gt => ComparisonOp::Lt,
            ComparisonOp::Ge => ComparisonOp::Le,
            other => other,
        }
    }

    /// `true` for `<`, `≤`, `>`, `≥`.
    pub fn is_inequality(self) -> bool {
        !matches!(self, ComparisonOp::Eq | ComparisonOp::Neq)
    }

    /// Parses the textual form used in constraint definitions and queries.
    pub fn parse(text: &str) -> Option<ComparisonOp> {
        match text {
            "=" | "==" => Some(ComparisonOp::Eq),
            "!=" | "<>" | "≠" => Some(ComparisonOp::Neq),
            "<" => Some(ComparisonOp::Lt),
            "<=" | "≤" => Some(ComparisonOp::Le),
            ">" => Some(ComparisonOp::Gt),
            ">=" | "≥" => Some(ComparisonOp::Ge),
            _ => None,
        }
    }
}

impl fmt::Display for ComparisonOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComparisonOp::Eq => "=",
            ComparisonOp::Neq => "!=",
            ComparisonOp::Lt => "<",
            ComparisonOp::Le => "<=",
            ComparisonOp::Gt => ">",
            ComparisonOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_covers_all_operators() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        assert!(ComparisonOp::Lt.eval(&a, &b));
        assert!(ComparisonOp::Le.eval(&a, &a));
        assert!(ComparisonOp::Gt.eval(&b, &a));
        assert!(ComparisonOp::Ge.eval(&b, &b));
        assert!(ComparisonOp::Eq.eval(&a, &a));
        assert!(ComparisonOp::Neq.eval(&a, &b));
        assert!(!ComparisonOp::Eq.eval(&a, &b));
    }

    #[test]
    fn null_comparisons() {
        assert!(!ComparisonOp::Lt.eval(&Value::Null, &Value::Int(1)));
        assert!(!ComparisonOp::Eq.eval(&Value::Null, &Value::Int(1)));
        assert!(ComparisonOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(ComparisonOp::Neq.eval(&Value::Null, &Value::Int(1)));
        assert!(!ComparisonOp::Neq.eval(&Value::Null, &Value::Null));
    }

    #[test]
    fn negate_is_logical_complement() {
        let vals = [Value::Int(1), Value::Int(2), Value::Int(2)];
        for op in [
            ComparisonOp::Eq,
            ComparisonOp::Neq,
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ] {
            for a in &vals {
                for b in &vals {
                    assert_ne!(op.eval(a, b), op.negate().eval(a, b));
                }
            }
        }
    }

    #[test]
    fn flip_swaps_operands() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        for op in [
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ] {
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
        }
        assert_eq!(ComparisonOp::Eq.flip(), ComparisonOp::Eq);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for text in ["=", "!=", "<", "<=", ">", ">="] {
            let op = ComparisonOp::parse(text).unwrap();
            assert_eq!(ComparisonOp::parse(&op.to_string()), Some(op));
        }
        assert_eq!(ComparisonOp::parse("<>"), Some(ComparisonOp::Neq));
        assert_eq!(ComparisonOp::parse("~"), None);
    }

    #[test]
    fn inequality_classification() {
        assert!(ComparisonOp::Lt.is_inequality());
        assert!(ComparisonOp::Ge.is_inequality());
        assert!(!ComparisonOp::Eq.is_inequality());
        assert!(!ComparisonOp::Neq.is_inequality());
    }
}
