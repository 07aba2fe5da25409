//! Accuracy estimation for general denial constraints (Algorithm 2).
//!
//! Cleaning only the part of the theta-join matrix that a query touches is
//! cheaper than the full cartesian check, but a dirty value outside the
//! checked region could receive a candidate fix that would have satisfied
//! the query.  Algorithm 2 therefore estimates, from partition-boundary
//! overlaps alone, how many unseen errors affect the ranges the query
//! answer falls into, turns that into an *accuracy* estimate, and compares
//! it against [`ACCURACY_THRESHOLD`] to decide between partial and full
//! cleaning.

use serde::{Deserialize, Serialize};

use daisy_common::Value;

use crate::theta::ThetaMatrix;

/// Algorithm 2's accuracy threshold `th`: a query whose estimated accuracy
/// under a general DC falls below it cleans the whole matrix instead of
/// only the part the query touches.
pub const ACCURACY_THRESHOLD: f64 = 0.5;

/// The decision Algorithm 2 reaches for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CleaningDecision {
    /// Accuracy is predicted to be at least the threshold: clean only the
    /// partial matrix relevant to the query.
    Partial,
    /// Accuracy is predicted to fall below the threshold: clean the whole
    /// matrix now.
    Full,
}

/// The accuracy estimate for one query answer under one general DC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyEstimate {
    /// Estimated number of unseen errors affecting the answer's ranges.
    pub estimated_errors: f64,
    /// Estimated result accuracy `|qa| / (|qa| + errors)` — the complement
    /// of the error contamination of the answer.
    pub accuracy: f64,
    /// Fraction of the diagonal/upper matrix already checked.
    pub support: f64,
    /// The partial-vs-full decision given the threshold.
    pub decision: CleaningDecision,
}

/// Runs Algorithm 2 for a query whose answer has `answer_size` tuples and
/// spans `[low, high]` on the partition attribute of `matrix`.
pub fn estimate_accuracy(
    matrix: &ThetaMatrix,
    answer_size: usize,
    low: Option<&Value>,
    high: Option<&Value>,
    threshold: f64,
) -> AccuracyEstimate {
    let per_block = matrix.estimate_errors();
    let relevant = matrix.blocks_overlapping(low, high);
    let estimated_errors: f64 = relevant.iter().map(|&i| per_block[i]).sum();
    let accuracy = if answer_size == 0 && estimated_errors == 0.0 {
        1.0
    } else {
        answer_size as f64 / (answer_size as f64 + estimated_errors)
    };
    let support = matrix.support();
    let decision = if accuracy >= threshold {
        CleaningDecision::Partial
    } else {
        CleaningDecision::Full
    };
    AccuracyEstimate {
        estimated_errors,
        accuracy,
        support,
        decision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};
    use daisy_expr::DenialConstraint;
    use daisy_storage::Table;

    fn table(rows: &[(i64, f64)]) -> Table {
        Table::from_rows(
            "emp",
            Schema::from_pairs(&[("salary", DataType::Int), ("tax", DataType::Float)]).unwrap(),
            rows.iter()
                .map(|(s, t)| vec![Value::Int(*s), Value::Float(*t)])
                .collect(),
        )
        .unwrap()
    }

    fn dc() -> DenialConstraint {
        DenialConstraint::parse("phi", "t1.salary < t2.salary & t1.tax > t2.tax").unwrap()
    }

    #[test]
    fn clean_data_predicts_full_accuracy() {
        let rows: Vec<(i64, f64)> = (0..50).map(|i| (i, i as f64)).collect();
        let t = table(&rows);
        let m = ThetaMatrix::build(t.schema(), t.tuples(), &dc(), 5).unwrap();
        let est = estimate_accuracy(&m, 10, Some(&Value::Int(0)), Some(&Value::Int(10)), 0.5);
        assert!(est.accuracy > 0.99);
        assert_eq!(est.decision, CleaningDecision::Partial);
        assert_eq!(est.support, 0.0);
    }

    #[test]
    fn heavily_dirty_data_triggers_full_cleaning() {
        // Taxes anti-correlated with salary → many violations everywhere.
        let rows: Vec<(i64, f64)> = (0..50).map(|i| (i, (50 - i) as f64)).collect();
        let t = table(&rows);
        let m = ThetaMatrix::build(t.schema(), t.tuples(), &dc(), 5).unwrap();
        let est = estimate_accuracy(&m, 5, Some(&Value::Int(0)), Some(&Value::Int(10)), 0.9);
        assert!(est.estimated_errors > 0.0);
        assert!(est.accuracy < 0.9);
        assert_eq!(est.decision, CleaningDecision::Full);
    }

    #[test]
    fn empty_answer_over_clean_ranges_is_fully_accurate() {
        let rows: Vec<(i64, f64)> = (0..10).map(|i| (i, i as f64)).collect();
        let t = table(&rows);
        let m = ThetaMatrix::build(t.schema(), t.tuples(), &dc(), 2).unwrap();
        let est = estimate_accuracy(&m, 0, None, None, 0.5);
        assert_eq!(est.accuracy, 1.0);
    }
}
