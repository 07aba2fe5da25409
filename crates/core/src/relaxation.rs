//! Query-result relaxation (Algorithm 1) and its analytical estimates
//! (Lemmas 1–2).
//!
//! Given a functional dependency `lhs → rhs` and a (dirty) query answer,
//! relaxation enhances the answer with the *correlated tuples* of the
//! dataset: the unvisited tuples that share an lhs or an rhs value with the
//! answer, computed transitively.  These extra tuples are exactly what is
//! needed to (a) detect the violations affecting the answer and (b) compute
//! the complete candidate-fix domains without traversing the dataset once
//! per erroneous value — the key efficiency claim behind Figs. 5 and 6.

use std::collections::HashSet;

use daisy_common::{Result, TupleId, Value};
use daisy_storage::Tuple;

use crate::fd_index::FdIndex;

/// Which side of the FD the query's filter restricts; decides how many
/// relaxation iterations are needed (Lemmas 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterTarget {
    /// The filter restricts the FD's rhs attribute: one iteration suffices
    /// (Lemma 1).
    Rhs,
    /// The filter restricts the FD's lhs attribute (or another attribute):
    /// the transitive closure may need several iterations (Lemma 2).
    Lhs,
    /// The query does not constrain either FD attribute; relaxation runs to
    /// fixpoint like the lhs case.
    Other,
}

/// The outcome of relaxing a query answer.
#[derive(Debug, Clone, Default)]
pub struct RelaxationOutcome {
    /// The correlated tuples added to the answer (cloned from the table).
    pub extra: Vec<Tuple>,
    /// Number of iterations of the while-loop of Algorithm 1.
    pub iterations: usize,
    /// Number of unvisited tuples examined (the `O(u)` cost term `e_i` of
    /// §5.2.2).
    pub scanned: usize,
}

/// Runs Algorithm 1: SP query-result relaxation for an FD.
///
/// `answer` holds the tuples of the (dirty) query answer; `unvisited_pool`
/// is the data subset that does not belong to the answer (typically the rest
/// of the base table, or only its not-yet-cleaned part when the engine
/// tracks visited tuples).  When `filter_on == FilterTarget::Rhs` a single
/// iteration is performed (Lemma 1); otherwise iterations continue until no
/// new correlated tuples are found or `max_iterations` is reached.
pub fn relax_fd(
    index: &FdIndex,
    answer: &[Tuple],
    unvisited_pool: &[Tuple],
    filter_on: FilterTarget,
    max_iterations: usize,
) -> Result<RelaxationOutcome> {
    // Seed the correlation values from the answer.  Cells that are already
    // probabilistic are skipped: they were produced by an earlier cleaning
    // pass that already pulled in their correlated cluster, so expanding from
    // their (most probable) value would only drag unrelated groups into the
    // relaxed result and break the "cleaned tuples need no extra checks"
    // property of §4.1.
    let mut lhs_values: HashSet<Value> = HashSet::new();
    let mut rhs_values: HashSet<Value> = HashSet::new();
    for tuple in answer {
        if lhs_is_determinate(index, tuple) {
            lhs_values.insert(index.lhs_key(tuple)?);
        }
        if rhs_is_determinate(index, tuple) {
            rhs_values.insert(index.rhs_value(tuple)?);
        }
    }
    let answer_ids: HashSet<TupleId> = answer.iter().map(|t| t.id).collect();

    let mut outcome = RelaxationOutcome::default();
    // `unvisited` holds indices into `unvisited_pool` still to be considered.
    let mut unvisited: Vec<usize> = (0..unvisited_pool.len())
        .filter(|&i| !answer_ids.contains(&unvisited_pool[i].id))
        .collect();

    let iteration_budget = match filter_on {
        FilterTarget::Rhs => 1,
        FilterTarget::Lhs | FilterTarget::Other => max_iterations.max(1),
    };

    for _ in 0..iteration_budget {
        if unvisited.is_empty() {
            break;
        }
        outcome.iterations += 1;
        let mut next_unvisited = Vec::with_capacity(unvisited.len());
        let mut added: Vec<usize> = Vec::new();
        for &pos in &unvisited {
            outcome.scanned += 1;
            let tuple = &unvisited_pool[pos];
            let lhs = index.lhs_key(tuple)?;
            let rhs = index.rhs_value(tuple)?;
            if lhs_values.contains(&lhs) || rhs_values.contains(&rhs) {
                added.push(pos);
            } else {
                next_unvisited.push(pos);
            }
        }
        if added.is_empty() {
            break;
        }
        for &pos in &added {
            let tuple = &unvisited_pool[pos];
            if lhs_is_determinate(index, tuple) {
                lhs_values.insert(index.lhs_key(tuple)?);
            }
            if rhs_is_determinate(index, tuple) {
                rhs_values.insert(index.rhs_value(tuple)?);
            }
            outcome.extra.push(tuple.clone());
        }
        unvisited = next_unvisited;
    }
    Ok(outcome)
}

/// `true` when every lhs cell of the tuple is determinate.
fn lhs_is_determinate(index: &FdIndex, tuple: &Tuple) -> bool {
    index.lhs_columns.iter().all(|&c| {
        tuple
            .cell(c)
            .map(|cell| !cell.is_probabilistic())
            .unwrap_or(false)
    })
}

/// `true` when the rhs cell of the tuple is determinate.
fn rhs_is_determinate(index: &FdIndex, tuple: &Tuple) -> bool {
    tuple
        .cell(index.rhs_column)
        .map(|cell| !cell.is_probabilistic())
        .unwrap_or(false)
}

/// Lemma 2: the probability that a relaxed answer of size `relaxed_size`
/// still contains at least one violation, estimated with the hypergeometric
/// distribution over a dataset of `n` tuples of which `violations`
/// participate in violations:
///
/// `Pr(≥1) = 1 − C(n − #vio, |AR|) / C(n, |AR|)`.
///
/// The engine uses this to predict whether another relaxation iteration is
/// worthwhile.
pub fn probability_more_violations(n: usize, violations: usize, relaxed_size: usize) -> f64 {
    if n == 0 || violations == 0 || relaxed_size == 0 {
        return 0.0;
    }
    if relaxed_size >= n || violations >= n {
        return 1.0;
    }
    // Pr(0) = prod_{i=0}^{|AR|-1} (n - vio - i) / (n - i), computed in log
    // space for numerical stability with large datasets.
    let mut log_pr0 = 0.0f64;
    for i in 0..relaxed_size {
        let numer = n as f64 - violations as f64 - i as f64;
        let denom = n as f64 - i as f64;
        if numer <= 0.0 {
            return 1.0;
        }
        log_pr0 += numer.ln() - denom.ln();
    }
    1.0 - log_pr0.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};
    use daisy_expr::FunctionalDependency;
    use daisy_storage::Table;

    fn cities() -> Table {
        Table::from_rows(
            "cities",
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap(),
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap()
    }

    fn index(table: &Table) -> FdIndex {
        FdIndex::build(table, &FunctionalDependency::new(&["zip"], "city")).unwrap()
    }

    #[test]
    fn rhs_filter_uses_single_iteration_like_example_2() {
        // Query: zip of "Los Angeles" → answer is tuples 0 and 2.
        let table = cities();
        let idx = index(&table);
        let answer: Vec<Tuple> = table
            .tuples()
            .iter()
            .filter(|t| t.value(1).unwrap() == Value::from("Los Angeles"))
            .cloned()
            .collect();
        let out = relax_fd(&idx, &answer, table.tuples(), FilterTarget::Rhs, 16).unwrap();
        // Only the (9001, San Francisco) tuple is added (same lhs).
        assert_eq!(out.extra.len(), 1);
        assert_eq!(out.extra[0].id, TupleId::new(1));
        assert_eq!(out.iterations, 1);
        assert!(out.scanned <= 3);
    }

    #[test]
    fn lhs_filter_transitively_closes_like_example_3() {
        // Query: city with zip 9001 → answer is tuples 0, 1, 2.
        let table = cities();
        let idx = index(&table);
        let answer: Vec<Tuple> = table
            .tuples()
            .iter()
            .filter(|t| t.value(0).unwrap() == Value::Int(9001))
            .cloned()
            .collect();
        let out = relax_fd(&idx, &answer, table.tuples(), FilterTarget::Lhs, 16).unwrap();
        // (10001, San Francisco) joins via the shared rhs, then
        // (10001, New York) joins via the shared lhs 10001.
        let ids: Vec<TupleId> = out.extra.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![TupleId::new(3), TupleId::new(4)]);
        assert_eq!(out.iterations, 2);
    }

    #[test]
    fn clean_answer_adds_nothing() {
        let table = cities();
        let idx = index(&table);
        let answer: Vec<Tuple> = table
            .tuples()
            .iter()
            .filter(|t| t.value(1).unwrap() == Value::from("New York"))
            .cloned()
            .collect();
        // New York shares its lhs (10001) with the San Francisco tuple, so
        // relaxation pulls that in, and then stops: everything correlated is
        // covered in two iterations.
        let out = relax_fd(&idx, &answer, table.tuples(), FilterTarget::Lhs, 16).unwrap();
        assert!(out.iterations <= 3);
        // Relaxing an empty answer does nothing at all.
        let empty = relax_fd(&idx, &[], table.tuples(), FilterTarget::Lhs, 16).unwrap();
        assert!(empty.extra.is_empty());
    }

    #[test]
    fn max_iterations_bounds_the_closure() {
        let table = cities();
        let idx = index(&table);
        let answer: Vec<Tuple> = table.tuples()[..1].to_vec();
        let bounded = relax_fd(&idx, &answer, table.tuples(), FilterTarget::Lhs, 1).unwrap();
        assert!(bounded.iterations <= 1);
    }

    #[test]
    fn hypergeometric_probability_behaviour() {
        // No violations → probability 0.
        assert_eq!(probability_more_violations(1000, 0, 100), 0.0);
        // Sampling everything → probability 1 when any violation exists.
        assert_eq!(probability_more_violations(1000, 5, 1000), 1.0);
        // Monotone in the sample size.
        let p_small = probability_more_violations(1000, 50, 10);
        let p_large = probability_more_violations(1000, 50, 200);
        assert!(p_small < p_large);
        assert!(p_small > 0.0 && p_large < 1.0);
        // Degenerate inputs.
        assert_eq!(probability_more_violations(0, 0, 0), 0.0);
    }

    #[test]
    fn hypergeometric_probability_boundary_inputs() {
        // Zero violations: drawing any sample can never hit one.
        assert_eq!(probability_more_violations(100, 0, 1), 0.0);
        assert_eq!(probability_more_violations(100, 0, 100), 0.0);
        // Every tuple violates: any non-empty sample hits one.
        assert_eq!(probability_more_violations(100, 100, 1), 1.0);
        // More reported violations than tuples (degenerate caller input)
        // clamps to certainty rather than under- or overflowing.
        assert_eq!(probability_more_violations(100, 250, 1), 1.0);
        // An empty relaxed result cannot contain a violation.
        assert_eq!(probability_more_violations(100, 50, 0), 0.0);
        // Sampling the whole dataset (or more) is certain to include one.
        assert_eq!(probability_more_violations(10, 1, 10), 1.0);
        assert_eq!(probability_more_violations(10, 1, 25), 1.0);
        // An empty dataset has nothing to violate.
        assert_eq!(probability_more_violations(0, 0, 0), 0.0);
        assert_eq!(probability_more_violations(0, 5, 5), 0.0);
        // A single-tuple sample of a half-dirty dataset: exactly 1/2.
        let p = probability_more_violations(2, 1, 1);
        assert!((p - 0.5).abs() < 1e-12);
    }
}
