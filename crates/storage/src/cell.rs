//! Probabilistic cells: attribute-level uncertainty.
//!
//! Daisy represents repairs with *attribute-level* uncertainty (§4): instead
//! of materialising complete alternative tuples (possible worlds), each dirty
//! cell holds the set of its candidate values.  Every candidate carries
//!
//! * a frequency-based probability (e.g. `P(City | Zip = 9001)`),
//! * the identifier of the possible world (candidate pair) it belongs to, so
//!   tuple-level alternatives remain reconstructible, and
//! * for general denial constraints with inequality predicates, the
//!   candidate may be a *range* rather than a point value ("salary `< 2000`"),
//!   following the holistic-cleaning style of fixes.
//!
//! Query operators output a tuple iff **at least one** candidate value
//! qualifies the predicate; that semantics lives in
//! [`Cell::any_candidate_matches`].

use std::fmt;

use serde::{Deserialize, Serialize};

use daisy_common::{Value, WorldId};

/// A candidate *value domain* for a dirty cell.
///
/// Functional-dependency repairs produce [`CandidateValue::Exact`] points;
/// inequality denial constraints produce open ranges relative to the
/// conflicting tuple's value (§4.2, Example 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CandidateValue {
    /// A concrete replacement value.
    Exact(Value),
    /// Any value strictly less than the bound.
    LessThan(Value),
    /// Any value strictly greater than the bound.
    GreaterThan(Value),
    /// Any value in the closed interval `[low, high]`.
    Between(Value, Value),
}

impl CandidateValue {
    /// `true` if this candidate domain could produce a value equal to `v`.
    pub fn could_equal(&self, v: &Value) -> bool {
        match self {
            CandidateValue::Exact(x) => x == v,
            CandidateValue::LessThan(bound) => v < bound,
            CandidateValue::GreaterThan(bound) => v > bound,
            CandidateValue::Between(lo, hi) => v >= lo && v <= hi,
        }
    }

    /// `true` if this candidate domain intersects the closed interval
    /// `[low, high]` (either bound may be `None`, meaning unbounded).
    pub fn overlaps_range(&self, low: Option<&Value>, high: Option<&Value>) -> bool {
        match self {
            CandidateValue::Exact(x) => low.is_none_or(|l| x >= l) && high.is_none_or(|h| x <= h),
            CandidateValue::LessThan(bound) => low.is_none_or(|l| l < bound),
            CandidateValue::GreaterThan(bound) => high.is_none_or(|h| h > bound),
            CandidateValue::Between(lo, hi) => {
                low.is_none_or(|l| hi >= l) && high.is_none_or(|h| lo <= h)
            }
        }
    }

    /// Returns the exact value when the candidate is a point.
    pub fn as_exact(&self) -> Option<&Value> {
        match self {
            CandidateValue::Exact(v) => Some(v),
            _ => None,
        }
    }

    /// A representative concrete value from the domain, used when an exact
    /// replacement must be materialised (e.g. `DaisyP` picks the most
    /// probable candidate).  For open ranges, the bound itself is returned
    /// as the closest representable point.
    pub fn representative(&self) -> Value {
        self.representative_ref().clone()
    }

    /// [`CandidateValue::representative`] without the clone.
    pub fn representative_ref(&self) -> &Value {
        match self {
            CandidateValue::Exact(v) => v,
            CandidateValue::LessThan(b) | CandidateValue::GreaterThan(b) => b,
            CandidateValue::Between(lo, _) => lo,
        }
    }
}

impl fmt::Display for CandidateValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CandidateValue::Exact(v) => write!(f, "{v}"),
            CandidateValue::LessThan(b) => write!(f, "<{b}"),
            CandidateValue::GreaterThan(b) => write!(f, ">{b}"),
            CandidateValue::Between(lo, hi) => write!(f, "[{lo},{hi}]"),
        }
    }
}

impl From<Value> for CandidateValue {
    fn from(v: Value) -> Self {
        CandidateValue::Exact(v)
    }
}

/// One candidate fix for a dirty cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The candidate value (or value range).
    pub value: CandidateValue,
    /// Frequency-based probability that this candidate is the correct fix.
    pub probability: f64,
    /// The possible world (candidate pair) the value belongs to, when the
    /// repair has tuple-level alternatives.
    pub world: Option<WorldId>,
}

impl Candidate {
    /// Creates an exact-valued candidate.
    pub fn exact(value: Value, probability: f64) -> Self {
        Candidate {
            value: CandidateValue::Exact(value),
            probability,
            world: None,
        }
    }

    /// Creates an exact-valued candidate belonging to a possible world.
    pub fn exact_in_world(value: Value, probability: f64, world: WorldId) -> Self {
        Candidate {
            value: CandidateValue::Exact(value),
            probability,
            world: Some(world),
        }
    }

    /// Creates a range candidate.
    pub fn range(value: CandidateValue, probability: f64) -> Self {
        Candidate {
            value,
            probability,
            world: None,
        }
    }
}

/// A cell of a relation: determinate, or a set of probabilistic candidates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// A single, trusted value.
    Determinate(Value),
    /// A dirty cell replaced by its candidate fixes.
    Probabilistic(Vec<Candidate>),
}

impl Cell {
    /// NULL determinate cell.
    pub fn null() -> Self {
        Cell::Determinate(Value::Null)
    }

    /// `true` if the cell carries candidate fixes.
    pub fn is_probabilistic(&self) -> bool {
        matches!(self, Cell::Probabilistic(_))
    }

    /// Builds a probabilistic cell, normalising candidate probabilities to
    /// sum to one.  Panics in debug builds if `candidates` is empty.
    pub fn probabilistic(candidates: Vec<Candidate>) -> Self {
        debug_assert!(
            !candidates.is_empty(),
            "a probabilistic cell needs at least one candidate"
        );
        let mut cell = Cell::Probabilistic(candidates);
        cell.normalize();
        cell
    }

    /// Normalises candidate probabilities so they sum to one.
    pub fn normalize(&mut self) {
        if let Cell::Probabilistic(cands) = self {
            let total: f64 = cands.iter().map(|c| c.probability).sum();
            if total > 0.0 {
                for c in cands.iter_mut() {
                    c.probability /= total;
                }
            } else if !cands.is_empty() {
                let uniform = 1.0 / cands.len() as f64;
                for c in cands.iter_mut() {
                    c.probability = uniform;
                }
            }
        }
    }

    /// The determinate value, if any.
    pub fn as_determinate(&self) -> Option<&Value> {
        match self {
            Cell::Determinate(v) => Some(v),
            Cell::Probabilistic(_) => None,
        }
    }

    /// The candidate list (a determinate cell has no candidates).
    pub fn candidates(&self) -> &[Candidate] {
        match self {
            Cell::Determinate(_) => &[],
            Cell::Probabilistic(c) => c,
        }
    }

    /// The number of candidate values (`p` in the cost model of §5.2.2);
    /// a determinate cell counts as one.
    pub fn candidate_count(&self) -> usize {
        match self {
            Cell::Determinate(_) => 1,
            Cell::Probabilistic(c) => c.len(),
        }
    }

    /// Iterates over the possible *exact* values of the cell.  A determinate
    /// cell yields its value; a probabilistic cell yields the exact
    /// candidates (range candidates are skipped because they denote value
    /// domains, not points).
    pub fn possible_values(&self) -> Vec<&Value> {
        match self {
            Cell::Determinate(v) => vec![v],
            Cell::Probabilistic(cands) => cands.iter().filter_map(|c| c.value.as_exact()).collect(),
        }
    }

    /// Evaluates the "at least one candidate qualifies" semantics of §4:
    /// returns `true` if any possible value (or value domain) of the cell
    /// could satisfy `pred`.
    ///
    /// The predicate is expressed as a closure over exact values plus an
    /// optional qualifying range used for range candidates; for arbitrary
    /// predicates over range candidates, callers should use
    /// [`Cell::any_candidate_overlaps`].
    pub fn any_candidate_matches<F>(&self, pred: F) -> bool
    where
        F: Fn(&Value) -> bool,
    {
        match self {
            Cell::Determinate(v) => pred(v),
            Cell::Probabilistic(cands) => cands.iter().any(|c| match &c.value {
                CandidateValue::Exact(v) => pred(v),
                // A range candidate qualifies if its representative bound
                // or any point "near" it could satisfy the predicate; for
                // exact predicate evaluation the caller should use
                // `any_candidate_overlaps`.  Here we conservatively test the
                // representative point.
                other => pred(&other.representative()),
            }),
        }
    }

    /// `true` if any candidate's value domain intersects `[low, high]`.
    pub fn any_candidate_overlaps(&self, low: Option<&Value>, high: Option<&Value>) -> bool {
        match self {
            Cell::Determinate(v) => low.is_none_or(|l| v >= l) && high.is_none_or(|h| v <= h),
            Cell::Probabilistic(cands) => cands.iter().any(|c| c.value.overlaps_range(low, high)),
        }
    }

    /// `true` if any possible value of the cell equals `v`.
    pub fn could_equal(&self, v: &Value) -> bool {
        match self {
            Cell::Determinate(x) => x == v,
            Cell::Probabilistic(cands) => cands.iter().any(|c| c.value.could_equal(v)),
        }
    }

    /// The most probable exact value of the cell (`DaisyP` selection).  For
    /// a determinate cell this is the value itself; range candidates fall
    /// back to their representative point.
    pub fn most_probable(&self) -> Value {
        self.expected_ref().clone()
    }

    /// [`Cell::expected_value`] without the clone — what the per-row
    /// predicate kernels, resolved DC predicates and the snapshot encoder
    /// read.
    pub fn expected_ref(&self) -> &Value {
        match self {
            Cell::Determinate(v) => v,
            // The first candidate wins ties so that repeated evaluations and
            // repeated queries stay deterministic (candidate order is itself
            // deterministic: insertion order, typically sorted by value).
            Cell::Probabilistic(cands) => cands
                .iter()
                .reduce(|best, c| {
                    if c.probability > best.probability {
                        c
                    } else {
                        best
                    }
                })
                .map_or(&Value::Null, |c| c.value.representative_ref()),
        }
    }

    /// The "current" best-effort value used when a determinate value is
    /// needed for grouping or display: the determinate value, or the most
    /// probable candidate.
    pub fn expected_value(&self) -> Value {
        self.most_probable()
    }

    /// Merges another candidate set into this cell, following the
    /// multiple-rule semantics of §4.3: the candidate sets are unioned and
    /// the probabilities of candidates proposed by both rules are combined
    /// (summed before re-normalisation), matching `P(X | Y ∪ Z)` where the
    /// evidence sets are unioned.
    pub fn merge_candidates(&mut self, incoming: Vec<Candidate>) {
        let mut cands: Vec<Candidate> =
            match std::mem::replace(self, Cell::Determinate(Value::Null)) {
                Cell::Determinate(v) => {
                    // Keep the original value as a candidate: the paper's fixes
                    // always include "keep the existing value" as one option.
                    if incoming.iter().any(|c| c.value.could_equal(&v)) || v.is_null() {
                        Vec::new()
                    } else {
                        vec![Candidate::exact(v, 0.0)]
                    }
                }
                Cell::Probabilistic(c) => c,
            };
        for inc in incoming {
            if let Some(existing) = cands.iter_mut().find(|c| c.value == inc.value) {
                existing.probability += inc.probability;
                if existing.world.is_none() {
                    existing.world = inc.world;
                }
            } else {
                cands.push(inc);
            }
        }
        *self = Cell::Probabilistic(cands);
        self.normalize();
    }
}

impl From<Value> for Cell {
    fn from(v: Value) -> Self {
        Cell::Determinate(v)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Determinate(v) => write!(f, "{v}"),
            Cell::Probabilistic(cands) => {
                write!(f, "{{")?;
                for (i, c) in cands.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {:.0}%", c.value, c.probability * 100.0)?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_normalise_to_one() {
        let cell = Cell::probabilistic(vec![
            Candidate::exact(Value::from("Los Angeles"), 2.0),
            Candidate::exact(Value::from("San Francisco"), 1.0),
        ]);
        let probs: Vec<f64> = cell.candidates().iter().map(|c| c.probability).collect();
        assert!((probs[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((probs[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_candidates_become_uniform() {
        let cell = Cell::probabilistic(vec![
            Candidate::exact(Value::Int(1), 0.0),
            Candidate::exact(Value::Int(2), 0.0),
        ]);
        for c in cell.candidates() {
            assert!((c.probability - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn any_candidate_matches_uses_possible_worlds_semantics() {
        // The paper's Example 3: a zip cell {9001 50%, 10001 50%} qualifies a
        // query for zip = 9001 because one world satisfies it.
        let cell = Cell::probabilistic(vec![
            Candidate::exact(Value::Int(9001), 0.5),
            Candidate::exact(Value::Int(10001), 0.5),
        ]);
        assert!(cell.any_candidate_matches(|v| *v == Value::Int(9001)));
        assert!(cell.any_candidate_matches(|v| *v == Value::Int(10001)));
        assert!(!cell.any_candidate_matches(|v| *v == Value::Int(10002)));
    }

    #[test]
    fn range_candidates_overlap_query_ranges() {
        // Example 5: salary candidate "< 2000".
        let cell = Cell::probabilistic(vec![
            Candidate::range(CandidateValue::LessThan(Value::Int(2000)), 0.5),
            Candidate::exact(Value::Int(3000), 0.5),
        ]);
        // Query salary in [1000, 1500]: the "<2000" candidate overlaps.
        assert!(cell.any_candidate_overlaps(Some(&Value::Int(1000)), Some(&Value::Int(1500))));
        // Query salary in [2500, 2800]: neither candidate overlaps.
        assert!(!cell.any_candidate_overlaps(Some(&Value::Int(2500)), Some(&Value::Int(2800))));
        // Query salary >= 2900: the exact 3000 candidate overlaps.
        assert!(cell.any_candidate_overlaps(Some(&Value::Int(2900)), None));
    }

    #[test]
    fn candidate_value_could_equal() {
        assert!(CandidateValue::LessThan(Value::Int(10)).could_equal(&Value::Int(9)));
        assert!(!CandidateValue::LessThan(Value::Int(10)).could_equal(&Value::Int(10)));
        assert!(CandidateValue::GreaterThan(Value::Int(10)).could_equal(&Value::Int(11)));
        assert!(CandidateValue::Between(Value::Int(1), Value::Int(5)).could_equal(&Value::Int(5)));
        assert!(!CandidateValue::Between(Value::Int(1), Value::Int(5)).could_equal(&Value::Int(6)));
    }

    #[test]
    fn most_probable_picks_heaviest_candidate() {
        let cell = Cell::probabilistic(vec![
            Candidate::exact(Value::from("Los Angeles"), 2.0),
            Candidate::exact(Value::from("San Francisco"), 1.0),
        ]);
        assert_eq!(cell.most_probable(), Value::from("Los Angeles"));
        assert_eq!(
            Cell::Determinate(Value::Int(5)).most_probable(),
            Value::Int(5)
        );
    }

    #[test]
    fn merge_candidates_unions_and_sums_overlapping() {
        // Rule 1 proposed {CA: 0.5, NY: 0.5}; rule 2 proposes {CA: 1.0}.
        let mut cell = Cell::probabilistic(vec![
            Candidate::exact(Value::from("CA"), 0.5),
            Candidate::exact(Value::from("NY"), 0.5),
        ]);
        cell.merge_candidates(vec![Candidate::exact(Value::from("CA"), 1.0)]);
        let cands = cell.candidates();
        assert_eq!(cands.len(), 2);
        let ca = cands
            .iter()
            .find(|c| c.value.could_equal(&Value::from("CA")))
            .unwrap();
        let ny = cands
            .iter()
            .find(|c| c.value.could_equal(&Value::from("NY")))
            .unwrap();
        assert!(ca.probability > ny.probability);
        assert!((ca.probability + ny.probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_into_determinate_keeps_original_value_as_candidate() {
        let mut cell = Cell::Determinate(Value::from("San Francisco"));
        cell.merge_candidates(vec![
            Candidate::exact(Value::from("Los Angeles"), 2.0),
            Candidate::exact(Value::from("San Francisco"), 1.0),
        ]);
        assert!(cell.is_probabilistic());
        assert!(cell.could_equal(&Value::from("San Francisco")));
        assert!(cell.could_equal(&Value::from("Los Angeles")));
        assert_eq!(cell.candidate_count(), 2);
    }

    #[test]
    fn display_matches_paper_table_style() {
        let cell = Cell::probabilistic(vec![
            Candidate::exact(Value::from("Los Angeles"), 2.0),
            Candidate::exact(Value::from("San Francisco"), 1.0),
        ]);
        assert_eq!(cell.to_string(), "{Los Angeles 67%, San Francisco 33%}");
    }
}
