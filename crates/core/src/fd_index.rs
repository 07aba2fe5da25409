//! Pre-computed group indexes for a functional dependency.
//!
//! Daisy "collects statistics by pre-computing the size of the erroneous
//! groups" (§6); candidate-fix probabilities are frequency based
//! (`P(rhs | lhs)`, `P(lhs | rhs)`, §4.1).  The [`FdIndex`] captures exactly
//! that information for one FD over one table:
//!
//! * for each lhs value: the rhs values it co-occurs with and their counts,
//! * for each rhs value: the lhs values it co-occurs with and their counts,
//! * which lhs groups are *dirty* (more than one distinct rhs).
//!
//! The index is computed once per (table, rule) and reused by every query;
//! this is the pruning that makes Daisy faster as violations grow (Fig. 9):
//! a tuple whose lhs is not in a dirty group can be skipped without any
//! pairwise checks.

use std::collections::HashMap;

use daisy_common::{ColumnId, Result, Value};
use daisy_expr::FunctionalDependency;
use daisy_storage::{ProvenanceStore, Table};

/// Frequency index of an FD `lhs → rhs` over a table.
#[derive(Debug, Clone, Default)]
pub struct FdIndex {
    /// Column indexes of the lhs attributes.
    pub lhs_columns: Vec<usize>,
    /// Column index of the rhs attribute.
    pub rhs_column: usize,
    /// lhs value → (rhs value → count).
    pub rhs_given_lhs: HashMap<Value, HashMap<Value, usize>>,
    /// rhs value → (lhs value → count).
    pub lhs_given_rhs: HashMap<Value, HashMap<Value, usize>>,
}

impl FdIndex {
    /// Builds the index over the expected (most probable) values of a table.
    pub fn build(table: &Table, fd: &FunctionalDependency) -> Result<FdIndex> {
        FdIndex::build_with_provenance(table, fd, &ProvenanceStore::default())
    }

    /// Builds the index over the *original* values of a table: cells that an
    /// earlier rule already turned probabilistic are grouped under the value
    /// recorded in the provenance store (§4.3: "when many rules exist, we
    /// execute them over the original data then merge").  Cells without a
    /// recorded original fall back to their expected value.
    pub fn build_with_provenance(
        table: &Table,
        fd: &FunctionalDependency,
        provenance: &ProvenanceStore,
    ) -> Result<FdIndex> {
        let lhs_columns: Vec<usize> = fd
            .lhs
            .iter()
            .map(|c| table.column_index(c))
            .collect::<Result<_>>()?;
        let rhs_column = table.column_index(&fd.rhs)?;
        let mut index = FdIndex {
            lhs_columns,
            rhs_column,
            rhs_given_lhs: HashMap::new(),
            lhs_given_rhs: HashMap::new(),
        };
        let original = |tuple: &daisy_storage::Tuple, column: usize| -> Result<Value> {
            let cell = tuple.cell(column)?;
            if cell.is_probabilistic() {
                if let Some(v) = provenance.original_value(tuple.id, ColumnId::new(column as u64)) {
                    return Ok(v.clone());
                }
            }
            tuple.value(column)
        };
        for tuple in table.tuples() {
            let lhs = if index.lhs_columns.len() == 1 {
                original(tuple, index.lhs_columns[0])?
            } else {
                // Composite keys use the same encoding as
                // `daisy_storage::statistics::composite_key`.
                let mut key = String::new();
                for (i, &c) in index.lhs_columns.iter().enumerate() {
                    if i > 0 {
                        key.push('\u{1f}');
                    }
                    key.push_str(&original(tuple, c)?.to_string());
                }
                Value::Str(key)
            };
            let rhs = original(tuple, index.rhs_column)?;
            *index
                .rhs_given_lhs
                .entry(lhs.clone())
                .or_default()
                .entry(rhs.clone())
                .or_insert(0) += 1;
            *index
                .lhs_given_rhs
                .entry(rhs)
                .or_default()
                .entry(lhs)
                .or_insert(0) += 1;
        }
        Ok(index)
    }

    /// The (possibly composite) lhs key of a tuple.
    pub fn lhs_key(&self, tuple: &daisy_storage::Tuple) -> Result<Value> {
        daisy_storage::statistics::composite_key(tuple, &self.lhs_columns)
    }

    /// The rhs value of a tuple.
    pub fn rhs_value(&self, tuple: &daisy_storage::Tuple) -> Result<Value> {
        tuple.value(self.rhs_column)
    }

    /// `true` if the lhs group has conflicting rhs values.
    pub fn lhs_is_dirty(&self, lhs: &Value) -> bool {
        self.rhs_given_lhs
            .get(lhs)
            .map(|m| m.len() > 1)
            .unwrap_or(false)
    }

    /// `true` if the rhs value co-occurs with more than one lhs value.
    pub fn rhs_is_ambiguous(&self, rhs: &Value) -> bool {
        self.lhs_given_rhs
            .get(rhs)
            .map(|m| m.len() > 1)
            .unwrap_or(false)
    }

    /// The rhs candidate distribution `P(rhs | lhs)` as `(value, count)`
    /// pairs (deterministically ordered by value).
    pub fn rhs_candidates(&self, lhs: &Value) -> Vec<(Value, usize)> {
        sorted_counts(self.rhs_given_lhs.get(lhs))
    }

    /// The lhs candidate distribution `P(lhs | rhs)` as `(value, count)`
    /// pairs (deterministically ordered by value).
    pub fn lhs_candidates(&self, rhs: &Value) -> Vec<(Value, usize)> {
        sorted_counts(self.lhs_given_rhs.get(rhs))
    }

    /// Number of dirty lhs groups.
    pub fn dirty_group_count(&self) -> usize {
        self.rhs_given_lhs.values().filter(|m| m.len() > 1).count()
    }

    /// Number of tuples that belong to dirty lhs groups (the `ε` estimate of
    /// the cost model).
    pub fn dirty_tuple_count(&self) -> usize {
        self.rhs_given_lhs
            .values()
            .filter(|m| m.len() > 1)
            .map(|m| m.values().sum::<usize>())
            .sum()
    }

    /// Mean number of candidate rhs values per dirty group (the `p` estimate
    /// of the cost model's update term).
    pub fn mean_candidates(&self) -> f64 {
        let dirty: Vec<usize> = self
            .rhs_given_lhs
            .values()
            .filter(|m| m.len() > 1)
            .map(HashMap::len)
            .collect();
        if dirty.is_empty() {
            return 0.0;
        }
        dirty.iter().sum::<usize>() as f64 / dirty.len() as f64
    }

    /// Mean number of lhs values a rhs value co-occurs with; a large value
    /// means lhs repairs fan out widely, inflating the update cost (the
    /// situation of Fig. 7 where full cleaning wins).
    pub fn mean_lhs_fanout(&self) -> f64 {
        if self.lhs_given_rhs.is_empty() {
            return 0.0;
        }
        self.lhs_given_rhs.values().map(HashMap::len).sum::<usize>() as f64
            / self.lhs_given_rhs.len() as f64
    }
}

fn sorted_counts(map: Option<&HashMap<Value, usize>>) -> Vec<(Value, usize)> {
    let mut out: Vec<(Value, usize)> = map
        .map(|m| m.iter().map(|(v, c)| (v.clone(), *c)).collect())
        .unwrap_or_default();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};

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

    fn fd() -> FunctionalDependency {
        FunctionalDependency::new(&["zip"], "city")
    }

    #[test]
    fn index_matches_paper_example() {
        // Table 2a of the paper.
        let index = FdIndex::build(&cities(), &fd()).unwrap();
        assert!(index.lhs_is_dirty(&Value::Int(9001)));
        assert!(index.lhs_is_dirty(&Value::Int(10001)));
        assert!(!index.lhs_is_dirty(&Value::Int(10002)));
        assert!(index.rhs_is_ambiguous(&Value::from("San Francisco")));
        assert!(!index.rhs_is_ambiguous(&Value::from("Los Angeles")));

        // P(City | Zip = 9001) = {LA: 2, SF: 1} → 67% / 33%.
        let rhs = index.rhs_candidates(&Value::Int(9001));
        assert_eq!(rhs.len(), 2);
        let la = rhs
            .iter()
            .find(|(v, _)| *v == Value::from("Los Angeles"))
            .unwrap();
        assert_eq!(la.1, 2);

        // P(Zip | City = San Francisco) = {9001: 1, 10001: 1} → 50% / 50%.
        let lhs = index.lhs_candidates(&Value::from("San Francisco"));
        assert_eq!(lhs.len(), 2);
        assert!(lhs.iter().all(|(_, c)| *c == 1));

        assert_eq!(index.dirty_group_count(), 2);
        assert_eq!(index.dirty_tuple_count(), 5);
        assert!((index.mean_candidates() - 2.0).abs() < 1e-12);
        assert!(index.mean_lhs_fanout() > 1.0);
    }

    #[test]
    fn empty_group_lookups_are_clean() {
        let index = FdIndex::build(&cities(), &fd()).unwrap();
        assert!(!index.lhs_is_dirty(&Value::Int(99999)));
        assert!(index.rhs_candidates(&Value::Int(99999)).is_empty());
        assert!(index.lhs_candidates(&Value::from("Nowhere")).is_empty());
    }
}
