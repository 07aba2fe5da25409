//! Pre-computed statistics.
//!
//! Daisy "collects statistics by pre-computing the size of the erroneous
//! groups" (§6) and uses them in three places:
//!
//! * to estimate the number of erroneous values `ε` and candidate values `p`
//!   that parameterise the cost model's Inequality (1) (§5.2.3),
//! * to prune error detection: a tuple whose lhs value does not belong to a
//!   dirty group cannot participate in an FD violation (Fig. 9 discussion),
//! * to bound the size of a relaxed result via the per-attribute frequency
//!   distributions (Lemma 3).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use daisy_common::{Result, Value};

use crate::table::Table;

/// Frequency and cardinality statistics for one column.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ColumnStatistics {
    /// Value → number of tuples carrying it (expected values for
    /// probabilistic cells).
    pub frequencies: HashMap<Value, usize>,
    /// Minimum value (by total order), if the column is non-empty.
    pub min: Option<Value>,
    /// Maximum value (by total order), if the column is non-empty.
    pub max: Option<Value>,
}

impl ColumnStatistics {
    /// Number of distinct values.
    pub fn distinct_count(&self) -> usize {
        self.frequencies.len()
    }

    /// Frequency of a single value (0 when absent).
    pub fn frequency(&self, value: &Value) -> usize {
        self.frequencies.get(value).copied().unwrap_or(0)
    }

    /// Sum of dataset frequencies over a set of values: the `Σ D_ij` term of
    /// Lemma 3's relaxed-result-size bound.
    pub fn total_frequency<'a>(&self, values: impl IntoIterator<Item = &'a Value>) -> usize {
        values.into_iter().map(|v| self.frequency(v)).sum()
    }
}

/// Group statistics for one functional dependency `lhs → rhs`.
///
/// A *dirty group* is a set of tuples sharing the same lhs value but holding
/// more than one distinct rhs value — exactly the groups that violate the FD.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FdGroupStatistics {
    /// lhs value → (group size, number of distinct rhs values).
    pub groups: HashMap<Value, (usize, usize)>,
    /// rhs value → number of distinct lhs values it co-occurs with; used to
    /// estimate the candidate-count `p` for lhs repairs.
    pub rhs_fanout: HashMap<Value, usize>,
}

impl FdGroupStatistics {
    /// Number of lhs groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of dirty groups (distinct rhs count > 1).
    pub fn dirty_group_count(&self) -> usize {
        self.groups.values().filter(|(_, d)| *d > 1).count()
    }

    /// `true` if the lhs value participates in a violation.
    pub fn is_dirty(&self, lhs: &Value) -> bool {
        self.groups.get(lhs).map(|(_, d)| *d > 1).unwrap_or(false)
    }

    /// Total number of tuples belonging to dirty groups: the statistic used
    /// to estimate the erroneous-entity count `ε`.
    pub fn estimated_errors(&self) -> usize {
        self.groups
            .values()
            .filter(|(_, d)| *d > 1)
            .map(|(size, _)| *size)
            .sum()
    }

    /// Average number of candidate values a dirty rhs cell would receive
    /// (the `p` of the cost model): the mean distinct-rhs count over dirty
    /// groups.
    pub fn estimated_candidates_per_error(&self) -> f64 {
        let dirty: Vec<usize> = self
            .groups
            .values()
            .filter(|(_, d)| *d > 1)
            .map(|(_, d)| *d)
            .collect();
        if dirty.is_empty() {
            return 0.0;
        }
        dirty.iter().sum::<usize>() as f64 / dirty.len() as f64
    }

    /// Average number of candidate lhs values per rhs value (how many
    /// distinct lhs values a dirty suppkey co-occurs with); large values make
    /// updates expensive and push the cost model towards full cleaning
    /// (Fig. 7 discussion).
    pub fn estimated_lhs_candidates(&self) -> f64 {
        if self.rhs_fanout.is_empty() {
            return 0.0;
        }
        self.rhs_fanout.values().sum::<usize>() as f64 / self.rhs_fanout.len() as f64
    }

    /// The fraction of tuples that belong to dirty groups, given the table
    /// size.
    pub fn violation_fraction(&self, table_len: usize) -> f64 {
        if table_len == 0 {
            0.0
        } else {
            self.estimated_errors() as f64 / table_len as f64
        }
    }
}

/// Statistics for a whole table: per-column plus per-FD group statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TableStatistics {
    /// Number of tuples at computation time.
    pub row_count: usize,
    /// Column name → statistics.
    pub columns: HashMap<String, ColumnStatistics>,
}

impl TableStatistics {
    /// Computes per-column statistics over the expected (most probable)
    /// values of a table.
    pub fn compute(table: &Table) -> Result<Self> {
        let schema = table.schema();
        let mut columns: HashMap<String, ColumnStatistics> = HashMap::new();
        for (idx, field) in schema.fields().iter().enumerate() {
            let mut stats = ColumnStatistics::default();
            for tuple in table.tuples() {
                let v = tuple.value(idx)?;
                if v.is_null() {
                    continue;
                }
                stats.min = Some(match stats.min.take() {
                    Some(m) => Value::min_of(m, v.clone()),
                    None => v.clone(),
                });
                stats.max = Some(match stats.max.take() {
                    Some(m) => Value::max_of(m, v.clone()),
                    None => v.clone(),
                });
                *stats.frequencies.entry(v).or_insert(0) += 1;
            }
            columns.insert(field.name.clone(), stats);
        }
        Ok(TableStatistics {
            row_count: table.len(),
            columns,
        })
    }

    /// Statistics for one column.
    pub fn column(&self, name: &str) -> Option<&ColumnStatistics> {
        // Tolerate qualified/unqualified mismatches the same way Schema does.
        if let Some(stats) = self.columns.get(name) {
            return Some(stats);
        }
        let suffix = format!(".{name}");
        self.columns
            .iter()
            .find(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| v)
            .or_else(|| {
                name.rsplit_once('.')
                    .and_then(|(_, bare)| self.columns.get(bare))
            })
    }

    /// Computes FD group statistics for `lhs → rhs` over the expected values
    /// of a table.  Multi-attribute lhs values are represented as a
    /// concatenated string key.
    pub fn fd_groups(table: &Table, lhs: &[&str], rhs: &str) -> Result<FdGroupStatistics> {
        let lhs_idx: Vec<usize> = lhs
            .iter()
            .map(|c| table.column_index(c))
            .collect::<Result<_>>()?;
        let rhs_idx = table.column_index(rhs)?;
        let mut per_group: HashMap<Value, (usize, HashMap<Value, ()>)> = HashMap::new();
        let mut rhs_to_lhs: HashMap<Value, HashMap<Value, ()>> = HashMap::new();
        for tuple in table.tuples() {
            let lhs_value = composite_key(tuple, &lhs_idx)?;
            let rhs_value = tuple.value(rhs_idx)?;
            let entry = per_group
                .entry(lhs_value.clone())
                .or_insert((0, HashMap::new()));
            entry.0 += 1;
            entry.1.insert(rhs_value.clone(), ());
            rhs_to_lhs
                .entry(rhs_value)
                .or_default()
                .insert(lhs_value, ());
        }
        Ok(FdGroupStatistics {
            groups: per_group
                .into_iter()
                .map(|(k, (size, rhs_set))| (k, (size, rhs_set.len())))
                .collect(),
            rhs_fanout: rhs_to_lhs
                .into_iter()
                .map(|(k, lhs_set)| (k, lhs_set.len()))
                .collect(),
        })
    }
}

/// Builds the composite grouping key for (possibly multi-attribute) lhs.
pub fn composite_key(tuple: &crate::tuple::Tuple, indices: &[usize]) -> Result<Value> {
    if indices.len() == 1 {
        return tuple.value(indices[0]);
    }
    let mut key = String::new();
    for (i, &idx) in indices.iter().enumerate() {
        if i > 0 {
            key.push('\u{1f}');
        }
        key.push_str(&tuple.value(idx)?.to_string());
    }
    Ok(Value::Str(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};

    fn cities() -> Table {
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        Table::from_rows(
            "cities",
            schema,
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
                vec![Value::Int(10002), Value::from("New York")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_statistics_count_frequencies_and_extrema() {
        let stats = TableStatistics::compute(&cities()).unwrap();
        let zip = stats.column("zip").unwrap();
        assert_eq!(zip.distinct_count(), 3);
        assert_eq!(zip.frequency(&Value::Int(9001)), 3);
        assert_eq!(zip.min, Some(Value::Int(9001)));
        assert_eq!(zip.max, Some(Value::Int(10002)));
        assert_eq!(
            zip.total_frequency([&Value::Int(9001), &Value::Int(10001)]),
            5
        );
        assert!(stats.column("nope").is_none());
    }

    #[test]
    fn qualified_column_lookup_works() {
        let stats = TableStatistics::compute(&cities().qualified()).unwrap();
        assert!(stats.column("zip").is_some());
        assert!(stats.column("cities.zip").is_some());
    }

    #[test]
    fn fd_groups_identify_dirty_groups() {
        let table = cities();
        let fd = TableStatistics::fd_groups(&table, &["zip"], "city").unwrap();
        assert_eq!(fd.group_count(), 3);
        assert_eq!(fd.dirty_group_count(), 2);
        assert!(fd.is_dirty(&Value::Int(9001)));
        assert!(fd.is_dirty(&Value::Int(10001)));
        assert!(!fd.is_dirty(&Value::Int(10002)));
        // 3 tuples in the 9001 group + 2 tuples in the 10001 group.
        assert_eq!(fd.estimated_errors(), 5);
        assert!((fd.estimated_candidates_per_error() - 2.0).abs() < 1e-12);
        assert!((fd.violation_fraction(table.len()) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rhs_fanout_counts_lhs_per_rhs() {
        let fd = TableStatistics::fd_groups(&cities(), &["zip"], "city").unwrap();
        // "San Francisco" appears with zips 9001 and 10001.
        assert_eq!(fd.rhs_fanout.get(&Value::from("San Francisco")), Some(&2));
        assert_eq!(fd.rhs_fanout.get(&Value::from("Los Angeles")), Some(&1));
        assert!(fd.estimated_lhs_candidates() > 1.0);
    }

    #[test]
    fn multi_attribute_lhs_uses_composite_key() {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Int),
            ("county", DataType::Int),
            ("name", DataType::Str),
        ])
        .unwrap();
        let table = Table::from_rows(
            "counties",
            schema,
            vec![
                vec![Value::Int(1), Value::Int(1), Value::from("A")],
                vec![Value::Int(1), Value::Int(1), Value::from("B")],
                vec![Value::Int(1), Value::Int(2), Value::from("C")],
                vec![Value::Int(2), Value::Int(1), Value::from("D")],
            ],
        )
        .unwrap();
        let fd = TableStatistics::fd_groups(&table, &["state", "county"], "name").unwrap();
        assert_eq!(fd.group_count(), 3);
        assert_eq!(fd.dirty_group_count(), 1);
        assert_eq!(fd.estimated_errors(), 2);
    }

    #[test]
    fn nulls_are_ignored_in_column_stats() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let table = Table::from_rows(
            "t",
            schema,
            vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let stats = TableStatistics::compute(&table).unwrap();
        assert_eq!(stats.column("x").unwrap().distinct_count(), 1);
        assert_eq!(stats.row_count, 3);
    }
}
