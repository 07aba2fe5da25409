//! BART-like error injection.
//!
//! The paper injects errors by "randomly editing 10% of the suppliers that
//! correspond to each orderkey", using a uniform distribution so every query
//! is affected, and constructs lower-violation variants by restricting the
//! injection to a percentage of the groups (20%–80%, Fig. 9).  The injected
//! errors are detectable by the constraints under evaluation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use daisy_common::{Result, Value};
use daisy_storage::Table;

/// What an injection pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorInjectionReport {
    /// Number of cells edited.
    pub cells_edited: usize,
    /// Number of lhs groups that now contain a violation.
    pub dirty_groups: usize,
}

/// Injects FD violations into `table` for the dependency `lhs → rhs`.
///
/// * `group_fraction` — fraction of lhs groups to corrupt (1.0 = all groups,
///   the paper's worst case; 0.2–0.8 for Fig. 9),
/// * `edit_fraction` — fraction of each corrupted group's rhs cells to edit
///   (the paper uses 10%, with at least one edit so the group really becomes
///   dirty),
/// * edited cells receive the rhs value of another group, keeping the error
///   detectable by the FD.
pub fn inject_fd_errors(
    table: &mut Table,
    lhs: &str,
    rhs: &str,
    group_fraction: f64,
    edit_fraction: f64,
    seed: u64,
) -> Result<ErrorInjectionReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lhs_idx = table.column_index(lhs)?;
    let rhs_idx = table.column_index(rhs)?;

    // Group tuple positions by lhs value.
    let mut groups: std::collections::HashMap<Value, Vec<usize>> = std::collections::HashMap::new();
    let mut rhs_pool: Vec<Value> = Vec::new();
    for (pos, tuple) in table.tuples().iter().enumerate() {
        groups.entry(tuple.value(lhs_idx)?).or_default().push(pos);
        rhs_pool.push(tuple.value(rhs_idx)?);
    }
    rhs_pool.sort();
    rhs_pool.dedup();

    let mut keys: Vec<Value> = groups.keys().cloned().collect();
    keys.sort();
    keys.shuffle(&mut rng);
    let corrupt_count = ((keys.len() as f64) * group_fraction).round() as usize;
    let mut report = ErrorInjectionReport::default();

    let mut edits: Vec<(usize, Value)> = Vec::new();
    for key in keys.into_iter().take(corrupt_count) {
        let members = &groups[&key];
        let group_edits = ((members.len() as f64 * edit_fraction).ceil() as usize)
            .max(1)
            .min(members.len());
        let mut member_order = members.clone();
        member_order.shuffle(&mut rng);
        let current_rhs = table.tuples()[members[0]].value(rhs_idx)?;
        for &pos in member_order.iter().take(group_edits) {
            // Pick a different rhs value from the global pool.
            let replacement = loop {
                let candidate = rhs_pool[rng.gen_range(0..rhs_pool.len())].clone();
                if candidate != current_rhs || rhs_pool.len() == 1 {
                    break candidate;
                }
            };
            edits.push((pos, replacement));
        }
        report.dirty_groups += 1;
    }

    // Apply the edits directly to the stored tuples.
    let mut tuples = table.tuples().to_vec();
    for (pos, value) in edits {
        tuples[pos].cells[rhs_idx] = daisy_storage::Cell::Determinate(value);
        report.cells_edited += 1;
    }
    table.replace_tuples(tuples);
    Ok(report)
}

/// Injects violations of an inequality DC of the form
/// `¬(t1.a < t2.a ∧ t1.b > t2.b)` by perturbing the `b` attribute of a
/// fraction of tuples so that it no longer follows the ordering of `a`
/// (the Fig. 10 setup: "we inject errors by editing the discount value of
/// 10% of entries" and vary how many violations those dirty values induce).
pub fn inject_inequality_errors(
    table: &mut Table,
    ordered_by: &str,
    perturbed: &str,
    tuple_fraction: f64,
    magnitude: f64,
    seed: u64,
) -> Result<ErrorInjectionReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = table.column_index(ordered_by)?;
    let b_idx = table.column_index(perturbed)?;
    let mut tuples = table.tuples().to_vec();
    let mut report = ErrorInjectionReport::default();
    let n = tuples.len();
    let edits = ((n as f64) * tuple_fraction).round() as usize;
    let mut positions: Vec<usize> = (0..n).collect();
    positions.shuffle(&mut rng);
    for &pos in positions.iter().take(edits) {
        let current = tuples[pos].cells[b_idx]
            .expected_value()
            .as_float()
            .unwrap_or(0.0);
        // Push the value upward by up to `magnitude`, creating outliers that
        // break the correlation with the ordering attribute.
        let bump = rng.gen_range(0.0..=magnitude.max(f64::EPSILON));
        tuples[pos].cells[b_idx] = daisy_storage::Cell::Determinate(Value::Float(current + bump));
        report.cells_edited += 1;
    }
    table.replace_tuples(tuples);
    report.dirty_groups = report.cells_edited;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};
    use daisy_core::FdIndex;
    use daisy_expr::FunctionalDependency;

    fn clean_table(groups: usize, per_group: usize) -> Table {
        let schema =
            Schema::from_pairs(&[("orderkey", DataType::Int), ("suppkey", DataType::Int)]).unwrap();
        let mut rows = Vec::new();
        for g in 0..groups {
            for _ in 0..per_group {
                rows.push(vec![Value::Int(g as i64), Value::Int(1000 + g as i64)]);
            }
        }
        Table::from_rows("lineorder", schema, rows).unwrap()
    }

    #[test]
    fn full_injection_dirties_every_group() {
        let mut table = clean_table(50, 10);
        let report = inject_fd_errors(&mut table, "orderkey", "suppkey", 1.0, 0.1, 7).unwrap();
        assert_eq!(report.dirty_groups, 50);
        assert!(report.cells_edited >= 50);
        let fd =
            FdIndex::build(&table, &FunctionalDependency::new(&["orderkey"], "suppkey")).unwrap();
        assert_eq!(fd.dirty_group_count(), 50);
    }

    #[test]
    fn partial_injection_respects_group_fraction() {
        let mut table = clean_table(100, 5);
        let report = inject_fd_errors(&mut table, "orderkey", "suppkey", 0.4, 0.2, 7).unwrap();
        assert_eq!(report.dirty_groups, 40);
        let fd =
            FdIndex::build(&table, &FunctionalDependency::new(&["orderkey"], "suppkey")).unwrap();
        assert_eq!(fd.dirty_group_count(), 40);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let mut a = clean_table(20, 5);
        let mut b = clean_table(20, 5);
        inject_fd_errors(&mut a, "orderkey", "suppkey", 0.5, 0.2, 11).unwrap();
        inject_fd_errors(&mut b, "orderkey", "suppkey", 0.5, 0.2, 11).unwrap();
        let va: Vec<Value> = a.column_values("suppkey").unwrap();
        let vb: Vec<Value> = b.column_values("suppkey").unwrap();
        assert_eq!(va, vb);
    }

    #[test]
    fn inequality_injection_edits_requested_fraction() {
        let schema =
            Schema::from_pairs(&[("price", DataType::Int), ("discount", DataType::Float)]).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 / 100.0)])
            .collect();
        let mut table = Table::from_rows("lineorder", schema, rows).unwrap();
        let report =
            inject_inequality_errors(&mut table, "price", "discount", 0.1, 0.5, 3).unwrap();
        assert_eq!(report.cells_edited, 10);
    }
}
