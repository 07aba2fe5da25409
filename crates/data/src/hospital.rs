//! A US-hospital-like dataset with ground truth.
//!
//! The paper's accuracy experiments (Tables 5–7) run on the hospital dataset
//! of the HoloClean repository: 19 attributes, ~5% erroneous cells, clean
//! version available, and the three denial constraints
//!
//! * ϕ1: ¬(t1.zip = t2.zip ∧ t1.city ≠ t2.city)
//! * ϕ2: ¬(t1.hospital_name = t2.hospital_name ∧ t1.zip ≠ t2.zip)
//! * ϕ3: ¬(t1.phone = t2.phone ∧ t1.zip ≠ t2.zip)
//!
//! This generator produces a synthetic dataset with the same structure: a
//! clean ground-truth table whose FDs hold by construction, and a dirty copy
//! with a configurable fraction of corrupted city / zip cells.  Corruption is
//! typo-style (the original hospital dataset's errors are character
//! scrambles): a corrupted cell takes a *novel* value so the violation is
//! detectable by the constraints above and the clean value remains the
//! majority of its group — the property the paper's accuracy experiments
//! rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use daisy_common::{DataType, Result, Schema, Value};
use daisy_expr::{ConstraintSet, DenialConstraint};
use daisy_storage::Table;

/// Configuration of the hospital generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HospitalConfig {
    /// Number of rows.
    pub rows: usize,
    /// Number of distinct hospitals (each hospital has one zip, city, phone).
    pub hospitals: usize,
    /// Fraction of cells to corrupt (the paper's dataset is ~5% erroneous).
    pub error_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig {
            rows: 1_000,
            hospitals: 100,
            error_fraction: 0.05,
            seed: 17,
        }
    }
}

/// The hospital schema (a compact version of the 19-attribute original; the
/// attributes involved in ϕ1–ϕ3 are faithful, the remaining measure columns
/// are summarised).
pub fn hospital_schema() -> Result<Schema> {
    Schema::from_pairs(&[
        ("provider_id", DataType::Int),
        ("hospital_name", DataType::Str),
        ("address", DataType::Str),
        ("city", DataType::Str),
        ("state", DataType::Str),
        ("zip", DataType::Int),
        ("county", DataType::Str),
        ("phone", DataType::Str),
        ("hospital_type", DataType::Str),
        ("ownership", DataType::Str),
        ("emergency", DataType::Str),
        ("measure_code", DataType::Str),
        ("measure_name", DataType::Str),
        ("score", DataType::Int),
        ("sample", DataType::Int),
        ("condition", DataType::Str),
        ("state_avg", DataType::Float),
    ])
}

/// Generates `(dirty, truth)` tables plus the rule set ϕ1–ϕ3.
pub fn generate_hospital(config: &HospitalConfig) -> Result<(Table, Table, ConstraintSet)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = hospital_schema()?;
    // Per-hospital master data: the FDs hold on these assignments.
    let mut rows = Vec::with_capacity(config.rows);
    for i in 0..config.rows {
        let h = rng.gen_range(0..config.hospitals) as i64;
        let zip = 10_000 + h;
        let city = format!("City{h}");
        rows.push(vec![
            Value::Int(i as i64),
            Value::Str(format!("Hospital {h}")),
            Value::Str(format!("{h} Main Street")),
            Value::Str(city),
            Value::Str(format!("ST{}", h % 50)),
            Value::Int(zip),
            Value::Str(format!("County{}", h % 30)),
            Value::Str(format!("555-{h:04}")),
            Value::Str(
                if h % 2 == 0 {
                    "Acute Care"
                } else {
                    "Critical Access"
                }
                .to_string(),
            ),
            Value::Str(format!("Ownership{}", h % 5)),
            Value::Str(if h % 3 == 0 { "Yes" } else { "No" }.to_string()),
            Value::Str(format!("MC{}", i % 60)),
            Value::Str(format!("Measure {}", i % 60)),
            Value::Int(rng.gen_range(0..100)),
            Value::Int(rng.gen_range(10..500)),
            Value::Str(format!("Condition{}", i % 12)),
            Value::Float(rng.gen_range(0.0..100.0)),
        ]);
    }
    let truth = Table::from_rows("hospital_truth", schema.clone(), rows.clone())?;

    // Corrupt a fraction of the city / zip cells so ϕ1–ϕ3 are violated.
    // Each corruption is a typo: the cell takes a fresh value that no other
    // tuple uses, so the corrupted tuple conflicts with its own group (the
    // city typo violates ϕ1 within the zip group; the zip typo violates ϕ2
    // and ϕ3 within the hospital_name / phone groups) while the group
    // majority remains the clean value.
    let corruptible = [3usize, 5]; // city, zip
    let mut edited: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    let target = (config.rows as f64 * config.error_fraction).round() as usize;
    while edited.len() < target {
        let row = rng.gen_range(0..rows.len());
        let col = corruptible[rng.gen_range(0..corruptible.len())];
        if edited.contains(&(row, col)) {
            continue;
        }
        let typo = edited.len() as i64;
        rows[row][col] = match col {
            3 => Value::Str(format!("Ctiy-typo-{typo}")),
            _ => Value::Int(90_000 + typo),
        };
        edited.insert((row, col));
    }
    let dirty = Table::from_rows("hospital", schema, rows)?;

    let mut constraints = ConstraintSet::new();
    constraints.add(DenialConstraint::parse(
        "phi1",
        "t1.zip = t2.zip & t1.city != t2.city",
    )?);
    constraints.add(DenialConstraint::parse(
        "phi2",
        "t1.hospital_name = t2.hospital_name & t1.zip != t2.zip",
    )?);
    constraints.add(DenialConstraint::parse(
        "phi3",
        "t1.phone = t2.phone & t1.zip != t2.zip",
    )?);
    Ok((dirty, truth, constraints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_core::FdIndex;
    use daisy_expr::FunctionalDependency;

    #[test]
    fn truth_satisfies_the_fds_and_dirty_violates_them() {
        let (dirty, truth, constraints) = generate_hospital(&HospitalConfig {
            rows: 500,
            hospitals: 50,
            error_fraction: 0.05,
            seed: 3,
        })
        .unwrap();
        assert_eq!(dirty.len(), truth.len());
        assert_eq!(constraints.len(), 3);
        let zip_city = FunctionalDependency::new(&["zip"], "city");
        let clean_fd = FdIndex::build(&truth, &zip_city).unwrap();
        assert_eq!(clean_fd.dirty_group_count(), 0);
        let dirty_fd = FdIndex::build(&dirty, &zip_city).unwrap();
        assert!(dirty_fd.dirty_group_count() > 0);
    }

    #[test]
    fn error_fraction_is_respected() {
        let config = HospitalConfig {
            rows: 1_000,
            hospitals: 100,
            error_fraction: 0.05,
            seed: 9,
        };
        let (dirty, truth, _) = generate_hospital(&config).unwrap();
        let mut differing = 0usize;
        for (d, t) in dirty.tuples().iter().zip(truth.tuples()) {
            for col in 0..d.arity() {
                if d.value(col).unwrap() != t.value(col).unwrap() {
                    differing += 1;
                }
            }
        }
        assert_eq!(differing, 50);
    }
}
