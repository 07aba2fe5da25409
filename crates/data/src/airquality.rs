//! An hourly air-quality dataset modelled on the Kaggle EPA historical
//! air-quality scenario.
//!
//! The paper's second exploratory-analysis experiment (Table 8) runs 52
//! group-by queries ("average CO measurement for a given county grouped by
//! year") over hourly measurements, with errors injected into the FD
//! `(state_code, county_code) → county_name` on the non-frequent pairs.  Two
//! error rates (0.001% / 0.003%) produce ~30% / ~97% of violating groups.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use daisy_common::{DataType, Result, Schema, Value};
use daisy_expr::FunctionalDependency;
use daisy_storage::Table;

/// Configuration of the air-quality generator.
#[derive(Debug, Clone, PartialEq)]
pub struct AirQualityConfig {
    /// Number of hourly measurement rows.
    pub rows: usize,
    /// Number of states.
    pub states: usize,
    /// Counties per state.
    pub counties_per_state: usize,
    /// Fraction of county groups to corrupt (controls the violating-group
    /// percentage, the 30% / 97% variants of Table 8).
    pub dirty_group_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AirQualityConfig {
    fn default() -> Self {
        AirQualityConfig {
            rows: 50_000,
            states: 20,
            counties_per_state: 15,
            dirty_group_fraction: 0.3,
            seed: 31,
        }
    }
}

/// The FD the scenario cleans.
pub fn airquality_fd() -> FunctionalDependency {
    FunctionalDependency::new(&["state_code", "county_code"], "county_name")
}

/// Generates the measurements table
/// (`state_code, county_code, county_name, site, year, month, co`).
pub fn generate_airquality(config: &AirQualityConfig) -> Result<Table> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::from_pairs(&[
        ("state_code", DataType::Int),
        ("county_code", DataType::Int),
        ("county_name", DataType::Str),
        ("site", DataType::Int),
        ("year", DataType::Int),
        ("month", DataType::Int),
        ("co", DataType::Float),
    ])?;
    let total_counties = config.states * config.counties_per_state;
    // Which (state, county) groups receive a corrupted county_name.
    let dirty_groups: Vec<bool> = (0..total_counties)
        .map(|_| rng.gen_bool(config.dirty_group_fraction))
        .collect();
    let mut rows = Vec::with_capacity(config.rows);
    for _ in 0..config.rows {
        let state = rng.gen_range(0..config.states) as i64;
        let county = rng.gen_range(0..config.counties_per_state) as i64;
        let group = (state as usize) * config.counties_per_state + county as usize;
        let mut name = format!("County_{state}_{county}");
        // Corrupt one-in-ten rows of dirty groups with a neighbouring
        // county's name (the paper edits the non-frequent pairs; one-in-ten
        // keeps the correct name the majority value).
        if dirty_groups[group] && rng.gen_bool(0.1) {
            name = format!(
                "County_{state}_{}",
                (county + 1) % config.counties_per_state as i64
            );
        }
        rows.push(vec![
            Value::Int(state),
            Value::Int(county),
            Value::Str(name),
            Value::Int(rng.gen_range(0..5)),
            Value::Int(rng.gen_range(2000..2018)),
            Value::Int(rng.gen_range(1..13)),
            Value::Float(rng.gen_range(0.05..3.5)),
        ]);
    }
    Table::from_rows("airquality", schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_core::FdIndex;
    use daisy_expr::FunctionalDependency;

    #[test]
    fn dirty_group_fraction_controls_violations() {
        let low = generate_airquality(&AirQualityConfig {
            rows: 20_000,
            dirty_group_fraction: 0.3,
            ..AirQualityConfig::default()
        })
        .unwrap();
        let high = generate_airquality(&AirQualityConfig {
            rows: 20_000,
            dirty_group_fraction: 0.97,
            ..AirQualityConfig::default()
        })
        .unwrap();
        let fd = FunctionalDependency::new(&["state_code", "county_code"], "county_name");
        let fd_low = FdIndex::build(&low, &fd).unwrap();
        let fd_high = FdIndex::build(&high, &fd).unwrap();
        let frac = |fd: &FdIndex| fd.dirty_group_count() as f64 / fd.rhs_given_lhs.len() as f64;
        assert!(frac(&fd_low) > 0.15 && frac(&fd_low) < 0.5);
        assert!(frac(&fd_high) > 0.85);
    }
}
