//! A food-products dataset modelled on the paper's (proprietary) Nestlé
//! scenario.
//!
//! The exploratory-analysis experiment (Table 8) runs 37 SP queries that
//! look up coffee products through the `category` attribute, with the FD
//! `material → category` violated in ~95% of the entities and a *very* low
//! selectivity of `category` (each category value co-occurs with many dirty
//! materials, which is what makes the offline approach iterate over the
//! dataset many times).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use daisy_common::{DataType, Result, Schema, Value};
use daisy_expr::FunctionalDependency;
use daisy_storage::Table;

/// Configuration of the product generator.
#[derive(Debug, Clone, PartialEq)]
pub struct NestleConfig {
    /// Number of product rows.
    pub rows: usize,
    /// Number of distinct materials (bean types).
    pub materials: usize,
    /// Number of distinct categories (deliberately small: low selectivity).
    pub categories: usize,
    /// Fraction of each material group's category cells to corrupt.
    pub error_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NestleConfig {
    fn default() -> Self {
        NestleConfig {
            rows: 20_000,
            materials: 400,
            categories: 8,
            error_fraction: 0.10,
            seed: 23,
        }
    }
}

/// The FD the scenario cleans.
pub fn nestle_fd() -> FunctionalDependency {
    FunctionalDependency::new(&["material"], "category")
}

/// Generates the products table
/// (`product_id, name, material, category, brand, weight, price`).
pub fn generate_nestle(config: &NestleConfig) -> Result<Table> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::from_pairs(&[
        ("product_id", DataType::Int),
        ("name", DataType::Str),
        ("material", DataType::Str),
        ("category", DataType::Str),
        ("brand", DataType::Str),
        ("weight", DataType::Int),
        ("price", DataType::Float),
    ])?;
    // Each material deterministically maps to one category (clean FD).
    let category_of: Vec<usize> = (0..config.materials)
        .map(|m| m % config.categories)
        .collect();
    let mut rows = Vec::with_capacity(config.rows);
    for i in 0..config.rows {
        let material = rng.gen_range(0..config.materials);
        let mut category = category_of[material];
        // Corrupt a fraction of category cells with a different category.
        if rng.gen_bool(config.error_fraction) && config.categories > 1 {
            category = (category + 1 + rng.gen_range(0..config.categories - 1)) % config.categories;
        }
        rows.push(vec![
            Value::Int(i as i64),
            Value::Str(format!("Product {i}")),
            Value::Str(format!("Material{material}")),
            Value::Str(format!("Category{category}")),
            Value::Str(format!("Brand{}", i % 30)),
            Value::Int(rng.gen_range(50..2000)),
            Value::Float(rng.gen_range(0.5..50.0)),
        ]);
    }
    Table::from_rows("products", schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_core::FdIndex;
    use daisy_expr::FunctionalDependency;

    #[test]
    fn most_material_groups_conflict() {
        let table = generate_nestle(&NestleConfig {
            rows: 5_000,
            materials: 100,
            categories: 5,
            error_fraction: 0.10,
            seed: 1,
        })
        .unwrap();
        let fd = FdIndex::build(
            &table,
            &FunctionalDependency::new(&["material"], "category"),
        )
        .unwrap();
        // With 10% corruption and ~50 rows per material, nearly every group
        // contains at least one conflicting category (the paper's "95% of
        // conflicting entities").
        let materials = fd.rhs_given_lhs.len();
        assert!(fd.dirty_group_count() as f64 / materials as f64 > 0.9);
        // Category has very low selectivity compared to material.
        assert!(fd.lhs_given_rhs.len() < 10);
        assert!(materials >= 90);
    }
}
