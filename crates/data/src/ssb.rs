//! A Star-Schema-Benchmark-like generator.
//!
//! The paper evaluates on the SSB `lineorder` table joined with `supplier`,
//! `part`, `date` and `customer`, varying the number of distinct orderkeys
//! (5K–100K) and suppkeys (100–10K) and injecting FD violations into
//! orderkey → suppkey.  This generator produces the same shape: a fact table
//! whose foreign keys are drawn uniformly from configurable domains, plus
//! the four dimension tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use daisy_common::{DataType, Result, Schema, Value};
use daisy_storage::Table;

/// Configuration of the SSB-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SsbConfig {
    /// Number of lineorder rows.
    pub lineorder_rows: usize,
    /// Number of distinct orderkeys (each orderkey maps to one "true"
    /// suppkey before error injection, so the FD orderkey → suppkey holds on
    /// the clean data).
    pub distinct_orderkeys: usize,
    /// Number of distinct suppkeys.
    pub distinct_suppkeys: usize,
    /// Number of distinct partkeys.
    pub distinct_parts: usize,
    /// Number of distinct customers.
    pub distinct_customers: usize,
    /// Number of supplier rows per suppkey.  Values above one produce
    /// duplicate supplier listings that share the supplier's address, which
    /// is what makes the FD address → suppkey (ψ of Figs. 8/11/12) violable
    /// once errors are injected into the suppkey column.
    pub supplier_rows_per_key: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig {
            lineorder_rows: 10_000,
            distinct_orderkeys: 1_000,
            distinct_suppkeys: 100,
            distinct_parts: 200,
            distinct_customers: 300,
            supplier_rows_per_key: 3,
            seed: 42,
        }
    }
}

/// Generates the `lineorder` fact table.
///
/// Schema: `orderkey, suppkey, partkey, custkey, datekey, quantity,
/// extended_price, discount, revenue`.  On the clean data the FD
/// orderkey → suppkey holds by construction, extended_price grows with
/// quantity and discount is correlated with extended_price so the
/// inequality DC of Fig. 10 holds until errors are injected.
pub fn generate_lineorder(config: &SsbConfig) -> Result<Table> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::from_pairs(&[
        ("orderkey", DataType::Int),
        ("suppkey", DataType::Int),
        ("partkey", DataType::Int),
        ("custkey", DataType::Int),
        ("datekey", DataType::Int),
        ("quantity", DataType::Int),
        ("extended_price", DataType::Int),
        ("discount", DataType::Float),
        ("revenue", DataType::Int),
    ])?;
    // Fixed mapping orderkey → suppkey so the FD holds on clean data.
    let supp_of_order: Vec<i64> = (0..config.distinct_orderkeys)
        .map(|_| rng.gen_range(0..config.distinct_suppkeys as i64))
        .collect();
    let mut rows = Vec::with_capacity(config.lineorder_rows);
    for _ in 0..config.lineorder_rows {
        let orderkey = rng.gen_range(0..config.distinct_orderkeys as i64);
        let suppkey = supp_of_order[orderkey as usize];
        let partkey = rng.gen_range(0..config.distinct_parts as i64);
        let custkey = rng.gen_range(0..config.distinct_customers as i64);
        let datekey = 19920101 + rng.gen_range(0..2556i64);
        let quantity = rng.gen_range(1..50i64);
        let extended_price = quantity * rng.gen_range(100..1000i64);
        // Discount grows monotonically with price on clean data so the DC
        // ¬(price< ∧ discount>) holds before injection.
        let discount = (extended_price as f64 / 50_000.0).min(0.9);
        let revenue = (extended_price as f64 * (1.0 - discount)) as i64;
        rows.push(vec![
            Value::Int(orderkey),
            Value::Int(suppkey),
            Value::Int(partkey),
            Value::Int(custkey),
            Value::Int(datekey),
            Value::Int(quantity),
            Value::Int(extended_price),
            Value::Float(discount),
            Value::Int(revenue),
        ]);
    }
    Table::from_rows("lineorder", schema, rows)
}

/// Generates the `supplier` dimension table
/// (`suppkey, name, address, city, nation`).  Every address maps to one
/// suppkey on clean data so the FD address → suppkey holds until errors are
/// injected (the ψ rule of Figs. 8, 11 and 12).  Each suppkey appears in
/// `supplier_rows_per_key` duplicate listings sharing the same address, so
/// that editing a listing's suppkey produces a detectable ψ violation.
pub fn generate_supplier(config: &SsbConfig) -> Result<Table> {
    let schema = Schema::from_pairs(&[
        ("suppkey", DataType::Int),
        ("name", DataType::Str),
        ("address", DataType::Str),
        ("city", DataType::Str),
        ("nation", DataType::Str),
    ])?;
    let copies = config.supplier_rows_per_key.max(1);
    let mut rows = Vec::with_capacity(config.distinct_suppkeys * copies);
    for s in 0..config.distinct_suppkeys as i64 {
        for _ in 0..copies {
            rows.push(vec![
                Value::Int(s),
                Value::Str(format!("Supplier#{s:06}")),
                Value::Str(format!("Address {s}")),
                Value::Str(format!("City{}", s % 250)),
                Value::Str(format!("Nation{}", s % 25)),
            ]);
        }
    }
    Table::from_rows("supplier", schema, rows)
}

/// Generates the `part` dimension table (`partkey, name, brand, category`).
pub fn generate_part(config: &SsbConfig) -> Result<Table> {
    let schema = Schema::from_pairs(&[
        ("partkey", DataType::Int),
        ("name", DataType::Str),
        ("brand", DataType::Str),
        ("category", DataType::Str),
    ])?;
    let rows = (0..config.distinct_parts as i64)
        .map(|p| {
            vec![
                Value::Int(p),
                Value::Str(format!("Part#{p:06}")),
                Value::Str(format!("Brand{}", p % 40)),
                Value::Str(format!("Category{}", p % 25)),
            ]
        })
        .collect();
    Table::from_rows("part", schema, rows)
}

/// Generates the `date` dimension table (`datekey, year, month`).
pub fn generate_date() -> Result<Table> {
    let schema = Schema::from_pairs(&[
        ("datekey", DataType::Int),
        ("year", DataType::Int),
        ("month", DataType::Int),
    ])?;
    let mut rows = Vec::new();
    for offset in 0..2556i64 {
        let datekey = 19920101 + offset;
        let year = 1992 + offset / 365;
        let month = 1 + (offset % 365) / 31;
        rows.push(vec![
            Value::Int(datekey),
            Value::Int(year),
            Value::Int(month),
        ]);
    }
    Table::from_rows("date", schema, rows)
}

/// Generates the `customer` dimension table (`custkey, name, city, nation`).
pub fn generate_customer(config: &SsbConfig) -> Result<Table> {
    let schema = Schema::from_pairs(&[
        ("custkey", DataType::Int),
        ("name", DataType::Str),
        ("city", DataType::Str),
        ("nation", DataType::Str),
    ])?;
    let rows = (0..config.distinct_customers as i64)
        .map(|c| {
            vec![
                Value::Int(c),
                Value::Str(format!("Customer#{c:06}")),
                Value::Str(format!("City{}", c % 250)),
                Value::Str(format!("Nation{}", c % 25)),
            ]
        })
        .collect();
    Table::from_rows("customer", schema, rows)
}

/// Generates a denormalised `lineorder ⋈ supplier` table, the dataset used
/// for the overlapping-rules experiment (Fig. 8): it carries both orderkey →
/// suppkey and address → suppkey.
pub fn generate_lineorder_supplier(config: &SsbConfig) -> Result<Table> {
    let lineorder = generate_lineorder(config)?;
    let supplier = generate_supplier(config)?;
    let schema = Schema::from_pairs(&[
        ("orderkey", DataType::Int),
        ("suppkey", DataType::Int),
        ("extended_price", DataType::Int),
        ("address", DataType::Str),
        ("city", DataType::Str),
    ])?;
    let supp_address: std::collections::HashMap<Value, (Value, Value)> = supplier
        .tuples()
        .iter()
        .map(|t| {
            (
                t.value(0).unwrap(),
                (t.value(2).unwrap(), t.value(3).unwrap()),
            )
        })
        .collect();
    let rows = lineorder
        .tuples()
        .iter()
        .map(|t| {
            let suppkey = t.value(1).unwrap();
            let (address, city) = supp_address[&suppkey].clone();
            vec![
                t.value(0).unwrap(),
                t.value(1).unwrap(),
                t.value(6).unwrap(),
                address,
                city,
            ]
        })
        .collect();
    Table::from_rows("lineorder_supplier", schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_core::FdIndex;
    use daisy_expr::FunctionalDependency;

    fn fd_index(table: &Table, lhs: &str, rhs: &str) -> FdIndex {
        FdIndex::build(table, &FunctionalDependency::new(&[lhs], rhs)).unwrap()
    }

    #[test]
    fn clean_lineorder_satisfies_the_fd() {
        let config = SsbConfig {
            lineorder_rows: 2_000,
            distinct_orderkeys: 200,
            distinct_suppkeys: 50,
            ..SsbConfig::default()
        };
        let table = generate_lineorder(&config).unwrap();
        assert_eq!(table.len(), 2_000);
        let fd = fd_index(&table, "orderkey", "suppkey");
        assert_eq!(fd.dirty_group_count(), 0);
        assert!(fd.rhs_given_lhs.len() <= 200);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = SsbConfig::default();
        let a = generate_lineorder(&config).unwrap();
        let b = generate_lineorder(&config).unwrap();
        assert_eq!(
            a.column_values("suppkey").unwrap(),
            b.column_values("suppkey").unwrap()
        );
    }

    #[test]
    fn dimensions_have_expected_shapes() {
        let config = SsbConfig {
            distinct_suppkeys: 77,
            distinct_parts: 33,
            distinct_customers: 11,
            ..SsbConfig::default()
        };
        assert_eq!(
            generate_supplier(&config).unwrap().len(),
            77 * config.supplier_rows_per_key
        );
        assert_eq!(generate_part(&config).unwrap().len(), 33);
        assert_eq!(generate_customer(&config).unwrap().len(), 11);
        assert!(generate_date().unwrap().len() > 2000);
        // The supplier address → suppkey FD holds on clean data.
        let supplier = generate_supplier(&config).unwrap();
        let fd = fd_index(&supplier, "address", "suppkey");
        assert_eq!(fd.dirty_group_count(), 0);
    }

    #[test]
    fn denormalised_table_carries_both_rules() {
        let config = SsbConfig {
            lineorder_rows: 500,
            ..SsbConfig::default()
        };
        let table = generate_lineorder_supplier(&config).unwrap();
        assert_eq!(table.len(), 500);
        assert!(table.schema().contains("address"));
        let fd1 = fd_index(&table, "orderkey", "suppkey");
        let fd2 = fd_index(&table, "address", "suppkey");
        assert_eq!(fd1.dirty_group_count() + fd2.dirty_group_count(), 0);
    }
}
