//! Query-workload generators.
//!
//! The paper's workloads are sequences of non-overlapping SP range queries
//! of a fixed selectivity (2% for Figs. 5, 6, 9), equality/range queries
//! with random selectivities (Fig. 7), SPJ workloads joining lineorder with
//! supplier (Fig. 11), mixed SP+SPJ workloads (Fig. 12), the SSB-style
//! Q1/Q2/Q3 chain (Fig. 13) and exploratory group-by workloads (Table 8).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use daisy_common::{Result, Value};
use daisy_expr::BoolExpr;
use daisy_query::Query;
use daisy_storage::Table;

/// A named sequence of queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// The queries, in execution order.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` if the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Builds `count` non-overlapping range queries over `column` of `table`,
/// each selecting roughly `selectivity` of the rows.  Together the queries
/// cover the whole value domain (the paper's "the workload accesses the
/// whole dataset").
pub fn non_overlapping_range_queries(
    table: &Table,
    column: &str,
    count: usize,
    select_columns: &[&str],
) -> Result<Workload> {
    let idx = table.column_index(column)?;
    let mut values: Vec<Value> = table
        .tuples()
        .iter()
        .map(|t| t.value(idx))
        .collect::<Result<_>>()?;
    values.sort();
    let n = values.len();
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        let lo_pos = i * n / count;
        let hi_pos = (((i + 1) * n / count).saturating_sub(1)).max(lo_pos);
        let lo = values[lo_pos].clone();
        let hi = values[hi_pos].clone();
        let filter = BoolExpr::Compare {
            left: daisy_expr::ScalarExpr::col(column),
            op: daisy_expr::ComparisonOp::Ge,
            right: daisy_expr::ScalarExpr::Literal(lo),
        }
        .and(BoolExpr::Compare {
            left: daisy_expr::ScalarExpr::col(column),
            op: daisy_expr::ComparisonOp::Le,
            right: daisy_expr::ScalarExpr::Literal(hi),
        });
        queries.push(
            Query::scan(table.name())
                .with_columns(select_columns)
                .with_filter(filter),
        );
    }
    Ok(Workload {
        name: format!("{count} non-overlapping ranges over {column}"),
        queries,
    })
}

/// Builds `count` queries with random selectivities mixing equality and
/// range conditions over `column` (the Fig. 7 / Fig. 12 workload shape).
pub fn random_selectivity_queries(
    table: &Table,
    column: &str,
    count: usize,
    select_columns: &[&str],
    seed: u64,
) -> Result<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let idx = table.column_index(column)?;
    let mut values: Vec<Value> = table
        .tuples()
        .iter()
        .map(|t| t.value(idx))
        .collect::<Result<_>>()?;
    values.sort();
    values.dedup();
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let filter = if rng.gen_bool(0.3) {
            let v = values[rng.gen_range(0..values.len())].clone();
            BoolExpr::Compare {
                left: daisy_expr::ScalarExpr::col(column),
                op: daisy_expr::ComparisonOp::Eq,
                right: daisy_expr::ScalarExpr::Literal(v),
            }
        } else {
            let a = rng.gen_range(0..values.len());
            let width = rng.gen_range(1..(values.len() / 4).max(2));
            let b = (a + width).min(values.len() - 1);
            BoolExpr::between(column, values[a].clone(), values[b].clone())
        };
        queries.push(
            Query::scan(table.name())
                .with_columns(select_columns)
                .with_filter(filter),
        );
    }
    Ok(Workload {
        name: format!("{count} random-selectivity queries over {column}"),
        queries,
    })
}

/// Turns an SP workload into an SPJ workload by joining every query with a
/// dimension table (the Fig. 11 shape: filter lineorder, join supplier).
///
/// Unqualified column references of the SP queries are qualified with their
/// driving table so they stay unambiguous once the dimension table's columns
/// enter the joined schema (e.g. `suppkey` exists in both lineorder and
/// supplier).
pub fn join_workload(
    base: &Workload,
    dimension: &str,
    left_key: &str,
    right_key: &str,
) -> Workload {
    Workload {
        name: format!("{} ⋈ {dimension}", base.name),
        queries: base
            .queries
            .iter()
            .map(|q| {
                let driving = q.from.clone();
                let mut joined = q.clone().join(dimension, left_key, right_key);
                joined.select = joined
                    .select
                    .into_iter()
                    .map(|item| match item {
                        daisy_query::SelectItem::Column(c) if !c.contains('.') => {
                            daisy_query::SelectItem::Column(format!("{driving}.{c}"))
                        }
                        other => other,
                    })
                    .collect();
                joined.filter = qualify_filter(joined.filter, &driving);
                joined
            })
            .collect(),
    }
}

/// Prefixes unqualified column references of a filter with the driving-table
/// name.
fn qualify_filter(expr: BoolExpr, table: &str) -> BoolExpr {
    use daisy_expr::ScalarExpr;
    let qualify = |s: ScalarExpr| match s {
        ScalarExpr::Column(c) if !c.contains('.') => ScalarExpr::Column(format!("{table}.{c}")),
        other => other,
    };
    match expr {
        BoolExpr::Compare { left, op, right } => BoolExpr::Compare {
            left: qualify(left),
            op,
            right: qualify(right),
        },
        BoolExpr::And(a, b) => BoolExpr::And(
            Box::new(qualify_filter(*a, table)),
            Box::new(qualify_filter(*b, table)),
        ),
        BoolExpr::Or(a, b) => BoolExpr::Or(
            Box::new(qualify_filter(*a, table)),
            Box::new(qualify_filter(*b, table)),
        ),
        BoolExpr::Not(e) => BoolExpr::Not(Box::new(qualify_filter(*e, table))),
        BoolExpr::True => BoolExpr::True,
    }
}

/// Interleaves two workloads (SP and SPJ) into a mixed workload (Fig. 12).
pub fn mixed_workload(a: &Workload, b: &Workload, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries: Vec<Query> = a.queries.iter().chain(b.queries.iter()).cloned().collect();
    queries.shuffle(&mut rng);
    Workload {
        name: format!("mixed({}, {})", a.name, b.name),
        queries,
    }
}

/// The SSB-style query chain of Fig. 13.
///
/// * Q1: lineorder ⋈ supplier with a range filter on suppkey,
/// * Q2: Q1 additionally joined with part and date, grouped by year & brand,
/// * Q3: Q2 with a fourth join against customer.
pub fn ssb_query_chain(suppkey_low: i64, suppkey_high: i64) -> Vec<Query> {
    let filter = BoolExpr::between("lineorder.suppkey", suppkey_low, suppkey_high);
    let q1 = Query::scan("lineorder")
        .with_columns(&["lineorder.orderkey", "lineorder.suppkey", "supplier.name"])
        .with_filter(filter.clone())
        .join("supplier", "lineorder.suppkey", "supplier.suppkey");
    let mut q2 = Query::scan("lineorder")
        .with_filter(filter.clone())
        .join("supplier", "lineorder.suppkey", "supplier.suppkey")
        .join("part", "lineorder.partkey", "part.partkey")
        .join("date", "lineorder.datekey", "date.datekey")
        .with_group_by(&["date.year", "part.brand"]);
    q2.select = vec![
        daisy_query::SelectItem::Column("date.year".into()),
        daisy_query::SelectItem::Column("part.brand".into()),
        daisy_query::SelectItem::Aggregate {
            func: daisy_query::AggregateFunc::Sum,
            column: Some("lineorder.revenue".into()),
        },
    ];
    let mut q3 = q2.clone();
    q3.joins.push(daisy_query::ast::JoinSpec {
        table: "customer".into(),
        left_key: "lineorder.custkey".into(),
        right_key: "customer.custkey".into(),
    });
    vec![q1, q2, q3]
}

/// The air-quality exploratory workload of Table 8: one query per county,
/// each computing the average CO grouped by year.
pub fn airquality_workload(states: usize, counties_per_state: usize, count: usize) -> Workload {
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        let state = (i % states) as i64;
        let county = ((i / states) % counties_per_state) as i64;
        let mut q = Query::scan("airquality")
            .with_filter(BoolExpr::eq("state_code", state).and(BoolExpr::eq("county_code", county)))
            .with_group_by(&["year"]);
        q.select = vec![
            daisy_query::SelectItem::Column("year".into()),
            daisy_query::SelectItem::Aggregate {
                func: daisy_query::AggregateFunc::Avg,
                column: Some("co".into()),
            },
        ];
        queries.push(q);
    }
    Workload {
        name: format!("{count} per-county CO averages"),
        queries,
    }
}

/// The product exploratory workload of Table 8: point lookups through the
/// category attribute.
pub fn nestle_workload(categories: usize, count: usize) -> Workload {
    let queries = (0..count)
        .map(|i| {
            Query::scan("products")
                .with_columns(&["name", "material", "category", "price"])
                .with_filter(BoolExpr::eq(
                    "category",
                    format!("Category{}", i % categories),
                ))
        })
        .collect();
    Workload {
        name: format!("{count} category lookups"),
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::{generate_lineorder, SsbConfig};

    fn lineorder() -> Table {
        generate_lineorder(&SsbConfig {
            lineorder_rows: 5_000,
            distinct_orderkeys: 500,
            distinct_suppkeys: 50,
            ..SsbConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn range_queries_cover_domain_with_target_selectivity() {
        let table = lineorder();
        let workload =
            non_overlapping_range_queries(&table, "orderkey", 50, &["orderkey", "suppkey"])
                .unwrap();
        assert_eq!(workload.len(), 50);
        // Together the filters cover every orderkey value.
        let orderkeys = table.column_values("orderkey").unwrap();
        let min = orderkeys.iter().min().unwrap().clone();
        let max = orderkeys.iter().max().unwrap().clone();
        let first = workload
            .queries
            .first()
            .unwrap()
            .filter
            .range_of("orderkey")
            .unwrap();
        let last = workload
            .queries
            .last()
            .unwrap()
            .filter
            .range_of("orderkey")
            .unwrap();
        assert_eq!(first.0.unwrap(), min);
        assert_eq!(last.1.unwrap(), max);
    }

    #[test]
    fn random_workload_is_deterministic_per_seed() {
        let table = lineorder();
        let a = random_selectivity_queries(&table, "orderkey", 20, &["orderkey"], 5).unwrap();
        let b = random_selectivity_queries(&table, "orderkey", 20, &["orderkey"], 5).unwrap();
        assert_eq!(
            a.queries.iter().map(|q| q.to_string()).collect::<Vec<_>>(),
            b.queries.iter().map(|q| q.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn join_and_mixed_workloads_compose() {
        let table = lineorder();
        let sp = non_overlapping_range_queries(&table, "orderkey", 10, &["orderkey"]).unwrap();
        let spj = join_workload(&sp, "supplier", "lineorder.suppkey", "supplier.suppkey");
        assert!(spj.queries.iter().all(|q| q.joins.len() == 1));
        let mixed = mixed_workload(&sp, &spj, 1);
        assert_eq!(mixed.len(), 20);
    }

    #[test]
    fn ssb_chain_grows_in_complexity() {
        let chain = ssb_query_chain(10, 20);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].joins.len(), 1);
        assert_eq!(chain[1].joins.len(), 3);
        assert_eq!(chain[2].joins.len(), 4);
        assert!(chain[1].is_aggregate());
    }

    #[test]
    fn exploratory_workloads_have_expected_shapes() {
        let air = airquality_workload(20, 15, 52);
        assert_eq!(air.len(), 52);
        assert!(air.queries.iter().all(|q| q.is_aggregate()));
        let nestle = nestle_workload(8, 37);
        assert_eq!(nestle.len(), 37);
        assert!(!nestle.is_empty());
    }
}
