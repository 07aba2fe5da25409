//! Plan execution: a recursive walk over the logical plan that runs the
//! row operators of [`crate::physical`] bottom-up, every intermediate
//! result a `(schema, tuples)` pair.

use std::sync::Arc;

use daisy_common::{Result, Schema};
use daisy_exec::ExecContext;
use daisy_storage::Tuple;

use crate::catalog::Catalog;
use crate::logical::LogicalPlan;
use crate::physical::{
    aggregate, filter_tuples, hash_join, project, validate_join_keys, PredicateMode,
};
use crate::result::QueryResult;

/// Executes a logical plan against the catalog.
///
/// `mode` controls how probabilistic cells interact with predicates: Daisy's
/// cleaned queries run with [`PredicateMode::Possible`] so that candidate
/// fixes keep tuples in play; the "dirty baseline" (what a cleaning-unaware
/// engine would return) runs with [`PredicateMode::Expected`].
pub fn execute(
    ctx: &ExecContext,
    catalog: &Catalog,
    plan: &LogicalPlan,
    mode: PredicateMode,
) -> Result<QueryResult> {
    // Operator-construction validation: join keys are checked against the
    // schemas the plan will produce before anything runs.
    validate_plan(catalog, plan)?;
    let (schema, tuples) = run(ctx, catalog, plan, mode)?;
    Ok(QueryResult::new(schema, tuples))
}

/// Walks the plan bottom-up validating every join's key columns against the
/// schema its inputs will produce — the typed, up-front counterpart of the
/// mid-stream lookups the operators themselves perform.  Returns the node's
/// output schema where statically known; `None` above aggregates (whose
/// output schema is computed at runtime — `LogicalPlan::from_query` never
/// places joins above them).
fn validate_plan(catalog: &Catalog, plan: &LogicalPlan) -> Result<Option<Arc<Schema>>> {
    match plan {
        LogicalPlan::Scan { table } => Ok(Some(Arc::new(
            catalog.table(table)?.schema().qualify(table),
        ))),
        LogicalPlan::Filter { input, .. } => validate_plan(catalog, input),
        LogicalPlan::Project { input, columns } => {
            let Some(schema) = validate_plan(catalog, input)? else {
                return Ok(None);
            };
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            Ok(Some(Arc::new(schema.project(&names)?)))
        }
        LogicalPlan::Aggregate { input, .. } => {
            validate_plan(catalog, input)?;
            Ok(None)
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let left_schema = validate_plan(catalog, left)?;
            let right_schema = validate_plan(catalog, right)?;
            let (Some(l), Some(r)) = (left_schema, right_schema) else {
                return Ok(None);
            };
            validate_join_keys(&l, &r, left_key, right_key)?;
            Ok(Some(Arc::new(l.join(&r)?)))
        }
    }
}

/// Runs one plan node and everything below it.
fn run(
    ctx: &ExecContext,
    catalog: &Catalog,
    plan: &LogicalPlan,
    mode: PredicateMode,
) -> Result<(Arc<Schema>, Vec<Tuple>)> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog.table(table)?;
            Ok((Arc::new(t.schema().qualify(table)), t.tuples().to_vec()))
        }
        LogicalPlan::Filter { input, predicate } => {
            let (schema, tuples) = run(ctx, catalog, input, mode)?;
            let tuples = filter_tuples(ctx, &schema, &tuples, predicate, mode)?;
            Ok((schema, tuples))
        }
        LogicalPlan::Project { input, columns } => {
            let (schema, tuples) = run(ctx, catalog, input, mode)?;
            project(&schema, &tuples, columns)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let (schema, tuples) = run(ctx, catalog, input, mode)?;
            aggregate(ctx, &schema, &tuples, group_by, aggregates)
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (left_schema, left_tuples) = run(ctx, catalog, left, mode)?;
            let (right_schema, right_tuples) = run(ctx, catalog, right, mode)?;
            let out = hash_join(
                ctx,
                &left_schema,
                &left_tuples,
                &right_schema,
                &right_tuples,
                left_key,
                right_key,
            )?;
            Ok((out.schema, out.tuples))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use daisy_common::{DataType, Value};
    use daisy_storage::Table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let cities = Table::from_rows(
            "cities",
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap(),
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap();
        let employees = Table::from_rows(
            "employees",
            Schema::from_pairs(&[("zip", DataType::Int), ("name", DataType::Str)]).unwrap(),
            vec![
                vec![Value::Int(9001), Value::from("Peter")],
                vec![Value::Int(10001), Value::from("Mary")],
                vec![Value::Int(10002), Value::from("Jon")],
            ],
        )
        .unwrap();
        cat.add(cities);
        cat.add(employees);
        cat
    }

    fn run(sql: &str) -> QueryResult {
        let cat = catalog();
        let ctx = ExecContext::sequential();
        let q = parse_query(sql).unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        execute(&ctx, &cat, &plan, PredicateMode::Expected).unwrap()
    }

    #[test]
    fn sp_query_end_to_end() {
        let result = run("SELECT zip FROM cities WHERE city = 'Los Angeles'");
        assert_eq!(result.len(), 1);
        assert_eq!(result.column("zip").unwrap(), vec![Value::Int(9001)]);
    }

    #[test]
    fn spj_query_end_to_end() {
        let result = run("SELECT cities.zip, employees.name FROM cities \
             JOIN employees ON cities.zip = employees.zip \
             WHERE city = 'Los Angeles'");
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.column("employees.name").unwrap(),
            vec![Value::from("Peter")]
        );
    }

    #[test]
    fn aggregate_query_end_to_end() {
        let result = run("SELECT zip, COUNT(*) FROM cities GROUP BY zip");
        assert_eq!(result.len(), 2);
        assert_eq!(
            result.column("COUNT(*)").unwrap(),
            vec![Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn range_query_end_to_end() {
        let result = run("SELECT * FROM employees WHERE zip >= 10001 AND zip <= 10002");
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let cat = catalog();
        let ctx = ExecContext::sequential();
        let q = parse_query("SELECT * FROM nope").unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        assert!(execute(&ctx, &cat, &plan, PredicateMode::Expected).is_err());
    }

    /// Renders a result for byte-level comparison: schema column names plus
    /// every tuple's id, lineage and cells.
    fn dump(result: &QueryResult) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for field in result.schema.fields() {
            writeln!(out, "col {field}").unwrap();
        }
        for tuple in &result.tuples {
            writeln!(out, "{:?} {:?} {:?}", tuple.id, tuple.lineage, tuple.cells).unwrap();
        }
        out
    }

    /// Every SQL fixture returns byte-identical results at every worker
    /// count, in both predicate modes.
    #[test]
    fn sql_fixtures_agree_across_worker_counts() {
        let queries = [
            "SELECT zip FROM cities WHERE city = 'Los Angeles'",
            "SELECT * FROM employees WHERE zip >= 10001 AND zip <= 10002",
            "SELECT cities.zip, employees.name FROM cities \
             JOIN employees ON cities.zip = employees.zip \
             WHERE city = 'Los Angeles'",
            "SELECT cities.zip, employees.name FROM cities \
             JOIN employees ON cities.zip = employees.zip",
            "SELECT zip, COUNT(*) FROM cities GROUP BY zip",
        ];
        let cat = catalog();
        for sql in &queries {
            let q = parse_query(sql).unwrap();
            let plan = LogicalPlan::from_query(&q).unwrap();
            for mode in [PredicateMode::Expected, PredicateMode::Possible] {
                let sequential = execute(&ExecContext::sequential(), &cat, &plan, mode).unwrap();
                for workers in [2usize, 4, 7] {
                    let got = execute(&ExecContext::new(workers), &cat, &plan, mode).unwrap();
                    assert_eq!(
                        dump(&sequential),
                        dump(&got),
                        "`{sql}` diverged ({mode:?}, {workers} workers)"
                    );
                }
            }
        }
    }

    /// Join-key validation happens at plan validation — before any operator
    /// runs — and raises the typed error on all paths: both predicate modes,
    /// sequential and parallel.
    #[test]
    fn unknown_join_key_is_a_typed_plan_error_on_all_paths() {
        let q = parse_query(
            "SELECT cities.zip FROM cities JOIN employees ON cities.zip = employees.postcode",
        )
        .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let cat = catalog();
        for mode in [PredicateMode::Expected, PredicateMode::Possible] {
            for workers in [1usize, 4] {
                let ctx = ExecContext::new(workers);
                match execute(&ctx, &cat, &plan, mode).unwrap_err() {
                    daisy_common::DaisyError::UnknownJoinColumn { side, column } => {
                        assert_eq!(side, "right");
                        assert_eq!(column, "employees.postcode");
                    }
                    other => panic!("expected UnknownJoinColumn, got {other:?}"),
                }
            }
        }
    }
}
