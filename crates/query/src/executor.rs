//! Plan execution: a row path and a vectorized batch-at-a-time path.
//!
//! The row path walks the plan materialising `Vec<Tuple>` between
//! operators.  The vectorized path keeps scans and filters as
//! `(table, snapshot, selection)` batches — sorted position lists over the
//! table's columnar snapshot — and only materialises tuples at the final
//! `project`/`aggregate` (or at a join output).  Both paths produce
//! byte-identical results; [`QueryExecMode`] picks between them.

use std::sync::Arc;

use daisy_common::{QueryExecMode, Result, Schema};
use daisy_exec::ExecContext;
use daisy_storage::{ColumnSnapshot, Table, Tuple};

use crate::catalog::Catalog;
use crate::logical::LogicalPlan;
use crate::physical::{
    aggregate, filter_selection, filter_tuples, hash_join, hash_join_coded, project,
    validate_join_keys, PredicateMode,
};
use crate::result::QueryResult;

/// Executes a logical plan against the catalog.
///
/// `mode` controls how probabilistic cells interact with predicates: Daisy's
/// cleaned queries run with [`PredicateMode::Possible`] so that candidate
/// fixes keep tuples in play; the "dirty baseline" (what a cleaning-unaware
/// engine would return) runs with [`PredicateMode::Expected`].
///
/// The execution path honours the `DAISY_QUERY_EXEC` environment override
/// and otherwise vectorizes per scanned table whenever a current snapshot
/// is attached to the catalog; use [`execute_with`] to force a path.
pub fn execute(
    ctx: &ExecContext,
    catalog: &Catalog,
    plan: &LogicalPlan,
    mode: PredicateMode,
) -> Result<QueryResult> {
    execute_with(
        ctx,
        catalog,
        plan,
        mode,
        QueryExecMode::from_env().unwrap_or_default(),
    )
}

/// [`execute`] with an explicit execution path.
///
/// `Row` forces tuple-at-a-time execution; `Vectorized` forces the batch
/// path, building ad-hoc snapshots for tables without a current one; `Auto`
/// vectorizes exactly the scans whose catalog snapshot is current and keeps
/// the rest on the row path.  All three return byte-identical results.
pub fn execute_with(
    ctx: &ExecContext,
    catalog: &Catalog,
    plan: &LogicalPlan,
    mode: PredicateMode,
    exec: QueryExecMode,
) -> Result<QueryResult> {
    // Operator-construction validation: join keys are checked against the
    // schemas the plan will produce before anything runs.
    validate_plan(catalog, plan)?;
    let (schema, tuples) = match exec {
        QueryExecMode::Row => execute_node(ctx, catalog, plan, mode)?,
        QueryExecMode::Auto | QueryExecMode::Vectorized => {
            let forced = exec == QueryExecMode::Vectorized;
            execute_vectorized(ctx, catalog, plan, mode, forced)?.materialize()
        }
    };
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

/// An intermediate result of the vectorized path.
enum Batch {
    /// Unmaterialized rows: `selection` is a sorted position list into
    /// `table`, whose current columnar snapshot is attached.  Filters
    /// narrow the selection without touching a tuple.
    Pending {
        table: Arc<Table>,
        snapshot: Arc<ColumnSnapshot>,
        schema: Arc<Schema>,
        selection: Vec<usize>,
    },
    /// Materialized rows (join outputs, row-path subtrees, final results).
    Rows {
        schema: Arc<Schema>,
        tuples: Vec<Tuple>,
    },
}

impl Batch {
    /// Clones out the selected tuples — exactly what the row path would
    /// have produced for the same subtree.
    fn materialize(self) -> (Arc<Schema>, Vec<Tuple>) {
        match self {
            Batch::Pending {
                table,
                schema,
                selection,
                ..
            } => (
                schema,
                selection
                    .iter()
                    .map(|&pos| table.tuples()[pos].clone())
                    .collect(),
            ),
            Batch::Rows { schema, tuples } => (schema, tuples),
        }
    }
}

fn execute_vectorized(
    ctx: &ExecContext,
    catalog: &Catalog,
    plan: &LogicalPlan,
    mode: PredicateMode,
    forced: bool,
) -> Result<Batch> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog.shared(table)?;
            let schema = Arc::new(t.schema().qualify(table));
            let snapshot = match catalog.current_snapshot(table) {
                Some(snapshot) => Some(snapshot),
                None if forced => Some(Arc::new(ColumnSnapshot::build(&t)?)),
                None => None,
            };
            Ok(match snapshot {
                Some(snapshot) => Batch::Pending {
                    selection: (0..t.len()).collect(),
                    snapshot,
                    schema,
                    table: t,
                },
                None => Batch::Rows {
                    schema,
                    tuples: t.tuples().to_vec(),
                },
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            match execute_vectorized(ctx, catalog, input, mode, forced)? {
                Batch::Pending {
                    table,
                    snapshot,
                    schema,
                    selection,
                } => {
                    let selection = filter_selection(
                        ctx,
                        &schema,
                        &snapshot,
                        Some(&selection),
                        predicate,
                        mode,
                    )?;
                    Ok(Batch::Pending {
                        table,
                        snapshot,
                        schema,
                        selection,
                    })
                }
                Batch::Rows { schema, tuples } => {
                    let tuples = filter_tuples(ctx, &schema, &tuples, predicate, mode)?;
                    Ok(Batch::Rows { schema, tuples })
                }
            }
        }
        LogicalPlan::Project { input, columns } => {
            match execute_vectorized(ctx, catalog, input, mode, forced)? {
                Batch::Pending {
                    table,
                    schema,
                    selection,
                    ..
                } => {
                    // Late materialization: build output tuples straight
                    // from the selected base rows.
                    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                    let out_schema = Arc::new(schema.project(&names)?);
                    let indices: Vec<usize> = columns
                        .iter()
                        .map(|c| schema.index_of(c))
                        .collect::<Result<_>>()?;
                    let tuples: Vec<Tuple> = selection
                        .iter()
                        .map(|&pos| table.tuples()[pos].project(&indices))
                        .collect::<Result<_>>()?;
                    Ok(Batch::Rows {
                        schema: out_schema,
                        tuples,
                    })
                }
                Batch::Rows { schema, tuples } => {
                    let (schema, tuples) = project(&schema, &tuples, columns)?;
                    Ok(Batch::Rows { schema, tuples })
                }
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let (schema, tuples) =
                execute_vectorized(ctx, catalog, input, mode, forced)?.materialize();
            let (schema, tuples) = aggregate(ctx, &schema, &tuples, group_by, aggregates)?;
            Ok(Batch::Rows { schema, tuples })
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let left_batch = execute_vectorized(ctx, catalog, left, mode, forced)?;
            let right_batch = execute_vectorized(ctx, catalog, right, mode, forced)?;
            let out = match right_batch {
                Batch::Pending {
                    table: right_table,
                    snapshot: right_snapshot,
                    schema: right_schema,
                    selection: right_selection,
                } => {
                    // Code-keyed join; the left side probes unmaterialized
                    // when it is still a pending selection.
                    let (left_schema, left_tuples, left_selection) = match &left_batch {
                        Batch::Pending {
                            table,
                            schema,
                            selection,
                            ..
                        } => (
                            Arc::clone(schema),
                            table.tuples(),
                            Some(selection.as_slice()),
                        ),
                        Batch::Rows { schema, tuples } => {
                            (Arc::clone(schema), tuples.as_slice(), None)
                        }
                    };
                    hash_join_coded(
                        ctx,
                        &left_schema,
                        left_tuples,
                        left_selection,
                        &right_schema,
                        right_table.tuples(),
                        Some(&right_selection),
                        &right_snapshot,
                        left_key,
                        right_key,
                    )?
                }
                Batch::Rows {
                    schema: right_schema,
                    tuples: right_tuples,
                } => {
                    let (left_schema, left_tuples) = left_batch.materialize();
                    hash_join(
                        ctx,
                        &left_schema,
                        &left_tuples,
                        &right_schema,
                        &right_tuples,
                        left_key,
                        right_key,
                    )?
                }
            };
            Ok(Batch::Rows {
                schema: out.schema,
                tuples: out.tuples,
            })
        }
    }
}

fn execute_node(
    ctx: &ExecContext,
    catalog: &Catalog,
    plan: &LogicalPlan,
    mode: PredicateMode,
) -> Result<(Arc<Schema>, Vec<Tuple>)> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog.table(table)?;
            // Qualify the schema with the table name so joined schemas are
            // unambiguous while unqualified lookups still resolve.
            let schema = Arc::new(t.schema().qualify(table));
            Ok((schema, t.tuples().to_vec()))
        }
        LogicalPlan::Filter { input, predicate } => {
            let (schema, tuples) = execute_node(ctx, catalog, input, mode)?;
            let filtered = filter_tuples(ctx, &schema, &tuples, predicate, mode)?;
            Ok((schema, filtered))
        }
        LogicalPlan::Project { input, columns } => {
            let (schema, tuples) = execute_node(ctx, catalog, input, mode)?;
            project(&schema, &tuples, columns)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let (schema, tuples) = execute_node(ctx, catalog, input, mode)?;
            aggregate(ctx, &schema, &tuples, group_by, aggregates)
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (left_schema, left_tuples) = execute_node(ctx, catalog, left, mode)?;
            let (right_schema, right_tuples) = execute_node(ctx, catalog, right, mode)?;
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

    /// Renders a result for byte-level comparison between execution paths:
    /// schema column names plus every tuple's id, lineage and cells.
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

    /// Every SQL fixture must return byte-identical results on the row path
    /// and the vectorized path — with snapshots attached (Auto vectorizes)
    /// and without (Vectorized builds ad-hoc snapshots) — across predicate
    /// modes and worker counts.
    #[test]
    fn vectorized_path_matches_row_path_on_sql_fixtures() {
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
        for attach_snapshots in [false, true] {
            let mut cat = catalog();
            if attach_snapshots {
                cat.refresh_snapshot("cities").unwrap();
                cat.refresh_snapshot("employees").unwrap();
            }
            for sql in &queries {
                let q = parse_query(sql).unwrap();
                let plan = LogicalPlan::from_query(&q).unwrap();
                for mode in [PredicateMode::Expected, PredicateMode::Possible] {
                    let row = execute_with(
                        &ExecContext::sequential(),
                        &cat,
                        &plan,
                        mode,
                        QueryExecMode::Row,
                    )
                    .unwrap();
                    for workers in [1usize, 2, 4, 7] {
                        let ctx = ExecContext::new(workers);
                        for exec in [QueryExecMode::Auto, QueryExecMode::Vectorized] {
                            let vec = execute_with(&ctx, &cat, &plan, mode, exec).unwrap();
                            assert_eq!(
                                dump(&row),
                                dump(&vec),
                                "`{sql}` diverged ({mode:?}, {exec}, {workers} workers, \
                                 snapshots={attach_snapshots})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Join-key validation happens at plan validation — before any operator
    /// runs — and raises the typed error on every execution path.
    #[test]
    fn unknown_join_key_is_a_typed_plan_error_on_all_paths() {
        let cat = catalog();
        let ctx = ExecContext::sequential();
        let q = parse_query(
            "SELECT cities.zip FROM cities JOIN employees ON cities.zip = employees.postcode",
        )
        .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        for exec in [
            QueryExecMode::Row,
            QueryExecMode::Auto,
            QueryExecMode::Vectorized,
        ] {
            let err = execute_with(&ctx, &cat, &plan, PredicateMode::Possible, exec).unwrap_err();
            match err {
                daisy_common::DaisyError::UnknownJoinColumn { side, column } => {
                    assert_eq!(side, "right");
                    assert_eq!(column, "employees.postcode");
                }
                other => panic!("expected UnknownJoinColumn, got {other:?}"),
            }
        }
    }
}
