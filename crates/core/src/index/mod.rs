//! The violation-index subsystem: hash-equality partitioning plus sort-based
//! inequality sweeps for near-linear DC violation detection.
//!
//! [`FdIndex`](crate::fd_index::FdIndex) pre-computes group statistics for
//! the FD special case; this module generalises the underlying idea — *group
//! tuples so that only intra-group pairs can violate* — to arbitrary
//! two-tuple denial constraints, following the standard decomposition used
//! by DC-evaluation systems:
//!
//! 1. **Hash-equality partitioning** — the cross-tuple equality predicates
//!    of the constraint form a composite key
//!    ([`DenialConstraint::index_plan`]); tuples are hash-partitioned on it,
//!    so a candidate pair must share a partition.
//! 2. **Sort-based inequality sweep** — within each partition, one order
//!    predicate (`t1.a < t2.a`, …) is satisfied by sorting the members on
//!    the sweep attribute and enumerating only the order-compatible pairs
//!    (an order-statistics prefix/suffix per probe, found by binary search).
//! 3. **Residual predicates** — everything else (same-tuple atoms, constants,
//!    cross-tuple `≠`) is resolved once to column ordinals
//!    ([`ResolvedPredicate`](daisy_expr::ResolvedPredicate)) and evaluated
//!    per surviving candidate pair.
//!
//! For an equality-bearing DC over `n` tuples with `d` distinct keys this
//! enumerates `O(n·n/d)` candidates after an `O(n log n)` build instead of
//! the pairwise `O(n²)` — the difference the `bench_detection` harness
//! records in `BENCH_detection.json`.
//!
//! There is one index type, [`MaintainedIndex`]: the world keeps one per
//! `(table, rule)`, absorbs every write into it, and both the θ-matrix
//! check and streaming ingest enumerate candidates through its kernel.
//!
//! Everything here is deterministic for any worker count: the kernel merges
//! its morsels in probe order, and callers canonicalise the emitted
//! violations with [`canonicalize_violations`].  The same guarantees back
//! the two reusable building blocks the rest of the crate consumes:
//!
//! * [`partition_by_key`] — the parallel fallible key-partitioning stage,
//!   used by `cleanσ` for FD violation grouping,
//! * [`id_index`] — the tuple-id lookup index used by the candidate-range
//!   repair path to resolve the tuples of a violation.

mod maintained;

pub use maintained::MaintainedIndex;
pub(crate) use maintained::Probes;
#[cfg(test)]
pub(crate) use maintained::BUILDS;

use std::collections::HashMap;
use std::hash::Hash;

use daisy_common::{Result, Schema, TupleId};
use daisy_exec::ExecContext;
use daisy_expr::{DenialConstraint, IndexPlan, Violation};
use daisy_storage::Tuple;

/// Partitions `items` by a fallible key function, in parallel: keys are
/// extracted chunk-at-a-time (order preserving, earliest error wins) and
/// grouped with the hash-sharded group-by so each worker owns whole groups.
/// The per-group position lists are ascending and identical for every worker
/// count.
pub fn partition_by_key<T, K, F>(
    ctx: &ExecContext,
    items: &[T],
    key: F,
) -> Result<HashMap<K, Vec<usize>>>
where
    T: Sync,
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&T) -> Result<K> + Sync,
{
    let keys: Vec<K> = daisy_exec::par_flat_map_chunks(ctx, items, |chunk| {
        chunk.iter().map(&key).collect::<Result<Vec<K>>>()
    })?;
    Ok(daisy_exec::par_group_by_sharded(ctx, &keys, |k| k.clone()))
}

/// Builds a tuple-id lookup over a tuple slice.  Used by the general-DC
/// repair path to resolve the tuples a violation mentions before computing
/// candidate-range fixes.  If an id occurs more than once the last
/// occurrence wins (matching a sequential `HashMap::insert` loop).
///
/// Tuple ids are (near-)unique, so a sharded group-by would allocate a
/// position vector per id only to immediately collapse it; a single
/// insert-only pass is both the fastest and the leanest build, and it is
/// trivially worker-count invariant.  The `ctx` parameter keeps the call
/// shape of the other index builders for when a parallel build pays off.
pub fn id_index<'t>(_ctx: &ExecContext, tuples: &'t [Tuple]) -> HashMap<TupleId, &'t Tuple> {
    tuples.iter().map(|t| (t.id, t)).collect()
}

/// Canonicalises a violation list: each violation's tuple list is sorted,
/// then the list itself is sorted by tuple ids and de-duplicated.  Every
/// detection entry point funnels its output through this, which is what
/// makes any worker count's results byte-identical.
pub fn canonicalize_violations(mut violations: Vec<Violation>) -> Vec<Violation> {
    for v in violations.iter_mut() {
        *v = v.canonical();
    }
    violations.sort_by(|a, b| a.tuples.cmp(&b.tuples));
    violations.dedup();
    violations
}

/// A [`MaintainedIndex`] over a bare tuple slice, built for one detection
/// pass.  It exists for the benchmark package, whose probes time `build`
/// and `detect` on a tuple slice; every other caller uses
/// [`MaintainedIndex`] directly.
#[derive(Debug, Clone)]
pub struct ViolationIndex(MaintainedIndex);

impl ViolationIndex {
    /// Builds the index over all of `tuples` ([`MaintainedIndex::build`]
    /// without a table); `_ctx` keeps the benchmark's call shape.
    pub fn build(
        _ctx: &ExecContext,
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
        tuples: &[Tuple],
    ) -> Result<ViolationIndex> {
        MaintainedIndex::over_tuples(schema, constraint, plan, tuples, |_| true).map(ViolationIndex)
    }

    /// Full detection with canonical output ([`MaintainedIndex::detect`]).
    pub fn detect(
        &self,
        ctx: &ExecContext,
        _schema: &Schema,
        tuples: &[Tuple],
    ) -> Result<(Vec<Violation>, usize)> {
        self.0.detect(ctx, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DaisyError, DataType, RuleId, Schema, Value};
    use daisy_expr::Operand;
    use daisy_storage::Table;
    use std::collections::HashSet;

    fn ctx() -> ExecContext {
        ExecContext::new(4)
    }

    fn emp_table(rows: &[(i64, i64, f64)]) -> Table {
        Table::from_rows(
            "emp",
            Schema::from_pairs(&[
                ("dept", DataType::Int),
                ("salary", DataType::Int),
                ("tax", DataType::Float),
            ])
            .unwrap(),
            rows.iter()
                .map(|(d, s, t)| vec![Value::Int(*d), Value::Int(*s), Value::Float(*t)])
                .collect(),
        )
        .unwrap()
    }

    fn oracle(table: &Table, dc: &DenialConstraint) -> Vec<Violation> {
        let mut expected = Vec::new();
        for a in table.tuples() {
            for b in table.tuples() {
                if a.id != b.id && dc.violated_by(table.schema(), &[a, b]).unwrap() {
                    expected.push(Violation::pair(dc.id, a.id, b.id));
                }
            }
        }
        canonicalize_violations(expected)
    }

    /// Brute-force count of the candidate bindings the kernel
    /// residual-checks: directed pairs of distinct positions whose
    /// equality keys are equal and whose sweep predicate holds on non-NULL
    /// values, among those `admit` accepts.
    pub(super) fn candidate_bindings(
        schema: &Schema,
        tuples: &[Tuple],
        dc: &DenialConstraint,
        admit: impl Fn(usize, usize) -> bool,
    ) -> usize {
        let plan = dc.index_plan().unwrap();
        let key: Vec<(usize, usize)> = plan
            .key
            .iter()
            .map(|(l, r)| (schema.index_of(l).unwrap(), schema.index_of(r).unwrap()))
            .collect();
        let sweep = plan
            .sweep
            .as_ref()
            .map(|pred| match (&pred.left, &pred.right) {
                (Operand::Attr { column: l, .. }, Operand::Attr { column: r, .. }) => (
                    pred.op,
                    schema.index_of(l).unwrap(),
                    schema.index_of(r).unwrap(),
                ),
                _ => panic!("sweep predicates compare two attributes"),
            });
        let value = |pos: usize, col: usize| tuples[pos].value(col).unwrap();
        let mut count = 0;
        for i in 0..tuples.len() {
            for j in 0..tuples.len() {
                let keys_equal = key.iter().all(|&(l, r)| value(i, l) == value(j, r));
                let sweeps = sweep.is_none_or(|(op, l, r)| {
                    let (a, b) = (value(i, l), value(j, r));
                    !a.is_null() && !b.is_null() && op.eval(&a, &b)
                });
                if i != j && keys_equal && sweeps && admit(i, j) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Full detection over a fresh index of `table`, with the pair count
    /// checked against the brute-force candidate counter.
    fn detect(table: &Table, dc: &DenialConstraint, workers: usize) -> (Vec<Violation>, usize) {
        let plan = dc.index_plan().unwrap();
        let index = MaintainedIndex::build(table.schema(), dc, &plan, table).unwrap();
        let (found, pairs) = index
            .detect(&ExecContext::new(workers), table.tuples())
            .unwrap();
        let expected = candidate_bindings(table.schema(), table.tuples(), dc, |_, _| true);
        assert_eq!(pairs, expected, "candidate enumeration");
        (found, pairs)
    }

    /// Detection over an index whose partitions hold only `positions`,
    /// probed by exactly those positions: the subset's own violations, with
    /// the pair count checked against the brute-force counter.
    fn detect_subset(table: &Table, dc: &DenialConstraint, positions: &[usize]) -> Vec<Violation> {
        let plan = dc.index_plan().unwrap();
        let subset: HashSet<usize> = positions.iter().copied().collect();
        let index = MaintainedIndex::over_tuples(table.schema(), dc, &plan, table.tuples(), |p| {
            subset.contains(&p)
        })
        .unwrap();
        let (found, pairs) = index
            .enumerate(
                &ctx(),
                table.tuples(),
                Probes::Members(&|_| true),
                |_, _| true,
            )
            .unwrap();
        let expected = candidate_bindings(table.schema(), table.tuples(), dc, |i, j| {
            subset.contains(&i) && subset.contains(&j)
        });
        assert_eq!(pairs, expected, "candidate enumeration");
        let ids: HashSet<TupleId> = positions.iter().map(|&p| table.tuples()[p].id).collect();
        let oracle: Vec<Violation> = oracle(table, dc)
            .into_iter()
            .filter(|v| v.tuples.iter().all(|t| ids.contains(t)))
            .collect();
        let found = canonicalize_violations(found);
        assert_eq!(found, oracle);
        found
    }

    #[test]
    fn partition_by_key_matches_sequential_grouping() {
        let items: Vec<i64> = (0..100).map(|i| i % 7).collect();
        let groups = partition_by_key(&ctx(), &items, |x| Ok(*x)).unwrap();
        assert_eq!(groups.len(), 7);
        for (k, positions) in &groups {
            assert!(positions.iter().all(|&p| items[p] == *k));
            assert!(positions.windows(2).all(|w| w[0] < w[1]));
        }
        // Errors propagate (earliest chunk wins is covered in daisy-exec).
        let err = partition_by_key(&ctx(), &items, |x| {
            if *x == 3 {
                Err(DaisyError::Plan("boom".into()))
            } else {
                Ok(*x)
            }
        });
        assert!(err.is_err());
    }

    #[test]
    fn id_index_resolves_every_tuple() {
        let table = emp_table(&[(1, 100, 0.1), (1, 200, 0.2), (2, 300, 0.3)]);
        let index = id_index(&ctx(), table.tuples());
        assert_eq!(index.len(), 3);
        for t in table.tuples() {
            assert_eq!(index[&t.id].id, t.id);
        }
    }

    #[test]
    fn equality_and_sweep_detection_matches_oracle() {
        // ¬(t1.dept = t2.dept ∧ t1.salary < t2.salary ∧ t1.tax > t2.tax):
        // inverted salary/tax pairs within a department.
        let rows: Vec<(i64, i64, f64)> = (0..80)
            .map(|i| (i % 5, 1000 + i * 10, ((i * 37) % 80) as f64 / 100.0))
            .collect();
        let table = emp_table(&rows);
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let plan = dc.index_plan().unwrap();
        let index = MaintainedIndex::build(table.schema(), &dc, &plan, &table).unwrap();
        assert_eq!(index.partition_count(), 5);
        let (found, pairs) = detect(&table, &dc, 4);
        let expected = oracle(&table, &dc);
        assert_eq!(found, expected);
        assert!(!found.is_empty());
        // The sweep only materialises order-compatible candidates: strictly
        // fewer than the pairwise scan of the 16-member partitions.
        assert!(pairs < 80 * 79);
    }

    #[test]
    fn no_sweep_fd_shape_matches_oracle() {
        let rows = &[(1, 10, 0.0), (1, 20, 0.0), (1, 10, 0.0), (2, 30, 0.0)];
        let table = emp_table(rows);
        let dc =
            DenialConstraint::parse("fd", "t1.dept = t2.dept & t1.salary != t2.salary").unwrap();
        assert!(dc.index_plan().unwrap().sweep.is_none());
        let (found, _) = detect(&table, &dc, 4);
        assert_eq!(found, oracle(&table, &dc));
        assert_eq!(found.len(), 2); // tuples {0,2} × tuple 1
    }

    #[test]
    fn empty_key_plan_sweeps_a_single_partition() {
        let table = emp_table(&[(0, 1000, 0.1), (0, 3000, 0.2), (0, 2000, 0.3)]);
        let dc = DenialConstraint::parse("phi", "t1.salary < t2.salary & t1.tax > t2.tax").unwrap();
        let plan = dc.index_plan().unwrap();
        assert!(!plan.has_equality_key());
        let index = MaintainedIndex::build(table.schema(), &dc, &plan, &table).unwrap();
        assert_eq!(index.partition_count(), 1);
        let (found, _) = detect(&table, &dc, 4);
        assert_eq!(found, oracle(&table, &dc));
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn build_over_subset_detects_exactly_the_subset_violations() {
        let rows: Vec<(i64, i64, f64)> = (0..40)
            .map(|i| (i % 3, 1000 + i * 10, ((i * 37) % 40) as f64 / 100.0))
            .collect();
        let table = emp_table(&rows);
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        // Index only the even positions: detection must equal the oracle
        // restricted to pairs of even-position tuples.
        let positions: Vec<usize> = (0..40).step_by(2).collect();
        assert!(!detect_subset(&table, &dc, &positions).is_empty());
    }

    #[test]
    fn worker_counts_do_not_change_detection() {
        let rows: Vec<(i64, i64, f64)> = (0..60)
            .map(|i| (i % 4, (i * 13) % 500, ((i * 7) % 60) as f64))
            .collect();
        let table = emp_table(&rows);
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let baseline = detect(&table, &dc, 1);
        for workers in [2, 4, 7] {
            assert_eq!(detect(&table, &dc, workers), baseline);
        }
    }

    #[test]
    fn null_keys_group_together_and_null_sweep_values_never_violate() {
        // NULL = NULL holds under this engine's comparison semantics, so
        // NULL keys form a regular partition; NULL sweep values can never
        // satisfy an order predicate and are excluded from the sweep.
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_rows(
            "emp",
            schema,
            vec![
                vec![Value::Null, Value::Int(100), Value::Float(0.9)],
                vec![Value::Null, Value::Int(200), Value::Float(0.1)],
                vec![Value::Int(1), Value::Null, Value::Float(0.5)],
                vec![Value::Int(1), Value::Int(300), Value::Float(0.4)],
            ],
        )
        .unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let (found, _) = detect(&table, &dc, 4);
        assert_eq!(found, oracle(&table, &dc));
        // The NULL-dept pair (100, 0.9) vs (200, 0.1) violates.
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn nulls_nan_and_a_constant_residual_match_oracle() {
        // Mixed content: equality key with NULLs, sweep with NULLs, a
        // residual with a constant — the full kernel surface.
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let mut rows: Vec<Vec<Value>> = (0..70)
            .map(|i| {
                vec![
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 4)
                    },
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Int(1000 + (i * 37) % 900)
                    },
                    Value::Float(((i * 7) % 70) as f64 / 10.0),
                ]
            })
            .collect();
        rows.push(vec![
            Value::Int(1),
            Value::Int(1200),
            Value::Float(f64::NAN),
        ]);
        let table = Table::from_rows("emp", schema, rows).unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax & t1.tax > 0.5",
        )
        .unwrap();
        let (found, _) = detect(&table, &dc, 4);
        assert_eq!(found, oracle(&table, &dc));
        assert!(!found.is_empty());
    }

    #[test]
    fn string_keys_and_subsets_match_oracle() {
        let schema = Schema::from_pairs(&[
            ("city", DataType::Str),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let cities = ["berlin", "amsterdam", "zagreb", "berlin", "amsterdam"];
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| {
                vec![
                    Value::from(cities[i % cities.len()]),
                    Value::Int((1000 + (i * 13) % 400) as i64),
                    Value::Float(((i * 31) % 50) as f64),
                ]
            })
            .collect();
        let table = Table::from_rows("emp", schema, rows).unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.city = t2.city & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let positions: Vec<usize> = (0..50).step_by(3).collect();
        assert!(!detect_subset(&table, &dc, &positions).is_empty());
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let a = Violation::pair(RuleId::new(0), TupleId::new(5), TupleId::new(2));
        let b = Violation::pair(RuleId::new(0), TupleId::new(2), TupleId::new(5));
        let c = Violation::pair(RuleId::new(0), TupleId::new(1), TupleId::new(3));
        let out = canonicalize_violations(vec![a, b, c]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuples, vec![TupleId::new(1), TupleId::new(3)]);
    }
}
