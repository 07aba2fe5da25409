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
//!    ([`DenialConstraint::index_plan`]); tuples are hash-partitioned on it
//!    (in parallel, via the order-preserving
//!    [`par_group_by_sharded`](daisy_exec::par_group_by_sharded)), so a
//!    candidate pair must share a partition.
//! 2. **Sort-based inequality sweep** — within each partition, one order
//!    predicate (`t1.a < t2.a`, …) is satisfied by sorting the members on
//!    the sweep attribute and enumerating only the order-compatible pairs
//!    (an order-statistics prefix/suffix per probe, found by binary search).
//! 3. **Residual predicates** — everything else (same-tuple atoms, constants,
//!    cross-tuple `≠`) is resolved once to column ordinals
//!    ([`ResolvedPredicate`]) and evaluated per surviving candidate pair.
//!
//! For an equality-bearing DC over `n` tuples with `d` distinct keys this
//! enumerates `O(n·n/d)` candidates after an `O(n log n)` build instead of
//! the pairwise `O(n²)` — the difference the `bench_detection` harness
//! records in `BENCH_detection.json`.
//!
//! Everything here is deterministic for any worker count: partitions are
//! processed in sorted key order, per-partition scans are order-preserving,
//! and callers canonicalise the emitted violations with
//! [`canonicalize_violations`].  The same guarantees back the two reusable
//! building blocks the rest of the crate consumes:
//!
//! * [`partition_by_key`] — the parallel fallible key-partitioning stage,
//!   also used by `cleanσ` for FD violation grouping,
//! * [`id_index`] — the tuple-id lookup index used by the candidate-range
//!   repair path to resolve the tuples of a violation.

mod maintained;

pub use maintained::MaintainedIndex;

use std::collections::HashMap;
use std::hash::Hash;

use daisy_common::{DaisyError, Result, RuleId, Schema, TupleId, Value};
use daisy_exec::ExecContext;
use daisy_expr::{
    resolve_predicates, ComparisonOp, DcPredicate, DenialConstraint, IndexPlan, Operand,
    ResolvedPredicate, Violation,
};
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

/// One member of a sweep partition: a tuple position plus its sweep-attribute
/// value (NULL when the plan has no sweep predicate).
#[derive(Debug, Clone)]
struct SweepEntry {
    pos: usize,
    value: Value,
}

/// One hash-equality partition, with members sorted on the sweep attribute.
///
/// `left` holds the positions whose *left-role* key (tuple-1 columns of the
/// plan) equals the partition key, sorted by the sweep predicate's left
/// attribute; `right` symmetrically for the tuple-2 role.  For symmetric
/// plans (same key columns, same sweep column) the member lists coincide
/// and `right` is `None`, sharing `left` instead of storing a copy.
#[derive(Debug, Clone)]
struct SweepPartition {
    left: Vec<SweepEntry>,
    right: Option<Vec<SweepEntry>>,
}

impl SweepPartition {
    fn right(&self) -> &[SweepEntry] {
        self.right.as_deref().unwrap_or(&self.left)
    }
}

/// The violation index of one two-tuple denial constraint over one tuple
/// slice: hash partitions on the equality key, each sorted for the
/// inequality sweep, plus the residual predicates resolved once to column
/// ordinals (see the module docs for the algorithm).
///
/// The index is built against a specific `tuples` slice; detection must be
/// run with the same slice (positions are slice indices).
#[derive(Debug, Clone)]
pub struct ViolationIndex {
    rule: RuleId,
    sweep_op: Option<ComparisonOp>,
    partitions: Vec<SweepPartition>,
    residual: Vec<ResolvedPredicate>,
}

impl ViolationIndex {
    /// Builds the index for `constraint` (whose plan is `plan`) over all of
    /// `tuples`, partitioning and sorting in parallel on `ctx`.
    pub fn build(
        ctx: &ExecContext,
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
        tuples: &[Tuple],
    ) -> Result<ViolationIndex> {
        let all: Vec<usize> = (0..tuples.len()).collect();
        ViolationIndex::build_over(ctx, schema, constraint, plan, tuples, &all)
    }

    /// Builds the index over a subset of `tuples` given by `positions`
    /// (ascending slice indices).  Incremental checks use this to index only
    /// the tuples of the blocks still under consideration, so a range check
    /// against a mostly-checked matrix pays for its submatrix rather than
    /// the whole table.
    pub fn build_over(
        ctx: &ExecContext,
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
        tuples: &[Tuple],
        positions: &[usize],
    ) -> Result<ViolationIndex> {
        let left_cols: Vec<usize> = plan
            .key
            .iter()
            .map(|(l, _)| schema.index_of(l))
            .collect::<Result<_>>()?;
        let right_cols: Vec<usize> = plan
            .key
            .iter()
            .map(|(_, r)| schema.index_of(r))
            .collect::<Result<_>>()?;
        let sweep = plan
            .sweep
            .as_ref()
            .map(|pred| resolve_sweep(schema, pred))
            .transpose()?;
        let (sweep_op, sweep_left, sweep_right) = match sweep {
            Some((op, l, r)) => (Some(op), Some(l), Some(r)),
            None => (None, None, None),
        };
        // Same key columns and same (or no) sweep column ⇒ the two binding
        // roles have identical member lists; build them once.
        let symmetric = left_cols == right_cols && sweep_left == sweep_right;
        let roles = BuildRoles {
            left_cols: &left_cols,
            right_cols: &right_cols,
            sweep_left,
            sweep_right,
            symmetric,
        };
        Ok(ViolationIndex {
            rule: constraint.id,
            sweep_op,
            partitions: build_partitions(ctx, tuples, positions, &roles)?,
            residual: resolve_predicates(&plan.residual, schema)?,
        })
    }

    /// Number of hash-equality partitions that can produce candidate pairs.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Emits the violating bindings among the candidate pairs admitted by
    /// `admit` (a positional predicate; [`ThetaMatrix`](crate::theta)
    /// restricts it to not-yet-checked block pairs).  Returns the violations
    /// in a deterministic discovery order — callers canonicalise with
    /// [`canonicalize_violations`] — plus the number of candidate bindings
    /// that were residual-checked.  The residual predicates were resolved
    /// against the build schema, so `_schema` is only kept for call-site
    /// symmetry with the build.
    ///
    /// Partitions are scanned in parallel on `ctx`; per-partition results
    /// are merged in partition order, so the output is identical for every
    /// worker count.
    pub fn sweep_detect<F>(
        &self,
        ctx: &ExecContext,
        _schema: &Schema,
        tuples: &[Tuple],
        admit: F,
    ) -> Result<(Vec<Violation>, usize)>
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        self.run_sweep(ctx, tuples, &admit)
    }

    /// Drives the partition sweep: sequentially at one worker, otherwise as
    /// **skew-sharded morsel tasks** — per-probe candidate weights cut the
    /// flat outer-position space into morsels of roughly equal candidate
    /// mass ([`daisy_exec::weighted_ranges`]), so one giant hash-equality
    /// partition is split across several stealable tasks while runs of tiny
    /// partitions are packed into one.  Task outputs are merged in task
    /// order, which equals the sequential enumeration order, so violations
    /// **and** the pair counter are byte-identical for every worker count
    /// and morsel granularity.
    fn run_sweep<F>(
        &self,
        ctx: &ExecContext,
        tuples: &[Tuple],
        admit: &F,
    ) -> Result<(Vec<Violation>, usize)>
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        if ctx.workers() == 1 {
            let mut found = Vec::new();
            let mut pairs = 0usize;
            for part in &self.partitions {
                let outer = match self.sweep_op {
                    Some(_) => part.right().len(),
                    None => part.left.len(),
                };
                self.scan_partition(tuples, part, 0..outer, admit, &mut found, &mut pairs)?;
            }
            return Ok((found, pairs));
        }
        let tasks = self.skew_tasks(ctx);
        let partials = daisy_exec::try_run_tasks(ctx, &tasks, |segments| {
            let mut found = Vec::new();
            let mut pairs = 0usize;
            for &(p, start, end) in segments {
                self.scan_partition(
                    tuples,
                    &self.partitions[p],
                    start..end,
                    admit,
                    &mut found,
                    &mut pairs,
                )?;
            }
            if let Some(counters) = ctx.morsel_counters() {
                counters.record_work(pairs as u64);
            }
            Ok::<_, DaisyError>((found, pairs))
        })?;
        let mut violations = Vec::new();
        let mut pairs = 0usize;
        for (found, count) in partials {
            violations.extend(found);
            pairs += count;
        }
        Ok((violations, pairs))
    }

    /// Cuts the sweep into weighted morsel tasks.  Each task is a list of
    /// `(partition, outer_start, outer_end)` segments over the flat
    /// outer-position space (right-role probes under a sweep, left members
    /// otherwise), weighted per position by its candidate count (`+1` for
    /// the probe itself), so cuts land where the candidate mass is: a
    /// skewed partition's sweep is split mid-partition across several
    /// stealable tasks instead of pinning one worker.
    fn skew_tasks(&self, ctx: &ExecContext) -> Vec<Vec<(usize, usize, usize)>> {
        let mut weights: Vec<u64> = Vec::new();
        let mut owner: Vec<(usize, usize)> = Vec::new();
        for (p, part) in self.partitions.iter().enumerate() {
            match self.sweep_op {
                Some(op) => {
                    for (o, probe) in part.right().iter().enumerate() {
                        let candidates = sweep_candidates(&part.left, op, &probe.value).len();
                        weights.push(candidates as u64 + 1);
                        owner.push((p, o));
                    }
                }
                None => {
                    let inner = part.right().len() as u64;
                    for o in 0..part.left.len() {
                        weights.push(inner + 1);
                        owner.push((p, o));
                    }
                }
            }
        }
        daisy_exec::weighted_ranges(&weights, ctx.morsel_count(weights.len()))
            .into_iter()
            .map(|(start, end)| {
                let mut segments: Vec<(usize, usize, usize)> = Vec::new();
                for &(p, o) in &owner[start..end] {
                    match segments.last_mut() {
                        Some(seg) if seg.0 == p && seg.2 == o => seg.2 = o + 1,
                        _ => segments.push((p, o, o + 1)),
                    }
                }
                segments
            })
            .collect()
    }

    /// Full detection over the whole index with canonical output — the
    /// standalone entry point used by benches and differential tests.
    pub fn detect(
        &self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
    ) -> Result<(Vec<Violation>, usize)> {
        let (violations, pairs) = self.sweep_detect(ctx, schema, tuples, |_, _| true)?;
        Ok((canonicalize_violations(violations), pairs))
    }

    /// Enumerates one partition's candidate bindings for the outer
    /// positions in `outer` — all left×right pairs when the plan has no
    /// sweep predicate (outer = left members), otherwise, per right-role
    /// probe, the order-statistics prefix/suffix of the sorted left-role
    /// members that satisfies the sweep — and residual-checks each admitted
    /// binding.  `pairs` counts residual-checked bindings.  Restricting
    /// `outer` is what lets [`ViolationIndex::skew_tasks`] split one skewed
    /// partition across several morsels: concatenating range scans in order
    /// equals the full scan.
    fn scan_partition<F>(
        &self,
        tuples: &[Tuple],
        part: &SweepPartition,
        outer: std::ops::Range<usize>,
        admit: &F,
        out: &mut Vec<Violation>,
        pairs: &mut usize,
    ) -> Result<()>
    where
        F: Fn(usize, usize) -> bool,
    {
        let mut check = |i: usize, j: usize| -> Result<()> {
            if i == j || !admit(i, j) {
                return Ok(());
            }
            *pairs += 1;
            if residual_holds(&self.residual, [&tuples[i], &tuples[j]])? {
                out.push(Violation::pair(self.rule, tuples[i].id, tuples[j].id));
            }
            Ok(())
        };
        match self.sweep_op {
            None => {
                for l in &part.left[outer] {
                    for r in part.right() {
                        check(l.pos, r.pos)?;
                    }
                }
            }
            Some(op) => {
                for r in &part.right()[outer] {
                    for l in sweep_candidates(&part.left, op, &r.value) {
                        check(l.pos, r.pos)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// `true` when every residual predicate holds for the binding `(t1, t2)`.
fn residual_holds(residual: &[ResolvedPredicate], binding: [&Tuple; 2]) -> Result<bool> {
    for pred in residual {
        if !pred.eval(binding)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The resolved column roles of an index build.
struct BuildRoles<'a> {
    left_cols: &'a [usize],
    right_cols: &'a [usize],
    sweep_left: Option<usize>,
    sweep_right: Option<usize>,
    symmetric: bool,
}

/// Builds the partition/sweep structure of the index over `positions`:
/// tuples are hash-partitioned on each role's (possibly composite) equality
/// key and every partition's members are sorted on the sweep attribute.
fn build_partitions(
    ctx: &ExecContext,
    tuples: &[Tuple],
    positions: &[usize],
    roles: &BuildRoles<'_>,
) -> Result<Vec<SweepPartition>> {
    let key_of = |cols: &[usize], pos: usize| -> Result<Vec<Value>> {
        cols.iter().map(|&c| tuples[pos].value(c)).collect()
    };
    // The group-by yields indices into `positions`; remap them to slice
    // positions right away (lists stay ascending because `positions` is).
    let remap = |groups: HashMap<Vec<Value>, Vec<usize>>| -> HashMap<Vec<Value>, Vec<usize>> {
        groups
            .into_iter()
            .map(|(k, idxs)| (k, idxs.into_iter().map(|i| positions[i]).collect()))
            .collect()
    };
    let left_groups = remap(partition_by_key(ctx, positions, |p| {
        key_of(roles.left_cols, *p)
    })?);
    let right_groups = if roles.symmetric {
        None
    } else {
        Some(remap(partition_by_key(ctx, positions, |p| {
            key_of(roles.right_cols, *p)
        })?))
    };

    // Only keys present in both roles can form candidate pairs; sorting
    // the surviving keys keeps the partition order deterministic.
    let mut keys: Vec<&Vec<Value>> = match &right_groups {
        None => left_groups.keys().collect(),
        Some(right) => left_groups
            .keys()
            .filter(|k| right.contains_key(*k))
            .collect(),
    };
    keys.sort();

    let entries = |members: &[usize], col: Option<usize>| -> Result<Vec<SweepEntry>> {
        let mut out = Vec::with_capacity(members.len());
        for &pos in members {
            let value = match col {
                Some(c) => tuples[pos].value(c)?,
                None => Value::Null,
            };
            // Order comparisons against NULL are never satisfied, so
            // NULL-valued members cannot participate in a sweep.
            if col.is_some() && value.is_null() {
                continue;
            }
            out.push(SweepEntry { pos, value });
        }
        if col.is_some() {
            out.sort_by(|a, b| a.value.cmp(&b.value).then(a.pos.cmp(&b.pos)));
        }
        Ok(out)
    };
    let mut partitions = Vec::with_capacity(keys.len());
    for key in keys {
        let left = entries(&left_groups[key], roles.sweep_left)?;
        let right = match &right_groups {
            None => None,
            Some(right) => Some(entries(&right[key], roles.sweep_right)?),
        };
        partitions.push(SweepPartition { left, right });
    }
    Ok(partitions)
}

/// The contiguous slice of ascending-sorted left-role members whose sweep
/// value satisfies `value_left op probe` for a right-role probe value.
fn sweep_candidates<'a>(
    left: &'a [SweepEntry],
    op: ComparisonOp,
    probe: &Value,
) -> &'a [SweepEntry] {
    match op {
        ComparisonOp::Lt => &left[..left.partition_point(|e| e.value < *probe)],
        ComparisonOp::Le => &left[..left.partition_point(|e| e.value <= *probe)],
        ComparisonOp::Gt => &left[left.partition_point(|e| e.value <= *probe)..],
        ComparisonOp::Ge => &left[left.partition_point(|e| e.value < *probe)..],
        // Equality operators never become sweep predicates.
        ComparisonOp::Eq | ComparisonOp::Neq => left,
    }
}

/// Resolves a normalized sweep predicate into `(op, t1 column, t2 column)`.
fn resolve_sweep(schema: &Schema, pred: &DcPredicate) -> Result<(ComparisonOp, usize, usize)> {
    let (
        Operand::Attr {
            tuple: 0,
            column: lc,
        },
        Operand::Attr {
            tuple: 1,
            column: rc,
        },
    ) = (&pred.left, &pred.right)
    else {
        return Err(DaisyError::Plan(format!(
            "sweep predicate `{pred}` is not a normalized cross-tuple comparison"
        )));
    };
    Ok((pred.op, schema.index_of(lc)?, schema.index_of(rc)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};
    use daisy_storage::Table;

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
        let index =
            ViolationIndex::build(&ctx(), table.schema(), &dc, &plan, table.tuples()).unwrap();
        assert_eq!(index.partition_count(), 5);
        let (found, pairs) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
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
        let plan = dc.index_plan().unwrap();
        assert!(plan.sweep.is_none());
        let index =
            ViolationIndex::build(&ctx(), table.schema(), &dc, &plan, table.tuples()).unwrap();
        let (found, _) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
        assert_eq!(found, oracle(&table, &dc));
        assert_eq!(found.len(), 2); // tuples {0,2} × tuple 1
    }

    #[test]
    fn empty_key_plan_sweeps_a_single_partition() {
        let table = emp_table(&[(0, 1000, 0.1), (0, 3000, 0.2), (0, 2000, 0.3)]);
        let dc = DenialConstraint::parse("phi", "t1.salary < t2.salary & t1.tax > t2.tax").unwrap();
        let plan = dc.index_plan().unwrap();
        assert!(!plan.has_equality_key());
        let index =
            ViolationIndex::build(&ctx(), table.schema(), &dc, &plan, table.tuples()).unwrap();
        assert_eq!(index.partition_count(), 1);
        let (found, _) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
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
        let plan = dc.index_plan().unwrap();
        // Index only the even positions: detection must equal the oracle
        // restricted to pairs of even-position tuples.
        let positions: Vec<usize> = (0..40).step_by(2).collect();
        let index = ViolationIndex::build_over(
            &ctx(),
            table.schema(),
            &dc,
            &plan,
            table.tuples(),
            &positions,
        )
        .unwrap();
        let (found, _) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
        let subset_ids: std::collections::HashSet<_> =
            positions.iter().map(|&p| table.tuples()[p].id).collect();
        let expected: Vec<Violation> = oracle(&table, &dc)
            .into_iter()
            .filter(|v| v.tuples.iter().all(|t| subset_ids.contains(t)))
            .collect();
        assert_eq!(found, expected);
        assert!(!found.is_empty());
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
        let plan = dc.index_plan().unwrap();
        let run = |workers: usize| {
            let c = ExecContext::new(workers);
            let index =
                ViolationIndex::build(&c, table.schema(), &dc, &plan, table.tuples()).unwrap();
            index.detect(&c, table.schema(), table.tuples()).unwrap()
        };
        let baseline = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(run(workers), baseline);
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
        let plan = dc.index_plan().unwrap();
        let index =
            ViolationIndex::build(&ctx(), table.schema(), &dc, &plan, table.tuples()).unwrap();
        let (found, _) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
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
        let plan = dc.index_plan().unwrap();
        let index =
            ViolationIndex::build(&ctx(), table.schema(), &dc, &plan, table.tuples()).unwrap();
        let (found, _) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
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
        let plan = dc.index_plan().unwrap();
        let positions: Vec<usize> = (0..50).step_by(3).collect();
        let index = ViolationIndex::build_over(
            &ctx(),
            table.schema(),
            &dc,
            &plan,
            table.tuples(),
            &positions,
        )
        .unwrap();
        let (found, _) = index
            .detect(&ctx(), table.schema(), table.tuples())
            .unwrap();
        let subset_ids: std::collections::HashSet<_> =
            positions.iter().map(|&p| table.tuples()[p].id).collect();
        let expected: Vec<Violation> = oracle(&table, &dc)
            .into_iter()
            .filter(|v| v.tuples.iter().all(|t| subset_ids.contains(t)))
            .collect();
        assert_eq!(found, expected);
        assert!(!found.is_empty());
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
