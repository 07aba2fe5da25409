//! The **maintained** violation index: the persistent, revision-versioned
//! sibling of [`ViolationIndex`](super::ViolationIndex).
//!
//! A [`ViolationIndex`] is built for one detection pass and dropped; every
//! check over a changed table pays the full `O(n log n)` rebuild.  A
//! [`MaintainedIndex`] is owned by the world per `(table, rule)` and
//! **absorbs** each committed or staged [`Delta`] instead: per delta row it
//! removes the old
//! sorted entries and inserts the new ones by binary search, an
//! `O(|Δ| · log group)` update.  Combined with **delta-restricted
//! detection** — enumerating only the `Δ × (T ∪ Δ)` candidate pairs — a
//! streaming ingest batch is detected in time proportional to the batch,
//! not the table (the `bench_detection` sustained-ingest axis).
//!
//! Maintenance follows one discipline:
//!
//! * entries are keyed by slice **position** (positions are stable: tables
//!   only grow by appends and mutate cells in place; the wholesale editors
//!   `replace_tuples` / `tuple_mut` bump the revision, which the guard
//!   below catches),
//! * [`MaintainedIndex::absorb_delta`] self-guards on [`Table::revision`]
//!   — a delta that does not line up with the table leaves the index
//!   silently stale, and [`MaintainedIndex::is_current`] tells callers to
//!   rebuild,
//! * sweep values are stored as [`Value`]s, which order identically
//!   forever, so absorbing a delta never re-sorts untouched entries.
//!
//! **What a clone shares.**  Every partition and every row's cached
//! contribution sits behind its own pointer, and the plan-derived shape
//! (columns, operator, residual predicates) behind one more, so cloning an
//! index copies two pointer tables and no entry; `absorb_delta` on the clone
//! then detaches only the partitions a delta row leaves or enters.
//!
//! Delta-restricted detection enumerates, per delta row `d`, the same
//! directed candidate bindings the full sweep admits with the filter
//! `i ∈ Δ ∨ j ∈ Δ`: once with `d` in the right-hand probe role (owning all
//! pairs whose right member is `d`, including `Δ × Δ` pairs) and once with
//! `d` as the left member against non-Δ probes (the inverse
//! order-statistics range).  Each directed binding is produced exactly
//! once, so both the violations **and** the candidate-pair counter match
//! the rebuild-everything baseline byte for byte — the differential tests
//! in this module and `tests/integration_streaming_ingest.rs` pin that.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use daisy_common::{Result, RuleId, Schema, Value};
use daisy_exec::ExecContext;
use daisy_expr::{
    resolve_predicates, ComparisonOp, DenialConstraint, IndexPlan, ResolvedPredicate, Violation,
};
use daisy_storage::{Delta, Table, Tuple};

use super::{canonicalize_violations, residual_holds, resolve_sweep, sweep_candidates, SweepEntry};

/// One hash-equality partition of the maintained index.  Entries are kept
/// sorted by `(sweep value, position)` so membership changes are binary
/// searches; for symmetric plans `right` stays empty and the left list
/// serves both binding roles.
#[derive(Debug, Clone, Default)]
struct MaintainedPartition {
    left: Vec<SweepEntry>,
    right: Vec<SweepEntry>,
}

/// What one table position contributes to the index — cached so a later
/// delta can *remove* the old entries without re-reading pre-update values
/// (absorption runs after the table has already been mutated).
#[derive(Debug)]
struct Contribution {
    left_key: Arc<[Value]>,
    left_sweep: Value,
    right_key: Arc<[Value]>,
    right_sweep: Value,
}

/// What the constraint's plan fixes at build time; immutable afterwards and
/// shared by every version of the index.
#[derive(Debug)]
struct IndexShape {
    rule: RuleId,
    sweep_op: Option<ComparisonOp>,
    left_cols: Vec<usize>,
    right_cols: Vec<usize>,
    sweep_left: Option<usize>,
    sweep_right: Option<usize>,
    symmetric: bool,
    /// Column indices whose values place a tuple in the index
    /// ([`IndexPlan::maintenance_columns`]); updates outside this set skip
    /// partition maintenance entirely.
    maintenance_cols: HashSet<usize>,
    /// The residual predicates, resolved once against the build schema.
    residual: Vec<ResolvedPredicate>,
}

/// The persistent violation index of one two-tuple denial constraint over
/// one table: hash partitions on the equality key, each partition sorted
/// for the inequality sweep, maintained across deltas (see the module docs
/// for the protocol and for what clones share).
#[derive(Debug, Clone)]
pub struct MaintainedIndex {
    shape: Arc<IndexShape>,
    partitions: HashMap<Arc<[Value]>, Arc<MaintainedPartition>>,
    contributions: Vec<Arc<Contribution>>,
    revision: u64,
    rows: usize,
}

impl MaintainedIndex {
    /// Builds the maintained index for `constraint` (whose plan is `plan`)
    /// over the current contents of `table`, stamped with the table's
    /// revision.
    pub fn build(
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
        table: &Table,
    ) -> Result<MaintainedIndex> {
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
        let symmetric = left_cols == right_cols && sweep_left == sweep_right;
        let maintenance_cols: HashSet<usize> = plan
            .maintenance_columns()
            .iter()
            .map(|name| schema.index_of(name))
            .collect::<Result<_>>()?;
        let mut index = MaintainedIndex {
            shape: Arc::new(IndexShape {
                rule: constraint.id,
                sweep_op,
                left_cols,
                right_cols,
                sweep_left,
                sweep_right,
                symmetric,
                maintenance_cols,
                residual: resolve_predicates(&plan.residual, schema)?,
            }),
            partitions: HashMap::new(),
            contributions: Vec::with_capacity(table.len()),
            revision: table.revision(),
            rows: table.len(),
        };
        for (pos, tuple) in table.tuples().iter().enumerate() {
            let c = Arc::new(index.contribution_of(tuple)?);
            index.insert_position(pos, &c);
            index.contributions.push(c);
        }
        Ok(index)
    }

    /// The constraint this index serves.
    pub fn rule(&self) -> RuleId {
        self.shape.rule
    }

    /// The table revision the index reflects.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The number of table rows the index covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of non-empty hash-equality partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Mean partition size — the candidate-fanout estimate the detection
    /// cost model uses to price a delta-restricted pass.
    pub fn mean_partition_size(&self) -> f64 {
        if self.partitions.is_empty() {
            0.0
        } else {
            self.rows as f64 / self.partitions.len() as f64
        }
    }

    /// Size of the largest partition (both binding roles) — the worst-case
    /// candidate fanout of a single delta row.
    pub fn max_partition_size(&self) -> usize {
        self.partitions
            .values()
            .map(|p| p.left.len().max(p.right.len()))
            .max()
            .unwrap_or(0)
    }

    /// How many of this index's partitions are the same allocation in
    /// `other` — `partition_count()` right after a clone, less the
    /// partitions a delta wrote since.
    #[doc(hidden)]
    pub fn partitions_shared_with(&self, other: &MaintainedIndex) -> usize {
        self.partitions
            .iter()
            .filter(|(key, part)| {
                other
                    .partitions
                    .get(*key)
                    .is_some_and(|theirs| Arc::ptr_eq(part, theirs))
            })
            .count()
    }

    /// `true` when the index reflects exactly the table's current revision
    /// and row count.  A stale index must be rebuilt, never patched.
    pub fn is_current(&self, table: &Table) -> bool {
        self.revision == table.revision() && self.rows == table.len()
    }

    /// Absorbs one applied delta: appended rows are inserted at the tail
    /// positions, updated rows whose maintenance columns changed are
    /// re-placed (remove old entries, re-read the table, insert new ones).
    /// Self-guarding: if the table's revision or length does not line up with "this index + exactly this
    /// delta", the index is left untouched (and stale) for
    /// [`MaintainedIndex::is_current`] to report.
    pub fn absorb_delta(&mut self, table: &Table, delta: &Delta) -> Result<()> {
        let expected = self.revision + u64::from(!delta.is_empty());
        if table.revision() != expected || table.len() != self.rows + delta.appends().len() {
            return Ok(());
        }
        if delta.is_empty() {
            return Ok(());
        }
        // Appends land at the tail in delta order (`apply_delta` applies
        // them before updates and checks the id contract).
        for (offset, append) in delta.appends().iter().enumerate() {
            let pos = self.rows + offset;
            debug_assert_eq!(table.tuples()[pos].id, append.id);
            let c = Arc::new(self.contribution_of(&table.tuples()[pos])?);
            self.insert_position(pos, &c);
            self.contributions.push(c);
        }
        // Re-place each updated row at most once, in ascending position
        // order, skipping updates that cannot move the tuple.
        let mut touched: Vec<usize> = delta
            .updates()
            .iter()
            .filter(|u| self.shape.maintenance_cols.contains(&u.column.index()))
            .filter_map(|u| table.position_of(u.tuple))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for pos in touched {
            let old = Arc::clone(&self.contributions[pos]);
            self.remove_position(pos, &old);
            let c = Arc::new(self.contribution_of(&table.tuples()[pos])?);
            self.insert_position(pos, &c);
            self.contributions[pos] = c;
        }
        self.rows = table.len();
        self.revision = table.revision();
        Ok(())
    }

    /// Delta-restricted detection: emits exactly the violations among
    /// candidate pairs with at least one member in `delta_positions`
    /// (ascending slice positions), plus the number of residual-checked
    /// candidate bindings.  Equals a full index rebuild swept with the
    /// admit filter `i ∈ Δ ∨ j ∈ Δ` — violations *and* pair count — which
    /// is the byte-identity the differential tests pin.  Output is
    /// canonical ([`canonicalize_violations`](super::canonicalize_violations)).
    /// The residual predicates were resolved at build, so `_schema` is only
    /// kept for call-site symmetry with the build.
    ///
    /// Delta rows are enumerated as weighted morsels on `ctx`: each row is
    /// weighted by its partitions' member counts (its candidate fanout), so
    /// a batch that hammers one hot equality key splits into morsels of
    /// roughly equal work that the scheduler can steal, instead of pinning
    /// one worker.  Morsel outputs are merged in delta order before
    /// canonicalisation, and the pair counter is an order-independent sum,
    /// so the result is identical for every worker count and granularity.
    pub fn detect_delta(
        &self,
        ctx: &ExecContext,
        _schema: &Schema,
        tuples: &[Tuple],
        delta_positions: &[usize],
    ) -> Result<(Vec<Violation>, usize)> {
        let in_delta: HashSet<usize> = delta_positions.iter().copied().collect();
        if ctx.workers() == 1 {
            let (found, pairs) = self.detect_delta_rows(tuples, delta_positions, &in_delta)?;
            return Ok((canonicalize_violations(found), pairs));
        }
        let weights: Vec<u64> = delta_positions
            .iter()
            .map(|&d| {
                let c = &self.contributions[d];
                let right_fanout = self
                    .partitions
                    .get(&*c.right_key)
                    .map_or(0, |p| p.left.len());
                let left_fanout = self.partitions.get(&*c.left_key).map_or(0, |p| {
                    if self.shape.symmetric {
                        p.left.len()
                    } else {
                        p.right.len()
                    }
                });
                (right_fanout + left_fanout) as u64 + 1
            })
            .collect();
        let ranges = daisy_exec::weighted_ranges(&weights, ctx.morsel_count(delta_positions.len()));
        let partials = daisy_exec::try_run_tasks(ctx, &ranges, |&(start, end)| {
            let out = self.detect_delta_rows(tuples, &delta_positions[start..end], &in_delta)?;
            if let Some(counters) = ctx.morsel_counters() {
                counters.record_work(out.1 as u64);
            }
            Ok::<_, daisy_common::DaisyError>(out)
        })?;
        let mut found = Vec::new();
        let mut pairs = 0usize;
        for (partial, count) in partials {
            found.extend(partial);
            pairs += count;
        }
        Ok((canonicalize_violations(found), pairs))
    }

    /// Enumerates the directed candidate bindings of a contiguous run of
    /// delta rows (the body one morsel executes).  Concatenating runs in
    /// delta order equals the full sequential enumeration.
    fn detect_delta_rows(
        &self,
        tuples: &[Tuple],
        delta_positions: &[usize],
        in_delta: &HashSet<usize>,
    ) -> Result<(Vec<Violation>, usize)> {
        let mut found = Vec::new();
        let mut pairs = 0usize;
        for &d in delta_positions {
            let c = &self.contributions[d];
            // Pass (a): `d` in the right-hand probe role.  Owns every pair
            // whose right member is `d` — including Δ×Δ pairs, so pass (b)
            // can skip Δ probes without losing any binding.
            if self.shape.sweep_op.is_none() || !c.right_sweep.is_null() {
                if let Some(part) = self.partitions.get(&*c.right_key) {
                    let left = &part.left;
                    let candidates = match self.shape.sweep_op {
                        Some(op) => sweep_candidates(left, op, &c.right_sweep),
                        None => left.as_slice(),
                    };
                    for l in candidates {
                        self.check(tuples, l.pos, d, &mut found, &mut pairs)?;
                    }
                }
            }
            // Pass (b): `d` as the left member against non-Δ right probes
            // (the inverse order-statistics range of pass (a)).
            if self.shape.sweep_op.is_none() || !c.left_sweep.is_null() {
                if let Some(part) = self.partitions.get(&*c.left_key) {
                    let right = if self.shape.symmetric {
                        &part.left
                    } else {
                        &part.right
                    };
                    let candidates = match self.shape.sweep_op {
                        Some(op) => right_probes(right, op, &c.left_sweep),
                        None => right.as_slice(),
                    };
                    for r in candidates {
                        if in_delta.contains(&r.pos) {
                            continue;
                        }
                        self.check(tuples, d, r.pos, &mut found, &mut pairs)?;
                    }
                }
            }
        }
        Ok((found, pairs))
    }

    /// Residual-checks one directed candidate binding, mirroring the
    /// `scan_partition` accounting of [`ViolationIndex`](super::ViolationIndex):
    /// self-pairs are skipped before the pair counter, residuals after.
    fn check(
        &self,
        tuples: &[Tuple],
        i: usize,
        j: usize,
        out: &mut Vec<Violation>,
        pairs: &mut usize,
    ) -> Result<()> {
        if i == j {
            return Ok(());
        }
        *pairs += 1;
        if residual_holds(&self.shape.residual, [&tuples[i], &tuples[j]])? {
            out.push(Violation::pair(self.shape.rule, tuples[i].id, tuples[j].id));
        }
        Ok(())
    }

    /// Reads what `tuple` contributes to each binding role.
    fn contribution_of(&self, tuple: &Tuple) -> Result<Contribution> {
        let key = |cols: &[usize]| -> Result<Arc<[Value]>> {
            cols.iter().map(|&c| tuple.value(c)).collect()
        };
        let sweep = |col: Option<usize>| -> Result<Value> {
            match col {
                Some(c) => tuple.value(c),
                None => Ok(Value::Null),
            }
        };
        let left_key = key(&self.shape.left_cols)?;
        let right_key = if self.shape.left_cols == self.shape.right_cols {
            Arc::clone(&left_key)
        } else {
            key(&self.shape.right_cols)?
        };
        Ok(Contribution {
            left_key,
            left_sweep: sweep(self.shape.sweep_left)?,
            right_key,
            right_sweep: sweep(self.shape.sweep_right)?,
        })
    }

    /// Inserts a position's entries.  NULL sweep values never satisfy an
    /// order predicate and are excluded from sweep-bearing lists, exactly
    /// like the build-time exclusion of [`ViolationIndex`](super::ViolationIndex).
    fn insert_position(&mut self, pos: usize, c: &Contribution) {
        if self.shape.sweep_op.is_none() || !c.left_sweep.is_null() {
            let part = self.partitions.entry(Arc::clone(&c.left_key)).or_default();
            insert_sorted(
                &mut Arc::make_mut(part).left,
                SweepEntry {
                    pos,
                    value: c.left_sweep.clone(),
                },
            );
        }
        if !self.shape.symmetric && (self.shape.sweep_op.is_none() || !c.right_sweep.is_null()) {
            let part = self.partitions.entry(Arc::clone(&c.right_key)).or_default();
            insert_sorted(
                &mut Arc::make_mut(part).right,
                SweepEntry {
                    pos,
                    value: c.right_sweep.clone(),
                },
            );
        }
    }

    /// Removes a position's entries (inverse of
    /// [`MaintainedIndex::insert_position`]), pruning partitions that
    /// become empty so [`MaintainedIndex::partition_count`] stays honest.
    fn remove_position(&mut self, pos: usize, c: &Contribution) {
        if self.shape.sweep_op.is_none() || !c.left_sweep.is_null() {
            if let Some(part) = self.partitions.get_mut(&*c.left_key) {
                let part = Arc::make_mut(part);
                remove_sorted(&mut part.left, &c.left_sweep, pos);
                if part.left.is_empty() && part.right.is_empty() {
                    self.partitions.remove(&*c.left_key);
                }
            }
        }
        if !self.shape.symmetric && (self.shape.sweep_op.is_none() || !c.right_sweep.is_null()) {
            if let Some(part) = self.partitions.get_mut(&*c.right_key) {
                let part = Arc::make_mut(part);
                remove_sorted(&mut part.right, &c.right_sweep, pos);
                if part.left.is_empty() && part.right.is_empty() {
                    self.partitions.remove(&*c.right_key);
                }
            }
        }
    }
}

/// Binary-search insertion keeping the `(value, position)` order the sweep
/// relies on.
fn insert_sorted(list: &mut Vec<SweepEntry>, entry: SweepEntry) {
    let at = list.partition_point(|e| (&e.value, e.pos) < (&entry.value, entry.pos));
    list.insert(at, entry);
}

/// Binary-search removal of the entry inserted for `(value, pos)`.
fn remove_sorted(list: &mut Vec<SweepEntry>, value: &Value, pos: usize) {
    let at = list.partition_point(|e| (&e.value, e.pos) < (value, pos));
    if at < list.len() && list[at].pos == pos && &list[at].value == value {
        list.remove(at);
    }
}

/// The right-role probes an entry with left-role sweep value `probe` pairs
/// with: the inverse of [`sweep_candidates`](super::sweep_candidates) —
/// `probe op r.value` must hold, so `Lt`/`Le` select a suffix and `Gt`/`Ge`
/// a prefix of the ascending-sorted right list.
fn right_probes<'a>(right: &'a [SweepEntry], op: ComparisonOp, probe: &Value) -> &'a [SweepEntry] {
    match op {
        ComparisonOp::Lt => &right[right.partition_point(|e| e.value <= *probe)..],
        ComparisonOp::Le => &right[right.partition_point(|e| e.value < *probe)..],
        ComparisonOp::Gt => &right[..right.partition_point(|e| e.value < *probe)],
        ComparisonOp::Ge => &right[..right.partition_point(|e| e.value <= *probe)],
        // Equality operators never become sweep predicates.
        ComparisonOp::Eq | ComparisonOp::Neq => right,
    }
}

#[cfg(test)]
mod tests {
    use super::super::ViolationIndex;
    use super::*;
    use daisy_common::{DataType, Schema, TupleId};
    use daisy_exec::ExecContext;
    use daisy_storage::Cell;
    use std::collections::BTreeSet;

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

    fn dc() -> DenialConstraint {
        DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap()
    }

    /// Brute-force oracle restricted to pairs touching the delta rows.
    fn delta_oracle(
        table: &Table,
        constraint: &DenialConstraint,
        delta: &HashSet<TupleId>,
    ) -> Vec<Violation> {
        let mut expected = Vec::new();
        for a in table.tuples() {
            for b in table.tuples() {
                if a.id != b.id
                    && (delta.contains(&a.id) || delta.contains(&b.id))
                    && constraint.violated_by(table.schema(), &[a, b]).unwrap()
                {
                    expected.push(Violation::pair(constraint.id, a.id, b.id));
                }
            }
        }
        canonicalize_violations(expected)
    }

    /// The rebuild-everything baseline: a fresh [`ViolationIndex`] swept
    /// with the Δ admit filter.
    fn rebuild_baseline(
        table: &Table,
        constraint: &DenialConstraint,
        delta_positions: &[usize],
    ) -> (Vec<Violation>, usize) {
        let plan = constraint.index_plan().unwrap();
        let index =
            ViolationIndex::build(&ctx(), table.schema(), constraint, &plan, table.tuples())
                .unwrap();
        let in_delta: HashSet<usize> = delta_positions.iter().copied().collect();
        let (found, pairs) = index
            .sweep_detect(&ctx(), table.schema(), table.tuples(), |i, j| {
                in_delta.contains(&i) || in_delta.contains(&j)
            })
            .unwrap();
        (canonicalize_violations(found), pairs)
    }

    #[test]
    fn absorbed_appends_match_rebuild_and_oracle() {
        let rows: Vec<(i64, i64, f64)> = (0..60)
            .map(|i| (i % 4, 1000 + i * 10, ((i * 37) % 60) as f64 / 100.0))
            .collect();
        let mut table = emp_table(&rows);
        let constraint = dc();
        let plan = constraint.index_plan().unwrap();
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();
        assert!(index.is_current(&table));

        // Append a small batch and absorb it.
        let mut delta = Delta::new();
        let mut delta_ids = HashSet::new();
        for k in 0..5i64 {
            let id = TupleId::new(table.next_tuple_id().raw() + k as u64);
            delta.push_append(
                id,
                vec![
                    Value::Int(k % 4),
                    Value::Int(990 - k * 10),
                    Value::Float(0.9),
                ],
            );
            delta_ids.insert(id);
        }
        table.apply_delta(&delta).unwrap();
        index.absorb_delta(&table, &delta).unwrap();
        assert!(index.is_current(&table));

        let positions: Vec<usize> = (60..65).collect();
        let (found, pairs) = index
            .detect_delta(&ctx(), table.schema(), table.tuples(), &positions)
            .unwrap();
        assert_eq!(found, delta_oracle(&table, &constraint, &delta_ids));
        assert!(!found.is_empty());
        let (baseline, baseline_pairs) = rebuild_baseline(&table, &constraint, &positions);
        assert_eq!(found, baseline);
        assert_eq!(pairs, baseline_pairs, "candidate enumeration must match");
    }

    #[test]
    fn absorbed_updates_replace_entries_and_match_oracle() {
        let rows: Vec<(i64, i64, f64)> = (0..40)
            .map(|i| (i % 3, 1000 + i * 10, ((i * 37) % 40) as f64 / 100.0))
            .collect();
        let mut table = emp_table(&rows);
        let constraint = dc();
        let plan = constraint.index_plan().unwrap();
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();

        // Move two tuples across partitions and along the sweep order.
        let t3 = table.tuples()[3].id;
        let t7 = table.tuples()[7].id;
        let mut delta = Delta::new();
        delta.push_update(
            t3,
            daisy_common::ColumnId::new(0),
            Cell::from(Value::Int(2)),
        );
        delta.push_update(
            t7,
            daisy_common::ColumnId::new(1),
            Cell::from(Value::Int(5000)),
        );
        table.apply_delta(&delta).unwrap();
        index.absorb_delta(&table, &delta).unwrap();
        assert!(index.is_current(&table));

        let positions = vec![3usize, 7];
        let (found, pairs) = index
            .detect_delta(&ctx(), table.schema(), table.tuples(), &positions)
            .unwrap();
        let delta_ids: HashSet<TupleId> = [t3, t7].into_iter().collect();
        assert_eq!(found, delta_oracle(&table, &constraint, &delta_ids));
        let (baseline, baseline_pairs) = rebuild_baseline(&table, &constraint, &positions);
        assert_eq!(found, baseline);
        assert_eq!(pairs, baseline_pairs);
    }

    #[test]
    fn residual_only_updates_skip_partition_maintenance() {
        let mut table = emp_table(&[(1, 100, 0.5), (1, 200, 0.1), (1, 300, 0.9)]);
        let constraint = dc();
        let plan = constraint.index_plan().unwrap();
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();
        let before = index.partitions.clone();

        // `tax` is residual: the entries must not move, but detection must
        // see the new value (it reads the tuples directly).
        let t0 = table.tuples()[0].id;
        let mut delta = Delta::new();
        delta.push_update(
            t0,
            daisy_common::ColumnId::new(2),
            Cell::from(Value::Float(0.05)),
        );
        table.apply_delta(&delta).unwrap();
        index.absorb_delta(&table, &delta).unwrap();
        assert!(index.is_current(&table));
        let unchanged = index
            .partitions
            .iter()
            .zip(before.iter())
            .all(|((ka, pa), (kb, pb))| {
                ka == kb
                    && pa.left.iter().map(|e| e.pos).collect::<Vec<_>>()
                        == pb.left.iter().map(|e| e.pos).collect::<Vec<_>>()
            });
        assert!(unchanged, "residual updates must not touch partitions");

        let delta_ids: HashSet<TupleId> = [t0].into_iter().collect();
        let (found, _) = index
            .detect_delta(&ctx(), table.schema(), table.tuples(), &[0])
            .unwrap();
        assert_eq!(found, delta_oracle(&table, &constraint, &delta_ids));
    }

    #[test]
    fn stale_absorb_is_silent_and_reported_by_is_current() {
        let mut table = emp_table(&[(1, 100, 0.5), (1, 200, 0.1)]);
        let constraint = dc();
        let plan = constraint.index_plan().unwrap();
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();

        // Apply two deltas but only offer the second for absorption: the
        // revision guard must refuse and leave the index stale.
        let t0 = table.tuples()[0].id;
        let mut first = Delta::new();
        first.push_update(
            t0,
            daisy_common::ColumnId::new(1),
            Cell::from(Value::Int(1)),
        );
        let mut second = Delta::new();
        second.push_update(
            t0,
            daisy_common::ColumnId::new(1),
            Cell::from(Value::Int(2)),
        );
        table.apply_delta(&first).unwrap();
        table.apply_delta(&second).unwrap();
        index.absorb_delta(&table, &second).unwrap();
        assert!(!index.is_current(&table));
    }

    #[test]
    fn nulls_and_no_sweep_plans_match_the_delta_oracle() {
        // FD shape (no sweep) with NULL keys.
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let mut table = Table::from_rows(
            "emp",
            schema,
            vec![
                vec![Value::Null, Value::Int(100), Value::Float(0.1)],
                vec![Value::Int(1), Value::Int(200), Value::Float(0.2)],
                vec![Value::Int(1), Value::Int(200), Value::Float(0.3)],
            ],
        )
        .unwrap();
        let constraint =
            DenialConstraint::parse("fd", "t1.dept = t2.dept & t1.salary != t2.salary").unwrap();
        let plan = constraint.index_plan().unwrap();
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();

        let mut delta = Delta::new();
        let a = table.next_tuple_id();
        delta.push_append(a, vec![Value::Null, Value::Int(300), Value::Float(0.4)]);
        let b = TupleId::new(a.raw() + 1);
        delta.push_append(b, vec![Value::Int(1), Value::Null, Value::Float(0.5)]);
        table.apply_delta(&delta).unwrap();
        index.absorb_delta(&table, &delta).unwrap();

        let positions = vec![3usize, 4];
        let delta_ids: HashSet<TupleId> = [a, b].into_iter().collect();
        let (found, pairs) = index
            .detect_delta(&ctx(), table.schema(), table.tuples(), &positions)
            .unwrap();
        assert_eq!(found, delta_oracle(&table, &constraint, &delta_ids));
        let (baseline, baseline_pairs) = rebuild_baseline(&table, &constraint, &positions);
        assert_eq!(found, baseline);
        assert_eq!(pairs, baseline_pairs);
    }

    #[test]
    fn asymmetric_plans_maintain_both_roles() {
        let schema = Schema::from_pairs(&[
            ("zip", DataType::Int),
            ("city", DataType::Int),
            ("lo", DataType::Int),
            ("hi", DataType::Int),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| {
                vec![
                    Value::Int(i % 3),
                    Value::Int((i + 1) % 3),
                    Value::Int(i),
                    Value::Int(30 - i),
                ]
            })
            .collect();
        let mut table = Table::from_rows("geo", schema, rows).unwrap();
        let constraint =
            DenialConstraint::parse("phi", "t1.zip = t2.city & t1.lo < t2.hi").unwrap();
        let plan = constraint.index_plan().unwrap();
        assert!(!plan.symmetric_key());
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();

        let mut delta = Delta::new();
        let a = table.next_tuple_id();
        delta.push_append(
            a,
            vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(40)],
        );
        let t5 = table.tuples()[5].id;
        delta.push_update(
            t5,
            daisy_common::ColumnId::new(1),
            Cell::from(Value::Int(0)),
        );
        table.apply_delta(&delta).unwrap();
        index.absorb_delta(&table, &delta).unwrap();

        let positions = vec![5usize, 30];
        let delta_ids: HashSet<TupleId> = [a, t5].into_iter().collect();
        let (found, pairs) = index
            .detect_delta(&ctx(), table.schema(), table.tuples(), &positions)
            .unwrap();
        assert_eq!(found, delta_oracle(&table, &constraint, &delta_ids));
        assert!(!found.is_empty());
        let (baseline, baseline_pairs) = rebuild_baseline(&table, &constraint, &positions);
        assert_eq!(found, baseline);
        assert_eq!(pairs, baseline_pairs);
    }

    #[test]
    fn long_absorb_chain_equals_a_fresh_build() {
        let rows: Vec<(i64, i64, f64)> = (0..50)
            .map(|i| (i % 5, (i * 13) % 400, ((i * 7) % 50) as f64))
            .collect();
        let mut table = emp_table(&rows);
        let constraint = dc();
        let plan = constraint.index_plan().unwrap();
        let mut index = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();

        for round in 0..8i64 {
            let mut delta = Delta::new();
            let id = table.next_tuple_id();
            delta.push_append(
                id,
                vec![
                    Value::Int(round % 5),
                    Value::Int(2000 + round),
                    Value::Float(round as f64 / 10.0),
                ],
            );
            let victim = table.tuples()[(round as usize * 11) % table.len()].id;
            delta.push_update(
                victim,
                daisy_common::ColumnId::new(1),
                Cell::from(Value::Int(100 + round * 7)),
            );
            table.apply_delta(&delta).unwrap();
            index.absorb_delta(&table, &delta).unwrap();
            assert!(index.is_current(&table));
        }

        // Structural equality against a from-scratch build: same partitions,
        // same sorted member lists.
        let fresh = MaintainedIndex::build(table.schema(), &constraint, &plan, &table).unwrap();
        assert_eq!(
            index.partitions.keys().collect::<BTreeSet<_>>(),
            fresh.partitions.keys().collect::<BTreeSet<_>>()
        );
        for (key, part) in &index.partitions {
            let fresh_part = &fresh.partitions[key];
            assert_eq!(
                part.left
                    .iter()
                    .map(|e| (e.pos, e.value.clone()))
                    .collect::<Vec<_>>(),
                fresh_part
                    .left
                    .iter()
                    .map(|e| (e.pos, e.value.clone()))
                    .collect::<Vec<_>>()
            );
        }
    }
}
