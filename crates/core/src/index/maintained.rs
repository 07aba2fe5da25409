//! The violation index of one `(table, rule)`: hash partitions on the
//! rule's equality key, each sorted for the inequality sweep, kept current
//! across deltas, and the one enumeration kernel every detector runs over
//! it.
//!
//! The world owns one [`MaintainedIndex`] per `(table, rule)` and every
//! write **absorbs** its [`Delta`] into it: only the rows the delta touched
//! are re-read, and each partition they leave or enter is rewritten in one
//! merge pass.  Discipline:
//!
//! * entries are keyed by slice **position** (tables only grow by appends
//!   and mutate cells in place; the wholesale editors `replace_tuples` /
//!   `tuple_mut` bump the revision),
//! * [`MaintainedIndex::absorb_delta`] self-guards on [`Table::revision`]:
//!   a delta that does not line up leaves the index stale, and
//!   [`MaintainedIndex::is_current`] tells callers to rebuild,
//! * sweep values are stored as [`Value`]s, which order identically
//!   forever, so an absorb never re-sorts untouched entries.
//!
//! **What a clone shares.**  Every partition and every 256-row chunk of the
//! rows' cached contributions sits behind its own pointer, and the
//! plan-derived shape behind one more; a clone copies the pointer tables,
//! and an absorb on it detaches only what it writes.
//!
//! **The kernel.**  A probe row enumerates its candidate bindings in up to
//! two passes: pass (a) binds it in the right role against the sorted
//! left-role members of its partition (a prefix or suffix found by binary
//! search, or the whole list without a sweep), pass (b) in the left role
//! against the right-role members that are not probes (the inverse range).
//! Full detection and the θ-check ([`ThetaMatrix`](crate::theta::ThetaMatrix))
//! run pass (a) over the partitions' members; delta-restricted detection
//! ([`MaintainedIndex::detect_delta`]) runs both passes over Δ, so pass (a)
//! owns every pair whose right member is in Δ and pass (b) the rest.  Each
//! directed binding is produced once, and an `admit(i, j)` filter decides
//! which are residual-checked and counted.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use daisy_common::{DaisyError, Result, RuleId, Schema, Value};
use daisy_exec::ExecContext;
use daisy_expr::{
    resolve_predicates, ComparisonOp, DcPredicate, DenialConstraint, IndexPlan, Operand,
    ResolvedPredicate, Violation,
};
use daisy_storage::{Delta, Table, Tuple};

use super::canonicalize_violations;

/// One member of a sweep list: a tuple position plus its sweep-attribute
/// value (NULL when the plan has no sweep predicate).
#[derive(Debug, Clone)]
struct SweepEntry {
    pos: usize,
    value: Value,
}

/// The `(value, position)` order every sweep list is kept in.
fn entry_order(a: &SweepEntry, b: &SweepEntry) -> Ordering {
    a.value.cmp(&b.value).then(a.pos.cmp(&b.pos))
}

/// One hash-equality partition.  Entries are kept sorted by
/// `(sweep value, position)`; for symmetric plans `right` stays empty and
/// the left list serves both binding roles.
#[derive(Debug, Clone, Default)]
struct MaintainedPartition {
    left: Vec<SweepEntry>,
    right: Vec<SweepEntry>,
}

/// What one table position contributes to the lists of one binding role:
/// its partition key and its sweep value — cached so a later delta can find
/// the old entry without re-reading pre-update values (absorption runs
/// after the table has already been mutated).
#[derive(Debug, Clone)]
struct Contribution {
    key: Arc<[Value]>,
    sweep: Value,
}

/// Rows per [`Contributions`] chunk.
const CHUNK_ROWS: usize = 256;

/// One role's contributions by position, in fixed-size chunks behind their
/// own pointers: a clone copies one pointer per chunk, a write detaches the
/// one chunk it lands in, and a build allocates per chunk rather than per
/// row.
#[derive(Debug, Clone, Default)]
struct Contributions {
    chunks: Vec<Arc<Vec<Contribution>>>,
}

impl Contributions {
    fn get(&self, pos: usize) -> &Contribution {
        &self.chunks[pos / CHUNK_ROWS][pos % CHUNK_ROWS]
    }

    fn get_mut(&mut self, pos: usize) -> &mut Contribution {
        &mut Arc::make_mut(&mut self.chunks[pos / CHUNK_ROWS])[pos % CHUNK_ROWS]
    }

    fn push(&mut self, c: Contribution) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_ROWS => Arc::make_mut(chunk).push(c),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_ROWS);
                chunk.push(c);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }
}

/// A binding role: which side of the constraint a list's members bind to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Left,
    Right,
}

impl Role {
    fn other(self) -> Role {
        match self {
            Role::Left => Role::Right,
            Role::Right => Role::Left,
        }
    }
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
    /// partition maintenance entirely.  A handful of columns: a list scan
    /// beats hashing.
    maintenance_cols: Vec<usize>,
    /// The residual predicates, resolved once against the build schema.
    residual: Vec<ResolvedPredicate>,
}

impl IndexShape {
    fn resolve(
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
    ) -> Result<IndexShape> {
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
        // roles have identical member lists; keep them once.
        let symmetric = left_cols == right_cols && sweep_left == sweep_right;
        Ok(IndexShape {
            rule: constraint.id,
            sweep_op,
            left_cols,
            right_cols,
            sweep_left,
            sweep_right,
            symmetric,
            maintenance_cols: plan
                .maintenance_columns()
                .iter()
                .map(|name| schema.index_of(name))
                .collect::<Result<_>>()?,
            residual: resolve_predicates(&plan.residual, schema)?,
        })
    }

    /// The roles that keep lists and contributions of their own: both, or
    /// only the left one when it serves both.
    fn roles(&self) -> &'static [Role] {
        if self.symmetric {
            &[Role::Left]
        } else {
            &[Role::Left, Role::Right]
        }
    }

    /// Where the contributions serving `role` are kept (an index into
    /// [`IndexShape::roles`]).
    fn stored(&self, role: Role) -> usize {
        match role {
            Role::Right if !self.symmetric => 1,
            _ => 0,
        }
    }

    /// Whether a member with this sweep value enters a list.  Order
    /// comparisons against NULL are never satisfied, so NULL-valued members
    /// cannot participate in a sweep.
    fn enters(&self, sweep: &Value) -> bool {
        self.sweep_op.is_none() || !sweep.is_null()
    }

    /// What `tuple` contributes to the lists of `role`: its key values and
    /// its sweep value (NULL without a sweep predicate).
    fn read(&self, tuple: &Tuple, role: Role) -> Result<(Vec<Value>, Value)> {
        let (cols, sweep) = match role {
            Role::Left => (&self.left_cols, self.sweep_left),
            Role::Right => (&self.right_cols, self.sweep_right),
        };
        let key = cols
            .iter()
            .map(|&c| Ok(tuple.cell(c)?.expected_ref().clone()))
            .collect::<Result<_>>()?;
        let sweep = match sweep {
            Some(c) => tuple.cell(c)?.expected_ref().clone(),
            None => Value::Null,
        };
        Ok((key, sweep))
    }
}

#[cfg(test)]
thread_local! {
    /// Index builds on this thread, for tests that assert a path builds
    /// none.
    pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The probes of one enumeration (see the module docs for the passes).
pub(crate) enum Probes<'a> {
    /// Every right-role member the filter accepts, pass (a) only: full
    /// detection and the θ-check.
    Members(&'a (dyn Fn(usize) -> bool + Sync)),
    /// These rows, Δ, in both passes; pass (b) skips right-role members in
    /// Δ.  Delta-restricted detection.
    Delta(&'a [usize]),
}

/// One probe row with its candidates in pass (a) and pass (b).
struct Probe<'a> {
    pos: usize,
    right_role: &'a [SweepEntry],
    left_role: &'a [SweepEntry],
}

/// The persistent violation index of one two-tuple denial constraint over
/// one table: hash partitions on the equality key, each partition sorted
/// for the inequality sweep, maintained across deltas (see the module docs
/// for the protocol, for what clones share and for the kernel).
#[derive(Debug, Clone)]
pub struct MaintainedIndex {
    shape: Arc<IndexShape>,
    partitions: HashMap<Arc<[Value]>, Arc<MaintainedPartition>>,
    /// Every row's contributions, one [`Contributions`] per role of
    /// [`IndexShape::roles`].
    contributions: Vec<Contributions>,
    revision: u64,
    rows: usize,
}

impl MaintainedIndex {
    /// Builds the maintained index for `constraint` (whose plan is `plan`)
    /// over the current contents of `table`, stamped with the table's
    /// revision: rows are grouped by key, then every partition is sorted
    /// once.
    pub fn build(
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
        table: &Table,
    ) -> Result<MaintainedIndex> {
        let mut index =
            MaintainedIndex::over_tuples(schema, constraint, plan, table.tuples(), |_| true)?;
        index.revision = table.revision();
        Ok(index)
    }

    /// Builds an index over a bare tuple slice whose partitions hold only
    /// the positions `member` accepts.  Every position still gets its
    /// contribution, so any position may probe; only members are ever
    /// enumerated as candidates.  The result is tied to no table revision
    /// and is meant to be dropped after detection.
    pub(crate) fn over_tuples(
        schema: &Schema,
        constraint: &DenialConstraint,
        plan: &IndexPlan,
        tuples: &[Tuple],
        member: impl Fn(usize) -> bool,
    ) -> Result<MaintainedIndex> {
        #[cfg(test)]
        BUILDS.with(|builds| builds.set(builds.get() + 1));
        let shape = IndexShape::resolve(schema, constraint, plan)?;
        // Keys are interned to a slot, so a row costs one hash lookup per
        // role, its entries go straight to their partition's lists, and its
        // contributions share the partition's key.
        let mut groups: Keyed<MaintainedPartition> = Keyed::default();
        let mut contributions = vec![Contributions::default(); shape.roles().len()];
        for (pos, tuple) in tuples.iter().enumerate() {
            for (&role, stored) in shape.roles().iter().zip(contributions.iter_mut()) {
                let (key, sweep) = shape.read(tuple, role)?;
                let (key, part) = groups.get(&key, None);
                if member(pos) && shape.enters(&sweep) {
                    list_mut(part, role).push(SweepEntry {
                        pos,
                        value: sweep.clone(),
                    });
                }
                stored.push(Contribution {
                    key: Arc::clone(key),
                    sweep,
                });
            }
        }
        let partitions = groups
            .items
            .into_iter()
            .filter(|(_, part)| !part.left.is_empty() || !part.right.is_empty())
            .map(|(key, mut part)| {
                part.left.sort_unstable_by(entry_order);
                part.right.sort_unstable_by(entry_order);
                (key, Arc::new(part))
            })
            .collect();
        Ok(MaintainedIndex {
            shape: Arc::new(shape),
            partitions,
            contributions,
            revision: 0,
            rows: tuples.len(),
        })
    }

    /// Number of non-empty hash-equality partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
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

    /// Absorbs one applied delta: appended rows enter at the tail
    /// positions; updated rows whose maintenance columns changed are
    /// re-read, and a role whose key or sweep value really moved leaves
    /// its old partition and enters its new one.  Each partition a row
    /// leaves or enters is rewritten in one merge pass.
    /// Self-guarding: if the table's revision or length does not line up
    /// with "this index + exactly this delta", the index is left untouched
    /// (and stale) for [`MaintainedIndex::is_current`] to report.
    pub fn absorb_delta(&mut self, table: &Table, delta: &Delta) -> Result<()> {
        let expected = self.revision + u64::from(!delta.is_empty());
        if table.revision() != expected || table.len() != self.rows + delta.appends().len() {
            return Ok(());
        }
        if delta.is_empty() {
            return Ok(());
        }
        let shape = Arc::clone(&self.shape);
        let roles = shape.roles();
        let mut changes: Vec<RoleChanges> = roles.iter().map(|_| RoleChanges::default()).collect();
        // Appends land at the tail in delta order (`apply_delta` applies
        // them before updates and checks the id contract).
        for (offset, append) in delta.appends().iter().enumerate() {
            let pos = self.rows + offset;
            debug_assert_eq!(table.tuples()[pos].id, append.id);
            for (r, &role) in roles.iter().enumerate() {
                let (values, sweep) = shape.read(&table.tuples()[pos], role)?;
                let key = intern(&self.partitions, values);
                changes[r].enter(&shape, &key, &sweep, pos);
                self.contributions[r].push(Contribution { key, sweep });
            }
        }
        // Re-read each updated row at most once, skipping updates that
        // cannot move the tuple, and a role whose key and sweep value came
        // out unchanged.
        let mut touched: Vec<usize> = delta
            .updates()
            .iter()
            .filter(|u| shape.maintenance_cols.contains(&u.column.index()))
            .filter_map(|u| table.position_of(u.tuple))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for pos in touched {
            for (r, &role) in roles.iter().enumerate() {
                let (values, sweep) = shape.read(&table.tuples()[pos], role)?;
                let old = self.contributions[r].get(pos);
                let same_key = old.key[..] == values[..];
                if same_key && old.sweep == sweep {
                    continue;
                }
                if shape.enters(&old.sweep) {
                    changes[r].leave(&old.key, pos, table.len());
                }
                if same_key {
                    // The key keeps its allocation; only the sweep moved.
                    changes[r].enter(&shape, &old.key, &sweep, pos);
                    self.contributions[r].get_mut(pos).sweep = sweep;
                } else {
                    let key = intern(&self.partitions, values);
                    changes[r].enter(&shape, &key, &sweep, pos);
                    *self.contributions[r].get_mut(pos) = Contribution { key, sweep };
                }
            }
        }
        for (role_changes, &role) in changes.into_iter().zip(roles) {
            role_changes.apply(&mut self.partitions, role);
        }
        self.rows = table.len();
        self.revision = table.revision();
        Ok(())
    }

    /// Full detection with canonical output: pass (a) for every row.
    /// Returns the violations plus the number of residual-checked
    /// candidate bindings.
    pub fn detect(&self, ctx: &ExecContext, tuples: &[Tuple]) -> Result<(Vec<Violation>, usize)> {
        let (found, pairs) =
            self.enumerate(ctx, tuples, Probes::Members(&|_| true), |_, _| true)?;
        Ok((canonicalize_violations(found), pairs))
    }

    /// Delta-restricted detection: emits exactly the violations among
    /// candidate pairs with at least one member in `delta_positions`
    /// (ascending slice positions), plus the number of residual-checked
    /// candidate bindings — both passes of the kernel over Δ.  Output is
    /// canonical ([`canonicalize_violations`]).  The residual predicates
    /// were resolved at build, so `_schema` is only kept for call-site
    /// symmetry with the build.
    pub fn detect_delta(
        &self,
        ctx: &ExecContext,
        _schema: &Schema,
        tuples: &[Tuple],
        delta_positions: &[usize],
    ) -> Result<(Vec<Violation>, usize)> {
        let (found, pairs) =
            self.enumerate(ctx, tuples, Probes::Delta(delta_positions), |_, _| true)?;
        Ok((canonicalize_violations(found), pairs))
    }

    /// The enumeration kernel: runs the passes of `probes` and
    /// residual-checks each candidate binding `(i, j)` that `admit`
    /// accepts.  Returns the violations in discovery order — callers
    /// canonicalise — plus the number of admitted bindings.
    ///
    /// At one worker the probes run in order on the calling thread.
    /// Otherwise they are cut into weighted morsels: each probe weighs the
    /// length of its candidate ranges (`+1` for the probe itself), so a
    /// skewed partition's probes spread over several stealable tasks while
    /// runs of cheap probes pack into one.  Morsel outputs merge in probe
    /// order and the pair counter is a sum, so violations and counter are
    /// identical for every worker count and morsel granularity.
    pub(crate) fn enumerate<F>(
        &self,
        ctx: &ExecContext,
        tuples: &[Tuple],
        probes: Probes<'_>,
        admit: F,
    ) -> Result<(Vec<Violation>, usize)>
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        let (probes, delta): (Vec<Probe<'_>>, HashSet<usize>) = match probes {
            Probes::Members(is_probe) => {
                // Partition by partition, so the rows one probe reads are
                // still cached for the next.
                let mut parts: Vec<_> = self.partitions.iter().collect();
                parts.sort_unstable_by(|a, b| a.0.cmp(b.0));
                let mut out = Vec::new();
                for (_, part) in parts {
                    let right = if self.shape.symmetric {
                        &part.left
                    } else {
                        &part.right
                    };
                    for r in right.iter().filter(|r| is_probe(r.pos)) {
                        out.push(Probe {
                            pos: r.pos,
                            right_role: self.sweep(&part.left, &r.value, Role::Right),
                            left_role: &[],
                        });
                    }
                }
                (out, HashSet::new())
            }
            Probes::Delta(rows) => {
                let out = rows
                    .iter()
                    .map(|&p| Probe {
                        pos: p,
                        right_role: self.candidates(p, Role::Right),
                        left_role: self.candidates(p, Role::Left),
                    })
                    .collect();
                (out, rows.iter().copied().collect())
            }
        };
        let run = |probes: &[Probe<'_>]| -> Result<(Vec<Violation>, usize)> {
            let mut found = Vec::new();
            let mut pairs = 0usize;
            for probe in probes {
                for l in probe.right_role {
                    self.check(tuples, l.pos, probe.pos, &admit, &mut found, &mut pairs)?;
                }
                for r in probe.left_role {
                    if !delta.contains(&r.pos) {
                        self.check(tuples, probe.pos, r.pos, &admit, &mut found, &mut pairs)?;
                    }
                }
            }
            Ok((found, pairs))
        };
        if ctx.workers() == 1 {
            return run(&probes);
        }
        let weights: Vec<u64> = probes
            .iter()
            .map(|p| (p.right_role.len() + p.left_role.len() + 1) as u64)
            .collect();
        let ranges = daisy_exec::weighted_ranges(&weights, ctx.morsel_count(probes.len()));
        let partials = daisy_exec::try_run_tasks(ctx, &ranges, |&(start, end)| {
            let out = run(&probes[start..end])?;
            if let Some(counters) = ctx.morsel_counters() {
                counters.record_work(out.1 as u64);
            }
            Ok::<_, DaisyError>(out)
        })?;
        let mut found = Vec::new();
        let mut pairs = 0usize;
        for (partial, count) in partials {
            found.extend(partial);
            pairs += count;
        }
        Ok((found, pairs))
    }

    /// The candidates of probe `p` bound in `role`: for the right role
    /// (pass (a)) the left-role members of its partition that its sweep
    /// value pairs with, for the left role (pass (b)) the right-role ones.
    fn candidates(&self, p: usize, role: Role) -> &[SweepEntry] {
        let c = self.contributions[self.shape.stored(role)].get(p);
        if !self.shape.enters(&c.sweep) {
            return &[];
        }
        let Some(part) = self.partitions.get(&*c.key) else {
            return &[];
        };
        let list = match role {
            Role::Left if !self.shape.symmetric => &part.right,
            _ => &part.left,
        };
        self.sweep(list, &c.sweep, role)
    }

    /// The contiguous slice of the ascending-sorted `list` that a probe
    /// with sweep value `probe`, bound in `role`, pairs with: the members
    /// `m` with `m op probe` for a right-role probe, `probe op m` for a
    /// left-role one; all of them without a sweep predicate.
    fn sweep<'a>(&self, list: &'a [SweepEntry], probe: &Value, role: Role) -> &'a [SweepEntry] {
        let op = match (self.shape.sweep_op, role) {
            (None, _) => return list,
            (Some(op), Role::Right) => op,
            (Some(op), Role::Left) => op.flip(),
        };
        match op {
            ComparisonOp::Lt => &list[..list.partition_point(|e| e.value < *probe)],
            ComparisonOp::Le => &list[..list.partition_point(|e| e.value <= *probe)],
            ComparisonOp::Gt => &list[list.partition_point(|e| e.value <= *probe)..],
            ComparisonOp::Ge => &list[list.partition_point(|e| e.value < *probe)..],
            // Equality operators never become sweep predicates.
            ComparisonOp::Eq | ComparisonOp::Neq => list,
        }
    }

    /// Residual-checks one directed candidate binding: self-pairs and
    /// bindings `admit` refuses are skipped before the pair counter,
    /// residuals after.
    fn check<F>(
        &self,
        tuples: &[Tuple],
        i: usize,
        j: usize,
        admit: &F,
        out: &mut Vec<Violation>,
        pairs: &mut usize,
    ) -> Result<()>
    where
        F: Fn(usize, usize) -> bool,
    {
        if i == j || !admit(i, j) {
            return Ok(());
        }
        *pairs += 1;
        for pred in &self.shape.residual {
            if !pred.eval([&tuples[i], &tuples[j]])? {
                return Ok(());
            }
        }
        out.push(Violation::pair(self.shape.rule, tuples[i].id, tuples[j].id));
        Ok(())
    }
}

/// Values of type `T` keyed by partition key, in first-seen order.
#[derive(Default)]
struct Keyed<T> {
    items: Vec<(Arc<[Value]>, T)>,
    slots: HashMap<Arc<[Value]>, usize>,
}

impl<T: Default> Keyed<T> {
    /// The value of `key`, created on first sight.  Runs of rows mostly
    /// share one key allocation, so the last slot is tried by pointer
    /// first.
    fn get(&mut self, key: &[Value], shared: Option<&Arc<[Value]>>) -> &mut (Arc<[Value]>, T) {
        let last = self.items.len().wrapping_sub(1);
        let slot = match (self.items.last(), shared) {
            (Some((k, _)), Some(shared)) if Arc::ptr_eq(k, shared) => last,
            _ => match self.slots.get(key) {
                Some(&slot) => slot,
                None => {
                    let key = shared.map_or_else(|| Arc::from(key), Arc::clone);
                    self.slots.insert(Arc::clone(&key), self.items.len());
                    self.items.push((key, T::default()));
                    self.items.len() - 1
                }
            },
        };
        &mut self.items[slot]
    }
}

/// What one absorb changes in the lists of one binding role.
#[derive(Default)]
struct RoleChanges {
    /// The lists to rewrite, with the entries entering each.
    lists: Keyed<Vec<SweepEntry>>,
    /// Which positions leave their list.  A position has one entry per
    /// role, so whichever list is rewritten drops exactly the entries
    /// marked here.
    leaving: Vec<bool>,
}

impl RoleChanges {
    fn enter(&mut self, shape: &IndexShape, key: &Arc<[Value]>, sweep: &Value, pos: usize) {
        if shape.enters(sweep) {
            self.lists.get(key, Some(key)).1.push(SweepEntry {
                pos,
                value: sweep.clone(),
            });
        }
    }

    /// Marks the entry of `pos` (one of the table's `rows` positions) as
    /// leaving the list of `key`.
    fn leave(&mut self, key: &Arc<[Value]>, pos: usize, rows: usize) {
        if self.leaving.is_empty() {
            self.leaving.resize(rows, false);
        }
        self.leaving[pos] = true;
        self.lists.get(key, Some(key));
    }

    /// Rewrites every list of this role that an entry leaves or enters in
    /// one merge pass, dropping partitions that end up empty.
    fn apply(self, partitions: &mut HashMap<Arc<[Value]>, Arc<MaintainedPartition>>, role: Role) {
        for (key, mut entering) in self.lists.items {
            entering.sort_unstable_by(entry_order);
            let slot = partitions.entry(Arc::clone(&key)).or_default();
            match Arc::get_mut(slot) {
                Some(part) => {
                    let list = list_mut(part, role);
                    *list = merge_list(std::mem::take(list).into_iter(), &self.leaving, entering);
                }
                None => {
                    // Shared with another version: merge from the shared
                    // list and copy only the other role's.
                    let mut part = MaintainedPartition::default();
                    *list_mut(&mut part, role) =
                        merge_list(list(slot, role).iter().cloned(), &self.leaving, entering);
                    *list_mut(&mut part, role.other()) = list(slot, role.other()).to_vec();
                    *slot = Arc::new(part);
                }
            }
            if slot.left.is_empty() && slot.right.is_empty() {
                partitions.remove(&key);
            }
        }
    }
}

/// The key of an existing partition equal to `values`, shared, or a new
/// one.
fn intern(
    partitions: &HashMap<Arc<[Value]>, Arc<MaintainedPartition>>,
    values: Vec<Value>,
) -> Arc<[Value]> {
    match partitions.get_key_value(values.as_slice()) {
        Some((key, _)) => Arc::clone(key),
        None => values.into(),
    }
}

fn list(part: &MaintainedPartition, role: Role) -> &[SweepEntry] {
    match role {
        Role::Left => &part.left,
        Role::Right => &part.right,
    }
}

fn list_mut(part: &mut MaintainedPartition, role: Role) -> &mut Vec<SweepEntry> {
    match role {
        Role::Left => &mut part.left,
        Role::Right => &mut part.right,
    }
}

/// One merge pass over a sorted list: drops the entries whose position is
/// marked in `leaving` and merges the sorted `entering` entries in.
fn merge_list(
    old: impl ExactSizeIterator<Item = SweepEntry>,
    leaving: &[bool],
    entering: Vec<SweepEntry>,
) -> Vec<SweepEntry> {
    let mut out = Vec::with_capacity(old.len() + entering.len());
    let mut entering = entering.into_iter().peekable();
    for e in old {
        if leaving.get(e.pos).copied().unwrap_or(false) {
            continue;
        }
        while let Some(n) = entering.next_if(|n| entry_order(n, &e) == Ordering::Less) {
            out.push(n);
        }
        out.push(e);
    }
    out.extend(entering);
    out
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
    use super::super::tests::candidate_bindings;
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

    /// The rebuild-everything baseline: the brute-force violations among
    /// pairs touching the delta rows, and the brute-force count of the
    /// candidate bindings a sweep admits with the filter `i ∈ Δ ∨ j ∈ Δ`.
    fn rebuild_baseline(
        table: &Table,
        constraint: &DenialConstraint,
        delta_positions: &[usize],
    ) -> (Vec<Violation>, usize) {
        let in_delta: HashSet<usize> = delta_positions.iter().copied().collect();
        let ids: HashSet<TupleId> = delta_positions
            .iter()
            .map(|&p| table.tuples()[p].id)
            .collect();
        let pairs = candidate_bindings(table.schema(), table.tuples(), constraint, |i, j| {
            in_delta.contains(&i) || in_delta.contains(&j)
        });
        (delta_oracle(table, constraint, &ids), pairs)
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
