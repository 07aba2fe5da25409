//! The partitioned cartesian-product matrix used to detect general-DC
//! violations (§4.2).
//!
//! Following the optimised theta-join of Okcan & Riedewald that the paper
//! adopts, the self cartesian product of the table is mapped to a matrix
//! whose rows and columns are ranges of the DC's *partition attribute* (the
//! numeric attribute of its first inequality predicate).  The matrix is
//! split into `√p × √p` blocks; a block pair is only checked when the
//! per-attribute boundary ranges of the two blocks can jointly satisfy every
//! predicate of the constraint (block pruning), and within a block pair the
//! candidate tuples are restricted by the same bounds (intra-partition
//! pruning).
//!
//! The matrix is **incremental**: the engine records which block pairs have
//! already been checked, so a query only pays for the sub-matrix formed by
//! its result's value range and the unseen part of the dataset (Fig. 1 and
//! Fig. 2 of the paper).
//!
//! Within a check, candidate pairs are enumerated by one of two kernels
//! (see [`DetectionMode`]): the classic **pairwise** nested loop over each
//! surviving block pair, or the **indexed** hash-equality / sort-sweep scan
//! of [`crate::index::ViolationIndex`] restricted to the not-yet-checked
//! block pairs.  Both kernels share the block bookkeeping (`checked`,
//! pruning, `support`) and emit identical, canonically ordered violations;
//! only `pairs_compared` — and the wall-clock time — differs.  The kernel is
//! picked per matrix from the constraint's shape and the detection cost
//! model ([`crate::cost::DetectionEstimate`]).

use std::collections::{HashMap, HashSet};

use daisy_common::{DaisyError, Result, Schema, Value};
use daisy_exec::ExecContext;
use daisy_expr::{DenialConstraint, IndexPlan, Operand, Violation};
use daisy_storage::{ColumnSnapshot, Tuple};

use crate::cost::{refine_detection, DetectionEstimate, DetectionMode, DetectionStrategy};
use crate::index::{canonicalize_violations, ViolationIndex};

/// Per-block bounds of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrBounds {
    /// Minimum value in the block.
    pub min: Value,
    /// Maximum value in the block.
    pub max: Value,
}

/// Row-path bounds of one attribute over a block's members: min/max under
/// the total value order, NULLs ignored.
fn block_bounds_rows(
    tuples: &[Tuple],
    members: &[usize],
    col: usize,
) -> Result<Option<AttrBounds>> {
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    for &pos in members {
        let v = tuples[pos].value(col)?;
        if v.is_null() {
            continue;
        }
        min = Some(match min.take() {
            Some(m) => Value::min_of(m, v.clone()),
            None => v.clone(),
        });
        max = Some(match max.take() {
            Some(m) => Value::max_of(m, v),
            None => v,
        });
    }
    Ok(match (min, max) {
        (Some(min), Some(max)) => Some(AttrBounds { min, max }),
        _ => None,
    })
}

/// Columnar bounds: identical extrema computed over ordering codes, decoded
/// to values only once per block.  Ties keep the earliest member, exactly
/// like `Value::min_of` / `Value::max_of` do on the row path, so the
/// decoded bounds are byte-identical.
fn block_bounds_coded(snap: &ColumnSnapshot, members: &[usize], col: usize) -> Option<AttrBounds> {
    let mut min: Option<(daisy_storage::ColumnCode, usize)> = None;
    let mut max: Option<(daisy_storage::ColumnCode, usize)> = None;
    for &pos in members {
        let code = snap.ordering_code(pos, col);
        if code.is_null() {
            continue;
        }
        match &min {
            Some((m, _)) if m.cmp(&code) != std::cmp::Ordering::Greater => {}
            _ => min = Some((code, pos)),
        }
        match &max {
            Some((m, _)) if m.cmp(&code) != std::cmp::Ordering::Less => {}
            _ => max = Some((code, pos)),
        }
    }
    match (min, max) {
        (Some((_, min_pos)), Some((_, max_pos))) => Some(AttrBounds {
            min: snap.value(min_pos, col),
            max: snap.value(max_pos, col),
        }),
        _ => None,
    }
}

/// One block (partition) of the theta-join matrix.
#[derive(Debug, Clone)]
pub struct ThetaBlock {
    /// Positions (into the tuple vector the matrix was built over) of the
    /// tuples in this block, sorted by the partition attribute.
    pub members: Vec<usize>,
    /// Bounds of every DC attribute over the block's members, keyed by
    /// column index.
    pub bounds: HashMap<usize, AttrBounds>,
}

/// Statistics of one (possibly partial) theta-join check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThetaCheckStats {
    /// Block pairs examined by this call.
    pub blocks_checked: usize,
    /// Block pairs skipped thanks to boundary pruning.
    pub blocks_pruned: usize,
    /// Candidate tuple pairs actually compared: every pair of a surviving
    /// block pair under [`DetectionMode::Pairwise`], only the bindings that
    /// survive the equality partitioning and inequality sweep under
    /// [`DetectionMode::Indexed`].
    pub pairs_compared: usize,
}

impl ThetaCheckStats {
    /// Accumulates the statistics of another (per-partition) check into
    /// these.  All counters are order-independent sums, so merging partition
    /// results in any order yields the same totals as a sequential check.
    pub fn merge(&mut self, other: &ThetaCheckStats) {
        self.blocks_checked += other.blocks_checked;
        self.blocks_pruned += other.blocks_pruned;
        self.pairs_compared += other.pairs_compared;
    }
}

/// The partitioned cartesian-product matrix of one table under one DC.
#[derive(Debug, Clone)]
pub struct ThetaMatrix {
    /// The constraint the matrix was built for.
    pub constraint: DenialConstraint,
    /// Column index of the partition attribute.
    pub partition_column: usize,
    /// The blocks, ordered by ascending partition-attribute range.
    pub blocks: Vec<ThetaBlock>,
    /// Already-checked block pairs, stored as `(min, max)` so symmetric
    /// pairs are never re-checked.
    checked: HashSet<(usize, usize)>,
    /// Columns referenced by the constraint.
    dc_columns: Vec<usize>,
    /// The candidate-enumeration kernel resolved for this matrix.
    mode: DetectionMode,
    /// The constraint's index plan (present whenever it quantifies two
    /// tuples), consumed by the indexed kernel.
    plan: Option<IndexPlan>,
    /// Block id per tuple position, used to restrict the indexed kernel to
    /// the not-yet-checked block pairs.
    block_of: Vec<usize>,
    /// The coded violation index of the last snapshot revision the indexed
    /// kernel swept, keyed by [`ColumnSnapshot::revision`].  Consecutive
    /// checks within one request hit the same revision, so the index is
    /// built once and reused instead of rebuilt per call.
    index_cache: Option<(u64, ViolationIndex)>,
    /// How many violation-index builds this matrix has paid for — the
    /// counter the cache-reuse regression test pins.
    index_builds: u64,
}

impl ThetaMatrix {
    /// Builds the matrix over `tuples` with `blocks_per_side` partitions per
    /// axis, letting the engine's choice pick the detection kernel: the
    /// constraint's shape first ([`crate::cost::planned_detection`]), then
    /// the detection cost model over the equality key's selectivity.  The
    /// partition attribute is the column of the first predicate's left
    /// operand; it must be numeric for range pruning to be meaningful.
    pub fn build(
        schema: &Schema,
        tuples: &[Tuple],
        constraint: &DenialConstraint,
        blocks_per_side: usize,
    ) -> Result<ThetaMatrix> {
        ThetaMatrix::build_with_strategy(
            schema,
            tuples,
            constraint,
            blocks_per_side,
            DetectionStrategy::Auto,
        )
    }

    /// Builds the matrix with an explicit [`DetectionStrategy`]: `Pairwise`
    /// and `Indexed` force their kernel (the latter falling back to pairwise
    /// when the constraint has no index plan), while `Auto` asks the
    /// detection cost model using the equality key's selectivity over
    /// `tuples`.
    pub fn build_with_strategy(
        schema: &Schema,
        tuples: &[Tuple],
        constraint: &DenialConstraint,
        blocks_per_side: usize,
        strategy: DetectionStrategy,
    ) -> Result<ThetaMatrix> {
        ThetaMatrix::build_with_strategy_snap(
            schema,
            tuples,
            constraint,
            blocks_per_side,
            strategy,
            None,
        )
    }

    /// [`ThetaMatrix::build_with_strategy`] over the columnar read path:
    /// when `snapshot` covers exactly `tuples` (row `i` = `tuples[i]`), the
    /// partition sort, the per-block attribute bounds and the `Auto`
    /// cost-model statistics are computed from column codes instead of
    /// cloned values, and the cost model accounts for the cheaper columnar
    /// index build.  A snapshot of the wrong length is ignored.
    pub fn build_with_strategy_snap(
        schema: &Schema,
        tuples: &[Tuple],
        constraint: &DenialConstraint,
        blocks_per_side: usize,
        strategy: DetectionStrategy,
        snapshot: Option<&ColumnSnapshot>,
    ) -> Result<ThetaMatrix> {
        let snapshot = snapshot.filter(|s| s.len() == tuples.len());
        let dc_columns: Vec<usize> = constraint
            .attributes()
            .iter()
            .map(|a| schema.index_of(a))
            .collect::<Result<_>>()?;
        let partition_attr = constraint
            .predicates
            .first()
            .and_then(|p| match &p.left {
                Operand::Attr { column, .. } => Some(column.clone()),
                _ => p.right.column().map(str::to_string),
            })
            .ok_or_else(|| {
                DaisyError::Plan(format!(
                    "constraint `{}` has no attribute to partition on",
                    constraint.name
                ))
            })?;
        let partition_column = schema.index_of(&partition_attr)?;

        // Sort tuple positions by the partition attribute and slice into
        // equal-size blocks.  The columnar sort compares `Copy` ordering
        // codes; both comparators realise the same total order, and the
        // sort is stable, so the resulting block layout is identical.
        let mut order: Vec<usize> = (0..tuples.len()).collect();
        match snapshot {
            Some(snap) => {
                let keys: Vec<daisy_storage::ColumnCode> = (0..tuples.len())
                    .map(|pos| snap.ordering_code(pos, partition_column))
                    .collect();
                order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            }
            None => {
                let keys: Vec<Value> = tuples
                    .iter()
                    .map(|t| t.value(partition_column))
                    .collect::<Result<_>>()?;
                order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            }
        }

        let blocks_per_side = blocks_per_side.max(1);
        let ranges = daisy_exec::chunk_ranges(order.len(), blocks_per_side);
        let mut blocks = Vec::with_capacity(ranges.len());
        for (start, end) in ranges {
            let members: Vec<usize> = order[start..end].to_vec();
            let mut bounds: HashMap<usize, AttrBounds> = HashMap::new();
            for &col in &dc_columns {
                let attr_bounds = match snapshot {
                    Some(snap) => block_bounds_coded(snap, &members, col),
                    None => block_bounds_rows(tuples, &members, col)?,
                };
                if let Some(b) = attr_bounds {
                    bounds.insert(col, b);
                }
            }
            blocks.push(ThetaBlock { members, bounds });
        }

        let mut block_of = vec![0usize; tuples.len()];
        for (b, block) in blocks.iter().enumerate() {
            for &pos in &block.members {
                block_of[pos] = b;
            }
        }
        let plan = constraint.index_plan();
        let mode = match refine_detection(constraint, strategy) {
            DetectionStrategy::Pairwise => DetectionMode::Pairwise,
            DetectionStrategy::Indexed => DetectionMode::Indexed,
            DetectionStrategy::Auto => {
                // `refine_detection` only leaves `Auto` standing when the
                // plan has an equality key; measure its selectivity and let
                // the cost model decide.  Both statistics paths count the
                // same composite keys; the snapshot one just skips the
                // per-cell clones, and its availability discounts the
                // projected index-build cost.
                let key_plan = plan.as_ref().expect("Auto implies an index plan");
                let key_columns: Vec<usize> = key_plan
                    .key
                    .iter()
                    .map(|(l, _)| schema.index_of(l))
                    .collect::<Result<_>>()?;
                let key_stats = match snapshot {
                    Some(snap) => snap.key_statistics(&key_columns),
                    None => daisy_storage::key_statistics(tuples, &key_columns)?,
                };
                DetectionEstimate::new(tuples.len(), key_stats)
                    .with_columnar(snapshot.is_some())
                    .recommend()
            }
        };

        Ok(ThetaMatrix {
            constraint: constraint.clone(),
            partition_column,
            blocks,
            checked: HashSet::new(),
            dc_columns,
            mode,
            plan,
            block_of,
            index_cache: None,
            index_builds: 0,
        })
    }

    /// The candidate-enumeration kernel this matrix resolved to.
    pub fn detection_mode(&self) -> DetectionMode {
        self.mode
    }

    /// How many violation-index builds the indexed kernel has paid for.
    /// Checks at an unchanged snapshot revision reuse the cached index, so
    /// this counter advances once per revision, not once per call.
    pub fn index_builds(&self) -> u64 {
        self.index_builds
    }

    /// Number of blocks per side.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Fraction of the upper-diagonal block pairs already checked (the
    /// *support* term of Algorithm 2).
    pub fn support(&self) -> f64 {
        let b = self.blocks.len();
        if b == 0 {
            return 1.0;
        }
        let total = b * (b + 1) / 2;
        self.checked.len() as f64 / total as f64
    }

    /// Conservatively decides whether a block pair could contain violations:
    /// some tuple orientation (`t1` drawn from the row block and `t2` from
    /// the column block, or vice versa) must be able to satisfy **every**
    /// predicate simultaneously within the blocks' bounds.
    pub fn blocks_can_violate(&self, row: usize, col: usize) -> bool {
        self.orientation_possible(row, col) || self.orientation_possible(col, row)
    }

    /// `true` when binding `t1` to block `a` and `t2` to block `b` leaves
    /// every predicate satisfiable by the blocks' bounds.
    fn orientation_possible(&self, a: usize, b: usize) -> bool {
        let (block_a, block_b) = (&self.blocks[a], &self.blocks[b]);
        for pred in &self.constraint.predicates {
            let (Some(lc), Some(rc)) = (pred.left.column(), pred.right.column()) else {
                // Predicates with constants cannot be pruned by pair bounds.
                continue;
            };
            let Ok(lc) = self.column_of(lc) else { continue };
            let Ok(rc) = self.column_of(rc) else { continue };
            let (left_tuple, right_tuple) = match (&pred.left, &pred.right) {
                (Operand::Attr { tuple: lt, .. }, Operand::Attr { tuple: rt, .. }) => (*lt, *rt),
                _ => continue,
            };
            let left_block = if left_tuple == 0 { block_a } else { block_b };
            let right_block = if right_tuple == 0 { block_a } else { block_b };
            let (Some(lb), Some(rb)) = (left_block.bounds.get(&lc), right_block.bounds.get(&rc))
            else {
                continue;
            };
            use daisy_expr::ComparisonOp::*;
            // Exists x ∈ [lb.min, lb.max], y ∈ [rb.min, rb.max] with x op y.
            let satisfiable = match pred.op {
                Lt => lb.min < rb.max,
                Le => lb.min <= rb.max,
                Gt => lb.max > rb.min,
                Ge => lb.max >= rb.min,
                Eq => lb.min <= rb.max && rb.min <= lb.max,
                Neq => !(lb.min == lb.max && rb.min == rb.max && lb.min == rb.min),
            };
            if !satisfiable {
                return false;
            }
        }
        true
    }

    /// Resolves a constraint attribute name to the column index recorded at
    /// build time (the attribute list and `dc_columns` are parallel vectors).
    fn column_of(&self, name: &str) -> Result<usize> {
        let attrs = self.constraint.attributes();
        let idx = attrs
            .iter()
            .position(|a| {
                a == name || name.ends_with(&format!(".{a}")) || a.ends_with(&format!(".{name}"))
            })
            .ok_or_else(|| DaisyError::Plan(format!("unknown constraint attribute `{name}`")))?;
        Ok(self.dc_columns[idx])
    }

    /// Checks the whole upper-diagonal matrix (full cleaning).  Violations
    /// are returned in canonical (sorted tuple id) form, de-duplicated.
    pub fn check_all(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        self.check_all_with(ctx, schema, tuples, None)
    }

    /// [`ThetaMatrix::check_all`] over the columnar read path: when
    /// `snapshot` covers exactly `tuples`, the indexed kernel builds and
    /// sweeps its violation index on column codes.  Results are
    /// byte-identical either way; mismatched snapshots are ignored.
    pub fn check_all_with(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
        snapshot: Option<&ColumnSnapshot>,
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        let rows: Vec<usize> = (0..self.blocks.len()).collect();
        self.check_blocks(ctx, schema, tuples, snapshot, &rows)
    }

    /// Incrementally checks the sub-matrix relevant to a query whose result
    /// spans `[low, high]` on the partition attribute: every block pair whose
    /// row block overlaps the range and that has not been checked before.
    pub fn check_range(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        self.check_range_with(ctx, schema, tuples, None, low, high)
    }

    /// [`ThetaMatrix::check_range`] over the columnar read path (see
    /// [`ThetaMatrix::check_all_with`]).
    pub fn check_range_with(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
        snapshot: Option<&ColumnSnapshot>,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        let rows: Vec<usize> = (0..self.blocks.len())
            .filter(|&i| {
                let Some(bounds) = self.blocks[i].bounds.get(&self.partition_column) else {
                    return false;
                };
                low.is_none_or(|l| &bounds.max >= l) && high.is_none_or(|h| &bounds.min <= h)
            })
            .collect();
        self.check_blocks(ctx, schema, tuples, snapshot, &rows)
    }

    /// Checks the not-yet-checked block pairs reachable from `rows`,
    /// partitioned over the execution context's workers.
    ///
    /// The pair keys are collected in deterministic row-major order and
    /// handed to the resolved detection kernel.  The pairwise kernel splits
    /// them into even contiguous partitions and prunes/checks each
    /// independently; the indexed kernel builds a
    /// [`ViolationIndex`] over `tuples` and sweeps it, admitting only
    /// bindings that fall in a surviving block pair.  Either way,
    /// per-partition violations are concatenated in partition order and then
    /// canonicalised by [`canonicalize_violations`], and per-partition
    /// [`ThetaCheckStats`] are merged, so the output is byte-identical for
    /// every worker count — and for either kernel.  Already-checked pairs
    /// (`checked` is global state shared between incremental and full calls)
    /// are never re-checked.
    fn check_blocks(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
        snapshot: Option<&ColumnSnapshot>,
        rows: &[usize],
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for &row in rows {
            for col in 0..self.blocks.len() {
                let key = (row.min(col), row.max(col));
                if self.checked.contains(&key) || !seen.insert(key) {
                    continue;
                }
                keys.push(key);
            }
        }

        let snapshot = snapshot.filter(|s| s.len() == tuples.len());
        let (violations, stats) = match self.mode {
            DetectionMode::Pairwise => self.check_keys_pairwise(ctx, schema, tuples, &keys)?,
            DetectionMode::Indexed => {
                self.check_keys_indexed(ctx, schema, tuples, snapshot, &keys)?
            }
        };
        self.checked.extend(keys);
        Ok((canonicalize_violations(violations), stats))
    }

    /// The pairwise kernel: every tuple pair of every surviving block pair.
    fn check_keys_pairwise(
        &self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
        keys: &[(usize, usize)],
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        let this: &ThetaMatrix = self;
        let partials: Vec<(Vec<Violation>, ThetaCheckStats)> =
            daisy_exec::par_flat_map_chunks(ctx, keys, |chunk| {
                let mut stats = ThetaCheckStats::default();
                let mut found: Vec<Violation> = Vec::new();
                for &(a, b) in chunk {
                    if !this.blocks_can_violate(a, b) {
                        stats.blocks_pruned += 1;
                        continue;
                    }
                    stats.blocks_checked += 1;
                    found.extend(this.check_block_pair(schema, tuples, a, b, &mut stats)?);
                }
                Ok::<_, DaisyError>(vec![(found, stats)])
            })?;

        let mut stats = ThetaCheckStats::default();
        let mut violations: Vec<Violation> = Vec::new();
        for (found, partial) in partials {
            violations.extend(found);
            stats.merge(&partial);
        }
        Ok((violations, stats))
    }

    /// The indexed kernel: one hash-equality / sort-sweep pass over the
    /// tuples of the surviving block pairs, admitting only bindings whose
    /// blocks form one of those pairs.
    ///
    /// On the columnar path the index is **cached per snapshot revision**:
    /// a snapshot is immutable between table revisions, so consecutive
    /// checks within one request (range check, then the rest; or one check
    /// per cleaning step) sweep the same build instead of rebuilding it
    /// per call — the admit predicate filters candidate bindings *before*
    /// the pair counter, so sweeping the full cached index emits exactly
    /// the violations and statistics of a fresh per-subset build.  The row
    /// path has no revision to validate against and keeps the per-call
    /// build over only the blocks still under consideration; either way
    /// the kernel always sees fresh expected values after earlier repairs
    /// turned cells probabilistic (stale snapshots are filtered out by the
    /// caller).
    fn check_keys_indexed(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
        snapshot: Option<&ColumnSnapshot>,
        keys: &[(usize, usize)],
    ) -> Result<(Vec<Violation>, ThetaCheckStats)> {
        let plan = self
            .plan
            .clone()
            .ok_or_else(|| DaisyError::Plan("indexed detection requires an index plan".into()))?;
        let mut stats = ThetaCheckStats::default();
        // The admit predicate runs once per candidate binding, so the
        // surviving-pair membership test must be a plain array index: a
        // `blocks × blocks` bitmap keyed by the canonical `(min, max)`
        // pair, not a hash lookup.
        let side = self.blocks.len();
        let mut allowed = vec![false; side * side];
        let mut survivors = 0usize;
        for &(a, b) in keys {
            if self.blocks_can_violate(a, b) {
                stats.blocks_checked += 1;
                allowed[a * side + b] = true;
                survivors += 1;
            } else {
                stats.blocks_pruned += 1;
            }
        }
        if survivors == 0 {
            return Ok((Vec::new(), stats));
        }
        let row_index;
        let index: &ViolationIndex = match snapshot {
            Some(snap) => {
                let current = self
                    .index_cache
                    .as_ref()
                    .is_some_and(|(rev, _)| *rev == snap.revision());
                if !current {
                    let all: Vec<usize> = (0..tuples.len()).collect();
                    let built = ViolationIndex::build_over_with(
                        ctx,
                        schema,
                        &self.constraint,
                        &plan,
                        tuples,
                        &all,
                        Some(snap),
                    )?;
                    self.index_builds += 1;
                    self.index_cache = Some((snap.revision(), built));
                }
                &self.index_cache.as_ref().expect("just cached").1
            }
            None => {
                // Only tuples of a block participating in some surviving
                // pair can appear in an admitted binding; index just those.
                let active_blocks: HashSet<usize> = keys
                    .iter()
                    .filter(|&&(a, b)| allowed[a * side + b])
                    .flat_map(|&(a, b)| [a, b])
                    .collect();
                let mut positions: Vec<usize> = active_blocks
                    .iter()
                    .flat_map(|&b| self.blocks[b].members.iter().copied())
                    .collect();
                positions.sort_unstable();
                row_index = ViolationIndex::build_over(
                    ctx,
                    schema,
                    &self.constraint,
                    &plan,
                    tuples,
                    &positions,
                )?;
                self.index_builds += 1;
                &row_index
            }
        };
        let block_of = &self.block_of;
        let allowed = &allowed;
        let (violations, pairs) =
            index.sweep_detect_with(ctx, schema, tuples, snapshot, |i, j| {
                let (a, b) = (block_of[i], block_of[j]);
                allowed[a.min(b) * side + a.max(b)]
            })?;
        stats.pairs_compared = pairs;
        Ok((violations, stats))
    }

    fn check_block_pair(
        &self,
        schema: &Schema,
        tuples: &[Tuple],
        a: usize,
        b: usize,
        stats: &mut ThetaCheckStats,
    ) -> Result<Vec<Violation>> {
        let mut out = Vec::new();
        let members_a = &self.blocks[a].members;
        let members_b = &self.blocks[b].members;
        for &pa in members_a {
            for &pb in members_b {
                if a == b && pb <= pa {
                    continue; // prune the symmetric half inside the diagonal
                }
                stats.pairs_compared += 1;
                let t1 = &tuples[pa];
                let t2 = &tuples[pb];
                if self.constraint.violated_by(schema, &[t1, t2])? {
                    out.push(Violation::pair(self.constraint.id, t1.id, t2.id));
                } else if self.constraint.violated_by(schema, &[t2, t1])? {
                    out.push(Violation::pair(self.constraint.id, t2.id, t1.id));
                }
            }
        }
        Ok(out)
    }

    /// Estimates, per row block, the number of violations its tuples
    /// participate in, from boundary overlaps only (the `Estimate_Errors`
    /// function of Algorithm 2).  No tuple pairs are compared.
    pub fn estimate_errors(&self) -> Vec<f64> {
        let b = self.blocks.len();
        let mut estimates = vec![0.0; b];
        for (i, estimate) in estimates.iter_mut().enumerate() {
            for j in 0..b {
                if i == j {
                    continue; // diagonal blocks are covered by the support term
                }
                if self.blocks_can_violate(i.min(j), i.max(j)) {
                    // Weight the pair by the overlap of the secondary
                    // attribute's ranges; when the ranges are disjoint but a
                    // violating orientation is still possible (fully inverted
                    // ranges), every pair of the blocks can violate, so the
                    // weight is 1.
                    let overlap = self.pair_overlap_fraction(i.min(j), i.max(j));
                    let weight = if overlap > 0.0 { overlap } else { 1.0 };
                    *estimate += weight * self.blocks[i].members.len() as f64;
                }
            }
        }
        estimates
    }

    /// Fraction of the secondary attribute's ranges that overlap between two
    /// blocks — the heuristic weight used by `estimate_errors`.
    fn pair_overlap_fraction(&self, a: usize, b: usize) -> f64 {
        // Use the last constraint attribute that differs from the partition
        // attribute as the "secondary" axis; fall back to full weight.
        let secondary = self
            .dc_columns
            .iter()
            .copied()
            .find(|&c| c != self.partition_column);
        let Some(col) = secondary else { return 1.0 };
        let (Some(ba), Some(bb)) = (
            self.blocks[a].bounds.get(&col),
            self.blocks[b].bounds.get(&col),
        ) else {
            return 1.0;
        };
        let (amin, amax) = (ba.min.as_float(), ba.max.as_float());
        let (bmin, bmax) = (bb.min.as_float(), bb.max.as_float());
        match (amin, amax, bmin, bmax) {
            (Some(amin), Some(amax), Some(bmin), Some(bmax)) => {
                let lo = amin.max(bmin);
                let hi = amax.min(bmax);
                let span = (amax - amin).max(bmax - bmin).max(f64::EPSILON);
                ((hi - lo).max(0.0) / span).min(1.0)
            }
            _ => 1.0,
        }
    }

    /// The indices of the row blocks overlapping a value range on the
    /// partition attribute (used by Algorithm 2 to find which estimates are
    /// relevant to a query answer).
    pub fn blocks_overlapping(&self, low: Option<&Value>, high: Option<&Value>) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&i| {
                let Some(bounds) = self.blocks[i].bounds.get(&self.partition_column) else {
                    return false;
                };
                low.is_none_or(|l| &bounds.max >= l) && high.is_none_or(|h| &bounds.min <= h)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema, TupleId};
    use daisy_storage::Table;

    fn salary_table(rows: &[(i64, f64)]) -> Table {
        Table::from_rows(
            "emp",
            Schema::from_pairs(&[("salary", DataType::Int), ("tax", DataType::Float)]).unwrap(),
            rows.iter()
                .map(|(s, t)| vec![Value::Int(*s), Value::Float(*t)])
                .collect(),
        )
        .unwrap()
    }

    fn dc() -> DenialConstraint {
        DenialConstraint::parse("phi", "t1.salary < t2.salary & t1.tax > t2.tax").unwrap()
    }

    fn ctx() -> ExecContext {
        ExecContext::new(4)
    }

    #[test]
    fn full_check_finds_paper_example_violation() {
        // Example 5: (1000, 0.1), (3000, 0.2), (2000, 0.3): the last two
        // violate (lower salary, higher tax).
        let table = salary_table(&[(1000, 0.1), (3000, 0.2), (2000, 0.3)]);
        let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc(), 2).unwrap();
        let (violations, stats) = matrix
            .check_all(&ctx(), table.schema(), table.tuples())
            .unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].canonical().tuples,
            vec![TupleId::new(1), TupleId::new(2)]
        );
        assert!(stats.pairs_compared >= 1);
        assert!((matrix.support() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_check_matches_full_check() {
        // Monotone salaries with shuffled taxes: a brute-force reference
        // check must agree with the partitioned matrix.
        let rows: Vec<(i64, f64)> = (0..60)
            .map(|i| (1000 + i * 10, ((i * 37) % 60) as f64 / 100.0))
            .collect();
        let table = salary_table(&rows);
        let schema = table.schema();

        // Brute force reference.
        let constraint = dc();
        let mut expected = Vec::new();
        for a in table.tuples() {
            for b in table.tuples() {
                if a.id != b.id && constraint.violated_by(schema, &[a, b]).unwrap() {
                    expected.push(Violation::pair(constraint.id, a.id, b.id).canonical());
                }
            }
        }
        expected.sort_by(|a, b| a.tuples.cmp(&b.tuples));
        expected.dedup();

        let mut matrix = ThetaMatrix::build(schema, table.tuples(), &constraint, 4).unwrap();
        let (found, _) = matrix.check_all(&ctx(), schema, table.tuples()).unwrap();
        assert_eq!(found.len(), expected.len());

        // Incremental checking over two disjoint ranges also covers all
        // violations whose row block overlaps the ranges; checking the whole
        // domain in two steps finds the same set and never re-checks blocks.
        let mut incremental = ThetaMatrix::build(schema, table.tuples(), &constraint, 4).unwrap();
        let (first, s1) = incremental
            .check_range(
                &ctx(),
                schema,
                table.tuples(),
                Some(&Value::Int(1000)),
                Some(&Value::Int(1290)),
            )
            .unwrap();
        let (second, s2) = incremental
            .check_range(
                &ctx(),
                schema,
                table.tuples(),
                Some(&Value::Int(1300)),
                None,
            )
            .unwrap();
        let mut combined: Vec<Violation> = first.into_iter().chain(second).collect();
        combined = canonicalize_violations(combined);
        assert_eq!(combined.len(), expected.len());
        assert!(s1.blocks_checked + s1.blocks_pruned > 0);
        // The second pass skipped the block pairs the first pass covered.
        assert!(s2.blocks_checked + s2.blocks_pruned < 16);
    }

    #[test]
    fn pruning_skips_impossible_block_pairs() {
        // Taxes strictly increase with salary → no violations at all; every
        // off-diagonal block pair is prunable.
        let rows: Vec<(i64, f64)> = (0..40).map(|i| (1000 + i, i as f64)).collect();
        let table = salary_table(&rows);
        let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc(), 4).unwrap();
        let (violations, stats) = matrix
            .check_all(&ctx(), table.schema(), table.tuples())
            .unwrap();
        assert!(violations.is_empty());
        assert!(stats.blocks_pruned > 0);
    }

    #[test]
    fn forced_strategies_find_identical_violations() {
        // An equality-bearing DC so the indexed kernel actually partitions:
        // same "department" (salary % 4), inverted salary/tax.
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..90)
            .map(|i| {
                vec![
                    Value::Int(i % 4),
                    Value::Int(1000 + i * 10),
                    Value::Float(((i * 37) % 90) as f64 / 100.0),
                ]
            })
            .collect();
        let table = Table::from_rows("emp", schema, rows).unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let run = |strategy: DetectionStrategy| {
            // 3 blocks per side deliberately misalign block boundaries with
            // the dept groups, so the pairwise kernel must cross-check
            // adjacent blocks while the indexed kernel still partitions
            // exactly on dept.
            let mut matrix =
                ThetaMatrix::build_with_strategy(table.schema(), table.tuples(), &dc, 3, strategy)
                    .unwrap();
            matrix
                .check_all(&ctx(), table.schema(), table.tuples())
                .unwrap()
        };
        let (pairwise, pairwise_stats) = run(DetectionStrategy::Pairwise);
        let (indexed, indexed_stats) = run(DetectionStrategy::Indexed);
        assert!(!pairwise.is_empty());
        assert_eq!(pairwise, indexed);
        // Block bookkeeping is shared; only the candidate count shrinks.
        assert_eq!(pairwise_stats.blocks_checked, indexed_stats.blocks_checked);
        assert_eq!(pairwise_stats.blocks_pruned, indexed_stats.blocks_pruned);
        assert!(indexed_stats.pairs_compared < pairwise_stats.pairs_compared);
    }

    #[test]
    fn snapshot_read_path_is_byte_identical_with_rows() {
        use daisy_storage::ColumnSnapshot;
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|i| {
                vec![
                    if i % 17 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 5)
                    },
                    Value::Int(1000 + (i * 29) % 700),
                    Value::Float(((i * 37) % 120) as f64 / 100.0),
                ]
            })
            .collect();
        let table = Table::from_rows("emp", schema, rows).unwrap();
        let snap = ColumnSnapshot::build(&table).unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let run = |snapshot: Option<&ColumnSnapshot>| {
            let mut matrix = ThetaMatrix::build_with_strategy_snap(
                table.schema(),
                table.tuples(),
                &dc,
                4,
                DetectionStrategy::Indexed,
                snapshot,
            )
            .unwrap();
            // Exercise the incremental flow too: a range, then the rest.
            let (first, s1) = matrix
                .check_range_with(
                    &ctx(),
                    table.schema(),
                    table.tuples(),
                    snapshot,
                    None,
                    Some(&Value::Int(2)),
                )
                .unwrap();
            let (second, s2) = matrix
                .check_all_with(&ctx(), table.schema(), table.tuples(), snapshot)
                .unwrap();
            (first, s1, second, s2)
        };
        let (rf, rs1, rsec, rs2) = run(None);
        let (cf, cs1, csec, cs2) = run(Some(&snap));
        assert_eq!(rf, cf);
        assert_eq!(rsec, csec);
        assert_eq!(rs1, cs1, "first-pass statistics must match");
        assert_eq!(rs2, cs2, "second-pass statistics must match");
        assert!(!rf.is_empty() || !rsec.is_empty());
    }

    #[test]
    fn unchanged_revision_reuses_the_cached_index() {
        use daisy_storage::ColumnSnapshot;
        // Regression: consecutive indexed checks in one request used to
        // rebuild the violation index per call even though the snapshot
        // revision never moved between them.
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..80)
            .map(|i| {
                vec![
                    Value::Int(i % 4),
                    Value::Int(1000 + (i * 29) % 600),
                    Value::Float(((i * 37) % 80) as f64 / 100.0),
                ]
            })
            .collect();
        let table = Table::from_rows("emp", schema, rows).unwrap();
        let snap = ColumnSnapshot::build(&table).unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let mut matrix = ThetaMatrix::build_with_strategy_snap(
            table.schema(),
            table.tuples(),
            &dc,
            4,
            DetectionStrategy::Indexed,
            Some(&snap),
        )
        .unwrap();
        assert_eq!(matrix.index_builds(), 0);
        let (first, _) = matrix
            .check_range_with(
                &ctx(),
                table.schema(),
                table.tuples(),
                Some(&snap),
                None,
                Some(&Value::Int(1)),
            )
            .unwrap();
        assert_eq!(matrix.index_builds(), 1);
        let (second, _) = matrix
            .check_all_with(&ctx(), table.schema(), table.tuples(), Some(&snap))
            .unwrap();
        assert_eq!(
            matrix.index_builds(),
            1,
            "an unchanged snapshot revision must reuse the cached index"
        );
        // The cached sweep finds exactly what a pairwise matrix finds.
        let mut pairwise = ThetaMatrix::build_with_strategy(
            table.schema(),
            table.tuples(),
            &dc,
            4,
            DetectionStrategy::Pairwise,
        )
        .unwrap();
        let (expected, _) = pairwise
            .check_all(&ctx(), table.schema(), table.tuples())
            .unwrap();
        let combined = canonicalize_violations(first.into_iter().chain(second).collect());
        assert_eq!(combined, expected);
        assert!(!combined.is_empty());
    }

    #[test]
    fn incremental_checks_agree_across_strategies() {
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..70)
            .map(|i| {
                vec![
                    Value::Int(i % 3),
                    Value::Int((i * 13) % 500),
                    Value::Float(((i * 7) % 70) as f64),
                ]
            })
            .collect();
        let table = Table::from_rows("emp", schema, rows).unwrap();
        let dc = DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap();
        let run = |strategy: DetectionStrategy| {
            let mut matrix =
                ThetaMatrix::build_with_strategy(table.schema(), table.tuples(), &dc, 4, strategy)
                    .unwrap();
            // The partition attribute is `dept` (first predicate): split the
            // domain, check the halves, and make sure nothing is re-checked.
            let (first, s1) = matrix
                .check_range(
                    &ctx(),
                    table.schema(),
                    table.tuples(),
                    None,
                    Some(&Value::Int(1)),
                )
                .unwrap();
            let (second, s2) = matrix
                .check_range(
                    &ctx(),
                    table.schema(),
                    table.tuples(),
                    Some(&Value::Int(1)),
                    None,
                )
                .unwrap();
            let mut stats = s1;
            stats.merge(&s2);
            (
                canonicalize_violations(first.into_iter().chain(second).collect()),
                stats,
            )
        };
        let (pairwise, _) = run(DetectionStrategy::Pairwise);
        let (indexed, _) = run(DetectionStrategy::Indexed);
        assert!(!pairwise.is_empty());
        assert_eq!(pairwise, indexed);
    }

    #[test]
    fn auto_mode_resolves_from_key_selectivity() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Int)]).unwrap();
        let selective: Vec<Vec<Value>> = (0..400)
            .map(|i| vec![Value::Int(i % 100), Value::Int(i)])
            .collect();
        let table = Table::from_rows("t", schema.clone(), selective).unwrap();
        let with_eq = DenialConstraint::parse("phi", "t1.k = t2.k & t1.a < t2.a").unwrap();
        let matrix = ThetaMatrix::build_with_strategy(
            table.schema(),
            table.tuples(),
            &with_eq,
            4,
            DetectionStrategy::Auto,
        )
        .unwrap();
        assert_eq!(matrix.detection_mode(), DetectionMode::Indexed);

        // Tiny inputs and equality-free constraints stay pairwise.
        let tiny = Table::from_rows(
            "t",
            schema,
            (0..10)
                .map(|i| vec![Value::Int(i), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        let matrix = ThetaMatrix::build_with_strategy(
            tiny.schema(),
            tiny.tuples(),
            &with_eq,
            2,
            DetectionStrategy::Auto,
        )
        .unwrap();
        assert_eq!(matrix.detection_mode(), DetectionMode::Pairwise);
        let no_eq = DenialConstraint::parse("phi", "t1.a < t2.a & t1.k > t2.k").unwrap();
        let matrix = ThetaMatrix::build_with_strategy(
            table.schema(),
            table.tuples(),
            &no_eq,
            4,
            DetectionStrategy::Auto,
        )
        .unwrap();
        assert_eq!(matrix.detection_mode(), DetectionMode::Pairwise);
    }

    #[test]
    fn estimate_errors_flags_overlapping_ranges() {
        let clean_rows: Vec<(i64, f64)> = (0..40).map(|i| (1000 + i, i as f64)).collect();
        let clean = salary_table(&clean_rows);
        let clean_matrix = ThetaMatrix::build(clean.schema(), clean.tuples(), &dc(), 4).unwrap();
        assert!(clean_matrix.estimate_errors().iter().sum::<f64>() < 1e-9);

        let dirty_rows: Vec<(i64, f64)> = (0..40)
            .map(|i| (1000 + i, ((i * 17) % 40) as f64))
            .collect();
        let dirty = salary_table(&dirty_rows);
        let dirty_matrix = ThetaMatrix::build(dirty.schema(), dirty.tuples(), &dc(), 4).unwrap();
        assert!(dirty_matrix.estimate_errors().iter().sum::<f64>() > 0.0);
        assert_eq!(
            dirty_matrix.blocks_overlapping(Some(&Value::Int(1000)), Some(&Value::Int(1005))),
            vec![0]
        );
    }
}
