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
//! Within a check, candidate pairs are enumerated by the hash-equality /
//! sort-sweep scan of [`crate::index::ViolationIndex`], restricted to the
//! not-yet-checked block pairs that survive pruning.  A matrix exists only
//! for rules with an index plan (two quantified tuples); that shape is the
//! only choice the engine makes about detection.

use std::collections::{HashMap, HashSet};

use daisy_common::{DaisyError, Result, Schema, Value};
use daisy_exec::ExecContext;
use daisy_expr::{DenialConstraint, IndexPlan, Operand, Violation};
use daisy_storage::Tuple;

use crate::index::{canonicalize_violations, ViolationIndex};

/// Per-block bounds of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrBounds {
    /// Minimum value in the block.
    pub min: Value,
    /// Maximum value in the block.
    pub max: Value,
}

/// Bounds of one attribute over a block's members: min/max under the total
/// value order, NULLs ignored.
fn block_bounds(tuples: &[Tuple], members: &[usize], col: usize) -> Result<Option<AttrBounds>> {
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
    /// Candidate bindings residual-checked: those of a surviving block
    /// pair that also survive the equality partitioning and inequality
    /// sweep.
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
    /// The constraint's index plan, which drives candidate enumeration.
    plan: IndexPlan,
    /// Block id per tuple position, used to restrict the index sweep to
    /// the not-yet-checked block pairs.
    block_of: Vec<usize>,
}

impl ThetaMatrix {
    /// Builds the matrix over `tuples` with `blocks_per_side` partitions per
    /// axis.  The partition attribute is the column of the first
    /// predicate's left operand; it must be numeric for range pruning to be
    /// meaningful.  A constraint without an index plan (one that does not
    /// quantify exactly two tuples) has no matrix: the build returns
    /// [`DaisyError::Plan`].
    pub fn build(
        schema: &Schema,
        tuples: &[Tuple],
        constraint: &DenialConstraint,
        blocks_per_side: usize,
    ) -> Result<ThetaMatrix> {
        let plan = constraint.index_plan().ok_or_else(|| {
            DaisyError::Plan(format!(
                "constraint `{}` quantifies {} tuples; theta detection binds exactly two",
                constraint.name, constraint.tuple_count
            ))
        })?;
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

        // Sort tuple positions by the partition attribute (stable) and slice
        // into equal-size blocks.
        let keys: Vec<Value> = tuples
            .iter()
            .map(|t| t.value(partition_column))
            .collect::<Result<_>>()?;
        let mut order: Vec<usize> = (0..tuples.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));

        let blocks_per_side = blocks_per_side.max(1);
        let ranges = daisy_exec::chunk_ranges(order.len(), blocks_per_side);
        let mut blocks = Vec::with_capacity(ranges.len());
        for (start, end) in ranges {
            let members: Vec<usize> = order[start..end].to_vec();
            let mut bounds: HashMap<usize, AttrBounds> = HashMap::new();
            for &col in &dc_columns {
                if let Some(b) = block_bounds(tuples, &members, col)? {
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
        Ok(ThetaMatrix {
            constraint: constraint.clone(),
            partition_column,
            blocks,
            checked: HashSet::new(),
            dc_columns,
            plan,
            block_of,
        })
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
        let rows: Vec<usize> = (0..self.blocks.len()).collect();
        self.check_blocks(ctx, schema, tuples, &rows)
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
        let rows = self.blocks_overlapping(low, high);
        self.check_blocks(ctx, schema, tuples, &rows)
    }

    /// Checks the not-yet-checked block pairs reachable from `rows`: one
    /// hash-equality / sort-sweep pass of a [`ViolationIndex`] over the
    /// tuples of the block pairs that survive pruning, admitting only
    /// bindings whose blocks form one of those pairs.  The index is built
    /// per call over the active blocks only, so it always reads the
    /// expected values earlier repairs left behind, and a range check
    /// against a mostly-checked matrix pays for its submatrix.
    ///
    /// The sweep merges its morsels in order and the violations are
    /// canonicalised by [`canonicalize_violations`], so the output is
    /// byte-identical for every worker count.  Already-checked pairs
    /// (`checked` is global state shared between incremental and full
    /// calls) are never re-checked.
    fn check_blocks(
        &mut self,
        ctx: &ExecContext,
        schema: &Schema,
        tuples: &[Tuple],
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

        let mut stats = ThetaCheckStats::default();
        // The admit predicate runs once per candidate binding, so the
        // surviving-pair membership test must be a plain array index: a
        // `blocks × blocks` bitmap keyed by the canonical `(min, max)`
        // pair, not a hash lookup.
        let side = self.blocks.len();
        let mut allowed = vec![false; side * side];
        let mut active = vec![false; side];
        for &(a, b) in &keys {
            if self.blocks_can_violate(a, b) {
                stats.blocks_checked += 1;
                allowed[a * side + b] = true;
                active[a] = true;
                active[b] = true;
            } else {
                stats.blocks_pruned += 1;
            }
        }
        if stats.blocks_checked == 0 {
            self.checked.extend(keys);
            return Ok((Vec::new(), stats));
        }
        // Only tuples of a block in some surviving pair can appear in an
        // admitted binding; index just those.
        let mut positions: Vec<usize> = (0..side)
            .filter(|&b| active[b])
            .flat_map(|b| self.blocks[b].members.iter().copied())
            .collect();
        positions.sort_unstable();
        let index = ViolationIndex::build_over(
            ctx,
            schema,
            &self.constraint,
            &self.plan,
            tuples,
            &positions,
        )?;
        let block_of = &self.block_of;
        let (violations, pairs) = index.sweep_detect(ctx, schema, tuples, |i, j| {
            let (a, b) = (block_of[i], block_of[j]);
            allowed[a.min(b) * side + a.max(b)]
        })?;
        stats.pairs_compared = pairs;
        self.checked.extend(keys);
        Ok((canonicalize_violations(violations), stats))
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

    /// Brute-force reference: every ordered pair of distinct tuples,
    /// canonicalised.
    fn oracle(table: &Table, constraint: &DenialConstraint) -> Vec<Violation> {
        let mut expected = Vec::new();
        for a in table.tuples() {
            for b in table.tuples() {
                if a.id != b.id && constraint.violated_by(table.schema(), &[a, b]).unwrap() {
                    expected.push(Violation::pair(constraint.id, a.id, b.id));
                }
            }
        }
        canonicalize_violations(expected)
    }

    fn dept_table(rows: usize, row: impl Fn(i64) -> [i64; 3]) -> Table {
        let schema = Schema::from_pairs(&[
            ("dept", DataType::Int),
            ("salary", DataType::Int),
            ("tax", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..rows as i64)
            .map(|i| {
                let [dept, salary, tax] = row(i);
                vec![
                    Value::Int(dept),
                    Value::Int(salary),
                    Value::Float(tax as f64 / 100.0),
                ]
            })
            .collect();
        Table::from_rows("emp", schema, rows).unwrap()
    }

    fn dept_dc() -> DenialConstraint {
        DenialConstraint::parse(
            "phi",
            "t1.dept = t2.dept & t1.salary < t2.salary & t1.tax > t2.tax",
        )
        .unwrap()
    }

    #[test]
    fn equality_key_detection_matches_oracle() {
        // Same "department" (i % 4), inverted salary/tax.  3 blocks per
        // side deliberately misalign block boundaries with the dept groups,
        // so adjacent blocks must be cross-checked while the index still
        // partitions exactly on dept.
        let table = dept_table(90, |i| [i % 4, 1000 + i * 10, (i * 37) % 90]);
        let dc = dept_dc();
        let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc, 3).unwrap();
        let (found, stats) = matrix
            .check_all(&ctx(), table.schema(), table.tuples())
            .unwrap();
        assert!(!found.is_empty());
        assert_eq!(found, oracle(&table, &dc));
        // The equality key shrinks the candidates far below all pairs.
        assert!(stats.pairs_compared < 90 * 89 / 2);
    }

    #[test]
    fn incremental_halves_cover_the_full_check() {
        let table = dept_table(70, |i| [i % 3, (i * 13) % 500, (i * 7) % 70 * 100]);
        let dc = dept_dc();
        let mut matrix = ThetaMatrix::build(table.schema(), table.tuples(), &dc, 4).unwrap();
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
        let combined = canonicalize_violations(first.into_iter().chain(second).collect());
        assert!(!combined.is_empty());
        assert_eq!(combined, oracle(&table, &dc));
        let mut stats = s1;
        stats.merge(&s2);
        assert_eq!(stats.blocks_checked + stats.blocks_pruned, 4 * 5 / 2);
        assert!((matrix.support() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rules_without_an_index_plan_have_no_matrix() {
        let table = salary_table(&[(1000, 0.1), (3000, 0.2)]);
        for text in [
            "t1.salary > 5",
            "t1.salary < t2.salary & t2.salary < t3.salary & t1.tax < t3.tax",
        ] {
            let dc = DenialConstraint::parse("c", text).unwrap();
            let err = ThetaMatrix::build(table.schema(), table.tuples(), &dc, 2).unwrap_err();
            assert!(matches!(err, DaisyError::Plan(_)), "{text}: {err}");
        }
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
