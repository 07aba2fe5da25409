//! The `cleanσ` operator for functional dependencies (§4.1).
//!
//! `cleanσ` receives the (dirty) result of a select operator and
//!
//! 1. **relaxes** it with the correlated tuples of the dataset
//!    (Algorithm 1, [`crate::relaxation`]),
//! 2. **detects** the erroneous tuples (members of dirty lhs groups or of
//!    ambiguous rhs groups) and computes their candidate fixes with
//!    frequency-based probabilities `P(rhs | lhs)` and `P(lhs | rhs)`, and
//! 3. **isolates** the changes into a [`Delta`] that the engine applies back
//!    to the base table, gradually making the dataset probabilistic.
//!
//! Candidate probabilities include the original value of the cell (it is a
//! member of its own co-occurrence group), matching Table 2b of the paper
//! where the dirty `(9001, San Francisco)` tuple keeps `San Francisco` as a
//! 33% candidate.

use std::collections::HashMap;

use daisy_common::{ColumnId, Result, RuleId, Value, WorldId};
use daisy_exec::ExecContext;
use daisy_expr::Violation;
use daisy_storage::{Candidate, Cell, Delta, ProvenanceStore, RuleEvidence, Tuple};

use crate::fd_index::FdIndex;
use crate::relaxation::{relax_fd, FilterTarget, RelaxationOutcome};

/// The outcome of cleaning a select result under one FD.
#[derive(Debug, Clone, Default)]
pub struct FdCleanOutcome {
    /// The relaxed, cleaned tuples: the original answer followed by the
    /// correlated extra tuples, with probabilistic cells substituted.
    pub cleaned: Vec<Tuple>,
    /// Number of tuples of `cleaned` that came from the original answer (the
    /// rest are relaxation extras).
    pub answer_len: usize,
    /// The isolated cell changes to apply to the base table.
    pub delta: Delta,
    /// Relaxation statistics (iterations, scanned tuples).  Its `extra` list
    /// is empty: the extra tuples are `cleaned[answer_len..]`.
    pub relaxation: RelaxationOutcome,
    /// Number of cells that received candidate fixes.
    pub errors_detected: usize,
    /// Pairwise violations detected among the relaxed tuples (one entry per
    /// dirty tuple, paired with a representative conflicting tuple).
    pub violations: Vec<Violation>,
}

/// Runs `cleanσ` for a functional dependency.
///
/// * `ctx` — the execution context; violation grouping over the relaxed set
///   is partitioned across its workers (output is worker-count invariant).
/// * `rule` — the rule id, used for provenance bookkeeping.
/// * `index` — the pre-computed FD group index over the base table.
/// * `answer` — the dirty select result (full-width base tuples).
/// * `unvisited_pool` — the tuples relaxation may draw correlated tuples
///   from (typically all base tuples; the engine may restrict it to the
///   not-yet-visited part).
/// * `filter_on` — which FD side the query filter restricts (drives the
///   iteration count, Lemmas 1–2).
#[allow(clippy::too_many_arguments)]
pub fn clean_select_fd(
    ctx: &ExecContext,
    rule: RuleId,
    index: &FdIndex,
    answer: &[Tuple],
    unvisited_pool: &[Tuple],
    filter_on: FilterTarget,
    max_iterations: usize,
    provenance: &mut ProvenanceStore,
) -> Result<FdCleanOutcome> {
    let mut relaxation = relax_fd(index, answer, unvisited_pool, filter_on, max_iterations)?;

    // The extras move into the relaxed set rather than being cloned: a second
    // holder would keep every extra row shared with the base table, and the
    // write-back of its repairs would have to copy the row again.
    let mut relaxed: Vec<Tuple> = Vec::with_capacity(answer.len() + relaxation.extra.len());
    relaxed.extend(answer.iter().cloned());
    relaxed.append(&mut relaxation.extra);

    // Representative conflicting tuples per lhs group (for provenance and
    // violation reporting), computed over the relaxed set only — the paper's
    // point is precisely that the correlated tuples suffice.  The grouping
    // is the hash-equality partitioning stage of the violation-index
    // subsystem: keys are computed in parallel (order preserving), then
    // grouped with the lhs-hash-sharded group-by so each worker owns whole
    // FD groups; member positions stay in ascending relaxed order, which
    // keeps the representative conflicting tuple — and thus the
    // emitted violations and provenance — identical for every worker count.
    let groups: HashMap<Value, Vec<usize>> =
        crate::index::partition_by_key(ctx, &relaxed, |t| index.lhs_key(t))?;

    let mut outcome = FdCleanOutcome {
        answer_len: answer.len(),
        relaxation,
        ..FdCleanOutcome::default()
    };

    let single_lhs_column = index.lhs_columns.len() == 1;
    let mut violations: Vec<Violation> = Vec::new();

    for pos in 0..relaxed.len() {
        let tuple_id = relaxed[pos].id;
        // Group keys are computed against the *original* values: a cell that
        // an earlier query (or another rule) already turned probabilistic must
        // not be re-grouped under its most probable candidate, otherwise
        // candidates from an unrelated group would leak into the cell (§4.3
        // computes every rule's fixes over the original data and merges).
        let lhs = original_key(index, &index.lhs_columns, &relaxed[pos], provenance)?;
        let rhs = original_single(index.rhs_column, &relaxed[pos], provenance)?;

        // The per-rule checked bookkeeping of §4.3: cells this rule already
        // produced evidence for are not re-repaired (their candidates are
        // complete — relaxation pulled in the whole correlated cluster when
        // they were first cleaned).
        let rhs_done = has_rule_evidence(provenance, tuple_id, index.rhs_column, rule);
        let lhs_done = single_lhs_column
            && has_rule_evidence(provenance, tuple_id, index.lhs_columns[0], rule);

        // rhs repair: the lhs group carries conflicting rhs values.
        if index.lhs_is_dirty(&lhs) && !rhs_done {
            let counts = index.rhs_candidates(&lhs);
            let total: usize = counts.iter().map(|(_, c)| *c).sum();
            let world = WorldId::new(tuple_id.raw() * 2);
            let candidates: Vec<Candidate> = counts
                .iter()
                .map(|(value, count)| {
                    Candidate::exact_in_world(value.clone(), *count as f64 / total as f64, world)
                })
                .collect();
            let conflicting: Vec<_> = groups
                .get(&lhs)
                .map(|members| {
                    members
                        .iter()
                        .filter(|&&m| m != pos)
                        .map(|&m| relaxed[m].id)
                        .collect()
                })
                .unwrap_or_default();
            if let Some(other) = conflicting.first() {
                violations.push(Violation::pair(rule, tuple_id, *other));
            }
            apply_candidates(
                &mut relaxed[pos],
                index.rhs_column,
                rhs.clone(),
                candidates,
                rule,
                conflicting,
                provenance,
                &mut outcome.delta,
            )?;
            outcome.errors_detected += 1;
        }

        // lhs repair: only *erroneous* tuples (members of a dirty lhs group)
        // receive lhs candidates, and only when their rhs value co-occurs
        // with several lhs values (Table 2b: the dirty (9001, San Francisco)
        // tuple gets zip candidates, the clean 10001 tuples do not).  Only
        // single-attribute lhs cells can be replaced by a candidate set (a
        // composite lhs has no single cell to attach candidates to).
        if single_lhs_column
            && !lhs_done
            && index.lhs_is_dirty(&lhs)
            && index.rhs_is_ambiguous(&rhs)
        {
            let counts = index.lhs_candidates(&rhs);
            let total: usize = counts.iter().map(|(_, c)| *c).sum();
            let world = WorldId::new(tuple_id.raw() * 2 + 1);
            let candidates: Vec<Candidate> = counts
                .iter()
                .map(|(value, count)| {
                    Candidate::exact_in_world(value.clone(), *count as f64 / total as f64, world)
                })
                .collect();
            apply_candidates(
                &mut relaxed[pos],
                index.lhs_columns[0],
                lhs.clone(),
                candidates,
                rule,
                Vec::new(),
                provenance,
                &mut outcome.delta,
            )?;
            outcome.errors_detected += 1;
        }
    }

    outcome.cleaned = relaxed;
    outcome.violations = violations;
    Ok(outcome)
}

/// Resolves the effective value of one column: the provenance original when
/// the cell has already been made probabilistic, the cell value otherwise.
fn original_single(column: usize, tuple: &Tuple, provenance: &ProvenanceStore) -> Result<Value> {
    let cell = tuple.cell(column)?;
    if cell.is_probabilistic() {
        if let Some(original) = provenance.original_value(tuple.id, ColumnId::new(column as u64)) {
            return Ok(original.clone());
        }
    }
    tuple.value(column)
}

/// The (possibly composite) group key of a tuple over `columns`, resolved
/// against original values for already-probabilistic cells.
fn original_key(
    index: &FdIndex,
    columns: &[usize],
    tuple: &Tuple,
    provenance: &ProvenanceStore,
) -> Result<Value> {
    if columns.iter().all(|&c| {
        tuple
            .cell(c)
            .map(|cell| !cell.is_probabilistic())
            .unwrap_or(true)
    }) {
        return index.lhs_key(tuple);
    }
    let mut restored = tuple.clone();
    for &column in columns {
        let value = original_single(column, tuple, provenance)?;
        *restored.cell_mut(column)? = daisy_storage::Cell::Determinate(value);
    }
    index.lhs_key(&restored)
}

/// `true` when `rule` already recorded candidate evidence for the cell.
fn has_rule_evidence(
    provenance: &ProvenanceStore,
    tuple: daisy_common::TupleId,
    column: usize,
    rule: RuleId,
) -> bool {
    provenance
        .cell(tuple, ColumnId::new(column as u64))
        .map(|cell| cell.evidence.iter().any(|e| e.rule == rule))
        .unwrap_or(false)
}

/// Replaces a cell with a probabilistic candidate set, records provenance,
/// and appends the change to the delta.  Cells whose candidate set is a
/// singleton equal to the current value are left untouched.
#[allow(clippy::too_many_arguments)]
fn apply_candidates(
    tuple: &mut Tuple,
    column: usize,
    original: Value,
    candidates: Vec<Candidate>,
    rule: RuleId,
    conflicting: Vec<daisy_common::TupleId>,
    provenance: &mut ProvenanceStore,
    delta: &mut Delta,
) -> Result<()> {
    if candidates.is_empty() {
        return Ok(());
    }
    if candidates.len() == 1 && candidates[0].value.could_equal(&original) {
        return Ok(());
    }
    let column_id = ColumnId::new(column as u64);
    provenance.record_original(tuple.id, column_id, original);
    provenance.record_evidence(
        tuple.id,
        column_id,
        RuleEvidence {
            rule,
            conflicting,
            candidates: candidates.clone(),
        },
    );
    let cell = Cell::probabilistic(candidates);
    delta.push_update(tuple.id, column_id, cell.clone());
    *tuple.cell_mut(column)? = cell;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema, TupleId};
    use daisy_expr::FunctionalDependency;
    use daisy_storage::Table;

    fn cities() -> Table {
        Table::from_rows(
            "cities",
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap(),
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap()
    }

    fn setup() -> (Table, FdIndex) {
        let table = cities();
        let index = FdIndex::build(&table, &FunctionalDependency::new(&["zip"], "city")).unwrap();
        (table, index)
    }

    #[test]
    fn example_2_rhs_filter_produces_paper_candidates() {
        // Query: zip of "Los Angeles" (filter on the rhs).
        let (table, index) = setup();
        let answer: Vec<Tuple> = table
            .tuples()
            .iter()
            .filter(|t| t.value(1).unwrap() == Value::from("Los Angeles"))
            .cloned()
            .collect();
        let mut prov = ProvenanceStore::new();
        let out = clean_select_fd(
            &ExecContext::new(4),
            RuleId::new(0),
            &index,
            &answer,
            table.tuples(),
            FilterTarget::Rhs,
            16,
            &mut prov,
        )
        .unwrap();

        // Answer (2 tuples) + 1 correlated extra (the SF tuple with zip 9001).
        assert_eq!(out.cleaned.len(), 3);
        assert_eq!(out.answer_len, 2);
        assert!(!out.delta.is_empty());
        assert!(out.errors_detected >= 3);

        // Every cleaned tuple's city cell holds {LA 67%, SF 33%}.
        for t in &out.cleaned {
            let city = t.cell(1).unwrap();
            assert!(city.is_probabilistic());
            let la = city
                .candidates()
                .iter()
                .find(|c| c.value.could_equal(&Value::from("Los Angeles")))
                .unwrap();
            assert!((la.probability - 2.0 / 3.0).abs() < 1e-9);
        }
        // The dirty (9001, San Francisco) tuple also gets zip candidates
        // {9001 50%, 10001 50%} (Table 2b).
        let dirty = out
            .cleaned
            .iter()
            .find(|t| t.id == TupleId::new(1))
            .unwrap();
        let zip = dirty.cell(0).unwrap();
        assert!(zip.is_probabilistic());
        assert_eq!(zip.candidate_count(), 2);
        for c in zip.candidates() {
            assert!((c.probability - 0.5).abs() < 1e-9);
        }
        // Clean tuples' zip stays determinate (LA only co-occurs with 9001).
        let clean = out
            .cleaned
            .iter()
            .find(|t| t.id == TupleId::new(0))
            .unwrap();
        assert!(!clean.cell(0).unwrap().is_probabilistic());

        // Provenance recorded the original values and rule evidence.
        assert!(prov
            .original_value(TupleId::new(1), ColumnId::new(1))
            .is_some());
        assert!(!prov.cells_for_rule(RuleId::new(0)).is_empty());
        // Violations were reported.
        assert!(!out.violations.is_empty());
    }

    #[test]
    fn example_3_lhs_filter_reaches_other_cluster() {
        // Query: city with zip 9001 (filter on the lhs).
        let (table, index) = setup();
        let answer: Vec<Tuple> = table
            .tuples()
            .iter()
            .filter(|t| t.value(0).unwrap() == Value::Int(9001))
            .cloned()
            .collect();
        let mut prov = ProvenanceStore::new();
        let out = clean_select_fd(
            &ExecContext::new(4),
            RuleId::new(0),
            &index,
            &answer,
            table.tuples(),
            FilterTarget::Lhs,
            16,
            &mut prov,
        )
        .unwrap();
        // All five tuples end up in the relaxed result (Table 3).
        assert_eq!(out.cleaned.len(), 5);
        assert!(out.relaxation.iterations >= 2);
        // The (10001, San Francisco) tuple qualifies through its zip
        // candidates {9001, 10001}.
        let t3 = out
            .cleaned
            .iter()
            .find(|t| t.id == TupleId::new(3))
            .unwrap();
        assert!(t3.cell(0).unwrap().could_equal(&Value::Int(9001)));
        // The (10001, New York) tuple receives city candidates {SF, NY}.
        let t4 = out
            .cleaned
            .iter()
            .find(|t| t.id == TupleId::new(4))
            .unwrap();
        assert!(t4.cell(1).unwrap().is_probabilistic());
    }

    #[test]
    fn clean_answer_produces_no_delta() {
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        let table = Table::from_rows(
            "clean",
            schema,
            vec![
                vec![Value::Int(1), Value::from("A")],
                vec![Value::Int(2), Value::from("B")],
            ],
        )
        .unwrap();
        let index = FdIndex::build(&table, &FunctionalDependency::new(&["zip"], "city")).unwrap();
        let mut prov = ProvenanceStore::new();
        let out = clean_select_fd(
            &ExecContext::new(4),
            RuleId::new(0),
            &index,
            table.tuples(),
            table.tuples(),
            FilterTarget::Lhs,
            16,
            &mut prov,
        )
        .unwrap();
        assert!(out.delta.is_empty());
        assert_eq!(out.errors_detected, 0);
        assert!(out.violations.is_empty());
        assert!(prov.is_empty());
    }

    #[test]
    fn delta_applies_back_to_base_table() {
        let (mut table, index) = setup();
        let answer: Vec<Tuple> = table
            .tuples()
            .iter()
            .filter(|t| t.value(1).unwrap() == Value::from("Los Angeles"))
            .cloned()
            .collect();
        let mut prov = ProvenanceStore::new();
        let out = clean_select_fd(
            &ExecContext::new(4),
            RuleId::new(0),
            &index,
            &answer,
            table.tuples(),
            FilterTarget::Rhs,
            16,
            &mut prov,
        )
        .unwrap();
        let applied = table.apply_delta(&out.delta).unwrap();
        assert_eq!(applied, out.delta.len());
        assert!(table.probabilistic_tuple_count() >= 3);
        // The untouched cluster (zip 10001) stays deterministic: gradual
        // cleaning only pays for what the query needs.
        assert!(!table.tuple(TupleId::new(4)).unwrap().is_probabilistic());
    }
}
