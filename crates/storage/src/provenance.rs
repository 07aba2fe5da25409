//! Provenance of probabilistic repairs.
//!
//! Daisy "maintains provenance to the original values in case new rules
//! appear" (§4) and uses it in two ways:
//!
//! 1. **Incremental rule addition** (Table 7): when a new rule arrives, the
//!    candidate fixes of cells it touches are computed against the *original*
//!    values and then merged with the candidates already recorded by other
//!    rules — no re-execution of the earlier rules is needed.
//! 2. **Pruning** (§4.3): the store remembers which tuples were already
//!    checked by which rule, so repeated queries do not re-detect the same
//!    violations.
//!
//! The store is keyed by `(tuple, column)` and kept separate from the table
//! itself so that tables remain cheap to clone for baselines and benchmarks.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use daisy_common::{ColumnId, RuleId, TupleId, Value};

use crate::cell::Candidate;

/// Evidence that one rule contributed candidate fixes for a cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleEvidence {
    /// The rule that produced the candidates.
    pub rule: RuleId,
    /// The conflicting tuples this evidence is based on (the `T_i` sets of
    /// Lemma 4).
    pub conflicting: Vec<TupleId>,
    /// The candidates the rule proposed (with raw, un-normalised weights).
    pub candidates: Vec<Candidate>,
}

/// Provenance of a single cell.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellProvenance {
    /// The value the cell held before any cleaning.
    pub original: Option<Value>,
    /// Per-rule evidence, in the order rules were applied.
    pub evidence: Vec<RuleEvidence>,
}

impl CellProvenance {
    /// All rules that have contributed evidence for this cell.
    pub fn rules(&self) -> Vec<RuleId> {
        let mut rules: Vec<RuleId> = self.evidence.iter().map(|e| e.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    /// The union of conflicting-tuple sets across all rules (the merged
    /// `T_m` sets of Lemma 4).
    pub fn all_conflicting(&self) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self
            .evidence
            .iter()
            .flat_map(|e| e.conflicting.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Tracks provenance for every cleaned cell of one table plus the set of
/// tuples already checked per rule.
///
/// The store is a **cheap handle**: cloning it bumps two reference counts,
/// and the per-cell entries are shared between clones as well.  A clone
/// detaches only *inside a recording call that actually changes something*
/// — the key map is then copied once (pointers, not entries) and the one
/// entry written is copied — so handing a world version its own handle,
/// reading through it, or running a cleaning pass that records nothing
/// leaves it pointer-equal to the store it was cloned from
/// ([`ProvenanceStore::shares_storage_with`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProvenanceStore {
    cells: Arc<HashMap<(TupleId, ColumnId), Arc<CellProvenance>>>,
    checked: Arc<HashMap<RuleId, HashSet<TupleId>>>,
}

impl ProvenanceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ProvenanceStore::default()
    }

    /// `true` when both handles still point at the same cell map and the
    /// same checked sets: nothing was recorded through either since one was
    /// cloned from the other.
    #[doc(hidden)]
    pub fn shares_storage_with(&self, other: &ProvenanceStore) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells) && Arc::ptr_eq(&self.checked, &other.checked)
    }

    /// `true` when both stores hold the *same allocation* for the cell's
    /// entry (or both hold none).
    #[doc(hidden)]
    pub fn shares_cell_with(
        &self,
        other: &ProvenanceStore,
        tuple: TupleId,
        column: ColumnId,
    ) -> bool {
        match (
            self.cells.get(&(tuple, column)),
            other.cells.get(&(tuple, column)),
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The entry of a cell for writing; detaches the key map and the entry
    /// from any sharer.
    fn entry_mut(&mut self, tuple: TupleId, column: ColumnId) -> &mut CellProvenance {
        Arc::make_mut(
            Arc::make_mut(&mut self.cells)
                .entry((tuple, column))
                .or_default(),
        )
    }

    /// Records the original value of a cell the first time it is cleaned.
    /// Later calls for the same cell keep the first recorded original (and
    /// leave a shared store shared).
    pub fn record_original(&mut self, tuple: TupleId, column: ColumnId, value: Value) {
        if self.original_value(tuple, column).is_none() {
            self.entry_mut(tuple, column).original = Some(value);
        }
    }

    /// Records that `rule` proposed `candidates` for the cell based on the
    /// given conflicting tuples.
    pub fn record_evidence(&mut self, tuple: TupleId, column: ColumnId, evidence: RuleEvidence) {
        self.entry_mut(tuple, column).evidence.push(evidence);
    }

    /// Looks up the provenance of a cell.
    pub fn cell(&self, tuple: TupleId, column: ColumnId) -> Option<&CellProvenance> {
        self.cells.get(&(tuple, column)).map(Arc::as_ref)
    }

    /// The original value of a cell, if recorded.
    pub fn original_value(&self, tuple: TupleId, column: ColumnId) -> Option<&Value> {
        self.cell(tuple, column).and_then(|p| p.original.as_ref())
    }

    /// Number of cells with provenance entries.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Marks tuples as already checked by a rule.  Marking tuples that are
    /// all checked already leaves a shared store shared.
    pub fn mark_checked(&mut self, rule: RuleId, tuples: impl IntoIterator<Item = TupleId>) {
        let fresh: Vec<TupleId> = tuples
            .into_iter()
            .filter(|t| !self.is_checked(rule, *t))
            .collect();
        // An empty call still creates the rule's (empty) set, as it always
        // did — `checked_dump` lists it.
        if !fresh.is_empty() || !self.checked.contains_key(&rule) {
            Arc::make_mut(&mut self.checked)
                .entry(rule)
                .or_default()
                .extend(fresh);
        }
    }

    /// `true` if a tuple has already been checked against a rule.
    pub fn is_checked(&self, rule: RuleId, tuple: TupleId) -> bool {
        self.checked
            .get(&rule)
            .map(|set| set.contains(&tuple))
            .unwrap_or(false)
    }

    /// Number of tuples already checked by a rule.
    pub fn checked_count(&self, rule: RuleId) -> usize {
        self.checked.get(&rule).map(HashSet::len).unwrap_or(0)
    }

    /// Filters `tuples` down to those not yet checked by `rule`.
    pub fn unchecked<'a>(
        &self,
        rule: RuleId,
        tuples: impl IntoIterator<Item = &'a TupleId>,
    ) -> Vec<TupleId> {
        let empty = HashSet::new();
        let seen = self.checked.get(&rule).unwrap_or(&empty);
        tuples
            .into_iter()
            .copied()
            .filter(|t| !seen.contains(t))
            .collect()
    }

    /// A canonical dump of the whole store: every cell's provenance, sorted
    /// by `(tuple, column)`.
    ///
    /// The store itself is hash-keyed, so iterating it directly yields an
    /// arbitrary order; the dump is the deterministic view used to compare
    /// provenance across runs (e.g. the cross-thread-count determinism
    /// suite asserts dumps are identical for every worker count).
    pub fn dump(&self) -> Vec<((TupleId, ColumnId), CellProvenance)> {
        self.sorted_cells(|_, _| true)
    }

    /// The cell entries this store holds that `old` lacks or holds
    /// differently, sorted by `(tuple, column)` — the cell half of a logged
    /// provenance diff.  Entries that are the same allocation in both
    /// stores are skipped on the pointer, without comparing or copying
    /// them, and two handles on one map yield nothing without a walk.
    pub fn cells_changed_since(
        &self,
        old: &ProvenanceStore,
    ) -> Vec<((TupleId, ColumnId), CellProvenance)> {
        if Arc::ptr_eq(&self.cells, &old.cells) {
            return Vec::new();
        }
        self.sorted_cells(|key, entry| match old.cells.get(key) {
            Some(before) => !Arc::ptr_eq(before, entry) && before != entry,
            None => true,
        })
    }

    /// Copies out the entries `keep` selects, sorted by `(tuple, column)`.
    fn sorted_cells(
        &self,
        keep: impl Fn(&(TupleId, ColumnId), &Arc<CellProvenance>) -> bool,
    ) -> Vec<((TupleId, ColumnId), CellProvenance)> {
        let mut entries: Vec<((TupleId, ColumnId), CellProvenance)> = self
            .cells
            .iter()
            .filter(|(key, entry)| keep(key, entry))
            .map(|(key, entry)| (*key, CellProvenance::clone(entry)))
            .collect();
        entries.sort_by_key(|(k, _)| *k);
        entries
    }

    /// A canonical dump of the per-rule checked sets, sorted by rule with
    /// each tuple set sorted.
    ///
    /// Together with [`ProvenanceStore::dump`] this covers the store's
    /// entire observable state, which is what the durability layer
    /// serializes: `dump` + `checked_dump` in, [`ProvenanceStore::set_cell`]
    /// + [`ProvenanceStore::mark_checked`] out reproduces the store exactly.
    pub fn checked_dump(&self) -> Vec<(RuleId, Vec<TupleId>)> {
        self.sorted_checked(|_, _| true)
    }

    /// The tuples this store marks checked that `old` does not, per rule,
    /// sorted like [`ProvenanceStore::checked_dump`] with rules that gained
    /// nothing left out — the checked half of a logged provenance diff.
    pub fn checked_since(&self, old: &ProvenanceStore) -> Vec<(RuleId, Vec<TupleId>)> {
        if Arc::ptr_eq(&self.checked, &old.checked) {
            return Vec::new();
        }
        let mut fresh = self.sorted_checked(|rule, tuple| !old.is_checked(rule, tuple));
        fresh.retain(|(_, tuples)| !tuples.is_empty());
        fresh
    }

    /// Per rule, sorted by rule, the checked tuples `keep` selects, sorted.
    fn sorted_checked(
        &self,
        keep: impl Fn(RuleId, TupleId) -> bool,
    ) -> Vec<(RuleId, Vec<TupleId>)> {
        let mut entries: Vec<(RuleId, Vec<TupleId>)> = self
            .checked
            .iter()
            .map(|(rule, tuples)| {
                let mut ids: Vec<TupleId> =
                    tuples.iter().copied().filter(|t| keep(*rule, *t)).collect();
                ids.sort_unstable();
                (*rule, ids)
            })
            .collect();
        entries.sort_by_key(|(rule, _)| *rule);
        entries
    }

    /// Replaces the full provenance of one cell, as when decoding a
    /// serialized store or applying a logged provenance diff.
    pub fn set_cell(&mut self, tuple: TupleId, column: ColumnId, provenance: CellProvenance) {
        Arc::make_mut(&mut self.cells).insert((tuple, column), Arc::new(provenance));
    }

    /// Replaces this store's entries for `cells` with `other`'s (cells
    /// `other` has no entry for are left untouched).  The entries are
    /// shared with `other`, not copied, and cells both stores already hold
    /// the same entry for cost nothing.
    ///
    /// This is the provenance half of a footprint-validated commit install:
    /// a session's provenance additions are confined to the cells of its
    /// staged deltas, so when those cells are disjoint from every
    /// intervening commit, grafting exactly the session's entries onto the
    /// current store reproduces what a serial replay would have recorded.
    pub fn merge_cells_from(
        &mut self,
        other: &ProvenanceStore,
        cells: impl IntoIterator<Item = (TupleId, ColumnId)>,
    ) {
        for cell in cells {
            let Some(entry) = other.cells.get(&cell) else {
                continue;
            };
            if self
                .cells
                .get(&cell)
                .is_some_and(|own| Arc::ptr_eq(own, entry))
            {
                continue;
            }
            Arc::make_mut(&mut self.cells).insert(cell, Arc::clone(entry));
        }
    }

    /// All cells that have evidence from a specific rule.
    pub fn cells_for_rule(&self, rule: RuleId) -> Vec<(TupleId, ColumnId)> {
        let mut keys: Vec<(TupleId, ColumnId)> = self
            .cells
            .iter()
            .filter(|(_, p)| p.evidence.iter().any(|e| e.rule == rule))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rule: u64, conflicting: &[u64]) -> RuleEvidence {
        RuleEvidence {
            rule: RuleId::new(rule),
            conflicting: conflicting.iter().map(|t| TupleId::new(*t)).collect(),
            candidates: vec![Candidate::exact(Value::Int(1), 1.0)],
        }
    }

    #[test]
    fn original_value_recorded_only_once() {
        let mut store = ProvenanceStore::new();
        let (t, c) = (TupleId::new(1), ColumnId::new(0));
        store.record_original(t, c, Value::from("San Francisco"));
        store.record_original(t, c, Value::from("Los Angeles"));
        assert_eq!(
            store.original_value(t, c),
            Some(&Value::from("San Francisco"))
        );
    }

    #[test]
    fn evidence_accumulates_per_rule_and_merges_conflicts() {
        let mut store = ProvenanceStore::new();
        let (t, c) = (TupleId::new(1), ColumnId::new(0));
        store.record_evidence(t, c, ev(0, &[2, 3]));
        store.record_evidence(t, c, ev(1, &[3, 4]));
        let prov = store.cell(t, c).unwrap();
        assert_eq!(prov.rules(), vec![RuleId::new(0), RuleId::new(1)]);
        assert_eq!(
            prov.all_conflicting(),
            vec![TupleId::new(2), TupleId::new(3), TupleId::new(4)]
        );
        assert_eq!(store.cells_for_rule(RuleId::new(1)), vec![(t, c)]);
        assert!(store.cells_for_rule(RuleId::new(9)).is_empty());
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let mut store = ProvenanceStore::new();
        store.record_original(TupleId::new(9), ColumnId::new(1), Value::Int(1));
        store.record_original(TupleId::new(2), ColumnId::new(0), Value::Int(2));
        store.record_evidence(TupleId::new(2), ColumnId::new(0), ev(0, &[9]));
        let dump = store.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].0, (TupleId::new(2), ColumnId::new(0)));
        assert_eq!(dump[1].0, (TupleId::new(9), ColumnId::new(1)));
        assert_eq!(dump[0].1.original, Some(Value::Int(2)));
        assert_eq!(dump[0].1.evidence.len(), 1);
    }

    #[test]
    fn dump_round_trips_through_set_cell_and_mark_checked() {
        let mut store = ProvenanceStore::new();
        store.record_original(TupleId::new(3), ColumnId::new(1), Value::Int(7));
        store.record_evidence(TupleId::new(3), ColumnId::new(1), ev(0, &[4]));
        store.mark_checked(RuleId::new(0), [TupleId::new(3), TupleId::new(4)]);
        store.mark_checked(RuleId::new(2), [TupleId::new(9)]);

        let mut rebuilt = ProvenanceStore::new();
        for ((tuple, column), prov) in store.dump() {
            rebuilt.set_cell(tuple, column, prov);
        }
        for (rule, tuples) in store.checked_dump() {
            rebuilt.mark_checked(rule, tuples);
        }
        assert_eq!(rebuilt.dump(), store.dump());
        assert_eq!(rebuilt.checked_dump(), store.checked_dump());
        // checked_dump is sorted by rule, tuples sorted within each rule.
        let checked = store.checked_dump();
        assert_eq!(checked[0].0, RuleId::new(0));
        assert_eq!(checked[0].1, vec![TupleId::new(3), TupleId::new(4)]);
        assert_eq!(checked[1].0, RuleId::new(2));
    }

    #[test]
    fn a_clone_detaches_only_inside_a_recording_call_and_only_the_entry_written() {
        let mut base = ProvenanceStore::new();
        let c = ColumnId::new(0);
        for t in 0..4 {
            base.record_original(TupleId::new(t), c, Value::Int(t as i64));
            base.record_evidence(TupleId::new(t), c, ev(0, &[9]));
        }
        base.mark_checked(RuleId::new(0), [TupleId::new(0)]);

        let mut version = base.clone();
        assert!(version.shares_storage_with(&base));
        // Reads, a repeated original and re-marking a checked tuple record
        // nothing: the handle stays pointer-equal to its source.
        let _ = version.dump();
        let _ = version.cell(TupleId::new(1), c);
        version.record_original(TupleId::new(1), c, Value::Int(77));
        version.mark_checked(RuleId::new(0), [TupleId::new(0)]);
        version.merge_cells_from(&base, [(TupleId::new(2), c)]);
        assert!(version.shares_storage_with(&base));
        assert!(version.cells_changed_since(&base).is_empty());
        assert!(version.checked_since(&base).is_empty());

        // A recording call detaches the key map and the one entry written.
        version.record_evidence(TupleId::new(1), c, ev(1, &[3]));
        version.record_original(TupleId::new(8), c, Value::Int(8));
        assert!(!version.shares_storage_with(&base));
        for t in [0, 2, 3] {
            assert!(version.shares_cell_with(&base, TupleId::new(t), c));
        }
        assert!(!version.shares_cell_with(&base, TupleId::new(1), c));
        assert!(!version.shares_cell_with(&base, TupleId::new(8), c));
        // The source never sees the version's writes…
        assert_eq!(base.cell(TupleId::new(1), c).unwrap().evidence.len(), 1);
        assert!(base.cell(TupleId::new(8), c).is_none());
        // …and the diff is exactly the two entries written, sorted.
        let changed = version.cells_changed_since(&base);
        let keys: Vec<_> = changed.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(TupleId::new(1), c), (TupleId::new(8), c)]);
        assert_eq!(changed[0].1.evidence.len(), 2);

        version.mark_checked(RuleId::new(0), [TupleId::new(0), TupleId::new(5)]);
        assert_eq!(
            version.checked_since(&base),
            vec![(RuleId::new(0), vec![TupleId::new(5)])]
        );
        assert!(!base.is_checked(RuleId::new(0), TupleId::new(5)));
    }

    #[test]
    fn checked_tuples_are_pruned() {
        let mut store = ProvenanceStore::new();
        let rule = RuleId::new(0);
        store.mark_checked(rule, [TupleId::new(1), TupleId::new(2)]);
        assert!(store.is_checked(rule, TupleId::new(1)));
        assert!(!store.is_checked(rule, TupleId::new(5)));
        assert_eq!(store.checked_count(rule), 2);
        let all = [TupleId::new(1), TupleId::new(2), TupleId::new(3)];
        assert_eq!(store.unchecked(rule, all.iter()), vec![TupleId::new(3)]);
        // A different rule has its own checked set.
        assert_eq!(store.unchecked(RuleId::new(1), all.iter()).len(), 3);
    }
}
