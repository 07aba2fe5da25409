//! Named relations over probabilistic tuples.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use daisy_common::{DaisyError, Result, Schema, TupleId, Value};

use crate::cell::Cell;
use crate::delta::Delta;
use crate::tuple::Tuple;

/// An in-memory relation: a schema plus a vector of tuples with stable ids.
///
/// Daisy updates relations *in place* after each query: the cleaning
/// operators isolate the changes made to erroneous tuples into a
/// [`Delta`] and the engine applies it back to the base table, gradually
/// turning the dataset probabilistic (§4, §6).
///
/// **What a clone shares.**  `Table::clone` copies one record per row — id,
/// cells pointer, (empty) lineage — and bumps the reference count of each
/// row's cells and of the id index; no cell is copied.  Afterwards a cell
/// update detaches only the row it lands in ([`Cells`](crate::tuple::Cells)), and only an append
/// detaches the id index.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "TableParts")]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
    /// Tuple id → position in `tuples`; shared between clones until one
    /// of them appends.
    #[serde(skip)]
    index: Arc<HashMap<TupleId, usize>>,
    next_id: u64,
    /// Monotone mutation counter.  Bumped by every operation that can change
    /// tuple contents or membership; derived read structures (the
    /// maintained violation indexes in particular) record the revision they
    /// were built at and
    /// treat a mismatch as "stale".  Skipped by serde like the id index:
    /// both are rehydrated together (see [`Table::from_serde_parts`]).
    #[serde(skip)]
    revision: u64,
}

/// The serialized fields of a [`Table`] — the deserialization waypoint.
///
/// `Table` derives `Deserialize` with `#[serde(from = "TableParts")]`, so a
/// deserializer first produces this struct and then converts it through
/// [`From`], which rebuilds the `#[serde(skip)]` state (the tuple-id index
/// and the revision counter).  Without that hop, a round-tripped table
/// answers `tuple(id) == None` for every id and rejects every delta.
///
/// The offline `serde` stub never instantiates this type (its derives emit
/// no code); the real `serde_derive` does, hence the `dead_code` allowance.
#[allow(dead_code)]
#[derive(Debug, Clone, Deserialize)]
struct TableParts {
    name: String,
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
    next_id: u64,
}

impl From<TableParts> for Table {
    fn from(parts: TableParts) -> Table {
        Table::from_serde_parts(parts.name, parts.schema, parts.tuples, parts.next_id)
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema: Arc::new(schema),
            tuples: Vec::new(),
            index: Arc::default(),
            next_id: 0,
            revision: 0,
        }
    }

    /// Reassembles a table from its serialized fields, rebuilding the
    /// `#[serde(skip)]` state (the tuple-id index and the revision counter)
    /// that a derived `Deserialize` leaves at its defaults.
    ///
    /// Deserializers must route through here: a table whose skipped index
    /// was left empty answers `tuple(id) == None` for every id and rejects
    /// every delta, which silently breaks id lookups after a round trip.
    pub fn from_serde_parts(
        name: impl Into<String>,
        schema: Arc<Schema>,
        tuples: Vec<Tuple>,
        next_id: u64,
    ) -> Self {
        let mut table = Table {
            name: name.into(),
            schema,
            tuples,
            index: Arc::default(),
            next_id,
            revision: 0,
        };
        table.rebuild_index();
        table
    }

    /// Creates a table and bulk-loads rows of determinate values.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    ) -> Result<Self> {
        let mut table = Table::new(name, schema);
        for row in rows {
            table.push_values(row)?;
        }
        Ok(table)
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The table's mutation revision.  Any operation that may change tuple
    /// contents or membership bumps it; equal revisions mean derived read
    /// structures built against this table are still valid.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The id the next appended row will receive.  Staged appends
    /// (see [`Delta::push_append`]) pre-assign ids starting here.
    pub fn next_tuple_id(&self) -> TupleId {
        TupleId::new(self.next_id)
    }

    /// Appends a row of determinate values, returning the assigned tuple id.
    pub fn push_values(&mut self, values: Vec<Value>) -> Result<TupleId> {
        if values.len() != self.schema.len() {
            return Err(DaisyError::Schema(format!(
                "row arity {} does not match schema arity {} of table `{}`",
                values.len(),
                self.schema.len(),
                self.name
            )));
        }
        let id = TupleId::new(self.next_id);
        self.next_id += 1;
        self.revision += 1;
        Arc::make_mut(&mut self.index).insert(id, self.tuples.len());
        self.tuples.push(Tuple::from_values(id, values));
        Ok(id)
    }

    /// Appends a tuple built from cells, returning the assigned tuple id.
    /// The tuple's id field is overwritten with the assigned id.
    pub fn push_cells(&mut self, cells: Vec<Cell>) -> Result<TupleId> {
        if cells.len() != self.schema.len() {
            return Err(DaisyError::Schema(format!(
                "row arity {} does not match schema arity {} of table `{}`",
                cells.len(),
                self.schema.len(),
                self.name
            )));
        }
        let id = TupleId::new(self.next_id);
        self.next_id += 1;
        self.revision += 1;
        Arc::make_mut(&mut self.index).insert(id, self.tuples.len());
        self.tuples.push(Tuple::from_cells(id, cells));
        Ok(id)
    }

    /// Looks up a tuple by id.
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.index.get(&id).map(|&pos| &self.tuples[pos])
    }

    /// The slice position of a tuple id, if present.  Positional structures
    /// (maintained violation indexes, snapshots) use this to translate the
    /// tuple ids of a [`Delta`] into the rows they maintain.
    pub fn position_of(&self, id: TupleId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Looks up a tuple by id mutably.  Conservatively bumps the revision:
    /// the caller receives write access, so derived structures must assume
    /// the tuple changed.
    pub fn tuple_mut(&mut self, id: TupleId) -> Option<&mut Tuple> {
        match self.index.get(&id) {
            Some(&pos) => {
                self.revision += 1;
                self.tuples.get_mut(pos)
            }
            None => None,
        }
    }

    /// Rebuilds the id index (needed after deserialisation).
    pub fn rebuild_index(&mut self) {
        self.index = Arc::new(
            self.tuples
                .iter()
                .enumerate()
                .map(|(pos, t)| (t.id, pos))
                .collect(),
        );
    }

    /// Resolves a column name to its ordinal position.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Returns the expected (most probable) value of `column` for every tuple.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self.column_index(column)?;
        self.tuples.iter().map(|t| t.value(idx)).collect()
    }

    /// Applies a delta of row appends and cell updates in place.
    ///
    /// Appends go first (so the updates may target the appended rows), and
    /// the whole delta costs a **single** revision bump — derived read
    /// structures absorb it as one step.  Each append's pre-assigned id must
    /// be exactly the id the table would assign (sequential from the id
    /// counter); a mismatch means the delta was staged against a different
    /// table state and is an execution error.  Updates are the
    /// "left-outer-join between the dataset and the fixed values" of the
    /// cost analysis (§5.2.1): every update targets an existing tuple by id;
    /// updates to unknown tuples are an execution error.  Returns the number
    /// of cells modified (appended rows count one per cell).
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<usize> {
        if !delta.is_empty() {
            self.revision += 1;
        }
        let mut applied = 0;
        for append in delta.appends() {
            if append.values.len() != self.schema.len() {
                return Err(DaisyError::Schema(format!(
                    "appended row arity {} does not match schema arity {} of table `{}`",
                    append.values.len(),
                    self.schema.len(),
                    self.name
                )));
            }
            if append.id != TupleId::new(self.next_id) {
                return Err(DaisyError::Execution(format!(
                    "append id {} does not match the next id {} of table `{}`",
                    append.id, self.next_id, self.name
                )));
            }
            self.next_id += 1;
            Arc::make_mut(&mut self.index).insert(append.id, self.tuples.len());
            self.tuples
                .push(Tuple::from_values(append.id, append.values.clone()));
            applied += append.values.len();
        }
        for update in delta.updates() {
            let pos = *self.index.get(&update.tuple).ok_or_else(|| {
                DaisyError::Execution(format!(
                    "delta references unknown tuple {} in table `{}`",
                    update.tuple, self.name
                ))
            })?;
            let tuple = &mut self.tuples[pos];
            let cell = tuple.cell_mut(update.column.index())?;
            match &update.cell {
                Cell::Probabilistic(incoming) => {
                    // Merge rather than overwrite: earlier queries may already
                    // have attached candidates from other rules (§4.3).
                    cell.merge_candidates(incoming.clone());
                }
                Cell::Determinate(v) => {
                    *cell = Cell::Determinate(v.clone());
                }
            }
            applied += 1;
        }
        Ok(applied)
    }

    /// Number of tuples with at least one probabilistic cell.
    pub fn probabilistic_tuple_count(&self) -> usize {
        self.tuples.iter().filter(|t| t.is_probabilistic()).count()
    }

    /// Total number of candidate values stored in the table; the "size of
    /// the probabilistic version" reported in the paper's setup grows with
    /// this quantity.
    pub fn total_candidates(&self) -> usize {
        self.tuples.iter().map(Tuple::total_candidates).sum()
    }

    /// Produces a qualified copy of the table (schema fields prefixed with
    /// the table name), used when planning joins.
    pub fn qualified(&self) -> Table {
        let mut qualified = self.clone();
        qualified.schema = Arc::new(self.schema.qualify(&self.name));
        qualified
    }

    /// Replaces the tuples wholesale (used by generators and tests); tuple
    /// ids are preserved from the given tuples.
    pub fn replace_tuples(&mut self, tuples: Vec<Tuple>) {
        self.next_id = tuples.iter().map(|t| t.id.raw() + 1).max().unwrap_or(0);
        self.revision += 1;
        self.tuples = tuples;
        self.rebuild_index();
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} [{} rows]", self.name, self.schema, self.len())?;
        for t in self.tuples.iter().take(20) {
            writeln!(f, "  {t}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Candidate;
    use crate::delta::CellUpdate;
    use daisy_common::{ColumnId, DataType};

    fn cities() -> Table {
        let schema =
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap();
        Table::from_rows(
            "cities",
            schema,
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

    #[test]
    fn push_assigns_monotone_ids_and_indexes_them() {
        let t = cities();
        assert_eq!(t.len(), 5);
        for (i, tup) in t.tuples().iter().enumerate() {
            assert_eq!(tup.id, TupleId::new(i as u64));
            assert_eq!(t.tuple(tup.id).unwrap().id, tup.id);
        }
        assert!(t.tuple(TupleId::new(99)).is_none());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = cities();
        assert!(t.push_values(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn apply_delta_merges_probabilistic_updates() {
        let mut t = cities();
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(1),
            column: ColumnId::new(1),
            cell: Cell::probabilistic(vec![
                Candidate::exact(Value::from("Los Angeles"), 2.0),
                Candidate::exact(Value::from("San Francisco"), 1.0),
            ]),
        });
        let applied = t.apply_delta(&delta).unwrap();
        assert_eq!(applied, 1);
        let cell = t.tuple(TupleId::new(1)).unwrap().cell(1).unwrap();
        assert!(cell.is_probabilistic());
        assert!(cell.could_equal(&Value::from("Los Angeles")));
        assert_eq!(t.probabilistic_tuple_count(), 1);
        assert_eq!(t.total_candidates(), 11);
    }

    #[test]
    fn apply_delta_appends_rows_before_updates() {
        let mut t = cities();
        let r0 = t.revision();
        let first = t.next_tuple_id();
        let mut delta = Delta::new();
        delta.push_append(first, vec![Value::Int(60601), Value::from("Chicago")]);
        delta.push_append(
            TupleId::new(first.raw() + 1),
            vec![Value::Int(60601), Value::from("Evanston")],
        );
        // An update may target a row the same delta appends.
        delta.push(CellUpdate {
            tuple: first,
            column: ColumnId::new(1),
            cell: Cell::Determinate(Value::from("Chicago Loop")),
        });
        let applied = t.apply_delta(&delta).unwrap();
        assert_eq!(applied, 5); // 2 rows × 2 cells + 1 update
        assert_eq!(t.len(), 7);
        assert_eq!(t.revision(), r0 + 1, "one bump for the whole delta");
        assert_eq!(
            t.tuple(first).unwrap().value(1).unwrap(),
            Value::from("Chicago Loop")
        );
        // Id assignment continues past the appended rows.
        assert_eq!(t.next_tuple_id(), TupleId::new(first.raw() + 2));

        // Appends staged against a different id space are refused.
        let mut stale = Delta::new();
        stale.push_append(first, vec![Value::Int(1), Value::from("X")]);
        assert!(t.apply_delta(&stale).is_err());
        // As are arity mismatches.
        let mut bad = Delta::new();
        bad.push_append(t.next_tuple_id(), vec![Value::Int(1)]);
        assert!(t.apply_delta(&bad).is_err());
    }

    #[test]
    fn apply_delta_to_unknown_tuple_fails() {
        let mut t = cities();
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(77),
            column: ColumnId::new(0),
            cell: Cell::Determinate(Value::Int(1)),
        });
        assert!(t.apply_delta(&delta).is_err());
    }

    #[test]
    fn repeated_deltas_merge_candidates_across_rules() {
        let mut t = cities();
        for weight in [1.0, 3.0] {
            let mut delta = Delta::new();
            delta.push(CellUpdate {
                tuple: TupleId::new(3),
                column: ColumnId::new(1),
                cell: Cell::probabilistic(vec![
                    Candidate::exact(Value::from("New York"), weight),
                    Candidate::exact(Value::from("San Francisco"), 1.0),
                ]),
            });
            t.apply_delta(&delta).unwrap();
        }
        let cell = t.tuple(TupleId::new(3)).unwrap().cell(1).unwrap();
        assert_eq!(cell.candidate_count(), 2);
        let total: f64 = cell.candidates().iter().map(|c| c.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qualified_schema_prefixes_columns() {
        let t = cities().qualified();
        assert!(t.schema().contains("cities.zip"));
        assert_eq!(t.column_index("zip").unwrap(), 0);
    }

    #[test]
    fn column_values_returns_expected_values() {
        let t = cities();
        let zips = t.column_values("zip").unwrap();
        assert_eq!(zips.len(), 5);
        assert_eq!(zips[0], Value::Int(9001));
        assert!(t.column_values("state").is_err());
    }

    #[test]
    fn serde_round_trip_rehydrates_the_tuple_id_index() {
        // The tuple-id index is `#[serde(skip)]`, so deserialization routes
        // through `TableParts` (`#[serde(from)]`) whose `From` conversion
        // rebuilds it.  Simulate exactly what a deserializer produces — the
        // serialized fields of a mutated table — and run the same
        // conversion it would.
        let mut original = cities();
        // A non-trivial id space: drop the first two tuples so positions and
        // ids diverge, then append one more.
        let kept: Vec<Tuple> = original.tuples().iter().skip(2).cloned().collect();
        original.replace_tuples(kept);
        original
            .push_values(vec![Value::Int(77), Value::from("Fresno")])
            .unwrap();

        let restored = Table::from(TableParts {
            name: original.name().to_string(),
            schema: Arc::clone(original.schema()),
            tuples: original.tuples().to_vec(),
            next_id: original
                .tuples()
                .iter()
                .map(|t| t.id.raw() + 1)
                .max()
                .unwrap(),
        });

        // Lookups resolve every surviving tuple to the same contents…
        assert_eq!(restored.len(), original.len());
        for t in original.tuples() {
            assert_eq!(restored.tuple(t.id), Some(t));
        }
        assert!(restored.tuple(TupleId::new(0)).is_none());
        // …deltas keyed by tuple id apply…
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(4),
            column: ColumnId::new(1),
            cell: Cell::Determinate(Value::from("Rehydrated")),
        });
        let mut restored = restored;
        assert_eq!(restored.apply_delta(&delta).unwrap(), 1);
        assert_eq!(
            restored.tuple(TupleId::new(4)).unwrap().value(1).unwrap(),
            Value::from("Rehydrated")
        );
        // …and id assignment continues past the serialized tuples.
        let id = restored
            .push_values(vec![Value::Int(1), Value::from("X")])
            .unwrap();
        assert_eq!(id, TupleId::new(6));
    }

    #[test]
    fn mutations_bump_the_revision_counter() {
        let mut t = cities();
        let r0 = t.revision();
        t.push_values(vec![Value::Int(1), Value::from("A")])
            .unwrap();
        let r1 = t.revision();
        assert!(r1 > r0);
        // Read-only access leaves the revision alone.
        let _ = t.tuples();
        let _ = t.tuple(TupleId::new(0));
        assert_eq!(t.revision(), r1);
        // Mutable access and deltas bump it.
        t.tuple_mut(TupleId::new(0)).unwrap();
        let r2 = t.revision();
        assert!(r2 > r1);
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(1),
            column: ColumnId::new(1),
            cell: Cell::Determinate(Value::from("B")),
        });
        t.apply_delta(&delta).unwrap();
        assert!(t.revision() > r2);
        // Empty deltas are free.
        let r3 = t.revision();
        t.apply_delta(&Delta::new()).unwrap();
        assert_eq!(t.revision(), r3);
    }

    #[test]
    fn replace_tuples_keeps_ids_consistent() {
        let mut t = cities();
        let kept: Vec<Tuple> = t.tuples().iter().skip(2).cloned().collect();
        t.replace_tuples(kept);
        assert_eq!(t.len(), 3);
        assert!(t.tuple(TupleId::new(0)).is_none());
        assert!(t.tuple(TupleId::new(4)).is_some());
        // New pushes continue from the highest existing id.
        let id = t
            .push_values(vec![Value::Int(1), Value::from("X")])
            .unwrap();
        assert_eq!(id, TupleId::new(5));
    }
}
