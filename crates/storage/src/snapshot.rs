//! Columnar snapshots: a typed, dictionary-encoded copy of a table's
//! expected values.
//!
//! A [`ColumnSnapshot`] materialises the *expected* value of every cell
//! into per-column typed arrays — `Vec<Option<i64>>`, `Vec<Option<f64>>`,
//! `Vec<Option<bool>>`, and dictionary-encoded strings — read as
//! [`ColumnCode`]s: `Copy` scalars whose equality, hash and total order
//! mirror [`Value`]'s exactly (NULL sorts first, NaN sorts last, ints and
//! floats coerce numerically).
//!
//! No engine path reads a snapshot: the detection kernels read the tuples,
//! with predicates resolved once per pass, which measured as fast without
//! keeping a second copy of the table.  The type remains for callers that
//! time its build and delta maintenance.
//!
//! A snapshot holds expected values only.  The candidate sets of relaxed
//! cells stay in the table's tuples, where query filters and joins read
//! them.
//!
//! **Dictionary ordering invariant.**  All string columns share one
//! [`StringDictionary`].  Stored codes are assigned in insertion order and
//! never change; ordering is provided by a rank table (`rank[code]` = the
//! string's position in the sorted dictionary), so [`ColumnCode::Str`]
//! carries the *rank* and code comparisons are string comparisons.  When a
//! delta introduces a new string, only the rank table shifts — the encoded
//! columns stay untouched.
//!
//! **Delta maintenance.**  A snapshot records the [`Table::revision`] it
//! reflects.  After a [`Delta`] is applied to the base table,
//! [`ColumnSnapshot::absorb_delta`] re-reads just the touched
//! cells and patches the affected columns and dictionary in place —
//! `O(|delta|)`, not `O(table)`.  Any table mutation that bypasses this
//! protocol leaves the revision behind and [`ColumnSnapshot::is_current`]
//! reports the snapshot stale, forcing a rebuild on next use.
//!
//! **What a clone shares.**  Every piece of a snapshot sits behind its own
//! pointer — each column's code array (a shared slice held directly in the
//! column, so reads pay no extra hop), the dictionary, the tuple-id → row
//! map — so `ColumnSnapshot::clone` is a handful of reference-count bumps,
//! and `absorb_delta` on a clone detaches only what the delta writes: the
//! code arrays of the columns its updates touch, the dictionary only when a
//! novel string is interned, the row map (and every column, which grows by
//! a row) only for appends.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use daisy_common::{DaisyError, Result, TupleId, Value};

use crate::delta::Delta;
use crate::table::Table;
use crate::tuple::Tuple;

/// A cell read from a [`ColumnSnapshot`]: a `Copy` scalar whose equality,
/// hash and total order mirror [`Value`]'s exactly.  String cells carry
/// their dictionary *rank*, so `Str` comparisons are string comparisons
/// without touching the dictionary.
#[derive(Debug, Clone, Copy)]
pub enum ColumnCode {
    /// SQL NULL / missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Sorted-dictionary rank of a string (rank order == string order).
    Str(u32),
}

impl ColumnCode {
    /// `true` for the NULL code.
    pub fn is_null(self) -> bool {
        matches!(self, ColumnCode::Null)
    }

    fn type_rank(self) -> u8 {
        match self {
            ColumnCode::Null => 0,
            ColumnCode::Bool(_) => 1,
            ColumnCode::Int(_) | ColumnCode::Float(_) => 2,
            ColumnCode::Str(_) => 3,
        }
    }

    /// Total comparison mirroring [`Value::total_cmp`]: NULL first, exact
    /// `i64` comparison for int/int, IEEE `total_cmp` for floats, numeric
    /// coercion for int/float, rank (= string) order for strings, and the
    /// fixed type rank across non-coercible types.
    pub fn total_cmp(self, other: ColumnCode) -> Ordering {
        use ColumnCode::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl PartialEq for ColumnCode {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(*other) == Ordering::Equal
    }
}

impl Eq for ColumnCode {}

impl PartialOrd for ColumnCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ColumnCode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(*other)
    }
}

impl Hash for ColumnCode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ColumnCode::Null => 0u8.hash(state),
            ColumnCode::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and numerically equal floats must hash identically, like
            // `Value` (equality coerces them).
            ColumnCode::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            ColumnCode::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            ColumnCode::Str(r) => {
                3u8.hash(state);
                r.hash(state);
            }
        }
    }
}

/// The shared, sorted string dictionary of a snapshot.
///
/// Codes are insertion-ordered and stable; `rank[code]` gives the string's
/// position in sorted order and is the payload of [`ColumnCode::Str`].
/// Interning a new string shifts only ranks (`O(dictionary)`), never codes.
#[derive(Debug, Clone, Default)]
pub struct StringDictionary {
    /// Code → string, in insertion order.
    strings: Vec<String>,
    /// Code → sorted rank.
    rank: Vec<u32>,
    /// Sorted rank → code.
    sorted: Vec<u32>,
    /// String → code.
    lookup: HashMap<String, u32>,
    /// Number of rank-maintenance events: full [`rebuild_ranks`] passes plus
    /// incremental shifts from [`intern`]ing a novel string.  Purely
    /// observational — delta absorption is expected to cost **one** event
    /// per batch, however many novel strings the batch carries.
    ///
    /// [`rebuild_ranks`]: StringDictionary::rebuild_ranks
    /// [`intern`]: StringDictionary::intern
    rank_rebuilds: u64,
}

impl StringDictionary {
    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string behind a code.
    pub fn string(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// The sorted rank of a code.
    pub fn rank(&self, code: u32) -> u32 {
        self.rank[code as usize]
    }

    /// The code of an already-interned string.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Number of rank-maintenance events so far (full rebuilds plus
    /// incremental shifts from novel-string interns).  Lets callers assert
    /// that absorbing a delta with many novel strings pays one batched
    /// rebuild instead of one `O(dictionary)` shift per string.
    pub fn rank_rebuilds(&self) -> u64 {
        self.rank_rebuilds
    }

    /// Interns a string, maintaining the rank table incrementally: ranks at
    /// or above the insertion point shift up by one, codes never move.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(code) = self.code_of(s) {
            return code;
        }
        self.rank_rebuilds += 1;
        let code = self.strings.len() as u32;
        let at = self
            .sorted
            .partition_point(|&code| self.strings[code as usize].as_str() < s);
        for &shifted in &self.sorted[at..] {
            self.rank[shifted as usize] += 1;
        }
        self.sorted.insert(at, code);
        self.rank.push(at as u32);
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), code);
        code
    }

    /// Appends a string known to be absent, without maintaining ranks — the
    /// bulk-build fast path.  The caller must invoke
    /// [`StringDictionary::rebuild_ranks`] before any rank is read.
    fn push_unranked(&mut self, s: &str) -> u32 {
        let code = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), code);
        code
    }

    /// Recomputes the rank table from scratch (`O(n log n)`), used after a
    /// bulk build.
    fn rebuild_ranks(&mut self) {
        self.rank_rebuilds += 1;
        let mut sorted: Vec<u32> = (0..self.strings.len() as u32).collect();
        sorted.sort_by(|&a, &b| self.strings[a as usize].cmp(&self.strings[b as usize]));
        let mut rank = vec![0u32; self.strings.len()];
        for (r, &code) in sorted.iter().enumerate() {
            rank[code as usize] = r as u32;
        }
        self.sorted = sorted;
        self.rank = rank;
    }
}

/// Interns `s` unranked into a shared dictionary: only a *novel* string
/// detaches it.
fn intern_shared(dict: &mut Arc<StringDictionary>, s: &str) -> u32 {
    match dict.code_of(s) {
        Some(code) => code,
        None => Arc::make_mut(dict).push_unranked(s),
    }
}

/// One column of a snapshot: a typed array when the column is homogeneous,
/// a generic code array otherwise.  String payloads are dictionary *codes*
/// (stable), converted to ranks on read.
///
/// The array is a shared slice — cloning a column is a reference-count
/// bump, a write detaches it ([`Arc::make_mut`]) — held directly in the
/// variant, so a read costs exactly what it cost on a `Vec`.  A slice
/// cannot grow in place, so it carries spare NULL rows past the snapshot's
/// logical length ([`ColumnData::reserve_row`]): appends to an unshared
/// column stay amortised `O(1)`.
#[derive(Debug, Clone)]
enum ColumnData {
    Int(Arc<[Option<i64>]>),
    Float(Arc<[Option<f64>]>),
    Bool(Arc<[Option<bool>]>),
    Str(Arc<[Option<u32>]>),
    /// Heterogeneous fallback; `Str` payloads are dictionary codes here too.
    Mixed(Arc<[ColumnCode]>),
}

/// Regrows `slice` with NULL padding so that `row` exists, unless it does.
fn reserve_in<T: Copy>(slice: &mut Arc<[T]>, row: usize, null: T) {
    if row >= slice.len() {
        let padded = row + 1 + slice.len() / 2 + 4;
        let spare = std::iter::repeat_n(null, padded - slice.len());
        *slice = slice.iter().copied().chain(spare).collect();
    }
}

impl ColumnData {
    fn from_values(values: Vec<Value>, dict: &mut Arc<StringDictionary>) -> ColumnData {
        let mut kinds = [false; 4]; // bool, int, float, str
        for v in &values {
            match v {
                Value::Null => {}
                Value::Bool(_) => kinds[0] = true,
                Value::Int(_) => kinds[1] = true,
                Value::Float(_) => kinds[2] = true,
                Value::Str(_) => kinds[3] = true,
            }
        }
        match kinds {
            [false, false, false, false] | [false, true, false, false] => ColumnData::Int(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(i) => Some(i),
                        _ => None,
                    })
                    .collect(),
            ),
            [false, false, true, false] => ColumnData::Float(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(f) => Some(f),
                        _ => None,
                    })
                    .collect(),
            ),
            [true, false, false, false] => ColumnData::Bool(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Bool(b) => Some(b),
                        _ => None,
                    })
                    .collect(),
            ),
            [false, false, false, true] => ColumnData::Str(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => Some(intern_shared(dict, &s)),
                        _ => None,
                    })
                    .collect(),
            ),
            _ => ColumnData::Mixed(
                values
                    .into_iter()
                    .map(|v| Self::encode_stored(&v, dict))
                    .collect(),
            ),
        }
    }

    /// Encodes a value as a *stored* code (string payload = dictionary
    /// code, not rank), interning new strings.
    fn encode_stored(v: &Value, dict: &mut Arc<StringDictionary>) -> ColumnCode {
        match v {
            Value::Null => ColumnCode::Null,
            Value::Bool(b) => ColumnCode::Bool(*b),
            Value::Int(i) => ColumnCode::Int(*i),
            Value::Float(f) => ColumnCode::Float(*f),
            Value::Str(s) => ColumnCode::Str(intern_shared(dict, s)),
        }
    }

    /// The ordering code of a row (string payloads converted to ranks).
    fn ordering_code(&self, row: usize, dict: &StringDictionary) -> ColumnCode {
        match self {
            ColumnData::Int(v) => v[row].map_or(ColumnCode::Null, ColumnCode::Int),
            ColumnData::Float(v) => v[row].map_or(ColumnCode::Null, ColumnCode::Float),
            ColumnData::Bool(v) => v[row].map_or(ColumnCode::Null, ColumnCode::Bool),
            ColumnData::Str(v) => {
                v[row].map_or(ColumnCode::Null, |code| ColumnCode::Str(dict.rank(code)))
            }
            ColumnData::Mixed(v) => match v[row] {
                ColumnCode::Str(code) => ColumnCode::Str(dict.rank(code)),
                other => other,
            },
        }
    }

    /// Decodes a row back into a [`Value`].
    fn value(&self, row: usize, dict: &StringDictionary) -> Value {
        match self {
            ColumnData::Int(v) => v[row].map_or(Value::Null, Value::Int),
            ColumnData::Float(v) => v[row].map_or(Value::Null, Value::Float),
            ColumnData::Bool(v) => v[row].map_or(Value::Null, Value::Bool),
            ColumnData::Str(v) => v[row].map_or(Value::Null, |code| {
                Value::Str(dict.string(code).to_string())
            }),
            ColumnData::Mixed(v) => Self::decode_stored(v[row], dict),
        }
    }

    /// Decodes a *stored* code (string payload = dictionary code).
    fn decode_stored(code: ColumnCode, dict: &StringDictionary) -> Value {
        match code {
            ColumnCode::Null => Value::Null,
            ColumnCode::Bool(b) => Value::Bool(b),
            ColumnCode::Int(i) => Value::Int(i),
            ColumnCode::Float(f) => Value::Float(f),
            ColumnCode::Str(code) => Value::Str(dict.string(code).to_string()),
        }
    }

    /// Makes sure row `row` exists, as a NULL cell; callers
    /// [`set`](ColumnData::set) the real value right after, so type
    /// promotion is handled in a single place.  Rows past the snapshot's
    /// logical length are NULL padding, so a column with a spare row is not
    /// touched here — and stays shared until `set` writes it.
    fn reserve_row(&mut self, row: usize) {
        match self {
            ColumnData::Int(v) => reserve_in(v, row, None),
            ColumnData::Float(v) => reserve_in(v, row, None),
            ColumnData::Bool(v) => reserve_in(v, row, None),
            ColumnData::Str(v) => reserve_in(v, row, None),
            ColumnData::Mixed(v) => reserve_in(v, row, ColumnCode::Null),
        }
    }

    /// `true` when both columns hold the same array allocation.
    fn shares_storage_with(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Float(a), ColumnData::Float(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Str(a), ColumnData::Str(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Mixed(a), ColumnData::Mixed(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Overwrites one cell, promoting the column to `Mixed` when the new
    /// value does not fit the typed representation.  A novel string is
    /// interned unranked: the caller rebuilds the ranks afterwards.
    fn set(&mut self, row: usize, value: &Value, dict: &mut Arc<StringDictionary>) {
        match (&mut *self, value) {
            (ColumnData::Int(v), Value::Int(i)) => Arc::make_mut(v)[row] = Some(*i),
            (ColumnData::Int(v), Value::Null) => Arc::make_mut(v)[row] = None,
            (ColumnData::Float(v), Value::Float(f)) => Arc::make_mut(v)[row] = Some(*f),
            (ColumnData::Float(v), Value::Null) => Arc::make_mut(v)[row] = None,
            (ColumnData::Bool(v), Value::Bool(b)) => Arc::make_mut(v)[row] = Some(*b),
            (ColumnData::Bool(v), Value::Null) => Arc::make_mut(v)[row] = None,
            (ColumnData::Str(v), Value::Str(s)) => {
                Arc::make_mut(v)[row] = Some(intern_shared(dict, s))
            }
            (ColumnData::Str(v), Value::Null) => Arc::make_mut(v)[row] = None,
            (ColumnData::Mixed(v), value) => {
                Arc::make_mut(v)[row] = Self::encode_stored(value, dict)
            }
            (typed, value) => {
                // Type change: promote the whole column, then retry.
                let mixed: Arc<[ColumnCode]> = match typed {
                    ColumnData::Int(v) => v
                        .iter()
                        .map(|c| c.map_or(ColumnCode::Null, ColumnCode::Int))
                        .collect(),
                    ColumnData::Float(v) => v
                        .iter()
                        .map(|c| c.map_or(ColumnCode::Null, ColumnCode::Float))
                        .collect(),
                    ColumnData::Bool(v) => v
                        .iter()
                        .map(|c| c.map_or(ColumnCode::Null, ColumnCode::Bool))
                        .collect(),
                    ColumnData::Str(v) => v
                        .iter()
                        .map(|c| c.map_or(ColumnCode::Null, ColumnCode::Str))
                        .collect(),
                    ColumnData::Mixed(_) => unreachable!("handled above"),
                };
                *typed = ColumnData::Mixed(mixed);
                typed.set(row, value, dict);
            }
        }
    }
}

/// A columnar snapshot of one table's expected values, versioned by the
/// table revision and maintained incrementally by [`Delta`]s (see the
/// module docs for the protocol).
#[derive(Debug, Clone)]
pub struct ColumnSnapshot {
    revision: u64,
    rows: usize,
    columns: Vec<ColumnData>,
    dict: Arc<StringDictionary>,
    row_of: Arc<HashMap<TupleId, usize>>,
}

impl ColumnSnapshot {
    /// Materialises a snapshot from a table's current expected values.
    pub fn build(table: &Table) -> Result<ColumnSnapshot> {
        let rows = table.len();
        let width = table.schema().len();
        let mut dict = Arc::new(StringDictionary::default());
        let mut columns = Vec::with_capacity(width);
        for col in 0..width {
            let values = table
                .tuples()
                .iter()
                .map(|tuple| Ok(tuple.cell(col)?.expected_value()))
                .collect::<Result<Vec<Value>>>()?;
            columns.push(ColumnData::from_values(values, &mut dict));
        }
        Arc::make_mut(&mut dict).rebuild_ranks();
        let row_of = Arc::new(
            table
                .tuples()
                .iter()
                .enumerate()
                .map(|(pos, t)| (t.id, pos))
                .collect(),
        );
        Ok(ColumnSnapshot {
            revision: table.revision(),
            rows,
            columns,
            dict,
            row_of,
        })
    }

    /// Number of rows the snapshot covers.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the snapshot covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The table revision the snapshot reflects.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// `true` when the snapshot still reflects the table (same revision and
    /// row count).
    pub fn is_current(&self, table: &Table) -> bool {
        self.revision == table.revision() && self.rows == table.len()
    }

    /// The snapshot row of a tuple id.
    pub fn row_of(&self, id: TupleId) -> Option<usize> {
        self.row_of.get(&id).copied()
    }

    /// The shared string dictionary.
    pub fn dictionary(&self) -> &StringDictionary {
        &self.dict
    }

    /// The ordering code of one cell.  Ordering codes of the same snapshot
    /// compare, hash and equal exactly like the underlying [`Value`]s —
    /// across columns, because all string columns share one dictionary.
    pub fn ordering_code(&self, row: usize, column: usize) -> ColumnCode {
        self.columns[column].ordering_code(row, &self.dict)
    }

    /// Decodes one cell back into a [`Value`].
    pub fn value(&self, row: usize, column: usize) -> Value {
        self.columns[column].value(row, &self.dict)
    }

    /// Patches the snapshot after `delta` was applied to `table`: appended
    /// rows extend the columns, touched cells are re-read and their expected
    /// value overwritten, and novel strings enter the dictionary, batched.
    /// On success the snapshot advances to the table's current revision.
    ///
    /// The patch is refused — the snapshot simply stays stale, to be
    /// rebuilt by the next [`ColumnSnapshot::is_current`] check — unless
    /// the snapshot provably reflects the state the delta was applied to:
    /// the table must be exactly one revision ahead (the delta's own bump;
    /// zero for an empty delta) and have grown by exactly the delta's
    /// appends.  Anything else — an out-of-band `tuple_mut`, a missed
    /// delta, a membership change — would otherwise be silently masked by
    /// adopting the newer revision.
    pub fn absorb_delta(&mut self, table: &Table, delta: &Delta) -> Result<()> {
        let expected = self.revision + u64::from(!delta.is_empty());
        if table.revision() != expected || table.len() != self.rows + delta.appends().len() {
            return Ok(()); // stale: the table moved past us out of band
        }
        let width = self.columns.len();
        // Pass 1: validate every touched cell and collect it, *before*
        // mutating anything — a stale delta leaves the snapshot untouched.
        let mut appended: Vec<&Tuple> = Vec::with_capacity(delta.appends().len());
        for append in delta.appends() {
            let Some(tuple) = table.tuple(append.id) else {
                return Ok(()); // stale: membership changed under us
            };
            if width > 0 {
                tuple.cell(width - 1)?;
            }
            appended.push(tuple);
        }
        let appended_row: HashMap<TupleId, usize> = appended
            .iter()
            .enumerate()
            .map(|(i, tuple)| (tuple.id, self.rows + i))
            .collect();
        let mut patched: Vec<(usize, usize, &Value)> = Vec::with_capacity(delta.len());
        for update in delta.updates() {
            let row = match self.row_of.get(&update.tuple) {
                Some(&row) => row,
                None => match appended_row.get(&update.tuple) {
                    Some(&row) => row,
                    None => return Ok(()), // stale: membership changed under us
                },
            };
            let col = update.column.index();
            if col >= width {
                return Err(DaisyError::Execution(format!(
                    "delta column {col} out of snapshot range"
                )));
            }
            let tuple = table.tuple(update.tuple).ok_or_else(|| {
                DaisyError::Execution(format!(
                    "delta references tuple {} unknown to the table",
                    update.tuple
                ))
            })?;
            patched.push((row, col, tuple.cell(col)?.expected_ref()));
        }
        // Pass 2: apply.  Appended rows extend the columns first (updates
        // may target them).  Novel strings are interned unranked as they are
        // met and the rank table is rebuilt once for the batch: interning
        // them one by one would shift ranks k times, O(k · dictionary)
        // instead of one O(dict log dict) rebuild.
        let first_appended = self.rows;
        for tuple in &appended {
            for col in 0..width {
                self.columns[col].reserve_row(self.rows);
            }
            Arc::make_mut(&mut self.row_of).insert(tuple.id, self.rows);
            self.rows += 1;
        }
        let interned = self.dict.len();
        appended
            .iter()
            .enumerate()
            .flat_map(|(i, tuple)| {
                let cells = tuple.cells[..width].iter().enumerate();
                cells.map(move |(col, cell)| (first_appended + i, col, cell.expected_ref()))
            })
            .chain(patched)
            .for_each(|(row, col, value)| self.columns[col].set(row, value, &mut self.dict));
        if self.dict.len() > interned {
            // A novel string already detached the dictionary.
            Arc::make_mut(&mut self.dict).rebuild_ranks();
        }
        self.revision = table.revision();
        Ok(())
    }

    /// `true` when the two snapshots hold the same allocation for column
    /// `column`'s code array.
    #[doc(hidden)]
    pub fn shares_column_with(&self, other: &ColumnSnapshot, column: usize) -> bool {
        self.columns[column].shares_storage_with(&other.columns[column])
    }

    /// `true` when the two snapshots hold the same dictionary allocation.
    #[doc(hidden)]
    pub fn shares_dictionary_with(&self, other: &ColumnSnapshot) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// `true` when the two snapshots hold the same tuple-id → row map.
    #[doc(hidden)]
    pub fn shares_row_map_with(&self, other: &ColumnSnapshot) -> bool {
        Arc::ptr_eq(&self.row_of, &other.row_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Candidate, Cell};
    use crate::delta::CellUpdate;
    use daisy_common::{ColumnId, DataType, Schema};

    fn mixed_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("zip", DataType::Int),
            ("city", DataType::Str),
            ("rate", DataType::Float),
        ])
        .unwrap();
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![
                    Value::Int(9001),
                    Value::from("Los Angeles"),
                    Value::Float(0.5),
                ],
                vec![
                    Value::Int(9001),
                    Value::from("San Francisco"),
                    Value::Float(f64::NAN),
                ],
                vec![Value::Null, Value::from("Aachen"), Value::Float(-0.0)],
                vec![Value::Int(10001), Value::Null, Value::Float(0.0)],
                vec![Value::Int(-5), Value::from("Los Angeles"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn codes_mirror_value_order_equality_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let table = mixed_table();
        let snap = ColumnSnapshot::build(&table).unwrap();
        let hash_of = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        // Every pair of cells, across all columns, must compare exactly like
        // the underlying values do.
        let cells: Vec<(usize, usize)> = (0..snap.len())
            .flat_map(|r| (0..snap.column_count()).map(move |c| (r, c)))
            .collect();
        for &(r1, c1) in &cells {
            for &(r2, c2) in &cells {
                let v1 = table.tuples()[r1].value(c1).unwrap();
                let v2 = table.tuples()[r2].value(c2).unwrap();
                let k1 = snap.ordering_code(r1, c1);
                let k2 = snap.ordering_code(r2, c2);
                assert_eq!(
                    k1.total_cmp(k2),
                    v1.total_cmp(&v2),
                    "codes diverge from values for {v1:?} vs {v2:?}"
                );
                if v1 == v2 {
                    assert_eq!(k1, k2);
                    assert_eq!(
                        hash_of(&|s: &mut DefaultHasher| k1.hash(s)),
                        hash_of(&|s: &mut DefaultHasher| k2.hash(s)),
                        "equal codes must hash equally"
                    );
                }
            }
        }
        // Int/float coercion carries over to codes.
        assert_eq!(ColumnCode::Int(7), ColumnCode::Float(7.0));
        assert!(ColumnCode::Int(7) < ColumnCode::Float(7.5));
        // NaN sorts last among floats, equal to itself.
        assert!(ColumnCode::Float(f64::NAN) > ColumnCode::Float(1e308));
        assert_eq!(ColumnCode::Float(f64::NAN), ColumnCode::Float(f64::NAN));
    }

    #[test]
    fn values_decode_back_exactly() {
        let table = mixed_table();
        let snap = ColumnSnapshot::build(&table).unwrap();
        for (row, tuple) in table.tuples().iter().enumerate() {
            for col in 0..snap.column_count() {
                let original = tuple.value(col).unwrap();
                let decoded = snap.value(row, col);
                // NaN == NaN under the total order, so Value equality is the
                // right comparison here.
                assert_eq!(decoded, original);
            }
        }
    }

    #[test]
    fn dictionary_interning_preserves_rank_order() {
        let mut dict = StringDictionary::default();
        let b = dict.intern("banana");
        let a = dict.intern("apple");
        let c = dict.intern("cherry");
        assert_eq!(dict.rank(a), 0);
        assert_eq!(dict.rank(b), 1);
        assert_eq!(dict.rank(c), 2);
        // Inserting in the middle shifts ranks, never codes.
        let almost = dict.intern("apricot");
        assert_eq!(dict.rank(a), 0);
        assert_eq!(dict.rank(almost), 1);
        assert_eq!(dict.rank(b), 2);
        assert_eq!(dict.rank(c), 3);
        assert_eq!(dict.string(b), "banana");
        // Re-interning is a lookup.
        assert_eq!(dict.intern("banana"), b);
        assert_eq!(dict.len(), 4);
    }

    #[test]
    fn absorb_delta_patches_cells_and_tracks_revision() {
        let mut table = mixed_table();
        let mut snap = ColumnSnapshot::build(&table).unwrap();
        assert!(snap.is_current(&table));

        // A probabilistic update: the snapshot must pick up the new
        // *expected* value, and the new string must enter the dictionary.
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(3),
            column: ColumnId::new(1),
            cell: Cell::probabilistic(vec![
                Candidate::exact(Value::from("Boston"), 0.9),
                Candidate::exact(Value::from("Aachen"), 0.1),
            ]),
        });
        delta.push(CellUpdate {
            tuple: TupleId::new(0),
            column: ColumnId::new(0),
            cell: Cell::Determinate(Value::Int(90210)),
        });
        table.apply_delta(&delta).unwrap();
        assert!(!snap.is_current(&table));
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(snap.is_current(&table));

        // Patched snapshot equals a from-scratch rebuild, cell for cell.
        let rebuilt = ColumnSnapshot::build(&table).unwrap();
        for row in 0..snap.len() {
            for col in 0..snap.column_count() {
                assert_eq!(snap.value(row, col), rebuilt.value(row, col));
                assert_eq!(
                    snap.ordering_code(row, col)
                        .total_cmp(snap.ordering_code(0, col)),
                    rebuilt
                        .ordering_code(row, col)
                        .total_cmp(rebuilt.ordering_code(0, col)),
                );
            }
        }
        assert_eq!(snap.value(3, 1), Value::from("Boston"));
        assert_eq!(snap.value(0, 0), Value::Int(90210));
    }

    #[test]
    fn a_clone_detaches_only_the_pieces_a_delta_writes() {
        let mut table = mixed_table();
        let base = ColumnSnapshot::build(&table).unwrap();
        let shares = |snap: &ColumnSnapshot| -> Vec<bool> {
            (0..3).map(|c| snap.shares_column_with(&base, c)).collect()
        };

        // An update of one `zip` cell with a value already in the column's
        // type: only that column detaches.
        let mut snap = base.clone();
        assert_eq!(shares(&snap), [true, true, true]);
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(0),
            column: ColumnId::new(0),
            cell: Cell::Determinate(Value::Int(90210)),
        });
        table.apply_delta(&delta).unwrap();
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(snap.is_current(&table));
        assert_eq!(shares(&snap), [false, true, true]);
        assert!(snap.shares_dictionary_with(&base));
        assert!(snap.shares_row_map_with(&base));
        assert_eq!(
            base.value(0, 0),
            Value::Int(9001),
            "the source is untouched"
        );

        // A known string leaves the dictionary shared, a novel one detaches
        // it; the row map only moves with an append, which grows every
        // column.
        let version = snap.clone();
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(3),
            column: ColumnId::new(1),
            cell: Cell::Determinate(Value::from("Aachen")),
        });
        table.apply_delta(&delta).unwrap();
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(snap.shares_dictionary_with(&version));
        assert!(snap.shares_column_with(&version, 0));
        assert!(!snap.shares_column_with(&version, 1));

        let version = snap.clone();
        let mut delta = Delta::new();
        delta.push_append(
            table.next_tuple_id(),
            vec![Value::Int(1), Value::from("Zwolle"), Value::Float(1.0)],
        );
        table.apply_delta(&delta).unwrap();
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(snap.is_current(&table));
        assert!(!snap.shares_dictionary_with(&version));
        assert!(!snap.shares_row_map_with(&version));
        assert!((0..3).all(|c| !snap.shares_column_with(&version, c)));
        assert_eq!(version.len() + 1, snap.len());
    }

    #[test]
    fn absorbing_novel_strings_rebuilds_ranks_once_per_delta() {
        let mut table = mixed_table();
        let mut snap = ColumnSnapshot::build(&table).unwrap();
        let base = snap.dictionary().rank_rebuilds();
        // k = 4 novel strings in one delta must cost exactly one batched
        // rank rebuild, not one O(dict) shift per string.
        let mut delta = Delta::new();
        for (i, city) in ["Ulm", "Bonn", "Mainz", "Trier"].iter().enumerate() {
            delta.push(CellUpdate {
                tuple: TupleId::new(i as u64),
                column: ColumnId::new(1),
                cell: Cell::Determinate(Value::from(*city)),
            });
        }
        table.apply_delta(&delta).unwrap();
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(snap.is_current(&table));
        assert_eq!(snap.dictionary().rank_rebuilds(), base + 1);
        // A delta with no novel strings costs zero rank maintenance.
        let mut rerun = Delta::new();
        rerun.push(CellUpdate {
            tuple: TupleId::new(4),
            column: ColumnId::new(1),
            cell: Cell::Determinate(Value::from("Bonn")),
        });
        table.apply_delta(&rerun).unwrap();
        snap.absorb_delta(&table, &rerun).unwrap();
        assert_eq!(snap.dictionary().rank_rebuilds(), base + 1);
        // The batched path patched exactly like a from-scratch rebuild.
        // (Values, not codes: the rebuilt dictionary no longer carries the
        // overwritten strings, so ranks legitimately differ.)
        let rebuilt = ColumnSnapshot::build(&table).unwrap();
        for row in 0..snap.len() {
            for col in 0..snap.column_count() {
                assert_eq!(snap.value(row, col), rebuilt.value(row, col));
            }
        }
    }

    #[test]
    fn absorb_delta_extends_the_snapshot_with_appended_rows() {
        let mut table = mixed_table();
        let mut snap = ColumnSnapshot::build(&table).unwrap();
        let id = table.next_tuple_id();
        let mut delta = Delta::new();
        delta.push_append(
            id,
            vec![Value::Int(11), Value::from("Ghent"), Value::Float(1.5)],
        );
        // The same delta may patch the row it appends.
        delta.push(CellUpdate {
            tuple: id,
            column: ColumnId::new(0),
            cell: Cell::Determinate(Value::Int(12)),
        });
        table.apply_delta(&delta).unwrap();
        assert!(!snap.is_current(&table));
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(snap.is_current(&table));
        assert_eq!(snap.len(), 6);
        assert_eq!(snap.row_of(id), Some(5));
        assert_eq!(snap.value(5, 0), Value::Int(12));
        assert_eq!(snap.value(5, 1), Value::from("Ghent"));
        let rebuilt = ColumnSnapshot::build(&table).unwrap();
        for row in 0..snap.len() {
            for col in 0..snap.column_count() {
                assert_eq!(snap.value(row, col), rebuilt.value(row, col));
                assert_eq!(
                    snap.ordering_code(row, col),
                    rebuilt.ordering_code(row, col)
                );
            }
        }
    }

    #[test]
    fn type_changing_patch_promotes_the_column() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut table =
            Table::from_rows("t", schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        let mut snap = ColumnSnapshot::build(&table).unwrap();
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(0),
            column: ColumnId::new(0),
            cell: Cell::Determinate(Value::Float(1.5)),
        });
        table.apply_delta(&delta).unwrap();
        snap.absorb_delta(&table, &delta).unwrap();
        assert_eq!(snap.value(0, 0), Value::Float(1.5));
        assert_eq!(snap.value(1, 0), Value::Int(2));
        assert!(snap.ordering_code(0, 0) < snap.ordering_code(1, 0));
    }

    #[test]
    fn out_of_band_mutations_leave_the_snapshot_stale() {
        let mut table = mixed_table();
        let mut snap = ColumnSnapshot::build(&table).unwrap();
        // Direct mutable access bumps the revision even without a delta.
        table.tuple_mut(TupleId::new(0)).unwrap();
        assert!(!snap.is_current(&table));
        // Absorbing a delta on top of the missed mutation must not adopt
        // the newer revision (that would mask the unpatched edit): the
        // snapshot stays stale and untouched.
        let mut delta = Delta::new();
        delta.push(CellUpdate {
            tuple: TupleId::new(1),
            column: ColumnId::new(0),
            cell: Cell::Determinate(Value::Int(4242)),
        });
        table.apply_delta(&delta).unwrap();
        snap.absorb_delta(&table, &delta).unwrap();
        assert!(!snap.is_current(&table));
        assert_ne!(snap.value(1, 0), Value::Int(4242), "stale patch refused");
    }

    #[test]
    fn snapshot_of_empty_table_is_well_defined() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let table = Table::new("t", schema);
        let snap = ColumnSnapshot::build(&table).unwrap();
        assert!(snap.is_empty());
        assert!(snap.is_current(&table));
    }
}
