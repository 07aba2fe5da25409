//! A hand-rolled, stable binary codec for everything the log persists.
//!
//! The format is deliberately simple — little-endian fixed-width integers,
//! `u64`-length-prefixed collections and strings, one tag byte per enum
//! variant — because it is part of the on-disk contract: a log written by
//! one build must decode in the next.  Floats are stored by their IEEE-754
//! bit pattern (`f64::to_bits`), which round-trips NaN payloads exactly and
//! matches how `daisy-common` orders and hashes floats.
//!
//! Decoding is paranoid by construction: every read is bounds-checked and
//! every enum tag validated, with errors reported as
//! [`DaisyError::CorruptLog`] carrying the absolute byte offset of the
//! failure.  A decoder never panics on garbage input — the corruption tests
//! feed it flipped bytes everywhere.

use std::sync::Arc;

use daisy_common::{
    ColumnId, DaisyError, DataType, Field, Result, RuleId, Schema, TupleId, Value, WorldId,
};
use daisy_storage::{
    Candidate, CandidateValue, Cell, CellProvenance, Delta, Footprint, ProvenanceStore, RowSet,
    RuleEvidence, Table, TableFootprint, Tuple,
};

// ---------------------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------------------

/// An append-only byte buffer with the primitive writers of the format.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, v: &str) {
        self.len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// A bounds-checked reader over encoded bytes.
///
/// `base` is the absolute file offset of byte 0, so decode errors name the
/// position in the *file*, not in the extracted payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Decoder<'a> {
    /// Wraps a payload that starts at absolute file offset `base`.
    pub fn new(buf: &'a [u8], base: u64) -> Decoder<'a> {
        Decoder { buf, pos: 0, base }
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless the payload was consumed exactly — trailing garbage
    /// after a structurally valid value is corruption too.
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes after payload"))
        }
    }

    fn corrupt(&self, reason: &str) -> DaisyError {
        DaisyError::CorruptLog {
            offset: self.base + self.pos as u64,
            reason: reason.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt("payload ends mid-value"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        // A length can never exceed the bytes that remain; rejecting early
        // keeps a flipped length byte from looking like an allocation bomb.
        if n > self.buf.len() as u64 {
            return Err(self.corrupt("length prefix exceeds payload"));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid UTF-8 in string"))
    }
}

// ---------------------------------------------------------------------------
// Scalars and cells
// ---------------------------------------------------------------------------

fn put_value(e: &mut Encoder, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.u8(*b as u8);
        }
        Value::Int(i) => {
            e.u8(2);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(3);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
    }
}

fn get_value(d: &mut Decoder<'_>) -> Result<Value> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Bool(d.u8()? != 0),
        2 => Value::Int(d.i64()?),
        3 => Value::Float(d.f64()?),
        4 => Value::Str(d.str()?),
        _ => return Err(d.corrupt("unknown value tag")),
    })
}

fn put_candidate_value(e: &mut Encoder, cv: &CandidateValue) {
    match cv {
        CandidateValue::Exact(v) => {
            e.u8(0);
            put_value(e, v);
        }
        CandidateValue::LessThan(v) => {
            e.u8(1);
            put_value(e, v);
        }
        CandidateValue::GreaterThan(v) => {
            e.u8(2);
            put_value(e, v);
        }
        CandidateValue::Between(lo, hi) => {
            e.u8(3);
            put_value(e, lo);
            put_value(e, hi);
        }
    }
}

fn get_candidate_value(d: &mut Decoder<'_>) -> Result<CandidateValue> {
    Ok(match d.u8()? {
        0 => CandidateValue::Exact(get_value(d)?),
        1 => CandidateValue::LessThan(get_value(d)?),
        2 => CandidateValue::GreaterThan(get_value(d)?),
        3 => CandidateValue::Between(get_value(d)?, get_value(d)?),
        _ => return Err(d.corrupt("unknown candidate-value tag")),
    })
}

fn put_candidate(e: &mut Encoder, c: &Candidate) {
    put_candidate_value(e, &c.value);
    e.f64(c.probability);
    match c.world {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            e.u64(w.raw());
        }
    }
}

fn get_candidate(d: &mut Decoder<'_>) -> Result<Candidate> {
    let value = get_candidate_value(d)?;
    let probability = d.f64()?;
    let world = match d.u8()? {
        0 => None,
        1 => Some(WorldId::new(d.u64()?)),
        _ => return Err(d.corrupt("unknown option tag")),
    };
    Ok(Candidate {
        value,
        probability,
        world,
    })
}

fn put_cell(e: &mut Encoder, cell: &Cell) {
    match cell {
        Cell::Determinate(v) => {
            e.u8(0);
            put_value(e, v);
        }
        Cell::Probabilistic(cands) => {
            e.u8(1);
            e.len(cands.len());
            for c in cands {
                put_candidate(e, c);
            }
        }
    }
}

fn get_cell(d: &mut Decoder<'_>) -> Result<Cell> {
    Ok(match d.u8()? {
        0 => Cell::Determinate(get_value(d)?),
        1 => {
            let n = d.len()?;
            let mut cands = Vec::with_capacity(n);
            for _ in 0..n {
                cands.push(get_candidate(d)?);
            }
            Cell::Probabilistic(cands)
        }
        _ => return Err(d.corrupt("unknown cell tag")),
    })
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

fn put_schema(e: &mut Encoder, schema: &Schema) {
    e.len(schema.len());
    for field in schema.fields() {
        e.str(&field.name);
        e.u8(match field.data_type {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
        });
    }
}

fn get_schema(d: &mut Decoder<'_>) -> Result<Schema> {
    let n = d.len()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let data_type = match d.u8()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Str,
            _ => return Err(d.corrupt("unknown data-type tag")),
        };
        fields.push(Field::new(name, data_type));
    }
    Schema::new(fields).map_err(|err| DaisyError::CorruptLog {
        offset: d.base,
        reason: format!("invalid schema: {err}"),
    })
}

fn put_tuple(e: &mut Encoder, t: &Tuple) {
    e.u64(t.id.raw());
    e.len(t.cells.len());
    for cell in &t.cells {
        put_cell(e, cell);
    }
    e.len(t.lineage.len());
    for id in &t.lineage {
        e.u64(id.raw());
    }
}

fn get_tuple(d: &mut Decoder<'_>) -> Result<Tuple> {
    let id = TupleId::new(d.u64()?);
    let n = d.len()?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push(get_cell(d)?);
    }
    let n = d.len()?;
    let mut lineage = Vec::with_capacity(n);
    for _ in 0..n {
        lineage.push(TupleId::new(d.u64()?));
    }
    Ok(Tuple {
        id,
        cells: cells.into(),
        lineage,
    })
}

/// Encodes a table: name, schema, tuples and the id counter.
pub fn put_table(e: &mut Encoder, table: &Table) {
    e.str(table.name());
    put_schema(e, table.schema());
    e.len(table.tuples().len());
    for tuple in table.tuples() {
        put_tuple(e, tuple);
    }
    e.u64(table.next_tuple_id().raw());
}

/// Decodes a table (the tuple-id index is rebuilt, revision resets).
pub fn get_table(d: &mut Decoder<'_>) -> Result<Table> {
    let name = d.str()?;
    let schema = Arc::new(get_schema(d)?);
    let n = d.len()?;
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        tuples.push(get_tuple(d)?);
    }
    let next_id = d.u64()?;
    Ok(Table::from_serde_parts(name, schema, tuples, next_id))
}

// ---------------------------------------------------------------------------
// Deltas and footprints
// ---------------------------------------------------------------------------

fn put_delta(e: &mut Encoder, delta: &Delta) {
    e.len(delta.updates().len());
    for u in delta.updates() {
        e.u64(u.tuple.raw());
        e.u64(u.column.raw());
        put_cell(e, &u.cell);
    }
    e.len(delta.appends().len());
    for a in delta.appends() {
        e.u64(a.id.raw());
        e.len(a.values.len());
        for v in &a.values {
            put_value(e, v);
        }
    }
}

fn get_delta(d: &mut Decoder<'_>) -> Result<Delta> {
    let mut delta = Delta::new();
    let n = d.len()?;
    for _ in 0..n {
        let tuple = TupleId::new(d.u64()?);
        let column = ColumnId::new(d.u64()?);
        let cell = get_cell(d)?;
        delta.push_update(tuple, column, cell);
    }
    let n = d.len()?;
    for _ in 0..n {
        let id = TupleId::new(d.u64()?);
        let m = d.len()?;
        let mut values = Vec::with_capacity(m);
        for _ in 0..m {
            values.push(get_value(d)?);
        }
        delta.push_append(id, values);
    }
    Ok(delta)
}

fn put_row_set(e: &mut Encoder, rows: &RowSet) {
    match rows {
        RowSet::Empty => e.u8(0),
        RowSet::All => e.u8(1),
        RowSet::Ranges(ranges) => {
            e.u8(2);
            e.len(ranges.len());
            for (start, end) in ranges {
                e.u64(*start);
                e.u64(*end);
            }
        }
    }
}

fn get_row_set(d: &mut Decoder<'_>) -> Result<RowSet> {
    Ok(match d.u8()? {
        0 => RowSet::Empty,
        1 => RowSet::All,
        2 => {
            let n = d.len()?;
            let mut ranges = Vec::with_capacity(n);
            for _ in 0..n {
                ranges.push((d.u64()?, d.u64()?));
            }
            RowSet::Ranges(ranges)
        }
        _ => return Err(d.corrupt("unknown row-set tag")),
    })
}

fn put_footprint(e: &mut Encoder, fp: &Footprint) {
    let tables: Vec<&str> = fp.tables().collect();
    e.len(tables.len());
    for name in tables {
        let tf = fp.table(name).expect("listed table has a footprint");
        e.str(name);
        put_row_set(e, &tf.all_columns);
        e.len(tf.columns.len());
        for (column, rows) in &tf.columns {
            e.u64(*column);
            put_row_set(e, rows);
        }
    }
}

fn get_footprint(d: &mut Decoder<'_>) -> Result<Footprint> {
    let n = d.len()?;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let all_columns = get_row_set(d)?;
        let m = d.len()?;
        let mut columns = std::collections::BTreeMap::new();
        for _ in 0..m {
            let column = d.u64()?;
            columns.insert(column, get_row_set(d)?);
        }
        tables.push((
            name,
            TableFootprint {
                all_columns,
                columns,
            },
        ));
    }
    Ok(Footprint::from_tables(tables))
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

fn put_cell_provenance(e: &mut Encoder, p: &CellProvenance) {
    match &p.original {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            put_value(e, v);
        }
    }
    e.len(p.evidence.len());
    for ev in &p.evidence {
        e.u64(ev.rule.raw());
        e.len(ev.conflicting.len());
        for t in &ev.conflicting {
            e.u64(t.raw());
        }
        e.len(ev.candidates.len());
        for c in &ev.candidates {
            put_candidate(e, c);
        }
    }
}

fn get_cell_provenance(d: &mut Decoder<'_>) -> Result<CellProvenance> {
    let original = match d.u8()? {
        0 => None,
        1 => Some(get_value(d)?),
        _ => return Err(d.corrupt("unknown option tag")),
    };
    let n = d.len()?;
    let mut evidence = Vec::with_capacity(n);
    for _ in 0..n {
        let rule = RuleId::new(d.u64()?);
        let m = d.len()?;
        let mut conflicting = Vec::with_capacity(m);
        for _ in 0..m {
            conflicting.push(TupleId::new(d.u64()?));
        }
        let m = d.len()?;
        let mut candidates = Vec::with_capacity(m);
        for _ in 0..m {
            candidates.push(get_candidate(d)?);
        }
        evidence.push(RuleEvidence {
            rule,
            conflicting,
            candidates,
        });
    }
    Ok(CellProvenance { original, evidence })
}

fn put_provenance_entries(e: &mut Encoder, cells: &[((TupleId, ColumnId), CellProvenance)]) {
    e.len(cells.len());
    for ((tuple, column), prov) in cells {
        e.u64(tuple.raw());
        e.u64(column.raw());
        put_cell_provenance(e, prov);
    }
}

fn get_provenance_entries(
    d: &mut Decoder<'_>,
) -> Result<Vec<((TupleId, ColumnId), CellProvenance)>> {
    let n = d.len()?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let tuple = TupleId::new(d.u64()?);
        let column = ColumnId::new(d.u64()?);
        cells.push(((tuple, column), get_cell_provenance(d)?));
    }
    Ok(cells)
}

fn put_checked_entries(e: &mut Encoder, checked: &[(RuleId, Vec<TupleId>)]) {
    e.len(checked.len());
    for (rule, tuples) in checked {
        e.u64(rule.raw());
        e.len(tuples.len());
        for t in tuples {
            e.u64(t.raw());
        }
    }
}

fn get_checked_entries(d: &mut Decoder<'_>) -> Result<Vec<(RuleId, Vec<TupleId>)>> {
    let n = d.len()?;
    let mut checked = Vec::with_capacity(n);
    for _ in 0..n {
        let rule = RuleId::new(d.u64()?);
        let m = d.len()?;
        let mut tuples = Vec::with_capacity(m);
        for _ in 0..m {
            tuples.push(TupleId::new(d.u64()?));
        }
        checked.push((rule, tuples));
    }
    Ok(checked)
}

// ---------------------------------------------------------------------------
// Provenance diffs
// ---------------------------------------------------------------------------

/// What one commit added to a table's provenance store.
///
/// Provenance mutations are add-or-replace only (originals are recorded
/// once, evidence appends, checked sets grow), so the difference between
/// the pre- and post-commit stores is a set of replaced cell entries plus
/// per-rule newly checked tuples — and applying those to the pre-commit
/// store reproduces the post-commit store exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceDiff {
    /// Cells whose provenance this commit created or replaced, sorted.
    pub cells: Vec<((TupleId, ColumnId), CellProvenance)>,
    /// Tuples newly marked checked, per rule, sorted.
    pub checked: Vec<(RuleId, Vec<TupleId>)>,
}

impl ProvenanceDiff {
    /// The entries `new` has that `old` lacks (or holds differently).
    /// Entries the two stores share by pointer are never visited beyond
    /// the pointer comparison.
    pub fn between(old: &ProvenanceStore, new: &ProvenanceStore) -> ProvenanceDiff {
        ProvenanceDiff {
            cells: new.cells_changed_since(old),
            checked: new.checked_since(old),
        }
    }

    /// Applies the diff, turning the pre-commit store into the post-commit
    /// one.
    pub fn apply(&self, store: &mut ProvenanceStore) {
        for ((tuple, column), prov) in &self.cells {
            store.set_cell(*tuple, *column, prov.clone());
        }
        for (rule, tuples) in &self.checked {
            store.mark_checked(*rule, tuples.iter().copied());
        }
    }

    /// `true` when the commit changed no provenance.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.checked.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Logged commits and persisted worlds
// ---------------------------------------------------------------------------

/// One committed change, exactly as the log records it: the staged deltas
/// that moved the tables, the derived write footprint and touched rules
/// (kept so historical commits stay answerable for audit queries without
/// re-deriving), and the provenance the commit added.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedCommit {
    /// The shared version this commit installed.
    pub version: u64,
    /// The staged per-table deltas, in application order.
    pub staged: Vec<(String, Delta)>,
    /// The commit's write footprint (derived from `staged`).
    pub write: Footprint,
    /// The `(table, rule)` pairs whose derived state the commit touched,
    /// sorted.
    pub touched_rules: Vec<(String, u64)>,
    /// Per-table provenance additions, sorted by table.
    pub provenance: Vec<(String, ProvenanceDiff)>,
}

impl LoggedCommit {
    /// Encodes everything but the version (the log frame carries it).
    pub fn encode_body(&self, e: &mut Encoder) {
        e.len(self.staged.len());
        for (table, delta) in &self.staged {
            e.str(table);
            put_delta(e, delta);
        }
        put_footprint(e, &self.write);
        e.len(self.touched_rules.len());
        for (table, rule) in &self.touched_rules {
            e.str(table);
            e.u64(*rule);
        }
        e.len(self.provenance.len());
        for (table, diff) in &self.provenance {
            e.str(table);
            put_provenance_entries(e, &diff.cells);
            put_checked_entries(e, &diff.checked);
        }
    }

    /// Decodes a body encoded by [`LoggedCommit::encode_body`].
    pub fn decode_body(d: &mut Decoder<'_>, version: u64) -> Result<LoggedCommit> {
        let n = d.len()?;
        let mut staged = Vec::with_capacity(n);
        for _ in 0..n {
            let table = d.str()?;
            staged.push((table, get_delta(d)?));
        }
        let write = get_footprint(d)?;
        let n = d.len()?;
        let mut touched_rules = Vec::with_capacity(n);
        for _ in 0..n {
            let table = d.str()?;
            touched_rules.push((table, d.u64()?));
        }
        let n = d.len()?;
        let mut provenance = Vec::with_capacity(n);
        for _ in 0..n {
            let table = d.str()?;
            let cells = get_provenance_entries(d)?;
            let checked = get_checked_entries(d)?;
            provenance.push((table, ProvenanceDiff { cells, checked }));
        }
        Ok(LoggedCommit {
            version,
            staged,
            write,
            touched_rules,
            provenance,
        })
    }
}

/// A full world as checkpoints store it: the tables plus per-table
/// provenance at one commit version.  Derived cleaning structures (indexes,
/// matrices, cost trackers) are *not* persisted — they rebuild lazily and
/// deterministically from tables + provenance.
#[derive(Debug, Clone)]
pub struct PersistedWorld {
    /// The commit version the world reflects.
    pub version: u64,
    /// Every base table, sorted by name.
    pub tables: Vec<Table>,
    /// Per-table provenance stores, sorted by table name.
    pub provenance: Vec<(String, ProvenanceStore)>,
}

impl PersistedWorld {
    /// Encodes the world.
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.version);
        e.len(self.tables.len());
        for table in &self.tables {
            put_table(e, table);
        }
        e.len(self.provenance.len());
        for (table, store) in &self.provenance {
            e.str(table);
            put_provenance_entries(e, &store.dump());
            put_checked_entries(e, &store.checked_dump());
        }
    }

    /// Decodes a world encoded by [`PersistedWorld::encode`].
    pub fn decode(d: &mut Decoder<'_>) -> Result<PersistedWorld> {
        let version = d.u64()?;
        let n = d.len()?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            tables.push(get_table(d)?);
        }
        let n = d.len()?;
        let mut provenance = Vec::with_capacity(n);
        for _ in 0..n {
            let table = d.str()?;
            let mut store = ProvenanceStore::new();
            for ((tuple, column), prov) in get_provenance_entries(d)? {
                store.set_cell(tuple, column, prov);
            }
            for (rule, tuples) in get_checked_entries(d)? {
                store.mark_checked(rule, tuples);
            }
            provenance.push((table, store));
        }
        Ok(PersistedWorld {
            version,
            tables,
            provenance,
        })
    }

    /// Applies one logged commit, advancing the world to `commit.version`.
    pub fn apply(&mut self, commit: &LoggedCommit) -> Result<()> {
        for (name, delta) in &commit.staged {
            let table = self
                .tables
                .iter_mut()
                .find(|t| t.name() == name)
                .ok_or_else(|| DaisyError::CorruptLog {
                    offset: 0,
                    reason: format!("commit v{} targets unknown table `{name}`", commit.version),
                })?;
            table.apply_delta(delta)?;
        }
        for (name, diff) in &commit.provenance {
            match self.provenance.iter_mut().find(|(t, _)| t == name) {
                Some((_, store)) => diff.apply(store),
                None => {
                    let mut store = ProvenanceStore::new();
                    diff.apply(&mut store);
                    self.provenance.push((name.clone(), store));
                    self.provenance.sort_by(|(a, _), (b, _)| a.cmp(b));
                }
            }
        }
        self.version = commit.version;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::DataType;

    fn sample_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("zip", DataType::Int),
            ("city", DataType::Str),
            ("score", DataType::Float),
        ])
        .unwrap();
        let mut table = Table::new("cities", schema);
        table
            .push_values(vec![
                Value::Int(9001),
                Value::from("Los Angeles"),
                Value::Float(0.25),
            ])
            .unwrap();
        table
            .push_values(vec![Value::Int(10001), Value::Null, Value::Float(f64::NAN)])
            .unwrap();
        let mut delta = Delta::new();
        delta.push_update(
            TupleId::new(0),
            ColumnId::new(1),
            Cell::probabilistic(vec![
                Candidate::exact(Value::from("LA"), 2.0),
                Candidate::exact_in_world(Value::from("Los Angeles"), 1.0, WorldId::new(3)),
                Candidate::range(CandidateValue::LessThan(Value::Int(9)), 1.0),
                Candidate::range(CandidateValue::Between(Value::Int(1), Value::Int(4)), 1.0),
            ]),
        );
        table.apply_delta(&delta).unwrap();
        table
    }

    fn roundtrip_table(table: &Table) -> Table {
        let mut e = Encoder::new();
        put_table(&mut e, table);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, 0);
        let back = get_table(&mut d).unwrap();
        d.expect_exhausted().unwrap();
        back
    }

    #[test]
    fn tables_round_trip_bytewise() {
        let table = sample_table();
        let back = roundtrip_table(&table);
        assert_eq!(back.name(), table.name());
        assert_eq!(back.schema(), table.schema());
        assert_eq!(back.tuples(), table.tuples());
        assert_eq!(back.next_tuple_id(), table.next_tuple_id());
        // Even NaN round-trips through the bit-pattern encoding: re-encoding
        // the decoded table yields identical bytes.
        let mut e1 = Encoder::new();
        put_table(&mut e1, &table);
        let mut e2 = Encoder::new();
        put_table(&mut e2, &back);
        assert_eq!(e1.into_bytes(), e2.into_bytes());
    }

    #[test]
    fn logged_commits_round_trip() {
        let mut delta = Delta::new();
        delta.push_append(TupleId::new(7), vec![Value::Int(1), Value::from("x")]);
        delta.push_update(
            TupleId::new(2),
            ColumnId::new(0),
            Cell::Determinate(Value::Bool(true)),
        );
        let staged = vec![("cities".to_string(), delta)];
        let write = Footprint::from_deltas(&staged);
        let mut prov = ProvenanceStore::new();
        prov.record_original(TupleId::new(2), ColumnId::new(0), Value::Int(5));
        prov.record_evidence(
            TupleId::new(2),
            ColumnId::new(0),
            RuleEvidence {
                rule: RuleId::new(1),
                conflicting: vec![TupleId::new(9)],
                candidates: vec![Candidate::exact(Value::Int(6), 1.0)],
            },
        );
        prov.mark_checked(RuleId::new(1), [TupleId::new(2), TupleId::new(9)]);
        let diff = ProvenanceDiff::between(&ProvenanceStore::new(), &prov);
        let commit = LoggedCommit {
            version: 42,
            staged,
            write,
            touched_rules: vec![("cities".to_string(), 1)],
            provenance: vec![("cities".to_string(), diff)],
        };
        let mut e = Encoder::new();
        commit.encode_body(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, 0);
        let back = LoggedCommit::decode_body(&mut d, 42).unwrap();
        d.expect_exhausted().unwrap();
        assert_eq!(back, commit);
    }

    #[test]
    fn provenance_diff_reproduces_the_new_store() {
        let mut old = ProvenanceStore::new();
        old.record_original(TupleId::new(1), ColumnId::new(0), Value::Int(1));
        old.mark_checked(RuleId::new(0), [TupleId::new(1)]);
        let mut new = old.clone();
        new.record_original(TupleId::new(2), ColumnId::new(1), Value::Int(2));
        new.record_evidence(
            TupleId::new(1),
            ColumnId::new(0),
            RuleEvidence {
                rule: RuleId::new(3),
                conflicting: vec![],
                candidates: vec![],
            },
        );
        new.mark_checked(RuleId::new(0), [TupleId::new(5)]);
        new.mark_checked(RuleId::new(4), [TupleId::new(6)]);

        let diff = ProvenanceDiff::between(&old, &new);
        assert!(!diff.is_empty());
        // Unchanged entries are not in the diff.
        assert_eq!(diff.cells.len(), 2);
        assert_eq!(diff.checked.len(), 2);
        let mut rebuilt = old.clone();
        diff.apply(&mut rebuilt);
        assert_eq!(rebuilt.dump(), new.dump());
        assert_eq!(rebuilt.checked_dump(), new.checked_dump());
        // No changes → empty diff.
        assert!(ProvenanceDiff::between(&new, &new).is_empty());
    }

    #[test]
    fn persisted_worlds_round_trip_and_replay() {
        let table = sample_table();
        let mut prov = ProvenanceStore::new();
        prov.record_original(TupleId::new(0), ColumnId::new(1), Value::from("LA"));
        let mut world = PersistedWorld {
            version: 3,
            tables: vec![table],
            provenance: vec![("cities".to_string(), prov.clone())],
        };
        let mut e = Encoder::new();
        world.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, 0);
        let back = PersistedWorld::decode(&mut d).unwrap();
        d.expect_exhausted().unwrap();
        assert_eq!(back.version, 3);
        assert_eq!(back.tables[0].tuples(), world.tables[0].tuples());
        assert_eq!(back.provenance[0].1.dump(), prov.dump());

        // Replaying a commit advances version, tables and provenance.
        let mut delta = Delta::new();
        delta.push_append(
            TupleId::new(2),
            vec![Value::Int(7), Value::from("SF"), Value::Float(1.0)],
        );
        let staged = vec![("cities".to_string(), delta)];
        let commit = LoggedCommit {
            version: 4,
            write: Footprint::from_deltas(&staged),
            staged,
            touched_rules: vec![],
            provenance: vec![(
                "employees".to_string(),
                ProvenanceDiff {
                    cells: vec![],
                    checked: vec![(RuleId::new(0), vec![TupleId::new(1)])],
                },
            )],
        };
        world.apply(&commit).unwrap();
        assert_eq!(world.version, 4);
        assert_eq!(world.tables[0].len(), 3);
        assert_eq!(world.provenance.len(), 2);
        assert_eq!(world.provenance[0].0, "cities");
        assert_eq!(world.provenance[1].0, "employees");

        // A commit against a missing table is corruption, not a silent skip.
        let mut delta = Delta::new();
        delta.push_append(TupleId::new(0), vec![Value::Int(1)]);
        let bad = LoggedCommit {
            version: 5,
            staged: vec![("nope".to_string(), delta)],
            write: Footprint::new(),
            touched_rules: vec![],
            provenance: vec![],
        };
        assert_eq!(world.apply(&bad).unwrap_err().category(), "corrupt-log");
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        let mut e = Encoder::new();
        put_table(&mut e, &sample_table());
        let good = e.into_bytes();
        // Flipping any single byte must yield an error or a different
        // (still structurally valid) table — never a panic.  Offsets land
        // inside the file coordinate system passed as `base`.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let mut d = Decoder::new(&bad, 100);
            match get_table(&mut d).and_then(|t| d.expect_exhausted().map(|_| t)) {
                Ok(_) => {}
                Err(DaisyError::CorruptLog { offset, .. }) => {
                    assert!(offset >= 100);
                }
                Err(other) => panic!("unexpected error kind: {other:?}"),
            }
        }
        // Truncations are detected too.
        for cut in 0..good.len() {
            let mut d = Decoder::new(&good[..cut], 0);
            assert!(
                get_table(&mut d).is_err() || !d.is_exhausted(),
                "truncation to {cut} bytes went unnoticed"
            );
        }
    }
}
