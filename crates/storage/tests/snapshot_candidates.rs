//! Property test for snapshot maintenance over relaxed cells: after any
//! stream of deltas, a snapshot maintained by `absorb_delta` holds exactly
//! what a fresh `build` of the table holds — the expected value of every
//! cell, ordered alike — and what the table's cells say.
//!
//! The stream mixes every transition a cell can make: appended rows,
//! determinate → probabilistic, probabilistic → probabilistic (candidates
//! merge, which can move the expected value), probabilistic → determinate
//! (what `accept_candidate` / `restore_originals` stage) and plain
//! determinate overwrites, with exact and range candidates, NULLs, NaN and
//! strings no cell has as its expected value.

use proptest::prelude::*;

use daisy_common::{ColumnId, DataType, Schema, TupleId, Value};
use daisy_storage::{Candidate, CandidateValue, Cell, ColumnSnapshot, Delta, Table};

/// splitmix64, so one proptest-drawn seed unfolds into a whole stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const CITIES: [&str; 7] = ["ulm", "bonn", "mainz", "trier", "kiel", "jena", "gera"];

/// A value of the column's kind (0 = int, 1 = string, 2 = float), with
/// NULLs and NaN mixed in; column 2 also takes ints, which promotes it.
fn value(rng: &mut Rng, column: usize) -> Value {
    if rng.below(9) == 0 {
        return Value::Null;
    }
    match column {
        0 => Value::Int(rng.below(12) as i64 - 3),
        1 => Value::from(CITIES[rng.below(CITIES.len())]),
        _ => match rng.below(6) {
            0 => Value::Float(f64::NAN),
            1 => Value::Int(rng.below(5) as i64),
            _ => Value::Float(rng.below(40) as f64 / 4.0),
        },
    }
}

fn candidates(rng: &mut Rng, column: usize) -> Vec<Candidate> {
    (0..1 + rng.below(4))
        .map(|_| {
            let domain = match rng.below(6) {
                0 => CandidateValue::LessThan(value(rng, column)),
                1 => CandidateValue::GreaterThan(value(rng, column)),
                2 => CandidateValue::Between(value(rng, column), value(rng, column)),
                _ => CandidateValue::Exact(value(rng, column)),
            };
            Candidate::range(domain, 0.1 + rng.below(9) as f64 / 10.0)
        })
        .collect()
}

/// Every cell of the snapshot against the table and against a fresh build.
fn assert_reflects(snapshot: &ColumnSnapshot, table: &Table) -> Result<(), TestCaseError> {
    prop_assert!(snapshot.is_current(table), "snapshot went stale");
    let rebuilt = ColumnSnapshot::build(table).unwrap();
    for (row, tuple) in table.tuples().iter().enumerate() {
        prop_assert_eq!(snapshot.row_of(tuple.id), Some(row));
        for (col, cell) in tuple.cells.iter().enumerate() {
            prop_assert_eq!(snapshot.value(row, col), cell.expected_value());
            prop_assert_eq!(rebuilt.value(row, col), cell.expected_value());
            // Codes of the two snapshots come from different dictionaries;
            // what must agree is how they order against their own column.
            for other in 0..table.len() {
                prop_assert_eq!(
                    snapshot
                        .ordering_code(row, col)
                        .total_cmp(snapshot.ordering_code(other, col)),
                    rebuilt
                        .ordering_code(row, col)
                        .total_cmp(rebuilt.ordering_code(other, col))
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn absorbed_snapshot_equals_fresh_build(seed in 0u64..u64::MAX, steps in 1usize..14) {
        let rng = &mut Rng(seed);
        let schema = Schema::from_pairs(&[
            ("zip", DataType::Int),
            ("city", DataType::Str),
            ("rate", DataType::Float),
        ])
        .unwrap();
        let rows = (0..rng.below(6))
            .map(|_| (0..3).map(|c| value(rng, c)).collect())
            .collect();
        let mut table = Table::from_rows("t", schema, rows).unwrap();
        let mut snapshot = ColumnSnapshot::build(&table).unwrap();
        for _ in 0..steps {
            let mut delta = Delta::new();
            let mut ids: Vec<TupleId> = table.tuples().iter().map(|t| t.id).collect();
            for k in 0..rng.below(3) {
                let id = TupleId::new(table.next_tuple_id().raw() + k as u64);
                delta.push_append(id, (0..3).map(|c| value(rng, c)).collect());
                ids.push(id);
            }
            if !ids.is_empty() {
                for _ in 0..rng.below(6) {
                    let column = rng.below(3);
                    let cell = match rng.below(3) {
                        0 => Cell::Determinate(value(rng, column)),
                        _ => Cell::probabilistic(candidates(rng, column)),
                    };
                    let tuple = ids[rng.below(ids.len())];
                    delta.push_update(tuple, ColumnId::new(column as u64), cell);
                }
            }
            table.apply_delta(&delta).unwrap();
            snapshot.absorb_delta(&table, &delta).unwrap();
            assert_reflects(&snapshot, &table)?;
        }
    }
}
