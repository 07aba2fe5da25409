//! The hash equi-join operator with probabilistic join keys.
//!
//! Following §4 of the paper, "(self-)joins on probabilistic join-keys output
//! a pair iff the candidate values of the join-keys overlap", and the result
//! stores the originating tuple ids (lineage) so that a later repair of a
//! join-key value can invalidate or extend the pair set incrementally.
//! NULL join keys never match (SQL equi-join semantics).
//!
//! [`hash_join`] builds on owned [`Value`] keys, so `1 == 1.0` like
//! everywhere else, and validates its key columns up front with a typed
//! [`DaisyError::UnknownJoinColumn`]: a bad plan fails at operator
//! construction instead of mid-stream.

use std::collections::HashMap;
use std::sync::Arc;

use daisy_common::{DaisyError, Result, Schema, TupleId, Value};
use daisy_exec::{par_map_chunks, ExecContext};
use daisy_storage::Tuple;

/// The output of a join: result schema, result tuples (with lineage), and
/// the number of probe-side tuples that found at least one match.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// Combined schema (left fields then right fields).
    pub schema: Arc<Schema>,
    /// Result tuples; ids are fresh and local to the result, lineage records
    /// the base tuples.
    pub tuples: Vec<Tuple>,
    /// Number of left tuples that produced at least one output pair.
    pub matched_left: usize,
}

/// Hash equi-join of `left ⋈ right` on `left_key = right_key`.
///
/// Probabilistic join keys match when their candidate-value sets overlap.
/// The output order is deterministic: left order outer, right build order
/// inner.
pub fn hash_join(
    ctx: &ExecContext,
    left_schema: &Schema,
    left: &[Tuple],
    right_schema: &Schema,
    right: &[Tuple],
    left_key: &str,
    right_key: &str,
) -> Result<JoinOutput> {
    let out_schema = Arc::new(left_schema.join(right_schema)?);
    let (left_idx, right_idx) = validate_join_keys(left_schema, right_schema, left_key, right_key)?;

    // Build side: every possible value of the right key maps to the list of
    // right positions carrying it.  NULL keys never join.
    let mut build: HashMap<Value, Vec<usize>> = HashMap::new();
    for (pos, tuple) in right.iter().enumerate() {
        for value in tuple.cell(right_idx)?.possible_values() {
            if value.is_null() {
                continue;
            }
            build.entry(value.clone()).or_default().push(pos);
        }
    }

    // Probe side, parallel over left positions.  Each output entry is
    // (left position, right position) so we can assign deterministic fresh
    // ids after the parallel phase.
    let left_positions: Vec<usize> = (0..left.len()).collect();
    let pairs: Vec<(usize, usize)> = {
        let build = &build;
        par_map_chunks(ctx, &left_positions, |chunk| {
            let mut out = Vec::new();
            for &pos in chunk {
                let Ok(cell) = left[pos].cell(left_idx) else {
                    continue;
                };
                let mut matches: Vec<usize> = Vec::new();
                for value in cell.possible_values() {
                    if value.is_null() {
                        continue;
                    }
                    if let Some(positions) = build.get(value) {
                        matches.extend(positions.iter().copied());
                    }
                }
                matches.sort_unstable();
                matches.dedup();
                for right_pos in matches {
                    out.push((pos, right_pos));
                }
            }
            out
        })
    };

    let mut matched: Vec<bool> = vec![false; left.len()];
    let mut tuples = Vec::with_capacity(pairs.len());
    for (i, (lpos, rpos)) in pairs.iter().enumerate() {
        matched[*lpos] = true;
        tuples.push(Tuple::join(
            &left[*lpos],
            &right[*rpos],
            TupleId::new(i as u64),
        ));
    }
    Ok(JoinOutput {
        schema: out_schema,
        tuples,
        matched_left: matched.iter().filter(|m| **m).count(),
    })
}

/// Resolves both join-key columns, reporting a missing one as a typed
/// [`DaisyError::UnknownJoinColumn`] — the up-front validation the join
/// operator and plan validation in the executor share.
pub fn validate_join_keys(
    left_schema: &Schema,
    right_schema: &Schema,
    left_key: &str,
    right_key: &str,
) -> Result<(usize, usize)> {
    let left_idx = left_schema
        .index_of(left_key)
        .map_err(|_| DaisyError::UnknownJoinColumn {
            side: "left",
            column: left_key.to_string(),
        })?;
    let right_idx =
        right_schema
            .index_of(right_key)
            .map_err(|_| DaisyError::UnknownJoinColumn {
                side: "right",
                column: right_key.to_string(),
            })?;
    Ok((left_idx, right_idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::DataType;
    use daisy_storage::{Candidate, Cell};

    fn cities_schema() -> Schema {
        Schema::from_pairs(&[("c.zip", DataType::Int), ("c.city", DataType::Str)]).unwrap()
    }

    fn employees_schema() -> Schema {
        Schema::from_pairs(&[("e.zip", DataType::Int), ("e.name", DataType::Str)]).unwrap()
    }

    fn cities() -> Vec<Tuple> {
        vec![
            Tuple::from_values(TupleId::new(0), vec![Value::Int(9001), Value::from("LA")]),
            Tuple::from_cells(
                TupleId::new(1),
                vec![
                    Cell::probabilistic(vec![
                        Candidate::exact(Value::Int(9001), 0.5),
                        Candidate::exact(Value::Int(10001), 0.5),
                    ]),
                    Cell::Determinate(Value::from("SF")),
                ],
            ),
        ]
    }

    fn employees() -> Vec<Tuple> {
        vec![
            Tuple::from_values(
                TupleId::new(0),
                vec![Value::Int(9001), Value::from("Peter")],
            ),
            Tuple::from_values(
                TupleId::new(1),
                vec![Value::Int(10001), Value::from("Mary")],
            ),
            Tuple::from_values(TupleId::new(2), vec![Value::Int(10002), Value::from("Jon")]),
        ]
    }

    #[test]
    fn probabilistic_keys_match_on_candidate_overlap() {
        // Mirrors Table 4 of the paper: the probabilistic city tuple
        // {9001, 10001} joins both Peter (9001) and Mary (10001).
        let ctx = ExecContext::sequential();
        let out = hash_join(
            &ctx,
            &cities_schema(),
            &cities(),
            &employees_schema(),
            &employees(),
            "c.zip",
            "e.zip",
        )
        .unwrap();
        assert_eq!(out.schema.len(), 4);
        assert_eq!(out.tuples.len(), 3);
        assert_eq!(out.matched_left, 2);
        // Lineage records both base tuples of every pair.
        for t in &out.tuples {
            assert_eq!(t.lineage.len(), 2);
        }
        let names: Vec<Value> = out.tuples.iter().map(|t| t.value(3).unwrap()).collect();
        assert!(names.contains(&Value::from("Peter")));
        assert!(names.contains(&Value::from("Mary")));
        assert!(!names.contains(&Value::from("Jon")));
    }

    #[test]
    fn join_is_deterministic_across_parallelism() {
        let seq = hash_join(
            &ExecContext::sequential(),
            &cities_schema(),
            &cities(),
            &employees_schema(),
            &employees(),
            "c.zip",
            "e.zip",
        )
        .unwrap();
        let par = hash_join(
            &ExecContext::new(8),
            &cities_schema(),
            &cities(),
            &employees_schema(),
            &employees(),
            "c.zip",
            "e.zip",
        )
        .unwrap();
        let rows = |o: &JoinOutput| -> Vec<Vec<String>> {
            o.tuples
                .iter()
                .map(|t| t.cells.iter().map(|c| c.to_string()).collect())
                .collect()
        };
        assert_eq!(rows(&seq), rows(&par));
    }

    #[test]
    fn empty_inputs_and_missing_keys() {
        let ctx = ExecContext::sequential();
        let empty: Vec<Tuple> = Vec::new();
        let out = hash_join(
            &ctx,
            &cities_schema(),
            &empty,
            &employees_schema(),
            &employees(),
            "c.zip",
            "e.zip",
        )
        .unwrap();
        assert!(out.tuples.is_empty());
        assert!(hash_join(
            &ctx,
            &cities_schema(),
            &cities(),
            &employees_schema(),
            &employees(),
            "c.nope",
            "e.zip",
        )
        .is_err());
    }

    /// A missing key column raises the typed error on both validation
    /// paths — the left key's and the right key's — before any row is read.
    #[test]
    fn missing_keys_raise_typed_errors_on_both_paths() {
        let ctx = ExecContext::sequential();
        for (lk, rk, side, column) in [
            ("c.nope", "e.zip", "left", "c.nope"),
            ("c.zip", "e.nope", "right", "e.nope"),
        ] {
            let err = hash_join(
                &ctx,
                &cities_schema(),
                &cities(),
                &employees_schema(),
                &employees(),
                lk,
                rk,
            )
            .unwrap_err();
            match err {
                DaisyError::UnknownJoinColumn { side: s, column: c } => {
                    assert_eq!(s, side);
                    assert_eq!(c, column);
                }
                other => panic!("expected UnknownJoinColumn, got {other:?}"),
            }
        }
    }

    /// A relaxed build-side string key joins through every exact candidate
    /// — also one that is not its expected value — while range candidates
    /// and probe strings no build key holds join nothing.  (The name is
    /// kept from when the build side read its keys from a column snapshot.)
    #[test]
    fn relaxed_string_keys_join_through_snapshot_candidates() {
        use daisy_storage::CandidateValue;

        let left_schema = Schema::from_pairs(&[("l.city", DataType::Str)]).unwrap();
        let left: Vec<Tuple> = ["Ulm", "Bonn", "Kiel", "Jena"]
            .iter()
            .enumerate()
            .map(|(i, city)| Tuple::from_values(TupleId::new(i as u64), vec![Value::from(*city)]))
            .collect();
        let right_schema = Schema::from_pairs(&[("r.city", DataType::Str)]).unwrap();
        let right = vec![
            Tuple::from_cells(
                TupleId::new(0),
                vec![Cell::probabilistic(vec![
                    Candidate::exact(Value::from("Ulm"), 0.6),
                    Candidate::exact(Value::from("Bonn"), 0.3),
                    Candidate::range(CandidateValue::GreaterThan(Value::from("Jena")), 0.1),
                ])],
            ),
            Tuple::from_values(TupleId::new(1), vec![Value::from("Ulm")]),
        ];
        let out = hash_join(
            &ExecContext::sequential(),
            &left_schema,
            &left,
            &right_schema,
            &right,
            "l.city",
            "r.city",
        )
        .unwrap();
        let lineage: Vec<Vec<TupleId>> = out.tuples.iter().map(|t| t.lineage.clone()).collect();
        let id = TupleId::new;
        assert_eq!(
            lineage,
            vec![vec![id(0), id(0)], vec![id(0), id(1)], vec![id(1), id(0)]]
        );
        assert_eq!(out.matched_left, 2);
    }

    /// Key semantics hold on both paths through the join — the build side,
    /// which indexes every possible key of the right input, and the probe
    /// side, which looks up every possible key of the left one: `1 == 1.0`
    /// joins (`Value` hashing coerces ints and floats), and NULL keys never
    /// join — not NULL-to-NULL, not as one candidate of a relaxed key.
    #[test]
    fn key_semantics_pin_coercion_and_nulls_on_both_paths() {
        let relaxed_schema =
            Schema::from_pairs(&[("a.k", DataType::Float), ("a.tag", DataType::Str)]).unwrap();
        let relaxed = vec![
            Tuple::from_values(TupleId::new(0), vec![Value::Float(1.0), Value::from("f1")]),
            Tuple::from_values(TupleId::new(1), vec![Value::Null, Value::from("null")]),
            Tuple::from_cells(
                TupleId::new(2),
                vec![
                    Cell::probabilistic(vec![
                        Candidate::exact(Value::Null, 0.5),
                        Candidate::exact(Value::Int(2), 0.5),
                    ]),
                    Cell::Determinate(Value::from("maybe")),
                ],
            ),
        ];
        let plain_schema =
            Schema::from_pairs(&[("b.k", DataType::Int), ("b.tag", DataType::Str)]).unwrap();
        let plain: Vec<Tuple> = [
            (Value::Int(1), "i1"),
            (Value::Null, "null"),
            (Value::Int(2), "i2"),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (key, tag))| Tuple::from_values(TupleId::new(i as u64), vec![key, tag.into()]))
        .collect();
        let tags = |out: &JoinOutput| -> Vec<(String, String)> {
            out.tuples
                .iter()
                .map(|t| {
                    (
                        t.value(1).unwrap().to_string(),
                        t.value(3).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let pairs = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect()
        };
        let ctx = ExecContext::sequential();
        // Relaxed keys on the probe side.
        let probe = hash_join(
            &ctx,
            &relaxed_schema,
            &relaxed,
            &plain_schema,
            &plain,
            "a.k",
            "b.k",
        )
        .unwrap();
        assert_eq!(tags(&probe), pairs(&[("f1", "i1"), ("maybe", "i2")]));
        assert_eq!(probe.matched_left, 2);
        // Relaxed keys on the build side.
        let build = hash_join(
            &ctx,
            &plain_schema,
            &plain,
            &relaxed_schema,
            &relaxed,
            "b.k",
            "a.k",
        )
        .unwrap();
        assert_eq!(tags(&build), pairs(&[("i1", "f1"), ("i2", "maybe")]));
        assert_eq!(build.matched_left, 2);
        let lineage: Vec<Vec<TupleId>> = build.tuples.iter().map(|t| t.lineage.clone()).collect();
        let id = TupleId::new;
        assert_eq!(lineage, vec![vec![id(0), id(0)], vec![id(2), id(2)]]);
    }
}
