//! The hash equi-join operator with probabilistic join keys.
//!
//! Following §4 of the paper, "(self-)joins on probabilistic join-keys output
//! a pair iff the candidate values of the join-keys overlap", and the result
//! stores the originating tuple ids (lineage) so that a later repair of a
//! join-key value can invalidate or extend the pair set incrementally.
//! NULL join keys never match (SQL equi-join semantics), on either path.
//!
//! Two implementations share those semantics: [`hash_join`] builds on owned
//! [`Value`] keys, [`hash_join_coded`] builds on `Copy`
//! [`ColumnCode`]s from the right table's [`ColumnSnapshot`] — expected
//! values and relaxed keys' candidates alike — and probes through the
//! snapshot dictionary; the build side never reads a cell.  Both validate
//! their key columns up front with a typed
//! [`DaisyError::UnknownJoinColumn`], so a bad plan fails at operator
//! construction instead of mid-stream.

use std::collections::HashMap;
use std::sync::Arc;

use daisy_common::{DaisyError, Result, Schema, TupleId, Value};
use daisy_exec::{chunk_ranges, par_map_chunks, run_stealing, ExecContext};
use daisy_storage::{CodedCandidate, ColumnCode, ColumnSnapshot, Tuple};

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
/// [`DaisyError::UnknownJoinColumn`] — the up-front validation both join
/// implementations (and plan validation in the executor) share.
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

/// Code-keyed hash equi-join: like [`hash_join`], but the build side is
/// keyed on `Copy` [`ColumnCode`]s read from the **right** table's snapshot
/// (no `Value` clones), and both sides may be restricted to sorted
/// selection vectors (`None` = all rows) — the late-materialization
/// protocol of the vectorized executor.
///
/// `right[i]` must be the tuple snapshot row `i` was built from; the build
/// side reads keys — determinate or relaxed — from the snapshot only and
/// touches `right` just to materialize matches.  The left side needs no
/// snapshot: probe values are encoded through the right snapshot's
/// dictionary on the fly.
///
/// Byte-identical to [`hash_join`] over the same rows by construction:
/// [`ColumnCode`] shares `Value`'s equality and hash semantics (int/float
/// coercion, NaN == NaN), NULL keys never join on either path, and matches
/// are emitted in the same (left order outer, right build order inner)
/// order with the same fresh ids and lineage.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_coded(
    ctx: &ExecContext,
    left_schema: &Schema,
    left: &[Tuple],
    left_selection: Option<&[usize]>,
    right_schema: &Schema,
    right: &[Tuple],
    right_selection: Option<&[usize]>,
    right_snapshot: &ColumnSnapshot,
    left_key: &str,
    right_key: &str,
) -> Result<JoinOutput> {
    let out_schema = Arc::new(left_schema.join(right_schema)?);
    let (left_idx, right_idx) = validate_join_keys(left_schema, right_schema, left_key, right_key)?;
    if right_snapshot.len() != right.len() {
        return Err(DaisyError::Execution(format!(
            "coded join requires a snapshot aligned with its build side \
             ({} snapshot rows vs {} tuples)",
            right_snapshot.len(),
            right.len()
        )));
    }
    let all_left: Vec<usize>;
    let left_selection: &[usize] = match left_selection {
        Some(positions) => positions,
        None => {
            all_left = (0..left.len()).collect();
            &all_left
        }
    };
    let all_right: Vec<usize>;
    let right_selection: &[usize] = match right_selection {
        Some(positions) => positions,
        None => {
            all_right = (0..right.len()).collect();
            &all_right
        }
    };

    // Build side on codes, read from the snapshot alone: a determinate key
    // is its column code, a relaxed key contributes every exact candidate
    // code of its side-column entry.
    let mut build: HashMap<ColumnCode, Vec<usize>> = HashMap::new();
    for &pos in right_selection {
        let mut add = |code: ColumnCode| {
            if !code.is_null() {
                build.entry(code).or_default().push(pos);
            }
        };
        match right_snapshot.candidates(pos, right_idx) {
            Some(candidates) => candidates
                .iter()
                .filter_map(CodedCandidate::as_exact)
                .for_each(add),
            None => add(right_snapshot.ordering_code(pos, right_idx)),
        }
    }

    // Probe side: morsel-parallel over the left selection, merged in morsel
    // order — the same deterministic (left outer, right build inner) order
    // as the row path.  The snapshot interns every candidate string, so a
    // probe string its dictionary has never seen equals no build key.
    let probe_one = |value: &Value, matches: &mut Vec<usize>| {
        if value.is_null() {
            return;
        }
        let positions = right_snapshot
            .encode_ordering(value)
            .and_then(|code| build.get(&code));
        if let Some(positions) = positions {
            matches.extend(positions.iter().copied());
        }
    };
    let ranges = chunk_ranges(left_selection.len(), ctx.morsel_count(left_selection.len()));
    let chunks: Vec<Vec<(usize, usize)>> = run_stealing(ctx, ranges.len(), |m| {
        let (start, end) = ranges[m];
        let mut out = Vec::new();
        for &pos in &left_selection[start..end] {
            let Ok(cell) = left[pos].cell(left_idx) else {
                continue;
            };
            let mut matches: Vec<usize> = Vec::new();
            if let Some(value) = cell.as_determinate() {
                probe_one(value, &mut matches);
            } else {
                for value in cell.possible_values() {
                    probe_one(value, &mut matches);
                }
            }
            matches.sort_unstable();
            matches.dedup();
            for right_pos in matches {
                out.push((pos, right_pos));
            }
        }
        out
    });

    let mut matched: Vec<bool> = vec![false; left.len()];
    let mut tuples = Vec::new();
    for (next_id, (lpos, rpos)) in chunks.into_iter().flatten().enumerate() {
        matched[lpos] = true;
        tuples.push(Tuple::join(
            &left[lpos],
            &right[rpos],
            TupleId::new(next_id as u64),
        ));
    }
    Ok(JoinOutput {
        schema: out_schema,
        tuples,
        matched_left: matched.iter().filter(|m| **m).count(),
    })
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

    #[test]
    fn missing_keys_raise_typed_errors_on_both_paths() {
        let ctx = ExecContext::sequential();
        let right = right_table();
        let snapshot = ColumnSnapshot::build(&right).unwrap();
        for (lk, rk, side, column) in [
            ("c.nope", "e.zip", "left", "c.nope"),
            ("c.zip", "e.nope", "right", "e.nope"),
        ] {
            let row_err = hash_join(
                &ctx,
                &cities_schema(),
                &cities(),
                &employees_schema(),
                &employees(),
                lk,
                rk,
            )
            .unwrap_err();
            let coded_err = hash_join_coded(
                &ctx,
                &cities_schema(),
                &cities(),
                None,
                right.schema(),
                right.tuples(),
                None,
                &snapshot,
                lk,
                rk,
            )
            .unwrap_err();
            for err in [row_err, coded_err] {
                match err {
                    DaisyError::UnknownJoinColumn { side: s, column: c } => {
                        assert_eq!(s, side);
                        assert_eq!(c, column);
                    }
                    other => panic!("expected UnknownJoinColumn, got {other:?}"),
                }
            }
        }
    }

    /// Builds the employees fixture as a `Table` (same schema and tuple
    /// ids) so the coded path has a snapshot to read.
    fn right_table() -> daisy_storage::Table {
        let mut table = daisy_storage::Table::new("e", employees_schema());
        for tuple in employees() {
            table.push_cells(tuple.cells.to_vec()).unwrap();
        }
        table
    }

    fn row_dump(out: &JoinOutput) -> Vec<(TupleId, Vec<TupleId>, Vec<String>)> {
        out.tuples
            .iter()
            .map(|t| {
                (
                    t.id,
                    t.lineage.clone(),
                    t.cells.iter().map(|c| c.to_string()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn coded_join_matches_row_join_exactly() {
        let right = right_table();
        let snapshot = ColumnSnapshot::build(&right).unwrap();
        for workers in [1usize, 2, 4, 7] {
            let ctx = ExecContext::new(workers);
            let row = hash_join(
                &ctx,
                &cities_schema(),
                &cities(),
                right.schema(),
                right.tuples(),
                "c.zip",
                "e.zip",
            )
            .unwrap();
            let coded = hash_join_coded(
                &ctx,
                &cities_schema(),
                &cities(),
                None,
                right.schema(),
                right.tuples(),
                None,
                &snapshot,
                "c.zip",
                "e.zip",
            )
            .unwrap();
            assert_eq!(row_dump(&row), row_dump(&coded));
            assert_eq!(row.matched_left, coded.matched_left);
        }
    }

    #[test]
    fn coded_join_honours_selection_vectors() {
        let right = right_table();
        let snapshot = ColumnSnapshot::build(&right).unwrap();
        let ctx = ExecContext::sequential();
        // Restrict the build side to employee rows {1, 2}: Peter (9001,
        // row 0) must no longer match anyone.
        let out = hash_join_coded(
            &ctx,
            &cities_schema(),
            &cities(),
            None,
            right.schema(),
            right.tuples(),
            Some(&[1, 2]),
            &snapshot,
            "c.zip",
            "e.zip",
        )
        .unwrap();
        let names: Vec<Value> = out.tuples.iter().map(|t| t.value(3).unwrap()).collect();
        assert_eq!(names, vec![Value::from("Mary")]);
        // Restrict the probe side to the probabilistic city only.
        let out = hash_join_coded(
            &ctx,
            &cities_schema(),
            &cities(),
            Some(&[1]),
            right.schema(),
            right.tuples(),
            None,
            &snapshot,
            "c.zip",
            "e.zip",
        )
        .unwrap();
        assert_eq!(out.tuples.len(), 2);
        assert_eq!(out.matched_left, 1);
    }

    /// A relaxed build-side key joins through every exact candidate — also
    /// a string that no cell has as its expected value, which the snapshot
    /// interns like any other — while range candidates and probe strings
    /// the dictionary has never seen join nothing.
    #[test]
    fn relaxed_string_keys_join_through_snapshot_candidates() {
        use daisy_storage::CandidateValue;

        let left_schema = Schema::from_pairs(&[("l.city", DataType::Str)]).unwrap();
        let left: Vec<Tuple> = ["Ulm", "Bonn", "Kiel", "Jena"]
            .iter()
            .enumerate()
            .map(|(i, city)| Tuple::from_values(TupleId::new(i as u64), vec![Value::from(*city)]))
            .collect();
        let mut right = daisy_storage::Table::new(
            "r",
            Schema::from_pairs(&[("r.city", DataType::Str)]).unwrap(),
        );
        right
            .push_cells(vec![Cell::probabilistic(vec![
                Candidate::exact(Value::from("Ulm"), 0.6),
                Candidate::exact(Value::from("Bonn"), 0.3),
                Candidate::range(CandidateValue::GreaterThan(Value::from("Jena")), 0.1),
            ])])
            .unwrap();
        right.push_values(vec![Value::from("Ulm")]).unwrap();
        let snapshot = ColumnSnapshot::build(&right).unwrap();
        let ctx = ExecContext::sequential();
        let row = hash_join(
            &ctx,
            &left_schema,
            &left,
            right.schema(),
            right.tuples(),
            "l.city",
            "r.city",
        )
        .unwrap();
        let coded = hash_join_coded(
            &ctx,
            &left_schema,
            &left,
            None,
            right.schema(),
            right.tuples(),
            None,
            &snapshot,
            "l.city",
            "r.city",
        )
        .unwrap();
        assert_eq!(row_dump(&row), row_dump(&coded));
        let lineage: Vec<Vec<TupleId>> = coded.tuples.iter().map(|t| t.lineage.clone()).collect();
        let id = TupleId::new;
        assert_eq!(
            lineage,
            vec![vec![id(0), id(0)], vec![id(0), id(1)], vec![id(1), id(0)]]
        );
    }

    /// `1 == 1.0` must join on both paths (`Value` and `ColumnCode` share
    /// int/float hash coercion), and NULL keys must never join on either —
    /// not even NULL-to-NULL.
    #[test]
    fn key_semantics_pin_coercion_and_nulls_on_both_paths() {
        let left_schema =
            Schema::from_pairs(&[("l.k", DataType::Float), ("l.tag", DataType::Str)]).unwrap();
        let left = vec![
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
        let mut right = daisy_storage::Table::new(
            "r",
            Schema::from_pairs(&[("r.k", DataType::Int), ("r.tag", DataType::Str)]).unwrap(),
        );
        right
            .push_values(vec![Value::Int(1), Value::from("i1")])
            .unwrap();
        right
            .push_values(vec![Value::Null, Value::from("null")])
            .unwrap();
        right
            .push_values(vec![Value::Int(2), Value::from("i2")])
            .unwrap();
        let snapshot = ColumnSnapshot::build(&right).unwrap();
        let ctx = ExecContext::sequential();
        let row = hash_join(
            &ctx,
            &left_schema,
            &left,
            right.schema(),
            right.tuples(),
            "l.k",
            "r.k",
        )
        .unwrap();
        let coded = hash_join_coded(
            &ctx,
            &left_schema,
            &left,
            None,
            right.schema(),
            right.tuples(),
            None,
            &snapshot,
            "l.k",
            "r.k",
        )
        .unwrap();
        for out in [&row, &coded] {
            let pairs: Vec<(String, String)> = out
                .tuples
                .iter()
                .map(|t| {
                    (
                        t.value(1).unwrap().to_string(),
                        t.value(3).unwrap().to_string(),
                    )
                })
                .collect();
            // Float 1.0 joins Int 1; the NULL candidate contributes
            // nothing but the exact Int 2 candidate still joins; the
            // determinate NULLs on both sides join nothing.
            assert_eq!(
                pairs,
                vec![
                    ("f1".to_string(), "i1".to_string()),
                    ("maybe".to_string(), "i2".to_string()),
                ]
            );
            assert_eq!(out.matched_left, 2);
        }
        assert_eq!(row_dump(&row), row_dump(&coded));
    }
}
