//! Property-based tests over the core invariants listed in DESIGN.md §6.

use proptest::prelude::*;

use daisy::core::fd_index::FdIndex;
use daisy::core::relaxation::{probability_more_violations, relax_fd, FilterTarget};
use daisy::prelude::*;
use daisy::storage::{Candidate, Cell, Delta};

/// Builds a two-column table (lhs, rhs) from generated pairs.
fn table_from_pairs(pairs: &[(i64, i64)]) -> Table {
    let schema = Schema::from_pairs(&[("lhs", DataType::Int), ("rhs", DataType::Int)]).unwrap();
    Table::from_rows(
        "t",
        schema,
        pairs
            .iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Candidate probabilities of every probabilistic cell sum to one.
    #[test]
    fn candidate_probabilities_sum_to_one(weights in prop::collection::vec(0.0f64..10.0, 1..8)) {
        let cands: Vec<Candidate> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| Candidate::exact(Value::Int(i as i64), *w))
            .collect();
        let cell = Cell::probabilistic(cands);
        let total: f64 = cell.candidates().iter().map(|c| c.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Relaxation closure: after relaxing, no unvisited tuple shares an lhs
    /// value with the relaxed set (rhs-filter single-iteration guarantee of
    /// Lemma 1 applied to the lhs side it covers).
    #[test]
    fn relaxation_covers_lhs_correlations(pairs in prop::collection::vec((0i64..20, 0i64..10), 1..120)) {
        let table = table_from_pairs(&pairs);
        let fd = FunctionalDependency::new(&["lhs"], "rhs");
        let index = FdIndex::build(&table, &fd).unwrap();
        // Answer: every tuple whose rhs equals the first tuple's rhs.
        let target = table.tuples()[0].value(1).unwrap();
        let answer: Vec<_> = table
            .tuples()
            .iter()
            .filter(|t| t.value(1).unwrap() == target)
            .cloned()
            .collect();
        let out = relax_fd(&index, &answer, table.tuples(), FilterTarget::Rhs, 8).unwrap();
        // Every tuple sharing an lhs value with the answer must be in the
        // answer or among the extras.
        let mut covered: std::collections::HashSet<_> =
            answer.iter().map(|t| t.id).collect();
        covered.extend(out.extra.iter().map(|t| t.id));
        let answer_lhs: std::collections::HashSet<Value> =
            answer.iter().map(|t| t.value(0).unwrap()).collect();
        for t in table.tuples() {
            if answer_lhs.contains(&t.value(0).unwrap()) {
                prop_assert!(covered.contains(&t.id));
            }
        }
    }

    /// Full (fixpoint) relaxation is closed under both lhs and rhs
    /// correlation: no unvisited tuple shares an lhs or rhs value with the
    /// relaxed set.
    #[test]
    fn fixpoint_relaxation_is_transitively_closed(pairs in prop::collection::vec((0i64..15, 0i64..8), 1..100)) {
        let table = table_from_pairs(&pairs);
        let fd = FunctionalDependency::new(&["lhs"], "rhs");
        let index = FdIndex::build(&table, &fd).unwrap();
        let answer = vec![table.tuples()[0].clone()];
        let out = relax_fd(&index, &answer, table.tuples(), FilterTarget::Lhs, 64).unwrap();
        let mut covered: std::collections::HashSet<_> = answer.iter().map(|t| t.id).collect();
        covered.extend(out.extra.iter().map(|t| t.id));
        let lhs_values: std::collections::HashSet<Value> = covered
            .iter()
            .map(|id| table.tuple(*id).unwrap().value(0).unwrap())
            .collect();
        let rhs_values: std::collections::HashSet<Value> = covered
            .iter()
            .map(|id| table.tuple(*id).unwrap().value(1).unwrap())
            .collect();
        for t in table.tuples() {
            if lhs_values.contains(&t.value(0).unwrap()) || rhs_values.contains(&t.value(1).unwrap()) {
                prop_assert!(covered.contains(&t.id), "tuple {} correlated but not covered", t.id);
            }
        }
    }

    /// Lemma 4: merging rule deltas is commutative.  Two rules' candidate
    /// sets for one cell, applied through `Table::apply_delta` (the
    /// engine's write path, which merges through `Cell::merge_candidates`)
    /// in both orders, leave the same candidates with the same
    /// probabilities.
    #[test]
    fn delta_merge_is_commutative(
        weights_a in prop::collection::vec(0.1f64..5.0, 1..5),
        weights_b in prop::collection::vec(0.1f64..5.0, 1..5),
    ) {
        let make = |weights: &[f64], offset: i64| -> Delta {
            let mut d = Delta::new();
            d.push_update(
                daisy::common::TupleId::new(1),
                daisy::common::ColumnId::new(0),
                Cell::probabilistic(
                    weights
                        .iter()
                        .enumerate()
                        .map(|(i, w)| Candidate::exact(Value::Int(offset + i as i64), *w))
                        .collect(),
                ),
            );
            d
        };
        let (a, b) = (make(&weights_a, 0), make(&weights_b, 2));
        let merged = |first: &Delta, second: &Delta| -> Cell {
            let mut table = table_from_pairs(&[(0, 0), (1, 1)]);
            table.apply_delta(first).unwrap();
            table.apply_delta(second).unwrap();
            let tuple = table.tuple(daisy::common::TupleId::new(1)).unwrap();
            tuple.cell(0).unwrap().clone()
        };
        let cell_ab = merged(&a, &b);
        let cell_ba = merged(&b, &a);
        prop_assert_eq!(cell_ab.candidate_count(), cell_ba.candidate_count());
        for cand in cell_ab.candidates() {
            let twin = cell_ba
                .candidates()
                .iter()
                .find(|c| c.value == cand.value)
                .expect("candidate present in both merge orders");
            prop_assert!((cand.probability - twin.probability).abs() < 1e-9);
        }
    }

    /// The hypergeometric violation-probability estimate is a probability
    /// and is monotone in the number of violations.
    #[test]
    fn violation_probability_is_monotone(n in 10usize..500, sample in 1usize..100) {
        let sample = sample.min(n);
        let mut last = 0.0f64;
        for vio in [0usize, n / 10, n / 4, n / 2] {
            let p = probability_more_violations(n, vio, sample);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p + 1e-12 >= last);
            last = p;
        }
    }

    /// The SQL parser never panics and, when it succeeds, the query
    /// round-trips through Display → parse to the same structure.
    #[test]
    fn parser_roundtrip(key in 0i64..1000, sel in prop::sample::select(vec!["orderkey", "suppkey"])) {
        let sql = format!("SELECT orderkey, suppkey FROM lineorder WHERE {sel} <= {key}");
        let q = daisy::query::parse_query(&sql).unwrap();
        let reparsed = daisy::query::parse_query(&q.to_string()).unwrap();
        prop_assert_eq!(q, reparsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Possible-world predicate evaluation is exact for point candidates: a
    /// range predicate over one probabilistic column holds iff some single
    /// candidate lies inside the range (not one candidate per bound).
    #[test]
    fn possible_world_evaluation_is_exact_for_point_candidates(
        candidates in prop::collection::vec(0i64..100, 1..8),
        low in 0i64..100,
        width in 0i64..30,
    ) {
        let high = low + width;
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let cell = Cell::probabilistic(
            candidates.iter().map(|v| Candidate::exact(Value::Int(*v), 1.0)).collect(),
        );
        let tuple = daisy::storage::Tuple::from_cells(daisy::common::TupleId::new(0), vec![cell]);
        let predicate = BoolExpr::between("x", low, high);
        let expected = candidates.iter().any(|v| *v >= low && *v <= high);
        prop_assert_eq!(predicate.eval_possible(&schema, &tuple).unwrap(), expected);
    }

    /// Enumerating the possible worlds of a tuple yields probabilities that
    /// sum to one and exactly candidate-count-product many worlds.
    #[test]
    fn world_enumeration_probabilities_sum_to_one(
        weights_a in prop::collection::vec(0.1f64..5.0, 1..5),
        weights_b in prop::collection::vec(0.1f64..5.0, 1..5),
    ) {
        use daisy::storage::{enumerate_worlds, world_count, WorldEnumeration};
        let cell = |weights: &[f64]| {
            Cell::probabilistic(
                weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| Candidate::exact(Value::Int(i as i64), *w))
                    .collect(),
            )
        };
        let tuple = daisy::storage::Tuple::from_cells(
            daisy::common::TupleId::new(0),
            vec![cell(&weights_a), cell(&weights_b)],
        );
        prop_assert_eq!(world_count(&tuple), weights_a.len() * weights_b.len());
        let WorldEnumeration::Complete(worlds) = enumerate_worlds(&tuple, 64).unwrap() else {
            return Err(TestCaseError::fail("expected complete enumeration"));
        };
        prop_assert_eq!(worlds.len(), weights_a.len() * weights_b.len());
        let total: f64 = worlds.iter().map(|w| w.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Materialising repairs with the most-probable policy produces a fully
    /// deterministic table and is idempotent.
    #[test]
    fn repair_materialization_is_idempotent(pairs in prop::collection::vec((0i64..10, 0i64..5), 2..60)) {
        use daisy::core::repair::{materialize_repairs, RepairPolicy};
        use daisy::offline::full::offline_clean_fd;
        let mut table = table_from_pairs(&pairs);
        let fd = FunctionalDependency::new(&["lhs"], "rhs");
        offline_clean_fd(&mut table, &fd).unwrap();
        let once = materialize_repairs(&table, None, RepairPolicy::MostProbable).unwrap();
        prop_assert_eq!(once.table.probabilistic_tuple_count(), 0);
        let twice = materialize_repairs(&once.table, None, RepairPolicy::MostProbable).unwrap();
        prop_assert!(twice.repairs.is_empty());
        for (a, b) in once.table.tuples().iter().zip(twice.table.tuples()) {
            for col in 0..a.arity() {
                prop_assert_eq!(a.value(col).unwrap(), b.value(col).unwrap());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential oracle for the parallel theta-join DC check: on a random
    /// table and worker count, the partitioned parallel check finds exactly
    /// the violation set (and the same block/pair statistics) as the
    /// sequential `ExecContext::sequential()` path.
    #[test]
    fn parallel_theta_check_matches_sequential_oracle(
        rows in prop::collection::vec((0i64..40, 0i64..40), 2..90),
        blocks in 1usize..7,
        workers in 2usize..9,
    ) {
        use daisy::core::theta::ThetaMatrix;
        use daisy::exec::ExecContext;

        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap();
        let table = Table::from_rows(
            "t",
            schema,
            rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]).collect(),
        )
        .unwrap();
        let dc = DenialConstraint::parse("dc", "t1.a < t2.a & t1.b > t2.b").unwrap();

        let mut serial = ThetaMatrix::build(table.schema(), table.tuples(), &dc, blocks).unwrap();
        let (expected, expected_stats) = serial
            .check_all(&ExecContext::sequential(), table.schema(), table.tuples())
            .unwrap();

        let mut parallel = ThetaMatrix::build(table.schema(), table.tuples(), &dc, blocks).unwrap();
        let (found, stats) = parallel
            .check_all(&ExecContext::new(workers), table.schema(), table.tuples())
            .unwrap();

        prop_assert_eq!(&found, &expected);
        prop_assert_eq!(stats, expected_stats);

        // And both must agree with a brute-force quadratic reference.
        let mut brute = Vec::new();
        for x in table.tuples() {
            for y in table.tuples() {
                if x.id != y.id && dc.violated_by(table.schema(), &[x, y]).unwrap() {
                    brute.push(daisy::expr::Violation::pair(dc.id, x.id, y.id).canonical());
                }
            }
        }
        brute.sort_by(|a, b| a.tuples.cmp(&b.tuples));
        brute.dedup();
        prop_assert_eq!(found, brute);
    }

    /// The incremental range check is thread-count invariant too, including
    /// the shared `checked` bookkeeping: two successive range checks at any
    /// worker count find the same combined violations as one sequential
    /// full check.
    #[test]
    fn parallel_incremental_theta_check_matches_sequential_oracle(
        rows in prop::collection::vec((0i64..30, 0i64..30), 2..70),
        split in 0i64..30,
        workers in 2usize..9,
    ) {
        use daisy::core::theta::ThetaMatrix;
        use daisy::exec::ExecContext;

        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap();
        let table = Table::from_rows(
            "t",
            schema,
            rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]).collect(),
        )
        .unwrap();
        let dc = DenialConstraint::parse("dc", "t1.a < t2.a & t1.b > t2.b").unwrap();

        let run = |ctx: &ExecContext| {
            let mut matrix =
                ThetaMatrix::build(table.schema(), table.tuples(), &dc, 4).unwrap();
            let (first, s1) = matrix
                .check_range(ctx, table.schema(), table.tuples(), None, Some(&Value::Int(split)))
                .unwrap();
            let (second, s2) = matrix
                .check_range(ctx, table.schema(), table.tuples(), Some(&Value::Int(split)), None)
                .unwrap();
            let mut stats = s1;
            stats.merge(&s2);
            let mut combined: Vec<daisy::expr::Violation> =
                first.into_iter().chain(second).collect();
            combined.sort_by(|a, b| a.tuples.cmp(&b.tuples));
            combined.dedup();
            (combined, stats)
        };
        let (expected, expected_stats) = run(&ExecContext::sequential());
        let (found, stats) = run(&ExecContext::new(workers));
        prop_assert_eq!(found, expected);
        prop_assert_eq!(stats, expected_stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The §4.1 correctness guarantee as a property: for a random dirty
    /// table and a random rhs-range query, Daisy's query-time cleaning
    /// returns exactly the tuples that offline cleaning followed by the same
    /// query returns.
    #[test]
    fn daisy_single_query_matches_offline_for_fds(
        pairs in prop::collection::vec((0i64..8, 0i64..6), 4..80),
        low in 0i64..6,
        width in 0i64..3,
    ) {
        use daisy::exec::ExecContext;
        use daisy::offline::full::offline_clean_fd;
        use daisy::query::physical::PredicateMode;
        use daisy::query::{execute, Catalog, LogicalPlan};

        let high = low + width;
        let dirty = table_from_pairs(&pairs);
        let fd = FunctionalDependency::new(&["lhs"], "rhs");
        let sql = format!("SELECT lhs, rhs FROM t WHERE rhs >= {low} AND rhs <= {high}");

        // Offline: clean everything, then query.
        let mut offline_table = dirty.clone();
        offline_clean_fd(&mut offline_table, &fd).unwrap();
        let mut catalog = Catalog::new();
        catalog.add(offline_table);
        let query = daisy::query::parse_query(&sql).unwrap();
        let plan = LogicalPlan::from_query(&query).unwrap();
        let offline_result =
            execute(&ExecContext::sequential(), &catalog, &plan, PredicateMode::Possible).unwrap();

        // Daisy: clean while querying.
        let mut engine = DaisyEngine::new(DaisyConfig::default().with_cost_model(false)).unwrap();
        engine.register_table(dirty);
        engine.add_fd(&fd, "phi");
        let daisy_result = engine.execute_sql(&sql).unwrap().result;

        let mut offline_ids = offline_result.tuple_ids();
        let mut daisy_ids = daisy_result.tuple_ids();
        offline_ids.sort();
        daisy_ids.sort();
        prop_assert_eq!(daisy_ids, offline_ids);
    }
}
