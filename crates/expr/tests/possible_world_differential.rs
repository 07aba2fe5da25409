//! Differential tests for possible-world predicate evaluation: the
//! per-tuple kernel ([`RowPredicate::eval_possible`]) against a
//! brute-force enumeration of worlds wherever one is defined.
//!
//! Random predicates use every shape the resolver distinguishes —
//! `And` / `Or` / `Not`, column–literal both ways round, column–column,
//! literal–literal — over rows mixing determinate cells, exact candidates
//! (with NULL, NaN, ints against floats, and strings no cell has as its
//! expected value), `LessThan` / `GreaterThan` / `Between` candidates and
//! the odd cell without any candidate at all.

use proptest::prelude::*;

use daisy_common::{DataType, Schema, TupleId, Value};
use daisy_expr::{BoolExpr, ComparisonOp, RowPredicate, ScalarExpr};
use daisy_storage::{Candidate, CandidateValue, Cell, Table, Tuple};

/// splitmix64, so one proptest-drawn seed unfolds into a table and a tree.
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

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

const COLUMNS: [&str; 4] = ["n", "x", "s", "m"];
const OPS: [ComparisonOp; 6] = [
    ComparisonOp::Eq,
    ComparisonOp::Neq,
    ComparisonOp::Lt,
    ComparisonOp::Le,
    ComparisonOp::Gt,
    ComparisonOp::Ge,
];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Str),
        ("m", DataType::Float),
    ])
    .unwrap()
}

/// Values a cell, candidate or literal of `column` may take.  Numbers are
/// few and small so comparisons hit equality and int/float coercion often;
/// `m` mixes every type.  "quince" and "zebra" are only ever drawn for
/// candidates and literals, "mango" for literals alone.
fn value(rng: &mut Rng, column: usize, candidate_or_literal: bool) -> Value {
    let number = |rng: &mut Rng| match rng.below(5) {
        0 => Value::Float(f64::NAN),
        1 => Value::Float(rng.below(8) as f64 / 2.0),
        2 => Value::Float(-0.0),
        _ => Value::Int(rng.below(5) as i64),
    };
    let string = |rng: &mut Rng| {
        let seen = ["apple", "banana", "cherry"];
        let unseen = ["quince", "zebra", "apple!"];
        if candidate_or_literal && rng.below(3) == 0 {
            Value::from(rng.pick(&unseen))
        } else {
            Value::from(rng.pick(&seen))
        }
    };
    if rng.below(8) == 0 {
        return Value::Null;
    }
    match column {
        0 => Value::Int(rng.below(6) as i64),
        1 => number(rng),
        2 => string(rng),
        _ => match rng.below(4) {
            0 => string(rng),
            1 => Value::Bool(rng.below(2) == 0),
            _ => number(rng),
        },
    }
}

fn cell(rng: &mut Rng, column: usize) -> Cell {
    let exact = |rng: &mut Rng| CandidateValue::Exact(value(rng, column, true));
    let candidates = |rng: &mut Rng, ranges: bool| -> Vec<Candidate> {
        (0..1 + rng.below(4))
            .map(|_| {
                let domain = match (ranges, rng.below(5)) {
                    (true, 0) => CandidateValue::LessThan(value(rng, column, true)),
                    (true, 1) => CandidateValue::GreaterThan(value(rng, column, true)),
                    (true, 2) => {
                        CandidateValue::Between(value(rng, column, true), value(rng, column, true))
                    }
                    _ => exact(rng),
                };
                Candidate::range(domain, 0.1 + rng.below(9) as f64 / 10.0)
            })
            .collect()
    };
    match rng.below(20) {
        0..=9 => Cell::Determinate(value(rng, column, false)),
        10..=15 => Cell::probabilistic(candidates(rng, false)),
        16..=18 => Cell::probabilistic(candidates(rng, true)),
        _ => Cell::Probabilistic(Vec::new()),
    }
}

fn predicate(rng: &mut Rng, depth: usize) -> BoolExpr {
    if depth > 0 && rng.below(3) > 0 {
        let a = Box::new(predicate(rng, depth - 1));
        return match rng.below(5) {
            0 | 1 => BoolExpr::And(a, Box::new(predicate(rng, depth - 1))),
            2 | 3 => BoolExpr::Or(a, Box::new(predicate(rng, depth - 1))),
            _ => BoolExpr::Not(a),
        };
    }
    let column = rng.below(COLUMNS.len());
    let col = ScalarExpr::col(COLUMNS[column]);
    let lit = ScalarExpr::Literal(match rng.below(6) {
        0 => Value::from("mango"),
        // Now and then a literal of another column's kind.
        1 => value(rng, 3, true),
        _ => value(rng, column, true),
    });
    let (left, right) = match rng.below(10) {
        0..=4 => (col, lit),
        5..=6 => (lit, col),
        7..=8 => (col, ScalarExpr::col(rng.pick(&COLUMNS))),
        _ => (lit, ScalarExpr::Literal(value(rng, column, true))),
    };
    match rng.below(12) {
        0 => BoolExpr::True,
        _ => BoolExpr::Compare {
            left,
            op: rng.pick(&OPS),
            right,
        },
    }
}

/// Possible-world semantics by definition, for a tuple whose referenced
/// cells carry exact candidates only: substitute every combination of
/// their candidates and ask whether one of the resulting determinate tuples
/// satisfies the predicate.  `None` when a referenced cell has a range
/// candidate.
fn brute_force(expr: &BoolExpr, schema: &Schema, tuple: &Tuple) -> Option<bool> {
    let referenced: Vec<usize> = expr
        .columns()
        .iter()
        .map(|name| schema.index_of(name).unwrap())
        .collect();
    let mut worlds: Vec<Vec<Value>> = vec![Vec::new()];
    for (column, cell) in tuple.cells.iter().enumerate() {
        let choices: Vec<Value> = match cell {
            Cell::Probabilistic(list) if referenced.contains(&column) => list
                .iter()
                .map(|c| c.value.as_exact().cloned())
                .collect::<Option<_>>()?,
            cell => vec![cell.expected_value()],
        };
        worlds = worlds
            .iter()
            .flat_map(|world| {
                choices.iter().map(move |v| {
                    let mut world = world.clone();
                    world.push(v.clone());
                    world
                })
            })
            .collect();
    }
    Some(worlds.into_iter().any(|values| {
        let world = Tuple::from_values(tuple.id, values);
        expr.eval_expected(schema, &world).unwrap()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_predicate_matches_the_definition(seed in 0u64..u64::MAX) {
        let rng = &mut Rng(seed);
        let schema = schema();
        let mut table = Table::new("t", schema.clone());
        for _ in 0..1 + rng.below(10) {
            table
                .push_cells((0..COLUMNS.len()).map(|c| cell(rng, c)).collect())
                .unwrap();
        }
        for _ in 0..6 {
            let expr = predicate(rng, 3);
            let resolved = RowPredicate::resolve(&expr, &schema).unwrap();
            for tuple in table.tuples() {
                let possible = resolved.eval_possible(tuple).unwrap();
                prop_assert_eq!(expr.eval_possible(&schema, tuple).unwrap(), possible);
                prop_assert_eq!(
                    resolved.eval_expected(tuple).unwrap(),
                    expr.eval_expected(&schema, tuple).unwrap()
                );
                // Every cell has at most 4 candidates: 256 worlds at most,
                // far below the enumeration bound.
                if let Some(defined) = brute_force(&expr, &schema, tuple) {
                    prop_assert!(
                        possible == defined,
                        "`{expr}` possible: the kernel says {possible}, the definition \
                         {defined} on {tuple:?}"
                    );
                }
            }
        }
    }
}

/// The enumeration bound: 4 096 worlds are still enumerated (exact), one
/// more world and the tuple is judged by the optimistic rule.  `c0`'s
/// candidates straddle `[5, 10]` without entering it, so enumeration says
/// no and the optimistic rule says yes.
#[test]
fn evaluation_switches_to_the_optimistic_rule_past_4096_worlds() {
    let schema = Schema::from_pairs(&[
        ("c0", DataType::Int),
        ("c1", DataType::Int),
        ("c2", DataType::Int),
        ("c3", DataType::Int),
    ])
    .unwrap();
    let exact = |n: i64| {
        let outside = [3, 17, 20, 21, 22, 23, 24, 25, 26];
        Cell::probabilistic(
            outside[..n as usize]
                .iter()
                .map(|v| Candidate::exact(Value::Int(*v), 1.0))
                .collect(),
        )
    };
    let mut table = Table::new("t", schema.clone());
    table
        .push_cells(vec![exact(8), exact(8), exact(8), exact(8)])
        .unwrap(); // 8⁴ = 4096 worlds
    table
        .push_cells(vec![exact(8), exact(8), exact(8), exact(9)])
        .unwrap(); // 4608 worlds
    let expr = BoolExpr::between("c0", 5, 10)
        .and(BoolExpr::cmp("c1", ComparisonOp::Ge, 0))
        .and(BoolExpr::cmp("c2", ComparisonOp::Ge, 0))
        .and(BoolExpr::cmp("c3", ComparisonOp::Ge, 0));
    let resolved = RowPredicate::resolve(&expr, &schema).unwrap();
    for (row, optimistic) in [(0, false), (1, true)] {
        let tuple = &table.tuples()[row];
        assert_eq!(resolved.eval_possible(tuple).unwrap(), optimistic);
        assert_eq!(expr.eval_possible(&schema, tuple).unwrap(), optimistic);
    }
    // A tuple outside any table evaluates the same way.
    let loose = Tuple::from_cells(TupleId::new(99), table.tuples()[1].cells.to_vec());
    assert!(resolved.eval_possible(&loose).unwrap());
}
