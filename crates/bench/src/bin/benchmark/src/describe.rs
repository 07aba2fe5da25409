//! `--describe`: the content of `BENCHMARK.json`, generated from the tables
//! this package measures by, so the file at the repository root can never
//! drift from the code (a unit test compares the two).

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "crates/bench/src/bin/benchmark";
/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 14;

pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(PATH)])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, five directories up.
    fn committed() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        assert_eq!(committed(), benchmark_json());
    }

    #[test]
    fn declarations_fit_the_contract_limits() {
        let name_ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.why()
            );
            names.push(w.name());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }
}
