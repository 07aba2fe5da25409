//! `--compare A.json B.json`: applies each end-to-end metric's bound per
//! (metric, workload) to two records written by `--out`.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run's own samples spread so widely that their median is expected
    /// to move by more than the bound, so the two medians cannot be told
    /// apart at this bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than the base `a`, as a share of `a` (negative
/// when better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict for one (metric, workload) pair: `a` is the base median, `b`
/// the other, `spread` the wider of the two runs' median spreads.
pub fn verdict(metric: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    let worse = worsening(metric, a, b);
    if spread > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn untraced_runs(record: &Json) -> Vec<&Json> {
    record
        .get("runs")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter(|run| run.get("trace").and_then(Json::as_f64) == Some(0.0))
        .collect()
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The expected spread of a run's median for `name`: the quartile distance
/// of its samples (passes; cold starts for `first_result_ms` and `setup_s`)
/// as a share of their median, over √n.
fn median_spread(run: &Json, name: &str) -> f64 {
    run.get("detail")
        .and_then(|d| d.get("samples"))
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("median_spread"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two records; returns the printed rows and whether any pair was
/// regressed, unresolved, missing, or had failing operations.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>7} {:>6}  {}",
        "workload", "metric", "A (base)", "B", "B/A", "spread", "bound", "verdict"
    )];
    let mut bad = false;
    let b_runs = untraced_runs(b);
    for run_a in untraced_runs(a) {
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = b_runs
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            rows.push(format!("{workload:<16} missing from B"));
            bad = true;
            continue;
        };
        for run in [run_a, run_b] {
            if run.get("failed").and_then(Json::as_f64) != Some(0.0) {
                rows.push(format!("{workload:<16} has failed operations"));
                bad = true;
            }
        }
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(run_a, metric.name),
                metric_value(run_b, metric.name),
            ) else {
                rows.push(format!("{workload:<16} {:<16} missing", metric.name));
                bad = true;
                continue;
            };
            let spread = median_spread(run_a, metric.name).max(median_spread(run_b, metric.name));
            let verdict = verdict(metric, va, vb, spread);
            bad |= matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            rows.push(format!(
                "{workload:<16} {:<16} {va:>12.4} {vb:>12.4} {:>8.3} {:>6.1}% {:>5.0}%  {}",
                metric.name,
                if va == 0.0 { f64::NAN } else { vb / va },
                spread * 100.0,
                metric.bound * 100.0,
                verdict.as_str(),
            ));
        }
    }
    (rows, bad)
}

pub fn main(a: &str, b: &str) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    let (rows, bad) = compare(&a, &b);
    for row in rows {
        println!("{row}");
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(verdict(&lower, 100.0, 105.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(&lower, 100.0, 111.0, 0.02), Verdict::Regressed);
        assert_eq!(verdict(&lower, 100.0, 89.0, 0.02), Verdict::Improved);
        // A spread wider than the bound hides any difference.
        assert_eq!(verdict(&lower, 100.0, 150.0, 0.11), Verdict::Unresolved);
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(verdict(&higher, 100.0, 89.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&higher, 100.0, 111.0, 0.0), Verdict::Improved);
    }

    fn record(workload_s: f64, spread: f64, failed: f64) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let value = if m.name == "workload_s" {
                workload_s
            } else {
                1.0
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        }));
        let samples = Json::obj([(
            "workload_s",
            Json::obj([("median_spread", Json::Num(spread))]),
        )]);
        Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("sp_explore_fd")),
                ("trace", Json::Num(0.0)),
                ("failed", Json::Num(failed)),
                ("metrics", metrics),
                ("detail", Json::obj([("samples", samples)])),
            ])]),
        )])
    }

    #[test]
    fn records_compare_per_metric_and_workload() {
        let base = record(2.0, 0.01, 0.0);
        let (rows, bad) = compare(&base, &record(2.02, 0.01, 0.0));
        assert!(!bad);
        assert_eq!(rows.len(), 1 + END_TO_END.len());
        assert!(rows.iter().all(|r| !r.contains("regressed")));

        let (rows, bad) = compare(&base, &record(4.0, 0.01, 0.0));
        assert!(bad);
        assert!(rows
            .iter()
            .any(|r| r.contains("workload_s") && r.contains("regressed")));

        let (rows, bad) = compare(&base, &record(2.0, 0.5, 0.0));
        assert!(bad);
        assert!(rows.iter().any(|r| r.contains("unresolved")));

        let (_, bad) = compare(&base, &record(2.0, 0.01, 1.0));
        assert!(bad);
        let (rows, bad) = compare(&base, &Json::obj([("runs", Json::Arr(vec![]))]));
        assert!(bad && rows.iter().any(|r| r.contains("missing from B")));
    }
}
