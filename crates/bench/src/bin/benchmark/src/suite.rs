//! The whole benchmark in one command: every workload in its own child
//! process (so `peak_rss_mb` is per workload), untraced and — with
//! `--trace` — traced, every metric printed by name with its unit, and the
//! record `--compare` reads written to `--out`.

use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::workloads::Workload;
use crate::Args;

/// Runs one workload in a child process and returns its record: the
/// contract's result line plus the detail line, tagged with the workload.
fn run_child(workload: Workload, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // `main` already removed every DAISY_* variable from this process, so
    // the child inherits none.
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result_line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(result_line)?;
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .map(Json::parse)
        .transpose()?
        .unwrap_or(Json::Null);
    let mut record = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("trace".to_string(), Json::Num(f64::from(u8::from(trace)))),
        ("exit_ok".to_string(), Json::Bool(output.status.success())),
    ];
    record.extend(result.fields().iter().cloned());
    record.push(("detail".to_string(), detail));
    Ok(Json::Obj(record))
}

fn print_record(record: &Json) {
    let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?");
    let traced = record.get("trace").and_then(Json::as_f64) == Some(1.0);
    println!(
        "== {workload} ({}) correct={} attempted={} failed={}",
        if traced { "traced" } else { "untraced" },
        record.get("correct").map_or("?".into(), Json::render),
        record.get("attempted").map_or("?".into(), Json::render),
        record.get("failed").map_or("?".into(), Json::render),
    );
    for (name, metric) in record.get("metrics").map_or(&[][..], Json::fields) {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<40} {value:>16.6} {unit}");
    }
}

pub fn main(args: &Args) -> ExitCode {
    let mut records = Vec::new();
    let mut all_ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(workload, args, trace) {
                Ok(record) => {
                    print_record(&record);
                    all_ok &= record.get("exit_ok") == Some(&Json::Bool(true));
                    records.push(record);
                }
                Err(err) => {
                    eprintln!("{}: {err}", workload.name());
                    all_ok = false;
                }
            }
        }
    }
    if let Some(path) = &args.out {
        // One run per line, so the record diffs and greps well.
        let mut text = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n",
            args.seed, args.seconds
        );
        let lines: Vec<String> = records.iter().map(Json::render).collect();
        text.push_str(&lines.join(",\n"));
        text.push_str("\n]}\n");
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {err}");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
