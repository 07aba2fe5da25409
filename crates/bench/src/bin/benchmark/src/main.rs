//! The Daisy benchmark: six workloads, end-to-end metrics from untraced
//! passes, per-layer metrics from a traced run.  See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line
//! benchmark [--seed N] [--seconds S] [--trace] [--out PATH]    every workload, each in a child process
//! benchmark --compare A.json B.json                            verdict per (metric, workload)
//! benchmark --describe                                         the content of BENCHMARK.json
//! ```

mod checks;
mod compare;
mod describe;
mod gen;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
  benchmark [--seed N] [--seconds S] [--trace] [--out PATH]
  benchmark --compare A.json B.json
  benchmark --describe
workloads: sp_explore_fd dc_theta spj_mixed clean_read service_mem service_durable";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<String>,
    pub compare: Option<(String, String)>,
    pub describe: bool,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: f64::from(describe::RUN_SECONDS),
            trace: false,
            out: None,
            compare: None,
            describe: false,
        };
        let mut i = 0;
        let value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--workload" => {
                    let name = value(&mut i)?;
                    parsed.workload = Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => {
                    parsed.seed = value(&mut i)?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?;
                }
                "--seconds" => {
                    parsed.seconds = value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?;
                }
                "--trace" => {
                    // `--trace 0|1` (the driver's form) or a bare `--trace`.
                    match args.get(i + 1).map(String::as_str) {
                        Some("0") => {
                            parsed.trace = false;
                            i += 1;
                        }
                        Some("1") => {
                            parsed.trace = true;
                            i += 1;
                        }
                        _ => parsed.trace = true,
                    }
                }
                "--describe" => parsed.describe = true,
                "--out" => parsed.out = Some(value(&mut i)?.clone()),
                "--compare" => {
                    let a = value(&mut i)?.clone();
                    let b = value(&mut i)?.clone();
                    parsed.compare = Some((a, b));
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        Ok(parsed)
    }
}

/// Removes every `DAISY_*` variable from this process's environment (and so
/// from its children's): `DaisyConfig::default()` reads eight of them, and a
/// number must never silently come from a knobbed run.  Returns the names
/// removed.  Called first thing in `main`, before any thread exists.
fn clear_daisy_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("DAISY_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn main() -> ExitCode {
    let cleared_env = clear_daisy_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", describe::benchmark_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare::main(a, b);
    }
    let Some(workload) = args.workload else {
        return suite::main(&args);
    };

    let sizes = gen::SIZES;
    let result = if args.trace {
        probes::run_traced(workload, args.seed, args.seconds, &sizes, &cleared_env)
    } else {
        run::run_untraced(workload, args.seed, args.seconds, &sizes, &cleared_env)
    };
    for metric in &result.metrics {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!("detail {}", result.detail.render());
    println!("{}", result.contract_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: output checks failed, see check_failures in the detail line",
            workload.name()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_bare_trace_flag_both_parse() {
        let args = parse(&[
            "--workload",
            "dc_theta",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::DcTheta));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        let bare = parse(&["--trace", "--seed", "3"]).unwrap();
        assert!(bare.trace);
        assert_eq!(bare.seed, 3);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
