//! `whyq-benchmark` — time from failing query to explanation, layer by
//! layer, on four named workloads. See `README.md` beside this crate.
//!
//! ```text
//! whyq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--smoke] [--repeat R] [--out FILE]
//! whyq-benchmark compare A.json B.json
//! ```
//!
//! `run --workload NAME` measures one workload in this process and prints
//! its result object as the last line of stdout (the driver's contract).
//! Without `--workload`, `run` measures all four, each in a process of its
//! own so that its memory figures are that workload's alone, `--repeat`
//! times over, and writes the collected result objects to `--out`
//! (`out/result.json` by default) for `compare`; repeat `r` runs with seed
//! `--seed` + `r`. `--smoke` shrinks every run (200 persons, 1/50 of the
//! time) and, without `--workload`, runs each workload both untraced and
//! traced.

mod cold;
mod compare;
mod corpus;
mod harness;
mod json;
mod layers;
mod report;
mod serve;
mod trace;
mod util;
mod why;

pub use harness::Workload;

use harness::RunConfig;
use std::process::{Command, ExitCode};
use trace::Spans;

/// Product defaults only: a run under either variable would measure a
/// configuration no user gets by default.
const FORBIDDEN_ENV: [&str; 2] = ["WHYQ_THREADS", "WHYQ_NO_SIBLING_CACHE"];

fn usage() -> String {
    "usage: whyq-benchmark run [--workload why-empty|why-card|match-cold|serve] [--seed N] \
     [--seconds S] [--trace 0|1] [--smoke] [--repeat R] [--out FILE]\n       \
     whyq-benchmark compare A.json B.json"
        .to_string()
}

#[derive(Debug)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: 28.0,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("invalid {flag}: {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v.parse().map_err(|_| bad(v))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                parsed.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    // bare `--trace` is the traced run
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                let v = value()?;
                parsed.repeat = v.parse().map_err(|_| bad(v))?;
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Measure one workload in this process.
fn run_one(cfg: &RunConfig) -> report::Outcome {
    let mut spans = Spans::new();
    let outcome = match cfg.workload {
        Workload::WhyEmpty => why::run_why_empty(cfg, &mut spans),
        Workload::WhyCard => why::run_why_card(cfg, &mut spans),
        Workload::MatchCold => cold::run(cfg, &mut spans),
        Workload::Serve => serve::run(cfg, &mut spans),
    };
    if cfg.trace {
        let path = harness::out_dir().join(format!("trace-{}.json", cfg.workload.name()));
        spans.write(&path).expect("write trace file");
        println!(
            "# {} spans written to {}",
            spans.all().len(),
            path.display()
        );
    }
    outcome
}

/// Measure every workload `repeat` times, one child process per run, and
/// collect the result objects.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    // the smoke run exercises the trace writer too
    let traces = if args.smoke {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let each = Workload::ALL
        .into_iter()
        .flat_map(|w| traces.iter().map(move |&t| (w, t)));
    // repeat r runs seed + r, as the driver gives every run another seed
    for seed in (args.seed..).take(args.repeat) {
        for (workload, trace) in each.clone() {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            let output = child.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout.lines().last().unwrap_or_default();
            if json::Json::parse(result).is_err() {
                return Err(format!(
                    "{} printed no result: {}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            all_correct &= output.status.success();
            runs.push(format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}",
                workload.name(),
                seed,
                u8::from(trace)
            ));
        }
    }
    let path = args.out.as_ref().map_or_else(
        || harness::out_dir().join("result.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let body = format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
    std::fs::write(&path, body).map_err(|e| e.to_string())?;
    println!("# {} runs written to {}", runs.len(), path.display());
    Ok(all_correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set: the benchmark measures product defaults only"
        ));
    }
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    println!(
        "# effective_threads {} (nproc), seed {}, {} persons, passes of {} operations",
        whyquery::session::ParallelOpts::default().effective_threads(),
        cfg.seed,
        cfg.persons(),
        cfg.pass_ops()
    );
    let outcome = run_one(&cfg);
    outcome.print(workload.name(), cfg.trace);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::run(rest),
        _ => Err(usage()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a =
            parse_run_args(&args("--workload why-card --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::WhyCard));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        let a = parse_run_args(&args("--trace --smoke")).unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert!(!parse_run_args(&args("--trace 0")).unwrap().trace);
        assert!(parse_run_args(&args("--workload nope")).is_err());
        assert!(parse_run_args(&args("--seconds 0")).is_err());
        assert!(parse_run_args(&args("--seed")).is_err());
    }

    /// All four workloads and the trace writer, at smoke size.
    #[test]
    fn smoke_runs_every_workload_traced_and_untraced() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload,
                    seed: 5,
                    seconds: 10.0,
                    trace,
                    smoke: true,
                };
                let outcome = run_one(&cfg);
                assert_eq!(outcome.failed, 0, "{} trace={trace}", workload.name());
                assert!(outcome.attempted > 0);
                // prints every metric of its catalogue
                let line = outcome.to_json(trace);
                assert!(json::Json::parse(&line).is_ok());
                if trace {
                    let ratio = outcome.get("trace.overhead_ratio").expect("overhead");
                    assert!(ratio > 0.0);
                    let file = harness::out_dir().join(format!("trace-{}.json", workload.name()));
                    let spans = json::Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
                    assert!(!spans.as_array().unwrap().is_empty());
                }
            }
        }
    }
}
