//! `compare A.json B.json`: the A/A and before/after judge.
//!
//! Both files come from `run` without `--workload` (use `--repeat` for
//! several runs per workload). For every workload × end-to-end metric it
//! prints both medians, the relative gap in the metric's worse direction
//! and the bound from `BENCHMARK.json`. Where either side's spread
//! (interquartile range over median, as the driver takes it) exceeds the
//! bound the pairing is `unresolved`, not unchanged. A gap beyond the
//! bound is a breach and makes the command exit non-zero.

use crate::json::Json;
use crate::util::{median, quartiles};
use crate::Workload;
use std::collections::BTreeMap;

/// `(unit, lower is better, bound)` per end-to-end metric, in file order.
fn end_to_end_spec() -> Vec<(String, String, bool, f64)> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            let text = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (text("name"), text("unit"), text("better") == "lower", bound)
        })
        .collect()
}

/// `workload → metric → values` of the untraced runs of one result file.
fn load(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" list"))?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no value"))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Interquartile range over median; 0 for fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Unresolved,
    Breach,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let gap = worsening(median(a), median(b), lower_is_better);
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if gap > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    };
    (gap, verdict)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err(crate::usage());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = end_to_end_spec();
    let mut ok = true;
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound"
    );
    for workload in Workload::ALL {
        for (metric, unit, lower, bound) in &spec {
            let (lower, bound) = (*lower, *bound);
            let side = |runs: &BTreeMap<String, BTreeMap<String, Vec<f64>>>, path: &str| {
                runs.get(workload.name())
                    .and_then(|m| m.get(metric))
                    .cloned()
                    .ok_or_else(|| format!("{path}: no {metric} for {}", workload.name()))
            };
            let (va, vb) = (side(&a, a_path)?, side(&b, b_path)?);
            let (gap, verdict) = judge(&va, &vb, lower, bound);
            ok &= verdict != Verdict::Breach;
            println!(
                "{:<11} {:<15} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {} ({unit}; n={}/{}, spread {:.1}%/{:.1}%)",
                workload.name(),
                metric,
                median(&va),
                median(&vb),
                gap * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Breach => "BREACH",
                },
                va.len(),
                vb.len(),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_are_judged_in_the_metrics_worse_direction() {
        // latency up 20 % against a 10 % bound: breach; down: fine
        assert_eq!(judge(&[10.0], &[12.0], true, 0.1).1, Verdict::Breach);
        assert_eq!(judge(&[10.0], &[8.0], true, 0.1).1, Verdict::Within);
        // throughput down 20 %: breach; up: fine
        assert_eq!(judge(&[100.0], &[80.0], false, 0.1).1, Verdict::Breach);
        assert_eq!(judge(&[100.0], &[120.0], false, 0.1).1, Verdict::Within);
        let (gap, _) = judge(&[100.0], &[80.0], false, 0.1);
        assert!((gap - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved_not_unchanged() {
        let noisy = [6.0, 8.0, 10.0, 12.0, 14.0];
        let steady = [10.0, 10.1, 10.0, 9.9, 10.0];
        assert_eq!(judge(&noisy, &steady, true, 0.1).1, Verdict::Unresolved);
        assert_eq!(judge(&steady, &steady, true, 0.1).1, Verdict::Within);
    }

    #[test]
    fn every_end_to_end_metric_carries_a_bound_of_at_most_a_quarter() {
        let spec = end_to_end_spec();
        assert!(spec.iter().any(|(n, ..)| n == "setup_s"));
        assert!(spec
            .iter()
            .all(|(.., bound)| *bound > 0.0 && *bound <= 0.25));
    }
}
