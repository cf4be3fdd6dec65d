//! The metric catalogue — names and units, mirrored by `BENCHMARK.json` —
//! and the one place results are printed.

use std::collections::BTreeMap;

/// What a user of the system sees. `setup_s` aside, every value is taken
/// over the timed section of one workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_rss_mb", "MB"),
];

/// Single-layer diagnostics of the traced run. A metric whose layer the
/// workload does not call (`core.*` outside the why workloads, `server.*`
/// outside `serve`) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("graph.load_ms", "ms"),
    ("graph.open_ms", "ms"),
    ("graph.rss_bytes_per_edge", "B"),
    ("query.parse_us", "us"),
    ("query.analyze_us", "us"),
    ("query.signature_us", "us"),
    ("query.delta_us", "us"),
    ("matcher.compile_us", "us"),
    ("matcher.lower_opt_encode_us", "us"),
    ("matcher.derive_us", "us"),
    ("matcher.exec_count_us", "us"),
    ("matcher.exec_find_us", "us"),
    ("matcher.seed_us", "us"),
    ("matcher.oracle_speedup", "ratio"),
    ("session.prepare_miss_us", "us"),
    ("session.prepare_hit_us", "us"),
    ("session.count_exec_us", "us"),
    ("session.count_replay_us", "us"),
    ("session.find_exec_us", "us"),
    ("session.find_replay_us", "us"),
    ("session.compiles_per_op", "count"),
    ("session.plan_hit_ratio", "ratio"),
    ("session.plan_evictions", "count"),
    ("session.sibling_hit_ratio", "ratio"),
    ("session.sibling_evictions", "count"),
    ("session.derived_plans", "count"),
    ("session.par_count_ratio", "ratio"),
    ("session.par_find_ratio", "ratio"),
    ("core.discover_ms_p50", "ms"),
    ("core.discover_ms_p95", "ms"),
    ("core.relax_ms_p50", "ms"),
    ("core.relax_ms_p95", "ms"),
    ("core.mcs_extensions_per_op", "count"),
    ("core.mcs_paths_per_op", "count"),
    ("core.relax_executed_per_op", "count"),
    ("core.relax_exec_ratio", "ratio"),
    ("core.relax_cache_hit_ratio", "ratio"),
    ("core.stat_miss_ratio", "ratio"),
    ("core.classify_ms_p50", "ms"),
    ("core.bounded_ms_p50", "ms"),
    ("core.bounded_ms_p95", "ms"),
    ("core.fine_ms_p50", "ms"),
    ("core.fine_ms_p95", "ms"),
    ("core.found_ratio", "ratio"),
    ("metrics.syntactic_us", "us"),
    ("server.codec_us", "us"),
    ("server.rtt_floor_us", "us"),
    ("server.exec_direct_us", "us"),
    ("server.overhead_us_p50", "us"),
    ("server.batch_wait_est_us", "us"),
    ("server.batched_ratio", "ratio"),
    ("server.shed", "count"),
    ("server.degraded", "count"),
    ("server.protocol_errors", "count"),
    ("server.latency_ms_p99", "ms"),
    ("server.gen_late_us_p95", "us"),
    ("layers.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("latency_ms_p95", "ms"),
    ("process.peak_rss_mb", "MB"),
];

/// `a / b`, 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that errored, ended with a non-`Complete` termination,
    /// were shed, produced no explanation, or failed the oracle check.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: usize) -> Outcome {
        Outcome {
            attempted: attempted as u64,
            ..Outcome::default()
        }
    }

    /// Count one failed operation; the first few reasons are printed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED {why}"));
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite");
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then the result object.
    pub fn print(&self, workload: &str, trace: bool) {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        println!(
            "# {workload}: {} operations attempted, {} failed",
            self.attempted, self.failed
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, unit) in catalogue {
            match self.get(name) {
                Some(v) => println!("{name:<32} {v:>14.4} {unit}"),
                None => println!("{name:<32} {:>14} {unit}", "-"),
            }
        }
        println!("{}", self.to_json(trace));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` and the catalogue must name the same metrics with
    /// the same units, or the driver reads metrics the runs do not print.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(3);
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let j = Json::parse(&o.to_json(false)).unwrap();
        let Json::Obj(map) = &j else { panic!() };
        assert_eq!(
            map.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        // a traced run prints every per-layer metric, measured or not
        let Some(Json::Obj(layers)) = Json::parse(&o.to_json(true))
            .unwrap()
            .get("metrics")
            .cloned()
        else {
            panic!()
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
