//! The two explanation workloads: `why-empty` (DISCOVERMCS + coarse
//! relaxation of a failing query) and `why-card` (classify + BOUNDEDMCS +
//! TRAVERSESEARCHTREE of a query that misses a cardinality goal), each pass
//! on one `WhyEngine` over a freshly opened database.

use crate::corpus;
use crate::harness::{self, CounterDelta, Counters, RunConfig};
use crate::layers;
use crate::report::{ratio, Outcome};
use crate::trace::{Open, Spans};
use crate::util::{percentile, sorted};
use std::collections::HashMap;
use whyquery::core::engine::Diagnosis;
use whyquery::core::relax::{CoarseRewriter, RelaxConfig};
use whyquery::core::{
    CardinalityGoal, ModificationExplanation, SubgraphExplanation, WhyEngine, WhyProblem,
};
use whyquery::matcher::reference::count_matches_naive;
use whyquery::matcher::MatchOptions;
use whyquery::query::PatternQuery;
use whyquery::session::{Database, WhyqError};

/// Warm-up operations of one set-up: the first four templates, which
/// leaves out the long paths, the costliest by far — set-up time should
/// show what set-up costs, not what its warm-up queries cost.
const WARM_UP: usize = 4;

/// The reference matcher's counts, remembered by query and cap: passes
/// repeat their queries, and mostly their answers with them.
struct Oracle<'db> {
    db: &'db Database,
    counts: HashMap<(String, u64), u64>,
}

impl<'db> Oracle<'db> {
    fn new(db: &'db Database) -> Self {
        Oracle {
            db,
            counts: HashMap::new(),
        }
    }

    fn count(&mut self, q: &PatternQuery, cap: u64) -> u64 {
        let g = self.db.graph();
        *self
            .counts
            .entry((q.signature(), cap))
            .or_insert_with(|| count_matches_naive(g, q, MatchOptions::counting(Some(cap))))
    }

    /// A reported MCS must be complete and have at least one oracle match.
    /// BOUNDEDMCS may report the empty MCS — no subquery, not even one
    /// vertex, meets the bound — which leaves nothing to re-execute;
    /// DISCOVERMCS may not, since some vertex of every generated query
    /// matches.
    fn mcs_holds(&mut self, sub: &SubgraphExplanation, may_be_empty: bool) -> bool {
        let empty = sub.mcs.num_vertices() == 0;
        sub.termination.is_complete() && ((empty && may_be_empty) || self.count(&sub.mcs, 1) >= 1)
    }

    /// A rewrite, re-executed from scratch by the oracle, must meet its
    /// goal.
    fn rewrite_holds(&mut self, rw: &ModificationExplanation, goal: CardinalityGoal) -> bool {
        goal.satisfied(self.count(&rw.query, goal.threshold() + 1))
    }
}

fn p50_p95(out: &mut Outcome, spans: &Spans, span: &str, p50: &'static str, p95: &'static str) {
    let s = sorted(spans.durations_ms(span));
    out.set(p50, percentile(&s, 50.0));
    out.set(p95, percentile(&s, 95.0));
}

fn report_mcs_work(out: &mut Outcome, subs: &[&SubgraphExplanation]) {
    let mean = |f: fn(&SubgraphExplanation) -> f64| {
        ratio(subs.iter().map(|s| f(s)).sum(), subs.len() as f64)
    };
    out.set("core.mcs_extensions_per_op", mean(|s| s.extensions as f64));
    out.set("core.mcs_paths_per_op", mean(|s| s.paths_tried as f64));
}

type EmptyAnswer = Result<(SubgraphExplanation, Option<ModificationExplanation>), WhyqError>;

fn explain_empty(
    engine: &WhyEngine<'_>,
    q: &PatternQuery,
    spans: &mut Spans,
    id: usize,
    op: Open,
) -> EmptyAnswer {
    let id = id as u32;
    let sub = spans.time("core.discover", id, op, || engine.why_empty(q))?;
    let rw = spans.time("core.relax", id, op, || {
        engine.rewrite(q, CardinalityGoal::NonEmpty)
    })?;
    Ok((sub, rw))
}

/// `answers` are those of whole passes over `queries`.
fn check_empty(
    db: &Database,
    queries: &[PatternQuery],
    answers: &[EmptyAnswer],
    out: &mut Outcome,
) {
    let mut oracle = Oracle::new(db);
    for (i, answer) in answers.iter().enumerate() {
        let verdict = match answer {
            Err(e) => Err(e.to_string()),
            Ok((sub, _)) if !oracle.mcs_holds(sub, false) => Err("MCS fails the oracle".into()),
            Ok((_, None)) => Err("no rewrite found".into()),
            Ok((_, Some(rw))) if !oracle.rewrite_holds(rw, CardinalityGoal::NonEmpty) => {
                Err("rewrite is empty under the oracle".into())
            }
            Ok(_) => Ok(()),
        };
        if let Err(why) = verdict {
            let q = &queries[i % queries.len()];
            out.fail(format!("op {i}: {why}: {}", corpus::render(q)));
        }
    }
}

pub fn run_why_empty(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let mut warm = |db: Database| {
        let engine = WhyEngine::new(&db);
        let mut off = Spans::new();
        for (i, q) in corpus::why_empty(&db, "warm-up", WARM_UP)
            .iter()
            .enumerate()
        {
            let _ = explain_empty(&engine, q, &mut off, i, None);
        }
        db
    };
    let (db, setup) = harness::setup(cfg, &mut warm);
    let queries = corpus::why_empty(&db, "timed", cfg.pass_ops());
    // a traced section is sized beforehand, an untraced one by the clock
    let n = cfg.passes() * queries.len();
    let mut out = Outcome::new(n);
    let mut answers: Vec<EmptyAnswer> = Vec::with_capacity(n);
    let mut db = Some(db);

    if !cfg.trace {
        let passes = harness::measure_passes(cfg.timed_seconds(), |pass| {
            let engine = WhyEngine::new(harness::reopen(&mut db));
            harness::time_pass(pass, queries.len(), |i| {
                answers.push(explain_empty(&engine, &queries[i], spans, i, None));
            })
        });
        let db = db.expect("reopened");
        check_empty(&db, &queries, &answers, &mut out);
        harness::end_to_end(&mut out, &setup, &passes, passes.closed_loop_ops_per_s());
        return out;
    }

    let mut twin = Some(harness::setup(cfg, &mut warm).0);
    let mut lat = harness::Latencies::default();
    let mut delta = CounterDelta::default();
    for pass in 0..cfg.passes() {
        let db = harness::reopen(&mut db);
        let engines = [
            &WhyEngine::new(db),
            &WhyEngine::new(harness::reopen(&mut twin)),
        ];
        let before = Counters::of(db);
        harness::measure_twins(
            pass,
            queries.len(),
            spans,
            &mut lat,
            |world, i, spans, op| {
                let id = pass * queries.len() + i;
                let answer = explain_empty(engines[world], &queries[i], spans, id, op);
                if spans.on {
                    answers.push(answer);
                }
            },
        );
        delta += Counters::of(db).since(&before);
    }
    let db = db.expect("reopened");
    check_empty(&db, &queries, &answers, &mut out);

    harness::report_graph(&mut out, &setup.graph);
    harness::report_trace_overhead(&mut out, &lat);
    delta.report(&mut out, n);
    p50_p95(
        &mut out,
        spans,
        "core.discover",
        "core.discover_ms_p50",
        "core.discover_ms_p95",
    );
    p50_p95(
        &mut out,
        spans,
        "core.relax",
        "core.relax_ms_p50",
        "core.relax_ms_p95",
    );
    let subs: Vec<&SubgraphExplanation> = answers.iter().flatten().map(|(sub, _)| sub).collect();
    report_mcs_work(&mut out, &subs);
    let found = answers
        .iter()
        .filter(|a| matches!(a, Ok((_, Some(_)))))
        .count();
    out.set("core.found_ratio", found as f64 / answers.len() as f64);

    // `WhyEngine::rewrite` keeps the relax loop's counters to itself, so
    // they are read off a second, untimed relaxation of every query
    let (mut executed, mut generated, mut hits, mut lookups) = (0.0, 0.0, 0.0, 0.0);
    let (mut stat_lookups, mut stat_misses) = (0.0, 0.0);
    for q in &queries {
        let rewriter = CoarseRewriter::new(&db);
        let relaxed = rewriter.rewrite(q, &RelaxConfig::default());
        executed += relaxed.executed as f64;
        generated += relaxed.generated as f64;
        hits += relaxed.cache.hits as f64;
        lookups += relaxed.cache.lookups as f64;
        let (l, m) = rewriter.stats().counters();
        stat_lookups += l as f64;
        stat_misses += m as f64;
    }
    out.set(
        "core.relax_executed_per_op",
        executed / queries.len() as f64,
    );
    out.set("core.relax_exec_ratio", ratio(executed, generated));
    out.set("core.relax_cache_hit_ratio", ratio(hits, lookups));
    out.set("core.stat_miss_ratio", ratio(stat_misses, stat_lookups));

    // the relax loop's probes are relaxations of the failing queries: the
    // accepted rewrites (of one pass: the others repeat them) stand in for
    // them in the stage replay
    let probes: Vec<PatternQuery> = answers[..queries.len()]
        .iter()
        .flatten()
        .filter_map(|(_, rw)| rw.as_ref().map(|rw| rw.query.clone()))
        .collect();
    layers::replay(cfg, &db, &layers::sample(cfg, &probes), None).report(
        &mut out,
        &delta,
        0.0,
        lat.traced_wall_us(),
    );
    out
}

type CardAnswer = Result<Diagnosis, WhyqError>;

/// `WhyEngine::diagnose`, one public call at a time.
fn diagnose_in_stages(
    engine: &WhyEngine<'_>,
    q: &PatternQuery,
    goal: CardinalityGoal,
    spans: &mut Spans,
    id: u32,
    op: Open,
) -> CardAnswer {
    let cardinality = spans.time("core.classify", id, op, || engine.cardinality(q))?;
    let problem = goal.classify(cardinality);
    let (subgraph, rewrite) = if problem == WhyProblem::Satisfied {
        (None, None)
    } else {
        let sub = spans.time("core.bounded", id, op, || {
            engine.subgraph_explanation(q, goal)
        })?;
        let rw = spans.time("core.fine", id, op, || engine.rewrite(q, goal))?;
        (Some(sub), rw)
    };
    Ok(Diagnosis {
        problem,
        cardinality,
        subgraph,
        rewrite,
    })
}

/// The fine rewriter works under a budget of 300 executed candidates and
/// documents running out of it as an answer without a rewrite; on roughly
/// one generated query in two thousand it does. Such an answer is a failed
/// operation once more than this share of a run's operations lack a
/// rewrite — twenty times what the seed commit shows — and a note below it.
const NO_REWRITE_ALLOWANCE: f64 = 0.01;
/// The same on the 200-person smoke graph, where goals of one to eight
/// answers are common and a few percent of them exhaust the budget.
const SMOKE_NO_REWRITE_ALLOWANCE: f64 = 0.05;

/// `answers` are those of whole passes over `queries`.
fn check_card(
    cfg: &RunConfig,
    db: &Database,
    queries: &[(PatternQuery, CardinalityGoal)],
    answers: &[CardAnswer],
    out: &mut Outcome,
) {
    let allowance = if cfg.smoke {
        SMOKE_NO_REWRITE_ALLOWANCE
    } else {
        NO_REWRITE_ALLOWANCE
    };
    let mut without_rewrite = Vec::new();
    let mut oracle = Oracle::new(db);
    for (i, (answer, (q, goal))) in answers.iter().zip(queries.iter().cycle()).enumerate() {
        let verdict = match answer {
            Err(e) => Err(e.to_string()),
            Ok(d) => match (&d.subgraph, &d.rewrite) {
                (None, _) => Err("no subgraph explanation".to_string()),
                (Some(sub), _) if !oracle.mcs_holds(sub, true) => {
                    Err("MCS fails the oracle".to_string())
                }
                (_, None) => {
                    without_rewrite.push(i);
                    Ok(())
                }
                (_, Some(rw)) if !oracle.rewrite_holds(rw, *goal) => {
                    Err("rewrite misses the goal under the oracle".to_string())
                }
                _ => Ok(()),
            },
        };
        if let Err(why) = verdict {
            out.fail(format!("op {i}: {why}: {goal:?} on {}", corpus::render(q)));
        }
    }
    if without_rewrite.len() as f64 > allowance * answers.len() as f64 {
        for i in &without_rewrite {
            let (q, goal) = &queries[*i % queries.len()];
            out.fail(format!(
                "op {i}: no rewrite found: {goal:?} on {}",
                corpus::render(q)
            ));
        }
    } else if !without_rewrite.is_empty() {
        out.notes.push(format!(
            "operations {without_rewrite:?} exhausted the fine rewriter's budget without a \
             rewrite (within the allowance)"
        ));
    }
}

pub fn run_why_card(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let mut warm = |db: Database| {
        let engine = WhyEngine::new(&db);
        for (q, goal) in corpus::why_card(&db, "warm-up", WARM_UP) {
            let _ = engine.diagnose(&q, goal);
        }
        db
    };
    let (db, setup) = harness::setup(cfg, &mut warm);
    let queries = corpus::why_card(&db, "timed", cfg.pass_ops());
    let n = cfg.passes() * queries.len();
    let mut out = Outcome::new(n);
    let mut answers: Vec<CardAnswer> = Vec::with_capacity(n);
    let mut db = Some(db);

    if !cfg.trace {
        let passes = harness::measure_passes(cfg.timed_seconds(), |pass| {
            let engine = WhyEngine::new(harness::reopen(&mut db));
            harness::time_pass(pass, queries.len(), |i| {
                answers.push(engine.diagnose(&queries[i].0, queries[i].1));
            })
        });
        let db = db.expect("reopened");
        check_card(cfg, &db, &queries, &answers, &mut out);
        harness::end_to_end(&mut out, &setup, &passes, passes.closed_loop_ops_per_s());
        return out;
    }

    // the untraced operation is the engine's own `diagnose`; the traced one
    // makes the same calls in the same order with a span around each
    let mut twin = Some(harness::setup(cfg, &mut warm).0);
    let mut lat = harness::Latencies::default();
    let mut delta = CounterDelta::default();
    for pass in 0..cfg.passes() {
        let db = harness::reopen(&mut db);
        let engines = [
            &WhyEngine::new(db),
            &WhyEngine::new(harness::reopen(&mut twin)),
        ];
        let before = Counters::of(db);
        harness::measure_twins(
            pass,
            queries.len(),
            spans,
            &mut lat,
            |world, i, spans, op| {
                let (q, goal) = &queries[i];
                if spans.on {
                    let id = (pass * queries.len() + i) as u32;
                    answers.push(diagnose_in_stages(engines[world], q, *goal, spans, id, op));
                } else {
                    drop(engines[world].diagnose(q, *goal));
                }
            },
        );
        delta += Counters::of(db).since(&before);
    }
    let db = db.expect("reopened");
    check_card(cfg, &db, &queries, &answers, &mut out);

    harness::report_graph(&mut out, &setup.graph);
    harness::report_trace_overhead(&mut out, &lat);
    delta.report(&mut out, n);
    let classify = sorted(spans.durations_ms("core.classify"));
    out.set("core.classify_ms_p50", percentile(&classify, 50.0));
    p50_p95(
        &mut out,
        spans,
        "core.bounded",
        "core.bounded_ms_p50",
        "core.bounded_ms_p95",
    );
    p50_p95(
        &mut out,
        spans,
        "core.fine",
        "core.fine_ms_p50",
        "core.fine_ms_p95",
    );
    let subs: Vec<&SubgraphExplanation> = answers
        .iter()
        .flatten()
        .filter_map(|d| d.subgraph.as_ref())
        .collect();
    report_mcs_work(&mut out, &subs);
    let found = answers
        .iter()
        .filter(|a| matches!(a, Ok(d) if d.rewrite.is_some()))
        .count();
    out.set("core.found_ratio", found as f64 / answers.len() as f64);

    let probes: Vec<PatternQuery> = queries.iter().map(|(q, _)| q.clone()).collect();
    layers::replay(cfg, &db, &layers::sample(cfg, &probes), None).report(
        &mut out,
        &delta,
        0.0,
        lat.traced_wall_us(),
    );
    out
}
