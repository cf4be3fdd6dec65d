//! The stage replay of a traced run: every sampled query of the workload
//! goes through `query` → `matcher` → `session` one public call at a time,
//! and each call is timed from outside. The medians are unit costs; with
//! the counters of the timed section they give `layers.attributed_ratio`,
//! an estimate of how much of the wall time the stages explain. What is
//! left needs spans inside the program.

use crate::corpus::{self, Domains};
use crate::harness::{CounterDelta, RunConfig};
use crate::report::{ratio, Outcome};
use crate::util::{median, us, Rng};
use std::hint::black_box;
use std::time::Instant;
use whyquery::matcher::compile::{build_plans_est, Compiled};
use whyquery::matcher::optimize::{optimize, PassSet};
use whyquery::matcher::plan_ir::lower;
use whyquery::matcher::reference::count_matches_naive;
use whyquery::matcher::{derive_sibling, MatchOptions, Matcher, QueryProgram};
use whyquery::metrics::syntactic::syntactic_distance;
use whyquery::query::{analyze_against, parse_query, DeltaKind, PatternQuery, QueryDelta};
use whyquery::session::{Database, DatabaseConfig, ParallelOpts};

/// Count cap of the relax loop's probes (`RelaxConfig::count_limit`).
const COUNT_CAP: u64 = 10_000;
/// Row cap of `match-cold` and of the server (`ServerConfig::max_rows`).
const FIND_CAP: usize = 1000;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, us(t.elapsed()))
}

/// Median of the samples of one stage; 0 when no sampled query reached it.
fn med(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

#[derive(Debug, Default)]
pub struct StageCosts {
    pub parse_us: f64,
    analyze_us: f64,
    signature_us: f64,
    delta_us: f64,
    compile_us: f64,
    lower_opt_encode_us: f64,
    derive_us: f64,
    exec_count_us: f64,
    exec_find_us: f64,
    seed_us: f64,
    oracle_speedup: f64,
    prepare_miss_us: f64,
    prepare_hit_us: f64,
    count_exec_us: f64,
    count_replay_us: f64,
    find_exec_us: f64,
    find_replay_us: f64,
    par_count_ratio: f64,
    par_find_ratio: f64,
    syntactic_us: f64,
    sampled: usize,
}

impl StageCosts {
    /// Set the stage metrics and `layers.attributed_ratio`. `other_us` is
    /// time of the timed section the caller attributes to stages the
    /// database's counters do not see (parsing, the wire).
    pub fn report(&self, out: &mut Outcome, delta: &CounterDelta, other_us: f64, wall_us: f64) {
        out.set("query.parse_us", self.parse_us);
        out.set("query.analyze_us", self.analyze_us);
        out.set("query.signature_us", self.signature_us);
        out.set("query.delta_us", self.delta_us);
        out.set("matcher.compile_us", self.compile_us);
        out.set("matcher.lower_opt_encode_us", self.lower_opt_encode_us);
        out.set("matcher.derive_us", self.derive_us);
        out.set("matcher.exec_count_us", self.exec_count_us);
        out.set("matcher.exec_find_us", self.exec_find_us);
        out.set("matcher.seed_us", self.seed_us);
        out.set("matcher.oracle_speedup", self.oracle_speedup);
        out.set("session.prepare_miss_us", self.prepare_miss_us);
        out.set("session.prepare_hit_us", self.prepare_hit_us);
        out.set("session.count_exec_us", self.count_exec_us);
        out.set("session.count_replay_us", self.count_replay_us);
        out.set("session.find_exec_us", self.find_exec_us);
        out.set("session.find_replay_us", self.find_replay_us);
        out.set("session.par_count_ratio", self.par_count_ratio);
        out.set("session.par_find_ratio", self.par_find_ratio);
        out.set("metrics.syntactic_us", self.syntactic_us);
        let pruned = (delta.plan_misses - delta.compiles - delta.derived_plans).max(0.0);
        let attributed = delta.compiles * self.prepare_miss_us
            + delta.derived_plans * (self.analyze_us + self.derive_us)
            + pruned * self.analyze_us
            + delta.plan_hits * self.prepare_hit_us
            + delta.sibling_insertions * self.count_exec_us
            + delta.sibling_hits * self.count_replay_us
            + other_us;
        out.set("layers.attributed_ratio", ratio(attributed, wall_us));
        out.notes.push(format!(
            "stage replay over {} of the workload's queries; attributed_ratio is an estimate",
            self.sampled
        ));
    }
}

/// An evenly spaced sample of a workload's queries, small enough for the
/// replay to take a second or two.
pub fn sample<T: Clone>(cfg: &RunConfig, items: &[T]) -> Vec<T> {
    let want = if cfg.smoke { 8 } else { 64 };
    let step = items.len().div_ceil(want).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// Time the stages on `probes`. `texts`, when the workload sends text, are
/// the probes' own texts.
pub fn replay(
    cfg: &RunConfig,
    db: &Database,
    probes: &[PatternQuery],
    texts: Option<&[String]>,
) -> StageCosts {
    if probes.is_empty() {
        return StageCosts::default();
    }
    let g = db.graph();
    let indexes = db.indexes().to_vec();
    let matcher = Matcher::with_shared_indexes(g, indexes.clone());
    let dom = Domains::scan(g);
    let mut rng = Rng::new(cfg.seed, "stage-replay");

    let mut s: [Vec<f64>; 11] = Default::default();
    let [parse, analyze, signature, delta, compile, lower_enc, derive, exec_count, exec_find, seed, syntactic] =
        &mut s;
    let (mut vm_total, mut oracle_total) = (0.0, 0.0);
    let mut heaviest: Option<(f64, usize)> = None;
    for (i, q) in probes.iter().enumerate() {
        let text = texts.map_or_else(|| corpus::render(q), |t| t[i].clone());
        parse.push(timed(|| parse_query(&text)).1);
        let (analysis, t) = timed(|| analyze_against(q, g));
        analyze.push(t);
        signature.push(timed(|| q.signature()).1);
        let sibling = corpus::nudge_one_constant(q, &dom, &mut rng);
        if let Some(sib) = &sibling {
            delta.push(timed(|| QueryDelta::between(q, sib)).1);
            syntactic.push(timed(|| syntactic_distance(q, sib)).1);
        }
        if analysis.report.is_unsatisfiable() {
            continue;
        }
        let aq = &analysis.query;
        let ((compiled, (plans, est)), t) = timed(|| {
            let compiled = Compiled::new(g, aq);
            let planned = build_plans_est(g, aq, &compiled, &indexes);
            (compiled, planned)
        });
        if compiled.unsatisfiable() {
            continue;
        }
        compile.push(t);
        let (program, t) = timed(|| {
            let mut ir = lower(&compiled, &plans, &est);
            optimize(&mut ir, g, aq, &compiled, &indexes, PassSet::default());
            QueryProgram::from_ir(&ir)
        });
        lower_enc.push(t);
        if let Some(sib) = &sibling {
            if let DeltaKind::SingleInterval { target, attr } = QueryDelta::between(aq, sib).kind {
                let (derived, t) =
                    timed(|| derive_sibling(g, &indexes, &compiled, &program, sib, target, &attr));
                if derived.is_some() {
                    derive.push(t);
                }
            }
        }
        seed.push(
            timed(|| {
                for prog in program.components() {
                    black_box(matcher.seed_list_for(prog));
                }
            })
            .1,
        );
        let counting = || MatchOptions::counting(Some(COUNT_CAP));
        let (vm_count, t) = timed(|| matcher.count_compiled(aq, &compiled, &program, counting()));
        exec_count.push(t);
        vm_total += t;
        if heaviest.is_none_or(|(worst, _)| t > worst) {
            heaviest = Some((t, i));
        }
        let limited = MatchOptions::limited(FIND_CAP);
        exec_find.push(timed(|| matcher.find_compiled(aq, &compiled, &program, limited)).1);
        let (oracle_count, t) = timed(|| count_matches_naive(g, q, counting()));
        oracle_total += t;
        assert_eq!(vm_count, oracle_count, "VM and oracle disagree on {text}");
    }

    // session stages on a database of their own, so every first touch of a
    // query misses the plan cache and the sibling cache
    let fresh = Database::open(corpus::graph(cfg.persons())).expect("open database");
    let session = fresh.session();
    let mut t: [Vec<f64>; 6] = Default::default();
    let [prepare_miss, prepare_hit, count_exec, count_replay, find_exec, find_replay] = &mut t;
    for q in probes {
        prepare_miss.push(timed(|| session.prepare(q).map(drop)).1);
        let (prepared, hit) = timed(|| session.prepare(q).expect("generated queries are valid"));
        prepare_hit.push(hit);
        let counting = || MatchOptions::counting(Some(COUNT_CAP));
        count_exec.push(timed(|| prepared.count_opts(counting())).1);
        count_replay.push(timed(|| prepared.count_opts(counting())).1);
        let limited = || MatchOptions::limited(FIND_CAP);
        find_exec.push(timed(|| prepared.find_opts(limited())).1);
        find_replay.push(timed(|| prepared.find_opts(limited())).1);
    }

    // parallel against serial at default `ParallelOpts`, on the heaviest
    // sampled query, with the sibling cache off so that every run executes
    let (mut par_count_ratio, mut par_find_ratio) = (0.0, 0.0);
    if let Some((_, i)) = heaviest {
        let uncached = Database::open_with(
            corpus::graph(cfg.persons()),
            DatabaseConfig::default().sibling_cache_capacity(0),
        )
        .expect("open database");
        let session = uncached.session();
        let prepared = session
            .prepare(&probes[i])
            .expect("generated queries are valid");
        let reps = |f: &dyn Fn()| median(&(0..5).map(|_| timed(f).1).collect::<Vec<_>>());
        let par = ParallelOpts::default();
        let counting = || MatchOptions::counting(Some(COUNT_CAP));
        let serial = reps(&|| drop(prepared.count_opts(counting())));
        let sharded = reps(&|| drop(prepared.count_par_opts(counting(), &par)));
        par_count_ratio = ratio(sharded, serial);
        let limited = || MatchOptions::limited(FIND_CAP);
        let serial = reps(&|| drop(prepared.find_opts(limited())));
        let sharded = reps(&|| drop(prepared.find_par_opts(limited(), &par)));
        par_find_ratio = ratio(sharded, serial);
    }

    StageCosts {
        parse_us: med(parse),
        analyze_us: med(analyze),
        signature_us: med(signature),
        delta_us: med(delta),
        compile_us: med(compile),
        lower_opt_encode_us: med(lower_enc),
        derive_us: med(derive),
        exec_count_us: med(exec_count),
        exec_find_us: med(exec_find),
        seed_us: med(seed),
        oracle_speedup: ratio(oracle_total, vm_total),
        prepare_miss_us: med(prepare_miss),
        prepare_hit_us: med(prepare_hit),
        count_exec_us: med(count_exec),
        count_replay_us: med(count_replay),
        find_exec_us: med(find_exec),
        find_replay_us: med(find_replay),
        par_count_ratio,
        par_find_ratio,
        syntactic_us: med(syntactic),
        sampled: probes.len(),
    }
}
