//! What the four workloads share: run configuration, building the
//! database the way `whyqd --graph` does, repeated set-up, the timed
//! section as passes over one set of operations, and the counters read off
//! the `Database` around a pass.

use crate::corpus;
use crate::report::{ratio, Outcome};
use crate::trace::{Open, Spans};
use crate::util::{median, ms, peak_rss_bytes, percentile, percentile_of, rss_bytes, sorted};
use std::path::PathBuf;
use std::time::Instant;
use whyquery::graph::io;
use whyquery::session::{CacheStats, Database, SiblingStats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WhyEmpty,
    WhyCard,
    MatchCold,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WhyEmpty,
        Workload::WhyCard,
        Workload::MatchCold,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WhyEmpty => "why-empty",
            Workload::WhyCard => "why-card",
            Workload::MatchCold => "match-cold",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per second the seed commit sustains on the 2-core
    /// reference box; for `serve`, the open-loop send rate of one
    /// connection. A traced run sizes its timed section by it; an untraced
    /// closed loop goes by the clock instead.
    fn rate(self) -> f64 {
        match self {
            Workload::WhyEmpty => 120.0,
            Workload::WhyCard => 42.0,
            Workload::MatchCold => 5000.0,
            Workload::Serve => SERVE_RATE_HZ,
        }
    }

    /// Operations of one pass (per connection for `serve`): whole strata of
    /// the corpus (template × fault count, template × factor,
    /// compile/derive pair). A timed section is as many passes as fit
    /// `--seconds`, and what an operation is charged is the fastest of its
    /// executions, so a pass is kept short enough for 20 to 50 of them. The
    /// `why-empty` pass is long enough to overflow the plan cache (256) within
    /// its first 30 operations and the sibling cache (1024) within its first
    /// 110; a `match-cold` pass holds enough texts for the seed that draws
    /// them to move their mean cost by 2 % or so.
    fn pass_ops(self) -> usize {
        match self {
            Workload::WhyEmpty => 12 * 14,
            Workload::WhyCard => 28,
            Workload::MatchCold => 4000,
            Workload::Serve => 150,
        }
    }

    /// A smoke run keeps the strata and shortens the pass.
    fn smoke_pass_ops(self) -> usize {
        match self {
            Workload::WhyEmpty => 14,
            Workload::WhyCard => 28,
            Workload::MatchCold => 200,
            Workload::Serve => 30,
        }
    }
}

/// Open-loop rate of one `serve` connection; two connections make 600
/// requests per second, about a quarter of what two synchronous clients
/// saturate the server at.
pub const SERVE_RATE_HZ: f64 = 300.0;
pub const SERVE_CONNECTIONS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 200 persons, short passes, 1/50 of the time, one set-up.
    pub smoke: bool,
}

impl RunConfig {
    pub fn persons(&self) -> usize {
        if self.smoke {
            corpus::SMOKE_PERSONS
        } else {
            corpus::PERSONS
        }
    }

    /// A set-up takes about a tenth of a second, most of it file and
    /// allocator work that jitters; the fastest of nine is reported.
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            9
        }
    }

    /// Seconds the timed section is sized for: a traced run spends a
    /// quarter of `--seconds` there, twice (it runs every operation on two
    /// worlds), and the rest on the stage replays.
    pub fn timed_seconds(&self) -> f64 {
        let mut s = self.seconds;
        if self.trace {
            s /= 4.0;
        }
        if self.smoke {
            s /= 50.0;
        }
        s
    }

    /// Operations of one pass (per connection for `serve`).
    pub fn pass_ops(&self) -> usize {
        if self.smoke {
            self.workload.smoke_pass_ops()
        } else {
            self.workload.pass_ops()
        }
    }

    /// Passes of a timed section whose length is fixed beforehand (`serve`,
    /// and every traced section): as many as fill [`Self::timed_seconds`]
    /// at the workload's rate. An untraced section needs two at least.
    pub fn passes(&self) -> usize {
        let passes = self.workload.rate() * self.timed_seconds() / self.pass_ops() as f64;
        (passes.round() as usize).max(if self.trace { 1 } else { 2 })
    }
}

/// Where traces, result files and the round-tripped graph file go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, Copy, Default)]
pub struct GraphTimes {
    pub gen_ms: f64,
    pub load_ms: f64,
    pub open_ms: f64,
    pub rss_bytes_per_edge: f64,
}

/// Generate the graph, round-trip it through a `graph::io` file as
/// `whyqd --graph FILE` loads its data, and open it with product defaults.
pub fn open_database(cfg: &RunConfig) -> (Database, GraphTimes) {
    let rss_before = rss_bytes();
    let t = Instant::now();
    let generated = corpus::graph(cfg.persons());
    let gen_ms = ms(t.elapsed());

    let t = Instant::now();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create out/");
    let file = dir.join(format!("graph-{}.txt", std::process::id()));
    std::fs::write(&file, io::write_graph(&generated)).expect("write graph file");
    drop(generated);
    let text = std::fs::read_to_string(&file).expect("read graph file");
    let graph = io::read_graph(&text).expect("graph file parses");
    drop(text);
    std::fs::remove_file(&file).expect("remove graph file");
    let load_ms = ms(t.elapsed());

    let edges = graph.num_edges();
    let t = Instant::now();
    let db = Database::open(graph).expect("open database");
    let open_ms = ms(t.elapsed());
    let times = GraphTimes {
        gen_ms,
        load_ms,
        open_ms,
        rss_bytes_per_edge: rss_bytes().saturating_sub(rss_before) as f64 / edges as f64,
    };
    (db, times)
}

#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Fastest of the repetitions of: generate, load, open, `warm` — the
    /// estimator the latencies use, see [`Passes::steady`].
    pub setup_s: f64,
    /// Resident memory (`VmRSS`) once the first repetition has opened its
    /// database, before any operation ran: what holding the data costs.
    pub rss_mb: f64,
    pub graph: GraphTimes,
}

/// Set the workload up several times and keep the last world. `warm`
/// receives the opened database, builds whatever the workload needs on top
/// (engine, server, connections), runs the warm-up operations and returns
/// the state the timed section continues from. Building the timed
/// section's corpus is not part of set-up: it is the benchmark's work, not
/// the system's.
pub fn setup<T>(cfg: &RunConfig, mut warm: impl FnMut(Database) -> T) -> (T, Setup) {
    let mut seconds = Vec::new();
    let mut graphs = Vec::new();
    let mut state = None;
    let mut rss_mb = None;
    for _ in 0..cfg.setup_reps() {
        // free the previous world first: peak memory is one world's
        drop(state.take());
        let t = Instant::now();
        let (db, times) = open_database(cfg);
        rss_mb.get_or_insert(rss_bytes() as f64 / (1024.0 * 1024.0));
        state = Some(warm(db));
        seconds.push(t.elapsed().as_secs_f64());
        graphs.push(times);
    }
    let med = |f: fn(&GraphTimes) -> f64| median(&graphs.iter().map(f).collect::<Vec<_>>());
    let setup = Setup {
        setup_s: seconds.iter().copied().fold(f64::INFINITY, f64::min),
        rss_mb: rss_mb.expect("at least one set-up"),
        graph: GraphTimes {
            gen_ms: med(|g| g.gen_ms),
            load_ms: med(|g| g.load_ms),
            open_ms: med(|g| g.open_ms),
            // only the first repetition starts from an empty heap
            rss_bytes_per_edge: graphs[0].rss_bytes_per_edge,
        },
    };
    (state.expect("at least one set-up"), setup)
}

/// Time operation `id`, in milliseconds, under an `op` span.
fn time_op(id: usize, spans: &mut Spans, op: impl FnOnce(&mut Spans, Open)) -> f64 {
    let open = spans.begin("op", id as u32, None);
    let t = Instant::now();
    op(spans, open);
    let elapsed = t.elapsed();
    spans.end(open);
    ms(elapsed)
}

pub fn peak_rss_mb() -> f64 {
    peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Latencies of an untraced timed section, in milliseconds: `lat[p][i]` is
/// what operation `i` took in pass `p`. Every pass runs the same operations
/// in the same order from the same cache state, so the samples of one
/// operation differ by what the machine did to them and little else.
#[derive(Debug)]
pub struct Passes {
    pub lat: Vec<Vec<f64>>,
}

impl Passes {
    pub fn ops(&self) -> usize {
        self.lat.len() * self.lat[0].len()
    }

    /// Per operation, the fastest of its executions. The box this runs on
    /// is a share of a busy host: neighbours slow it down by 10 to 25 % for
    /// seconds or minutes at a time, and never speed it up. A median over a
    /// run sits wherever the neighbours left it — over back-to-back runs of
    /// the same code it spreads by 10 to 25 % of itself — while the minimum
    /// over a few dozen executions spreads by 2 to 5 %, because some
    /// execution of every operation is left alone.
    pub fn steady(&self) -> Vec<f64> {
        (0..self.lat[0].len())
            .map(|i| {
                let samples = self.lat.iter().map(|pass| pass[i]);
                samples.fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Operations per second of one caller working through a pass at the
    /// operations' steady latencies.
    pub fn closed_loop_ops_per_s(&self) -> f64 {
        let steady = self.steady();
        steady.len() as f64 / (steady.iter().sum::<f64>() / 1e3)
    }
}

/// Close `db` and open its graph again with product defaults: every cache
/// is empty, as at the start of every other pass. A pass must not find the
/// answers of the pass before it in the caches — the repeats are the
/// benchmark's way to measure, not what a user does.
pub fn reopen(db: &mut Option<Database>) -> &Database {
    let graph = db.take().expect("a database to reopen").close();
    db.insert(Database::open(graph).expect("open database"))
}

/// Closed loop, one caller: run operations `0..ops` of pass `pass` back to
/// back and time each. `op` receives the operation's number within the
/// pass.
pub fn time_pass(pass: usize, ops: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let mut off = Spans::new();
    (0..ops)
        .map(|i| time_op(pass * ops + i, &mut off, |_, _| op(i)))
        .collect()
}

/// Pass after pass until `seconds` have gone by, two passes at the least.
/// `pass` receives the pass's number and returns its latencies.
pub fn measure_passes(seconds: f64, mut pass: impl FnMut(usize) -> Vec<f64>) -> Passes {
    let mut lat = Vec::new();
    let start = Instant::now();
    while lat.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        lat.push(pass(lat.len()));
    }
    Passes { lat }
}

/// Latencies of a traced run's timed section, in milliseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    /// The operations on the twin world, span recording off.
    pub plain: Vec<f64>,
    /// The same operations on the traced world, span recording on.
    pub traced: Vec<f64>,
}

impl Latencies {
    /// Time spent inside operations on the traced world, in microseconds.
    pub fn traced_wall_us(&self) -> f64 {
        self.traced.iter().sum::<f64>() * 1e3
    }
}

/// Operations a world runs back to back before the twin world takes over.
const TWIN_BLOCK: usize = 16;

/// One pass of the timed section of a traced run. Every operation runs
/// twice, once traced and once untraced, on two worlds set up the same way
/// (`op`'s first argument says which): each world executes every operation
/// exactly once, in the same order and cache state, so the ratio of the
/// traced to the untraced p50 is the tracing overhead and little else. The
/// worlds take turns block by block. Whichever runs a block second finds
/// the processor's caches and predictors warmed by the first, and one
/// world's heap is laid out better than the other's; both are balanced out
/// over every 8 blocks. `op` receives the operation's number within the
/// pass and must keep its answer only when `spans.on`; span ids count on
/// from pass to pass.
pub fn measure_twins(
    pass: usize,
    ops: usize,
    spans: &mut Spans,
    lat: &mut Latencies,
    mut op: impl FnMut(usize, usize, &mut Spans, Open),
) {
    let mut off = Spans::new();
    for (k, start) in (0..ops).step_by(TWIN_BLOCK).enumerate() {
        let block = start..(start + TWIN_BLOCK).min(ops);
        let traced_first = (k ^ (k >> 1)) & 1 == 0;
        let traced_world = (k >> 2) & 1;
        for traced_turn in [traced_first, !traced_first] {
            for i in block.clone() {
                let id = pass * ops + i;
                if traced_turn {
                    spans.on = true;
                    let t = time_op(id, spans, |spans, open| op(traced_world, i, spans, open));
                    spans.on = false;
                    lat.traced.push(t);
                } else {
                    let t = time_op(id, &mut off, |off, open| op(1 - traced_world, i, off, open));
                    lat.plain.push(t);
                }
            }
        }
    }
}

/// The end-to-end metrics of a timed section. `latency_ms_p50` is the
/// median over the operations of a pass of their steady latencies.
pub fn end_to_end(out: &mut Outcome, setup: &Setup, passes: &Passes, ops_per_s: f64) {
    out.attempted = passes.ops() as u64;
    let steady = sorted(passes.steady());
    out.set("setup_s", setup.setup_s);
    // the mean of the two middle operations where a pass has an even count:
    // with 28 of them a single operation's luck should not be the metric
    out.set("latency_ms_p50", median(&steady));
    out.set("ops_per_s", ops_per_s);
    out.set("setup_rss_mb", setup.rss_mb);
    let all = sorted(passes.lat.iter().flatten().copied().collect());
    out.notes.push(format!(
        "{} passes over {} operations; steady latency p25 {:.4} p75 {:.4} ms",
        passes.lat.len(),
        steady.len(),
        percentile(&steady, 25.0),
        percentile(&steady, 75.0)
    ));
    // the plain figures over every sample swing too much between identical
    // runs on this box to be gated; they are printed for the reader, and
    // the traced run reports the tail and peak memory as layer diagnostics
    out.notes.push(format!(
        "not gated, over all {} samples: latency p50 {:.4} p95 {:.4} p99 {:.4} ms, \
         {} samples beyond the p95; peak RSS {:.1} MB",
        all.len(),
        percentile(&all, 50.0),
        percentile(&all, 95.0),
        percentile(&all, 99.0),
        all.len() - (0.95 * all.len() as f64).ceil() as usize,
        peak_rss_mb()
    ));
}

/// The public counters of a `Database`, read before and after a pass.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    compiles: u64,
    plans: CacheStats,
    siblings: SiblingStats,
}

/// Counter movements over a timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterDelta {
    pub compiles: f64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub plan_evictions: f64,
    pub sibling_hits: f64,
    pub sibling_insertions: f64,
    pub sibling_evictions: f64,
    pub derived_plans: f64,
}

impl Counters {
    pub fn of(db: &Database) -> Counters {
        Counters {
            compiles: db.compile_count(),
            plans: db.cache_stats(),
            siblings: db.sibling_stats(),
        }
    }

    pub fn since(&self, before: &Counters) -> CounterDelta {
        let d = |a: u64, b: u64| (a - b) as f64;
        CounterDelta {
            compiles: d(self.compiles, before.compiles),
            plan_hits: d(self.plans.hits, before.plans.hits),
            plan_misses: d(self.plans.misses, before.plans.misses),
            plan_evictions: d(self.plans.evictions, before.plans.evictions),
            sibling_hits: d(self.siblings.hits, before.siblings.hits),
            sibling_insertions: d(self.siblings.insertions, before.siblings.insertions),
            sibling_evictions: d(self.siblings.evictions, before.siblings.evictions),
            derived_plans: d(self.siblings.derived_plans, before.siblings.derived_plans),
        }
    }
}

impl std::ops::AddAssign for CounterDelta {
    fn add_assign(&mut self, d: CounterDelta) {
        self.compiles += d.compiles;
        self.plan_hits += d.plan_hits;
        self.plan_misses += d.plan_misses;
        self.plan_evictions += d.plan_evictions;
        self.sibling_hits += d.sibling_hits;
        self.sibling_insertions += d.sibling_insertions;
        self.sibling_evictions += d.sibling_evictions;
        self.derived_plans += d.derived_plans;
    }
}

impl CounterDelta {
    pub fn report(&self, out: &mut Outcome, ops: usize) {
        out.set("session.compiles_per_op", self.compiles / ops as f64);
        out.set(
            "session.plan_hit_ratio",
            ratio(self.plan_hits, self.plan_hits + self.plan_misses),
        );
        out.set("session.plan_evictions", self.plan_evictions);
        out.set(
            "session.sibling_hit_ratio",
            ratio(
                self.sibling_hits,
                self.sibling_hits + self.sibling_insertions,
            ),
        );
        out.set("session.sibling_evictions", self.sibling_evictions);
        out.set("session.derived_plans", self.derived_plans);
    }
}

pub fn report_graph(out: &mut Outcome, g: &GraphTimes) {
    out.set("graph.gen_ms", g.gen_ms);
    out.set("graph.load_ms", g.load_ms);
    out.set("graph.open_ms", g.open_ms);
    out.set("graph.rss_bytes_per_edge", g.rss_bytes_per_edge);
}

/// `trace.overhead_ratio` — traced p50 over untraced p50 of one section —
/// with the two figures that are diagnostics because they do not repeat
/// well enough to be gated: the section's p95 and the process's peak memory
/// when it ends.
pub fn report_trace_overhead(out: &mut Outcome, lat: &Latencies) {
    out.set(
        "trace.overhead_ratio",
        percentile_of(&lat.traced, 50.0) / percentile_of(&lat.plain, 50.0),
    );
    out.set("latency_ms_p95", percentile_of(&lat.traced, 95.0));
    out.set("process.peak_rss_mb", peak_rss_mb());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: Workload, seconds: f64, trace: bool, smoke: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: 1,
            seconds,
            trace,
            smoke,
        }
    }

    #[test]
    fn sized_sections_are_whole_passes() {
        // serve: 300 req/s x 28 s in passes of 150 requests per connection
        assert_eq!(cfg(Workload::Serve, 28.0, false, false).passes(), 56);
        // traced: a quarter; smoke: a fiftieth
        assert_eq!(cfg(Workload::WhyEmpty, 28.0, true, false).passes(), 5);
        assert_eq!(cfg(Workload::WhyCard, 28.0, true, false).passes(), 11);
        assert_eq!(cfg(Workload::MatchCold, 28.0, true, false).passes(), 9);
        assert_eq!(cfg(Workload::MatchCold, 28.0, true, true).passes(), 4);
        // never less than one traced pass, or two untraced ones
        assert_eq!(cfg(Workload::WhyCard, 1.0, true, true).passes(), 1);
        assert_eq!(cfg(Workload::Serve, 1.0, false, true).passes(), 2);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            // strata stay whole in every pass
            let stratum = [14, 28, 2, 1][Workload::ALL.iter().position(|x| *x == w).unwrap()];
            assert_eq!(w.pass_ops() % stratum, 0);
            assert_eq!(w.smoke_pass_ops() % stratum, 0);
        }
    }

    #[test]
    fn passes_run_until_the_clock_says_stop_and_twice_at_least() {
        let mut calls = Vec::new();
        let passes = measure_passes(0.0, |p| time_pass(p, 3, |i| calls.push((p, i))));
        assert_eq!(calls, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        assert_eq!((passes.lat.len(), passes.ops()), (2, 6));
        let passes = measure_passes(0.02, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            vec![5.0]
        });
        assert!((3..=5).contains(&passes.lat.len()), "{}", passes.lat.len());
    }

    #[test]
    fn an_operation_is_charged_the_fastest_of_its_executions() {
        // operation 0 takes 1 ms and operation 1 takes 4 ms when left
        // alone; the machine doubled pass 0 and hit operation 1 in pass 2
        let passes = Passes {
            lat: vec![vec![2.0, 8.0], vec![1.0, 4.0], vec![1.1, 9.0]],
        };
        assert_eq!(passes.steady(), [1.0, 4.0]);
        assert!((passes.closed_loop_ops_per_s() - 400.0).abs() < 1e-9);
        let setup = Setup {
            setup_s: 0.5,
            rss_mb: 30.0,
            graph: GraphTimes::default(),
        };
        let mut out = Outcome::new(0);
        end_to_end(&mut out, &setup, &passes, 400.0);
        assert_eq!(out.attempted, 6);
        assert_eq!(out.get("setup_rss_mb"), Some(30.0));
        assert_eq!(out.get("latency_ms_p50"), Some(2.5));
        assert_eq!(out.get("ops_per_s"), Some(400.0));
        assert_eq!(out.get("setup_s"), Some(0.5));
    }

    #[test]
    fn traced_runs_execute_every_operation_once_on_each_world() {
        let n = 8 * TWIN_BLOCK + 3;
        let mut spans = Spans::new();
        let mut seen = [Vec::new(), Vec::new()];
        let mut traced = Vec::new();
        let mut lat = Latencies::default();
        measure_twins(0, n, &mut spans, &mut lat, |world, i, spans, open| {
            seen[world].push(i);
            if spans.on {
                traced.push((world, i));
            }
            spans.time("child", i as u32, open, || ());
        });
        assert_eq!((lat.plain.len(), lat.traced.len()), (n, n));
        let all: Vec<usize> = (0..n).collect();
        assert_eq!(seen[0], all);
        assert_eq!(seen[1], all);
        assert_eq!(traced.iter().map(|t| t.1).collect::<Vec<_>>(), all);
        // each world is the traced one for half of the full blocks
        let on_world_0 = traced
            .iter()
            .filter(|(w, i)| *w == 0 && *i < 8 * TWIN_BLOCK);
        assert_eq!(on_world_0.count(), 4 * TWIN_BLOCK);
        // one `op` span with one child per operation, from traced turns only
        assert_eq!(spans.all().len(), 2 * n);
        assert!(!spans.on);
        // a second pass appends, its span ids counting on from the first's
        measure_twins(1, n, &mut spans, &mut lat, |_, _, _, _| ());
        assert_eq!(lat.traced.len(), 2 * n);
        let last = spans.all().last().expect("spans");
        assert_eq!(last.op_id as usize, 2 * n - 1);
    }
}
