//! Open-loop load generator for the `whyqd` serving layer.
//!
//! ```text
//! server_load [--clients N] [--requests N] [--rate-hz F] [--persons N]
//!             [--seed S] [--queue-depth N] [--batch-window-us U]
//!             [--max-rows N] [--threads N] [--slo CLASS] [--out FILE]
//!             [--max-p50-ms M]
//! ```
//!
//! Starts an in-process [`whyq_server::Server`] over a seeded LDBC graph
//! and drives it from `--clients` concurrent TCP connections. Arrivals are
//! **open-loop**: each client's j-th request has a scheduled send time
//! `start + j/rate` fixed before the run, and its latency is measured from
//! that *scheduled* instant — a slow server makes later requests measure
//! the queueing delay they caused instead of silently slowing the arrival
//! process down (the coordinated-omission trap of closed-loop drivers).
//!
//! Clients round-robin a small mix of LDBC patterns, so same-signature
//! arrivals that queue behind a busy batcher coalesce through a single
//! compiled plan. The run reports p50/p95/p99 latency plus shed and
//! degraded counts, and with `--out` writes them as a criterion-shim
//! snapshot (the committed `BENCH_server.json` baseline; CI gates fresh
//! runs against it with `bench_compare`). `--max-p50-ms M` makes the run
//! itself a gate: the exit code is non-zero when the median exceeds `M`
//! — CI uses it with one slow client and a 200 ms `--batch-window-us` to
//! fail a server that waits out its window when nothing else is coming.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whyq_datagen::{ldbc_graph, LdbcConfig};
use whyq_server::client::Client;
use whyq_server::protocol::TermTag;
use whyq_server::{Server, ServerConfig};
use whyq_session::Database;

/// The query mix clients cycle through, chosen so several signatures
/// recur among concurrent arrivals at realistic rates.
const PATTERNS: [&str; 4] = [
    "(p:person)-[:knows]->(q:person)",
    "(p:person)-[:isLocatedIn]->(c:city)-[:isPartOf]->(n:country)",
    "(p:person)-[:hasInterest]->(t:tag)",
    "(p:person)-[:knows]->(q:person)-[:isLocatedIn]->(c:city)",
];

struct Args {
    clients: usize,
    requests: usize,
    rate_hz: f64,
    persons: usize,
    seed: u64,
    queue_depth: usize,
    batch_window_us: u64,
    max_rows: usize,
    threads: usize,
    slo: String,
    out: Option<String>,
    max_p50_ms: f64,
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn num<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> Result<T, String> {
        match flag_value(argv, name) {
            Some(s) => s.parse().map_err(|_| format!("invalid {name}: {s:?}")),
            None => Ok(default),
        }
    }
    Ok(Args {
        clients: num(argv, "--clients", 8)?,
        requests: num(argv, "--requests", 50)?,
        rate_hz: num(argv, "--rate-hz", 200.0)?,
        persons: num(argv, "--persons", 200)?,
        seed: num(argv, "--seed", 42)?,
        queue_depth: num(argv, "--queue-depth", 64)?,
        batch_window_us: num(argv, "--batch-window-us", 500)?,
        max_rows: num(argv, "--max-rows", 200)?,
        threads: num(argv, "--threads", 0)?,
        slo: flag_value(argv, "--slo").unwrap_or("standard").to_string(),
        out: flag_value(argv, "--out").map(String::from),
        max_p50_ms: num(argv, "--max-p50-ms", f64::INFINITY)?,
    })
}

/// One client's measurements.
#[derive(Default)]
struct ClientOutcome {
    /// Latency from *scheduled* arrival to reply, per request.
    latencies: Vec<Duration>,
    shed: u64,
    degraded: u64,
    errors: u64,
}

fn drive_client(
    addr: std::net::SocketAddr,
    id: usize,
    args: &Args,
    start: Instant,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let Ok(mut client) = Client::connect(addr) else {
        outcome.errors = args.requests as u64;
        return outcome;
    };
    let period = Duration::from_secs_f64(1.0 / args.rate_hz.max(1e-6));
    // stagger clients across one period so arrivals interleave instead of
    // stampeding in phase
    let stagger = period.mul_f64(id as f64 / args.clients.max(1) as f64);
    for j in 0..args.requests {
        let scheduled = start + stagger + period.mul_f64(j as f64);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let pattern = PATTERNS[(id + j) % PATTERNS.len()];
        match client.query(pattern, Some(&args.slo)) {
            Ok(reply) => {
                outcome.latencies.push(scheduled.elapsed());
                match reply.termination {
                    TermTag::Shed => outcome.shed += 1,
                    TermTag::Complete => {}
                    _ => outcome.degraded += 1,
                }
            }
            Err(_) => outcome.errors += 1,
        }
    }
    outcome
}

/// Nearest-rank percentile of a sorted latency vector, in nanoseconds.
fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_nanos() as f64
}

/// Render records in the criterion-shim snapshot format `bench_compare`
/// consumes. Counts ride along as records too: their committed baselines
/// are 0, and the gate forces ratio 1.0 on a zero baseline, so they are
/// informational unless a snapshot is regenerated with nonzero counts.
fn render_snapshot(records: &[(&str, u64, f64)]) -> String {
    let mut out = String::from("[\n");
    for (i, (bench, samples, value)) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"group\": \"server\", \"bench\": \"{bench}\", \"samples\": {samples}, \
             \"iters_per_sample\": 1, \"median_ns\": {value:.1}, \"mean_ns\": {value:.1}, \
             \"min_ns\": {value:.1}}}{comma}\n"
        ));
    }
    out.push_str("]\n");
    out
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let graph = ldbc_graph(LdbcConfig {
        persons: args.persons,
        seed: args.seed,
    });
    eprintln!(
        "server_load: ldbc graph with {} vertices / {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let db = Arc::new(Database::open(graph).map_err(|e| e.to_string())?);
    let config = ServerConfig {
        threads: args.threads,
        max_queue_depth: args.queue_depth,
        batch_window: Duration::from_micros(args.batch_window_us),
        max_rows: args.max_rows,
        ..ServerConfig::default()
    };
    let server = Server::start(db, config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();

    // all clients share one epoch; each schedules its arrivals from it
    let start = Instant::now() + Duration::from_millis(50);
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let args = &args;
        // spawn everything before joining anything, or the run serializes
        let mut handles = Vec::with_capacity(args.clients);
        for id in 0..args.clients {
            handles.push(scope.spawn(move || drive_client(addr, id, args, start)));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut latencies: Vec<Duration> = Vec::new();
    let (mut shed, mut degraded, mut errors) = (0u64, 0u64, 0u64);
    for o in &outcomes {
        latencies.extend_from_slice(&o.latencies);
        shed += o.shed;
        degraded += o.degraded;
        errors += o.errors;
    }
    latencies.sort_unstable();
    let samples = latencies.len() as u64;
    let (p50, p95, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
    );
    let stats = server.stats();
    eprintln!(
        "server_load: {} replies ({} shed, {} degraded, {} errors), \
         server batched {} of {} admitted",
        samples, shed, degraded, errors, stats.batched, stats.admitted
    );
    println!("p50  {p50:>12.1} ns");
    println!("p95  {p95:>12.1} ns");
    println!("p99  {p99:>12.1} ns");
    if errors > 0 {
        return Err(format!("{errors} request(s) failed"));
    }

    if let Some(path) = &args.out {
        let snapshot = render_snapshot(&[
            ("query-latency/p50", samples, p50),
            ("query-latency/p95", samples, p95),
            ("query-latency/p99", samples, p99),
            ("shed-count", samples, shed as f64),
            ("degraded-count", samples, degraded as f64),
        ]);
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("creating {path:?}: {e}"))?;
        file.write_all(snapshot.as_bytes())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("server_load: wrote snapshot to {path}");
    }
    server.shutdown();
    if p50 > args.max_p50_ms * 1e6 {
        return Err(format!(
            "p50 {:.3} ms exceeds --max-p50-ms {}",
            p50 / 1e6,
            args.max_p50_ms
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("server_load: {msg}");
            eprintln!(
                "usage: server_load [--clients N] [--requests N] [--rate-hz F] [--persons N]\n\
                 \x20                  [--seed S] [--queue-depth N] [--batch-window-us U]\n\
                 \x20                  [--max-rows N] [--threads N] [--slo CLASS] [--out FILE]\n\
                 \x20                  [--max-p50-ms M]"
            );
            ExitCode::FAILURE
        }
    }
}
