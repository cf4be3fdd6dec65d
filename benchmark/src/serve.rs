//! `serve`: the `whyqd` user's view. An in-process `Server` at
//! `ServerConfig::default()`, two TCP connections, each an open loop at a
//! fixed rate; latency counts from the instant a request was *due*, so a
//! stall is charged to every request it delays.

use crate::corpus::{self, Request, ServeSchedule};
use crate::harness::{self, Counters, Passes, RunConfig, SERVE_CONNECTIONS, SERVE_RATE_HZ};
use crate::layers;
use crate::report::{ratio, Outcome};
use crate::trace::Spans;
use crate::util::{median, ms, percentile, percentile_of, sorted, us};
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whyquery::matcher::reference::count_matches_naive;
use whyquery::matcher::{MatchOptions, ResultGraph};
use whyquery::query::{parse_query, PatternQuery};
use whyquery::server::client::Client;
use whyquery::server::protocol::{
    parse_command, parse_pattern, parse_reply, render_rows, write_frame, FrameReader, TermTag,
    DEFAULT_MAX_FRAME,
};
use whyquery::server::{Server, ServerConfig, StatsSnapshot};
use whyquery::session::{Database, Session};

const CLASS: Option<&str> = Some("standard");
/// How long before a request is due its connection stops sleeping and
/// starts yielding: 300 times a second, a tenth of one core at most.
const SPIN: Duration = Duration::from_micros(300);
/// `HELLO` round trips timed for `server.rtt_floor_us`.
const PINGS: usize = 2000;
/// Requests of the mix replayed without a socket (`server.codec_us`) and
/// without a server (`server.exec_direct_us`).
const MIX_SAMPLE: usize = 400;

/// A started server with its connections, handles prepared. Dropping it
/// closes the connections, then drains and joins the server.
struct World {
    db: Arc<Database>,
    server: Option<Server>,
    clients: Vec<Client>,
    /// Per connection: the `PREPARE` handle of every recurring text.
    handles: Vec<Vec<u64>>,
    recurring: Vec<PatternQuery>,
    texts: Vec<String>,
}

impl World {
    fn start(db: Arc<Database>, recurring: Vec<PatternQuery>, config: ServerConfig) -> World {
        let server = Server::start(Arc::clone(&db), config).expect("bind loopback");
        let texts: Vec<String> = recurring.iter().map(corpus::render).collect();
        let mut clients = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..SERVE_CONNECTIONS {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client.hello().expect("HELLO");
            handles.push(
                texts
                    .iter()
                    .map(|t| client.prepare(t).expect("PREPARE"))
                    .collect(),
            );
            clients.push(client);
        }
        World {
            db,
            server: Some(server),
            clients,
            handles,
            recurring,
            texts,
        }
    }

    /// Every recurring text once through `QUERY` and once through `EXEC`.
    fn warm_up(&mut self) {
        for (client, handles) in self.clients.iter_mut().zip(&self.handles) {
            for (text, &handle) in self.texts.iter().zip(handles) {
                client.query(text, CLASS).expect("warm-up QUERY");
                client.exec(handle, None).expect("warm-up EXEC");
            }
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.server.as_ref().expect("running").stats()
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// What one connection saw of one request.
struct Exchange {
    request: Request,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// Rows and termination of the reply, or the client error.
    reply: Result<(usize, TermTag), String>,
}

/// Instant request `j` of a connection is due: a fixed period apart,
/// connections staggered evenly across one period so that they interleave.
fn due_at(start: Instant, connection: usize, j: usize) -> Instant {
    let period = Duration::from_secs_f64(1.0 / SERVE_RATE_HZ);
    start + period.mul_f64(connection as f64 / SERVE_CONNECTIONS as f64) + period.mul_f64(j as f64)
}

/// One connection's open loop over its slice of the schedule.
fn drive(
    client: &mut Client,
    connection: usize,
    start: Instant,
    requests: &[Request],
    handles: &[u64],
    texts: &[String],
    fresh: &[String],
) -> Vec<Exchange> {
    let mut log = Vec::with_capacity(requests.len());
    for (j, request) in requests.iter().enumerate() {
        let due = due_at(start, connection, j);
        // sleep to just before the instant, then yield up to it: a bare
        // sleep overshoots by a timer slack that would pass for latency
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let sent = Instant::now();
        let reply = match request {
            Request::Query(i) => client.query(&texts[*i], CLASS),
            Request::Exec(i) => client.exec(handles[*i], None),
            Request::Fresh(i) => client.query(&fresh[*i], CLASS),
        };
        let done = Instant::now();
        log.push(Exchange {
            request: request.clone(),
            due,
            sent,
            done,
            reply: reply
                .map(|r| (r.rows.len(), r.termination))
                .map_err(|e| e.to_string()),
        });
    }
    log
}

/// Run requests `range` of every connection's schedule as an open loop.
fn open_loop(
    world: &mut World,
    schedule: &ServeSchedule,
    range: std::ops::Range<usize>,
) -> Vec<Vec<Exchange>> {
    let start = Instant::now() + Duration::from_millis(20);
    let World {
        clients,
        handles,
        texts,
        ..
    } = world;
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let requests = &schedule.per_connection[c][range.clone()];
                let (handles, texts, fresh) = (&handles[c], &*texts, &schedule.fresh);
                scope.spawn(move || drive(client, c, start, requests, handles, texts, fresh))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    })
}

fn latencies_ms<'a>(log: impl IntoIterator<Item = &'a Exchange>) -> Vec<f64> {
    log.into_iter()
        .map(|x| ms(x.done.duration_since(x.due)))
        .collect()
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let (mut world, setup) = harness::setup(cfg, |db| {
        let recurring = corpus::serve_recurring(&db);
        let mut world = World::start(Arc::new(db), recurring, ServerConfig::default());
        world.warm_up();
        world
    });
    // a traced run sends a second section of the same size to a server
    // without a batch window
    let n = cfg.passes() * cfg.pass_ops();
    let scheduled = if cfg.trace { 2 * n } else { n };
    let schedule = corpus::serve_schedule(
        &world.db,
        cfg.seed,
        &world.recurring,
        SERVE_CONNECTIONS,
        scheduled,
        cfg.pass_ops(),
    );

    let before = (Counters::of(&world.db), world.stats());
    let logs = open_loop(&mut world, &schedule, 0..n);
    let delta = Counters::of(&world.db).since(&before.0);
    let stats = world.stats();

    let mut out = Outcome::new(SERVE_CONNECTIONS * n);
    // the oracle's row count of every distinct text sent, capped as the
    // server caps its replies
    let max_rows = ServerConfig::default().max_rows;
    let mut expected: HashMap<&str, usize> = HashMap::new();
    for x in logs.iter().flatten() {
        let text = match &x.request {
            Request::Query(i) | Request::Exec(i) => world.texts[*i].as_str(),
            Request::Fresh(i) => schedule.fresh[*i].as_str(),
        };
        let want = *expected.entry(text).or_insert_with(|| {
            let q = parse_query(text).expect("generated text parses");
            let cap = MatchOptions::counting(Some(max_rows as u64));
            count_matches_naive(world.db.graph(), &q, cap) as usize
        });
        if !matches!(&x.reply, Ok((rows, TermTag::Complete)) if *rows == want) {
            out.fail(format!(
                "{:?} answered {:?}, oracle {want} rows: {text}",
                x.request, x.reply
            ));
        }
    }

    let lat = latencies_ms(logs.iter().flatten());
    let late_us = sorted(
        logs.iter()
            .flatten()
            .map(|x| us(x.sent.duration_since(x.due)))
            .collect(),
    );
    let all = sorted(lat.clone());
    out.notes.push(format!(
        "open loop: {SERVE_CONNECTIONS} connections x {SERVE_RATE_HZ} req/s; \
         generator lateness p95 {:.1} us; whole-section latency p75 {:.3} p90 {:.3} p99 {:.3} ms",
        percentile(&late_us, 95.0),
        percentile(&all, 75.0),
        percentile(&all, 90.0),
        percentile(&all, 99.0)
    ));

    if !cfg.trace {
        // a pass is the same stretch of every connection's schedule; the
        // throughput is what the server completed from the first due
        // instant to the last reply
        let passes = Passes {
            lat: (0..cfg.passes())
                .map(|p| {
                    let stretch = p * cfg.pass_ops()..(p + 1) * cfg.pass_ops();
                    latencies_ms(logs.iter().flat_map(|log| &log[stretch.clone()]))
                })
                .collect(),
        };
        let first_due = logs.iter().map(|log| log[0].due).min().expect("requests");
        let last_done = logs
            .iter()
            .flatten()
            .map(|x| x.done)
            .max()
            .expect("requests");
        let wall_s = last_done.duration_since(first_due).as_secs_f64();
        let ops_per_s = (SERVE_CONNECTIONS * n) as f64 / wall_s;
        harness::end_to_end(&mut out, &setup, &passes, ops_per_s);
        return out;
    }

    // spans are built from the clock reads the loop takes anyway, for the
    // odd requests of each connection; the even ones are the untraced half
    let mut halves = harness::Latencies::default();
    spans.on = true;
    for (c, log) in logs.iter().enumerate() {
        for (j, x) in log.iter().enumerate() {
            let latency = ms(x.done.duration_since(x.due));
            if j % 2 == 0 {
                halves.plain.push(latency);
                continue;
            }
            halves.traced.push(latency);
            let id = (j * SERVE_CONNECTIONS + c) as u32;
            let op = spans.push("op", id, None, x.due, x.done);
            spans.push("server.gen_late", id, op, x.due, x.sent);
            spans.push("server.round_trip", id, op, x.sent, x.done);
        }
    }
    spans.on = false;
    harness::report_graph(&mut out, &setup.graph);
    harness::report_trace_overhead(&mut out, &halves);
    out.set("latency_ms_p95", percentile_of(&lat, 95.0));
    delta.report(&mut out, SERVE_CONNECTIONS * n);

    let admitted = (stats.admitted - before.1.admitted) as f64;
    out.set(
        "server.batched_ratio",
        ratio((stats.batched - before.1.batched) as f64, admitted),
    );
    out.set("server.shed", (stats.shed - before.1.shed) as f64);
    out.set(
        "server.degraded",
        (stats.degraded - before.1.degraded) as f64,
    );
    out.set(
        "server.protocol_errors",
        (stats.protocol_errors - before.1.protocol_errors) as f64,
    );
    out.set("server.latency_ms_p99", percentile_of(&lat, 99.0));
    out.set("server.gen_late_us_p95", percentile(&late_us, 95.0));

    // the floor: socket and thread hand-off, no batcher, no engine
    let pings: Vec<f64> = (0..if cfg.smoke { PINGS / 50 } else { PINGS })
        .map(|_| {
            let t = Instant::now();
            world.clients[0].hello().expect("HELLO");
            us(t.elapsed())
        })
        .collect();
    let floor_us = median(&pings);
    out.set("server.rtt_floor_us", floor_us);

    // the same mix without a socket, and without a server
    let mix = &schedule.per_connection[0][..MIX_SAMPLE.min(n)];
    let session = world.db.session();
    let (codec_us, direct_us) = replay_mix(&world, &schedule, mix, &session);
    out.set("server.codec_us", codec_us);
    out.set("server.exec_direct_us", direct_us);
    let p50_us = percentile_of(&lat, 50.0) * 1e3;
    let overhead_us = p50_us - floor_us - direct_us;
    out.set("server.overhead_us_p50", overhead_us);
    out.notes.push(format!(
        "latency p50 {p50_us:.0} us = rtt floor {floor_us:.0} + direct execution {direct_us:.0} \
         + overhead {overhead_us:.0} (admission, batch wait, dispatch)"
    ));

    // the same load against a second server that never waits for a batch
    let recurring = world.recurring.clone();
    let db = Arc::clone(&world.db);
    drop(session);
    drop(world);
    let unbatched = ServerConfig {
        batch_window: Duration::ZERO,
        ..ServerConfig::default()
    };
    let mut world = World::start(db, recurring, unbatched);
    world.warm_up();
    let zero_window = latencies_ms(open_loop(&mut world, &schedule, n..2 * n).iter().flatten());
    let batch_wait_us = p50_us - percentile_of(&zero_window, 50.0) * 1e3;
    out.set("server.batch_wait_est_us", batch_wait_us);

    let stages = layers::replay(cfg, &world.db, &world.recurring, Some(&world.texts));
    let wire_us = (SERVE_CONNECTIONS * n) as f64 * (codec_us + floor_us + batch_wait_us.max(0.0));
    stages.report(&mut out, &delta, wire_us, lat.iter().sum::<f64>() * 1e3);
    out
}

/// Median cost per request of the mix (a) through framing, command
/// parsing, reply rendering and reply parsing with no socket in between,
/// and (b) through a `Session` in process, as the server executes it.
fn replay_mix(
    world: &World,
    schedule: &ServeSchedule,
    mix: &[Request],
    session: &Session<'_>,
) -> (f64, f64) {
    let max_rows = ServerConfig::default().max_rows;
    let mut codec = Vec::with_capacity(mix.len());
    let mut direct = Vec::with_capacity(mix.len());
    for request in mix {
        let (payload, text) = match request {
            Request::Query(i) => (
                format!("QUERY @standard {}", world.texts[*i]),
                &world.texts[*i],
            ),
            Request::Exec(i) => (format!("EXEC {}", world.handles[0][*i]), &world.texts[*i]),
            Request::Fresh(i) => (
                format!("QUERY @standard {}", schedule.fresh[*i]),
                &schedule.fresh[*i],
            ),
        };
        // (b) an EXEC skips the parse: the connection holds the parsed query
        let t = Instant::now();
        let parsed;
        let q = match request {
            Request::Exec(i) => &world.recurring[*i],
            _ => {
                parsed = parse_pattern(text).expect("generated text parses");
                &parsed
            }
        };
        let rows: Vec<ResultGraph> = session
            .find_opts(q, MatchOptions::limited(max_rows))
            .expect("generated queries are valid");
        direct.push(us(t.elapsed()));

        // (a) request out and in, reply out and in
        let t = Instant::now();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write to memory");
        let frame = FrameReader::new(DEFAULT_MAX_FRAME)
            .read_frame(&mut Cursor::new(&wire))
            .expect("frame decodes")
            .expect("one frame");
        std::hint::black_box(parse_command(&frame).expect("command parses"));
        let reply = render_rows(&rows, TermTag::Complete, false);
        wire.clear();
        write_frame(&mut wire, &reply).expect("write to memory");
        let frame = FrameReader::new(DEFAULT_MAX_FRAME)
            .read_frame(&mut Cursor::new(&wire))
            .expect("frame decodes")
            .expect("one frame");
        std::hint::black_box(parse_reply(&frame).expect("reply parses"));
        codec.push(us(t.elapsed()));
    }
    (median(&codec), median(&direct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_periodic_and_staggered() {
        let start = Instant::now();
        let period = Duration::from_secs_f64(1.0 / SERVE_RATE_HZ);
        assert_eq!(due_at(start, 0, 0), start);
        assert_eq!(due_at(start, 0, 3), start + period.mul_f64(3.0));
        // connection 1 sends half a period after connection 0, forever
        let gap = due_at(start, 1, 5).duration_since(due_at(start, 0, 5));
        assert!((gap.as_secs_f64() - period.as_secs_f64() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn lateness_is_charged_to_latency() {
        // a request due at t, sent 2 ms late, answered 1 ms later: 3 ms
        let due = Instant::now();
        let x = Exchange {
            request: Request::Query(0),
            due,
            sent: due + Duration::from_millis(2),
            done: due + Duration::from_millis(3),
            reply: Ok((0, TermTag::Complete)),
        };
        let lat = latencies_ms(&[x]);
        assert!((lat[0] - 3.0).abs() < 1e-9);
    }
}
