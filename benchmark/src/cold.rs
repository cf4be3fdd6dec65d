//! `match-cold`: parse → prepare → find of pattern texts that are each
//! used exactly once per database, so every cache misses. Half the texts compile in
//! full, half are one interval away from the text before them and take the
//! derive path.

use crate::corpus::ColdTexts;
use crate::harness::{self, CounterDelta, Counters, RunConfig};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{Open, Spans};
use whyquery::matcher::reference::count_matches_naive;
use whyquery::matcher::MatchOptions;
use whyquery::query::{parse_query, PatternQuery};
use whyquery::session::{Database, Session};

const ROW_CAP: usize = 1000;
const WARM_UP: usize = 200;
/// The oracle is a few times slower than the engine, so it re-executes an
/// evenly spaced sample of at most this many texts (an odd stride, so
/// compiled and derived texts are both covered).
const ORACLE_SAMPLE: usize = 4096;

/// One operation; the row count, or why there is none.
fn find(
    session: &Session<'_>,
    text: &str,
    spans: &mut Spans,
    id: usize,
    op: Open,
) -> Result<usize, String> {
    let id = id as u32;
    let q = spans
        .time("query.parse", id, op, || parse_query(text))
        .map_err(|e| e.to_string())?;
    let prepared = spans
        .time("session.prepare", id, op, || session.prepare(&q))
        .map_err(|e| e.to_string())?;
    let rows = spans
        .time("session.find", id, op, || {
            prepared.find_opts(MatchOptions::limited(ROW_CAP))
        })
        .map_err(|e| e.to_string())?;
    Ok(rows.len())
}

/// Every operation of the passes over `texts` must have answered, and with
/// the oracle's row count of its text wherever the oracle was asked: on an
/// evenly spaced sample of the texts, once per text.
fn check(db: &Database, texts: &[String], answers: &[Result<usize, String>], out: &mut Outcome) {
    let stride = texts.len().div_ceil(ORACLE_SAMPLE) | 1;
    let mut expected: Vec<Option<u64>> = vec![None; texts.len()];
    for (i, answer) in answers.iter().enumerate() {
        let t = i % texts.len();
        let text = &texts[t];
        match answer {
            Err(e) => out.fail(format!("op {i}: {e}: {text}")),
            Ok(_) if !t.is_multiple_of(stride) => {}
            Ok(rows) => {
                let want = *expected[t].get_or_insert_with(|| {
                    let q = parse_query(text).expect("parsed before");
                    let cap = MatchOptions::counting(Some(ROW_CAP as u64));
                    count_matches_naive(db.graph(), &q, cap)
                });
                if *rows as u64 != want {
                    out.fail(format!("op {i}: {rows} rows, oracle {want}: {text}"));
                }
            }
        }
    }
    let checked = expected.iter().flatten().count();
    out.notes.push(format!(
        "row counts of {checked} of {} texts re-executed by the oracle",
        texts.len()
    ));
}

/// A pass is many times what the plan cache holds, so a text is long
/// evicted when the next pass prepares it again: no operation may have
/// found its plan cached.
fn check_cold(delta: &CounterDelta, out: &mut Outcome) {
    if delta.plan_hits > 0.0 {
        out.fail(format!("{} operations hit the plan cache", delta.plan_hits));
    }
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Outcome {
    let mut warm = |db: Database| {
        let mut texts = ColdTexts::new(&db, cfg.seed);
        let session = db.session();
        let mut off = Spans::new();
        for (i, text) in texts.take(WARM_UP).iter().enumerate() {
            let _ = find(&session, text, &mut off, i, None);
        }
        drop(session);
        (db, texts)
    };
    let ((db, mut texts), setup) = harness::setup(cfg, &mut warm);
    let texts = texts.take(cfg.pass_ops());
    let n = cfg.passes() * texts.len();
    let mut out = Outcome::new(n);
    let mut answers: Vec<Result<usize, String>> = Vec::with_capacity(n);
    let mut db = Some(db);
    let mut delta = CounterDelta::default();

    if !cfg.trace {
        let passes = harness::measure_passes(cfg.timed_seconds(), |pass| {
            let db = harness::reopen(&mut db);
            let (session, before) = (db.session(), Counters::of(db));
            let lat = harness::time_pass(pass, texts.len(), |i| {
                answers.push(find(&session, &texts[i], spans, i, None));
            });
            delta += Counters::of(db).since(&before);
            lat
        });
        let db = db.expect("reopened");
        check(&db, &texts, &answers, &mut out);
        check_cold(&delta, &mut out);
        harness::end_to_end(&mut out, &setup, &passes, passes.closed_loop_ops_per_s());
        return out;
    }

    let mut twin = Some(harness::setup(cfg, &mut warm).0 .0);
    let mut lat = harness::Latencies::default();
    for pass in 0..cfg.passes() {
        let db = harness::reopen(&mut db);
        let sessions = [&db.session(), &harness::reopen(&mut twin).session()];
        let before = Counters::of(db);
        harness::measure_twins(pass, texts.len(), spans, &mut lat, |world, i, spans, op| {
            let id = pass * texts.len() + i;
            let answer = find(sessions[world], &texts[i], spans, id, op);
            if spans.on {
                answers.push(answer);
            }
        });
        delta += Counters::of(db).since(&before);
    }
    let db = db.expect("reopened");
    check(&db, &texts, &answers, &mut out);
    check_cold(&delta, &mut out);

    harness::report_graph(&mut out, &setup.graph);
    harness::report_trace_overhead(&mut out, &lat);
    delta.report(&mut out, n);
    let sampled = layers::sample(cfg, &texts);
    let probes: Vec<PatternQuery> = sampled
        .iter()
        .map(|t| parse_query(t).expect("parsed before"))
        .collect();
    let stages = layers::replay(cfg, &db, &probes, Some(&sampled));
    let parse_us = n as f64 * stages.parse_us;
    stages.report(&mut out, &delta, parse_us, lat.traced_wall_us());
    out
}
