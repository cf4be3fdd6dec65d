//! Fault-injected serving tests (`--features fault-inject`): a worker
//! panic under a live connection, a forced-slow search for the
//! dropped-connection drain bound, and a forced-slow request that pins a
//! whole wave into one batch.
//!
//! The injection points are process-wide (the n-th seed bound *by any
//! thread* sleeps), so these tests live in a test binary of their own and
//! each holds an armed plan to its end: no query of another test can
//! absorb a fault meant for this one.
#![cfg(feature = "fault-inject")]

mod common;

use common::{start, wait_for, KNOWS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::fault::{arm, FaultPlan};
use whyq_server::client::Client;
use whyq_server::protocol::{Reply, TermTag};
use whyq_server::{Server, ServerConfig};
use whyq_session::Database;

#[test]
fn worker_panic_under_a_live_connection_errors_that_request_only() {
    let (server, db) = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    {
        let _guard = arm(FaultPlan {
            panic_at_unit: Some(0),
            ..FaultPlan::default()
        });
        match client.query(KNOWS, None) {
            Err(whyq_server::client::ClientError::Server { code, message }) => {
                assert_eq!(code, "internal");
                assert!(message.contains("panic"), "got {message:?}");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
    } // disarmed — and quiet until the end, so the queries below cannot
      // absorb a fault another test of this file arms meanwhile
    let _quiet = arm(FaultPlan::default());
    // same connection, same database: still serving
    assert_eq!(client.query(KNOWS, None).unwrap().rows.len(), 1);
    assert_eq!(db.compile_count(), 1);
    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    server.shutdown();
}

/// Complete directed graph on `n` same-typed vertices — a directed
/// path query has combinatorially many injective matches, so the
/// search spans many budget check intervals.
fn clique(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|_| g.add_vertex([("type", Value::str("red"))]))
        .collect();
    for &a in &vs {
        for &b in &vs {
            if a != b {
                g.add_edge(a, b, "link", []);
            }
        }
    }
    g
}

const PATH3: &str = "(v0:red)-[:link]->(v1:red)-[:link]->(v2:red)";

/// Acceptance criterion: a dropped connection cancels its in-flight
/// query and the server drains it within a bounded interval. The
/// search is forced slow with a seed-bind delay so the drop
/// deterministically lands mid-flight, and the clique workload is
/// large enough that at least one budget check runs after the sleep.
#[test]
fn dropped_connection_cancels_its_in_flight_query_with_bounded_drain() {
    let db = Arc::new(Database::open(clique(20)).unwrap());
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let _guard = arm(FaultPlan {
        // the first bound seed sleeps 1 s — plenty of mid-flight time
        delay_at_seed: Some((0, Duration::from_secs(1))),
        ..FaultPlan::default()
    });
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        // `unlimited`: no deadline/step budget — only cancellation
        // can stop this request early
        client
            .send_only(&format!("QUERY @unlimited {PATH3}"))
            .unwrap();
        assert!(
            wait_for(&server, Duration::from_secs(2), |s| s.queue_depth == 1),
            "request never reached execution: {:?}",
            server.stats()
        );
    } // connection dropped with the query in flight
    let dropped_at = Instant::now();
    assert!(
        wait_for(&server, Duration::from_secs(3), |s| {
            s.cancelled == 1 && s.queue_depth == 0 && s.open_connections == 0
        }),
        "in-flight query was not drained: {:?}",
        server.stats()
    );
    // bounded drain: the injected sleep is 1 s and cancellation is
    // observed within one budget check interval after it
    assert!(
        dropped_at.elapsed() < Duration::from_secs(3),
        "drain took {:?}",
        dropped_at.elapsed()
    );
    // the server is unharmed
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let reply = probe.query(PATH3, None).unwrap();
    assert!(!reply.rows.is_empty());
    server.shutdown();
}

/// Requests that queue while the batcher is busy form the next batch, no
/// timer involved: a forced-slow request occupies the batcher, a
/// same-signature wave is admitted behind it, and the whole wave executes
/// as one batch on the one plan the slow request compiled.
#[test]
fn requests_queued_behind_a_busy_batcher_form_one_batch() {
    const CLIENTS: u64 = 5;
    let (server, db) = start(ServerConfig::default());
    let addr = server.local_addr();
    let _guard = arm(FaultPlan {
        // the first bound seed — the blocker's — sleeps; nothing after it
        delay_at_seed: Some((0, Duration::from_millis(600))),
        ..FaultPlan::default()
    });
    // `unlimited`: the wave's deadlines would otherwise run while it
    // queues behind the blocker
    let request = format!("QUERY @unlimited {KNOWS}");
    let mut blocker = Client::connect(addr).unwrap();
    blocker.send_only(&request).unwrap();
    // `admitted` moves just before the job is sent: give the batcher time
    // to receive the blocker alone and fall asleep inside it, so no wave
    // member can join its batch (well inside the 600 ms injected delay)
    assert!(wait_for(&server, Duration::from_secs(2), |s| s.admitted == 1));
    std::thread::sleep(Duration::from_millis(50));
    let mut wave: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    for client in &mut wave {
        client.send_only(&request).unwrap();
    }
    assert!(
        wait_for(&server, Duration::from_millis(400), |s| {
            s.admitted == CLIENTS + 1 && s.completed == 0
        }),
        "the wave must be admitted while the blocker still runs: {:?}",
        server.stats()
    );
    for client in wave.iter_mut().chain([&mut blocker]) {
        assert!(matches!(
            client.receive().unwrap(),
            Reply::Rows {
                termination: TermTag::Complete,
                ..
            }
        ));
    }
    let stats = server.stats();
    assert_eq!(stats.batched, CLIENTS, "stats: {stats:?}");
    assert_eq!(stats.completed, CLIENTS + 1);
    assert_eq!(db.compile_count(), 1);
    server.shutdown();
}
