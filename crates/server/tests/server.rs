//! End-to-end serving tests over real TCP: round trips, admission
//! control, same-signature batching, pipelining order, counters and
//! graceful shutdown. The test that pins a whole wave into one batch
//! needs a forced-slow request: `tests/fault.rs`.

mod common;

use common::{start, wait_for, KNOWS};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use whyq_graph::{PropertyGraph, Value};
use whyq_server::client::Client;
use whyq_server::protocol::TermTag;
use whyq_server::{Server, ServerConfig, SloClass};
use whyq_session::Database;

#[test]
fn hello_query_prepare_exec_round_trip() {
    let (server, _db) = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let hello = client.hello().unwrap();
    assert!(hello.contains("whyqd proto=1"), "got {hello:?}");
    assert!(hello.contains("vertices=3"), "got {hello:?}");

    let reply = client.query(KNOWS, None).unwrap();
    assert_eq!(reply.termination, TermTag::Complete);
    assert_eq!(reply.rows.len(), 1);
    // one line of `name=vertex` bindings per result graph
    assert!(reply.rows[0].contains('='), "got {:?}", reply.rows[0]);
    assert!(!reply.capped);

    // the prepared path answers identically and reuses the cached plan
    let handle = client.prepare(KNOWS).unwrap();
    let execd = client.exec(handle, Some("interactive")).unwrap();
    assert_eq!(execd.rows, reply.rows);
    assert_eq!(server.database().compile_count(), 1);

    let stats = client.stats().unwrap();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!((stats.shed, stats.queue_depth), (0, 0));

    server.shutdown();
}

#[test]
fn typed_errors_keep_the_connection_serving() {
    let (server, _db) = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (payload, code) in [
        ("NOPE", "unknown-command"),
        ("QUERY (((", "bad-pattern"),
        ("QUERY", "bad-arguments"),
        ("EXEC 99", "bad-handle"),
        ("QUERY @warp (p:person)", "bad-class"),
        ("", "empty-frame"),
    ] {
        match client.send(payload) {
            Ok(whyq_server::protocol::Reply::Err { code: got, .. }) => {
                assert_eq!(got, code, "for payload {payload:?}");
            }
            other => panic!("expected ERR {code} for {payload:?}, got {other:?}"),
        }
    }
    // same connection, still serving
    let reply = client.query(KNOWS, None).unwrap();
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(server.stats().protocol_errors, 6);
    server.shutdown();
}

#[test]
fn admission_control_sheds_with_a_termination_tag() {
    let config = ServerConfig {
        max_queue_depth: 0, // everything sheds
        ..ServerConfig::default()
    };
    let (server, _db) = start(config);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.query(KNOWS, None).unwrap();
    // a shed is a servable degraded answer, not an error
    assert_eq!(reply.termination, TermTag::Shed);
    assert!(reply.rows.is_empty());
    let stats = client.stats().unwrap();
    assert_eq!((stats.shed, stats.admitted), (1, 0));
    server.shutdown();
}

#[test]
fn same_signature_concurrent_clients_share_one_compiled_plan() {
    const CLIENTS: usize = 6;
    let (server, db) = start(ServerConfig::default());
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.query(KNOWS, None).unwrap()
            })
        })
        .collect();
    for worker in workers {
        let reply = worker.join().unwrap();
        assert_eq!(reply.termination, TermTag::Complete);
        assert_eq!(reply.rows.len(), 1);
    }
    // the acceptance criterion: N clients, one compile — however the
    // wave happened to split into batches
    assert_eq!(db.compile_count(), 1);
    let stats = server.stats();
    assert_eq!(
        (stats.admitted, stats.completed),
        (CLIENTS as u64, CLIENTS as u64)
    );
    server.shutdown();
}

/// The batch window is an upper bound on waiting for requests that are
/// on their way, not a timer: a lone connection never pays it. Twenty
/// sequential round trips against a 200 ms window finish in a fraction of
/// *one* window (a timer-driven batcher would need four seconds).
#[test]
fn an_idle_server_never_waits_out_its_batch_window() {
    const ROUND_TRIPS: u64 = 20;
    let window = Duration::from_millis(200);
    let config = ServerConfig {
        batch_window: window,
        ..ServerConfig::default()
    };
    let (server, _db) = start(config);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(KNOWS).unwrap();
    let started = Instant::now();
    for i in 0..ROUND_TRIPS {
        let reply = if i % 2 == 0 {
            client.query(KNOWS, None).unwrap()
        } else {
            client.exec(handle, None).unwrap()
        };
        assert_eq!(
            (reply.termination, reply.rows.len()),
            (TermTag::Complete, 1)
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < window,
        "{ROUND_TRIPS} round trips took {elapsed:?} against a {window:?} window"
    );
    let stats = server.stats();
    assert_eq!(
        (stats.admitted, stats.completed, stats.shed),
        (ROUND_TRIPS, ROUND_TRIPS, 0)
    );
    server.shutdown();
}

#[test]
fn pipelined_commands_answer_in_request_order() {
    let (server, _db) = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    // three frames in flight before any response is read
    client.send_only(&format!("QUERY {KNOWS}")).unwrap();
    client.send_only("CANCEL").unwrap();
    client.send_only("HELLO").unwrap();
    let first = client.receive().unwrap();
    assert!(
        matches!(first, whyq_server::protocol::Reply::Rows { .. }),
        "got {first:?}"
    );
    assert_eq!(
        client.receive().unwrap(),
        whyq_server::protocol::Reply::Ok("cancel".into())
    );
    match client.receive().unwrap() {
        whyq_server::protocol::Reply::Ok(detail) => assert!(detail.contains("whyqd")),
        other => panic!("got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn slo_classes_resolve_and_unknown_budget_is_usable() {
    let config = ServerConfig {
        classes: vec![SloClass::new(
            "tiny",
            Some(Duration::from_millis(1)),
            Some(1),
        )],
        default_class: "tiny".to_string(),
        ..ServerConfig::default()
    };
    let (server, _db) = start(config);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // the 1-step budget trips at the first block: the answer degrades
    // into a tagged partial instead of erroring
    let reply = client.query(KNOWS, Some("tiny")).unwrap();
    assert!(
        matches!(
            reply.termination,
            TermTag::Budget | TermTag::Deadline | TermTag::Complete
        ),
        "got {:?}",
        reply.termination
    );
    let stats = server.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed + stats.degraded, 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_via_wire_command_drains_and_stops() {
    let (server, _db) = start(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(KNOWS, None).unwrap().rows.len(), 1);
    let detail = client.shutdown_server().unwrap();
    assert!(detail.contains("draining"), "got {detail:?}");
    // further work is refused while draining
    match client.query(KNOWS, None) {
        Ok(reply) => panic!("draining server served {reply:?}"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("shutting-down") || msg.contains("i/o") || msg.contains("closed"),
                "got {msg}"
            );
        }
    }
    // the accept loop exits and the whole server winds down
    server.join();
}

#[test]
fn dropped_connection_is_reaped() {
    let (server, _db) = start(ServerConfig::default());
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.query(KNOWS, None).unwrap().rows.len(), 1);
    } // client dropped: socket closes with no goodbye
    assert!(
        wait_for(&server, Duration::from_secs(2), |s| {
            s.open_connections == 0 && s.disconnects == 1
        }),
        "connection not reaped: {:?}",
        server.stats()
    );
    server.shutdown();
}

/// Two persons living in differently-typed places — the `city` and
/// `town` query variants below each match exactly one of them.
fn two_towns() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let p1 = g.add_vertex([("type", Value::str("person"))]);
    let p2 = g.add_vertex([("type", Value::str("person"))]);
    let x = g.add_vertex([("type", Value::str("city"))]);
    let y = g.add_vertex([("type", Value::str("town"))]);
    g.add_edge(p1, x, "livesIn", []);
    g.add_edge(p2, y, "livesIn", []);
    g
}

/// The batcher's gap: clients sending *sibling* signatures (same shape,
/// one `OneOf` constant apart) used to recompile per variant. With the
/// delta path, the second variant's plan is derived from the first —
/// `compile_count` stays flat — and repeats replay from the sibling
/// cache, observable through the new `STATS` counters.
#[test]
fn sibling_signatures_derive_one_plan_and_replay_from_the_sibling_cache() {
    const LIVES_IN_CITY: &str = "(p:person)-[:livesIn]->(c:city)";
    const LIVES_IN_TOWN: &str = "(p:person)-[:livesIn]->(c:town)";
    let db = Arc::new(Database::open(two_towns()).unwrap());
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // warm the parent plan so the sibling wave below can derive from it
    let mut warm = Client::connect(addr).unwrap();
    let reply = warm.query(LIVES_IN_CITY, None).unwrap();
    assert_eq!(
        (reply.termination, reply.rows.len()),
        (TermTag::Complete, 1)
    );
    assert_eq!(db.compile_count(), 1);

    // a concurrent wave mixing the parent signature and its one-constant
    // sibling: however it splits into batches, the sibling's plan is
    // patched from the parent instead of compiled
    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let pattern = if i % 2 == 0 {
                    LIVES_IN_CITY
                } else {
                    LIVES_IN_TOWN
                };
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.query(pattern, None).unwrap()
            })
        })
        .collect();
    for worker in workers {
        let reply = worker.join().unwrap();
        assert_eq!(reply.termination, TermTag::Complete);
        assert_eq!(reply.rows.len(), 1);
    }

    // the satellite acceptance: sibling signatures stay on one compile
    assert_eq!(
        db.compile_count(),
        1,
        "the one-OneOf-constant sibling must derive, not recompile"
    );
    let sib = db.sibling_stats();
    assert!(sib.derived_plans >= 1, "sibling stats: {sib:?}");
    assert!(
        sib.hits >= 1,
        "repeat executions replay from the sibling cache: {sib:?}"
    );

    // the counters are first-class wire surface, over TCP and in-process
    let wire = warm.stats().unwrap();
    let local = server.stats();
    assert!(wire.sibling_hits >= 1, "STATS: {wire:?}");
    assert_eq!(local.sibling_hits, db.sibling_stats().hits);
    assert_eq!(
        local.sibling_invalidations,
        db.sibling_stats().invalidations
    );
    server.shutdown();
}
