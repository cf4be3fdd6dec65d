//! Protocol robustness: malformed, truncated, oversized and interleaved
//! frames must always yield a typed protocol error response — the server
//! never panics, hangs, or leaks a connection. The fault-injected half
//! (worker panics under live connections, forced-slow searches) is
//! `tests/fault.rs`.

mod common;

use common::{start, wait_for, KNOWS};
use rand::{RngExt, SeedableRng, StdRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use whyq_server::client::Client;
use whyq_server::protocol::{Reply, TermTag};
use whyq_server::ServerConfig;

/// Raw frame write: 4-byte big-endian length + payload bytes (which the
/// tests deliberately fill with garbage).
fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    let len = u32::try_from(payload.len()).unwrap();
    stream.write_all(&len.to_be_bytes()).unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

/// Read one response frame off a raw stream (10 s guard against hangs).
fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

#[test]
fn garbage_payloads_get_typed_errors_and_the_connection_survives() {
    let (server, _db) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // invalid UTF-8, control noise, an unknown verb, an empty frame
    for garbage in [
        &[0xC3u8, 0x28][..],
        &[0x00, 0x01, 0x02, 0xFF][..],
        b"BOGUS COMMAND",
        b"",
        b"QUERY \xF0\x28\x8C\x28",
    ] {
        write_raw_frame(&mut stream, garbage);
        let response = read_raw_frame(&mut stream).expect("server must answer, not hang");
        let text = String::from_utf8(response).expect("responses are UTF-8");
        assert!(text.starts_with("ERR "), "got {text:?} for {garbage:?}");
    }
    // the connection is still fully serviceable
    write_raw_frame(&mut stream, format!("QUERY {KNOWS}").as_bytes());
    let text = String::from_utf8(read_raw_frame(&mut stream).unwrap()).unwrap();
    assert!(text.starts_with("ROWS 1 complete"), "got {text:?}");
    server.shutdown();
}

#[test]
fn oversized_length_prefix_errors_then_closes_without_touching_others() {
    let (server, _db) = start(ServerConfig::default());
    let mut victim = TcpStream::connect(server.local_addr()).unwrap();
    let mut bystander = Client::connect(server.local_addr()).unwrap();

    // announce a 256 MiB frame: fatal — framing can no longer be trusted
    victim.write_all(&(256u32 << 20).to_be_bytes()).unwrap();
    victim.flush().unwrap();
    let text = String::from_utf8(read_raw_frame(&mut victim).unwrap()).unwrap();
    assert!(text.starts_with("ERR frame-too-large"), "got {text:?}");
    // ... after which the server closes this connection
    victim
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    assert_eq!(victim.read_to_end(&mut rest).unwrap_or(0), 0);

    // the other connection (and new ones) never noticed
    assert_eq!(bystander.query(KNOWS, None).unwrap().rows.len(), 1);
    assert!(
        wait_for(&server, Duration::from_secs(2), |s| s.open_connections == 1),
        "victim connection leaked: {:?}",
        server.stats()
    );
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaks_nothing() {
    let (server, _db) = start(ServerConfig::default());
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // announce 100 bytes, send 3, vanish
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"abc").unwrap();
        stream.flush().unwrap();
    }
    assert!(
        wait_for(&server, Duration::from_secs(2), |s| {
            s.connections == 1 && s.open_connections == 0
        }),
        "truncated connection leaked: {:?}",
        server.stats()
    );
    // the server keeps serving
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.query(KNOWS, None).unwrap().rows.len(), 1);
    server.shutdown();
}

#[test]
fn interleaved_frames_across_connections_answer_in_per_connection_order() {
    let (server, _db) = start(ServerConfig::default());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    // interleave pipelined traffic across two connections
    a.send_only("HELLO").unwrap();
    b.send_only(&format!("QUERY {KNOWS}")).unwrap();
    a.send_only(&format!("QUERY {KNOWS}")).unwrap();
    b.send_only("STATS").unwrap();
    a.send_only("NOPE").unwrap();
    // each connection sees its own responses, in its own send order
    assert!(matches!(a.receive().unwrap(), Reply::Ok(d) if d.contains("whyqd")));
    assert!(matches!(
        a.receive().unwrap(),
        Reply::Rows {
            termination: TermTag::Complete,
            ..
        }
    ));
    assert!(matches!(a.receive().unwrap(), Reply::Err { code, .. } if code == "unknown-command"));
    assert!(matches!(
        b.receive().unwrap(),
        Reply::Rows {
            termination: TermTag::Complete,
            ..
        }
    ));
    assert!(matches!(b.receive().unwrap(), Reply::Stats(_)));
    server.shutdown();
}

/// Seeded fuzz: random payloads (random bytes, random lengths, random
/// fragment pacing) must never panic or hang the server; every fully
/// framed payload gets a response while framing holds, and after each
/// session a fresh client must find the database fully serviceable.
#[test]
fn fuzzed_frames_never_panic_or_hang_the_server() {
    let (server, _db) = start(ServerConfig::default());
    let mut rng = StdRng::seed_from_u64(0x5eed_f00d);
    for round in 0..40 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let frames = rng.random_range(1..5usize);
        for _ in 0..frames {
            let len = rng.random_range(0..64usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
            write_raw_frame(&mut stream, &payload);
            let Some(response) = read_raw_frame(&mut stream) else {
                panic!("round {round}: server hung or died on {payload:?}");
            };
            let text = String::from_utf8(response).expect("responses are UTF-8");
            assert!(
                text.starts_with("ERR ")
                    || text.starts_with("OK ")
                    || text.starts_with("ROWS ")
                    || text.starts_with("STATS"),
                "round {round}: unframed response {text:?}"
            );
        }
        // sometimes vanish mid-frame on the way out
        if rng.random_bool(0.5) {
            let _ = stream.write_all(&1000u32.to_be_bytes());
        }
        drop(stream);
        let mut probe = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            probe.query(KNOWS, None).unwrap().rows.len(),
            1,
            "round {round}: database stopped serving"
        );
    }
    // every fuzz connection was torn down, none leaked
    assert!(
        wait_for(&server, Duration::from_secs(3), |s| s.open_connections == 0),
        "fuzz connections leaked: {:?}",
        server.stats()
    );
    server.shutdown();
}
