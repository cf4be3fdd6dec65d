//! `whyqd` — the why-query network server.
//!
//! ```text
//! whyqd [--addr HOST:PORT] (--graph FILE | --generate <ldbc|dbpedia> [--scale N] [--seed S])
//!       [--threads N] [--queue-depth N] [--batch-window-us U]
//!       [--max-rows N] [--drain-ms D]
//! ```
//!
//! `--batch-window-us U` (default 500) is the longest the batcher holds a
//! batch back for a request that is admitted but still on its way to it;
//! an idle server never waits, and `0` means never wait at all.
//!
//! Serves the length-prefixed wire protocol of `docs/wire-protocol.md`
//! (`HELLO`, `QUERY`/`PREPARE`/`EXEC`, `CANCEL`, `STATS`, `SHUTDOWN`)
//! over one shared, sealed database. Prints the bound address on stdout
//! once listening — scripts (and CI) parse that line — and runs until a
//! client sends `SHUTDOWN`, then drains in-flight queries and exits.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use whyquery::datagen::{dbpedia_graph, ldbc_graph, DbpediaConfig, LdbcConfig};
use whyquery::graph::{io, PropertyGraph};
use whyquery::server::{Server, ServerConfig};
use whyquery::session::Database;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("whyqd: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!(
                "  whyqd [--addr HOST:PORT] (--graph FILE | --generate <ldbc|dbpedia> \
                 [--scale N] [--seed S])"
            );
            eprintln!(
                "        [--threads N] [--queue-depth N] [--batch-window-us U] \
                 [--max-rows N] [--drain-ms D]"
            );
            eprintln!(
                "  --batch-window-us U  longest wait for a request already admitted and on \
                 its way to the batcher\n                       (default 500; an idle server \
                 never waits; 0 = never wait)"
            );
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn load_graph(args: &[String]) -> Result<PropertyGraph, String> {
    if let Some(path) = flag_value(args, "--graph") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
        return io::read_graph(&text).map_err(|e| format!("parsing {path:?}: {e}"));
    }
    if let Some(kind) = flag_value(args, "--generate") {
        let seed: u64 = match flag_value(args, "--seed") {
            Some(s) => parse_num(s, "seed")?,
            None => 42,
        };
        return match kind {
            "ldbc" => {
                let persons: usize = match flag_value(args, "--scale") {
                    Some(s) => parse_num(s, "scale")?,
                    None => 300,
                };
                Ok(ldbc_graph(LdbcConfig { persons, seed }))
            }
            "dbpedia" => {
                let entities: usize = match flag_value(args, "--scale") {
                    Some(s) => parse_num(s, "scale")?,
                    None => 2000,
                };
                Ok(dbpedia_graph(DbpediaConfig { entities, seed }))
            }
            other => Err(format!("unknown generator {other:?}")),
        };
    }
    Err("need --graph FILE or --generate <ldbc|dbpedia>".into())
}

fn build_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(s) = flag_value(args, "--threads") {
        config.threads = parse_num(s, "threads")?;
    }
    if let Some(s) = flag_value(args, "--queue-depth") {
        config.max_queue_depth = parse_num(s, "queue depth")?;
    }
    if let Some(s) = flag_value(args, "--batch-window-us") {
        config.batch_window = Duration::from_micros(parse_num(s, "batch window")?);
    }
    if let Some(s) = flag_value(args, "--max-rows") {
        config.max_rows = parse_num(s, "row cap")?;
    }
    if let Some(s) = flag_value(args, "--drain-ms") {
        config.drain_deadline = Duration::from_millis(parse_num(s, "drain deadline")?);
    }
    Ok(config)
}

fn run(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    let config = build_config(args)?;
    let db = Arc::new(Database::open(graph).map_err(|e| e.to_string())?);
    eprintln!(
        "whyqd: serving {} vertices / {} edges",
        db.graph().num_vertices(),
        db.graph().num_edges()
    );
    let server = Server::start(db, config).map_err(|e| format!("bind: {e}"))?;
    // scripts parse this exact line to learn the (possibly ephemeral) port
    println!("listening {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // runs until a client sends SHUTDOWN, then drains and stops
    server.join();
    eprintln!("whyqd: drained, exiting");
    Ok(())
}
