//! `whyq` — the why-query command line.
//!
//! ```text
//! whyq generate <ldbc|dbpedia> [--scale N] [--seed S] [--out FILE]
//! whyq stats    <GRAPH>
//! whyq match    <GRAPH> <PATTERN> [--limit N]
//! whyq why      <GRAPH> <PATTERN> [--at-least N] [--at-most N] [--between LO HI]
//! whyq client   <ADDR> (<PATTERN> [--slo CLASS] | --stats | --shutdown)
//! ```
//!
//! Graphs use the text format of `whyq_graph::io`; patterns use the
//! `whyq_query::parser` syntax, e.g.
//! `'(p:person {name: "Anna"})-[:knows]->(q:person)'`. The `client`
//! subcommand speaks the `whyqd` wire protocol (`docs/wire-protocol.md`)
//! and exits nonzero on any protocol or transport error.

use std::process::ExitCode;
use whyquery::core::engine::WhyEngine;
use whyquery::core::problem::CardinalityGoal;
use whyquery::datagen::{dbpedia_graph, ldbc_graph, DbpediaConfig, LdbcConfig};
use whyquery::graph::{io, PropertyGraph};
use whyquery::matcher::MatchOptions;
use whyquery::query::{parse_query, PatternQuery};
use whyquery::session::Database;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("whyq: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  whyq generate <ldbc|dbpedia> [--scale N] [--seed S] [--out FILE]");
            eprintln!("  whyq stats    <GRAPH>");
            eprintln!("  whyq match    <GRAPH> <PATTERN> [--limit N]");
            eprintln!(
                "  whyq why      <GRAPH> <PATTERN> [--at-least N] [--at-most N] [--between LO HI]"
            );
            eprintln!("  whyq client   <ADDR> (<PATTERN> [--slo CLASS] | --stats | --shutdown)");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("match") => do_match(&args[1..]),
        Some("why") => why(&args[1..]),
        Some("client") => client(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
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

fn generate(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("generate needs <ldbc|dbpedia>")?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => parse_num(s, "seed")?,
        None => 42,
    };
    let g = match kind.as_str() {
        "ldbc" => {
            let persons: usize = match flag_value(args, "--scale") {
                Some(s) => parse_num(s, "scale")?,
                None => 300,
            };
            ldbc_graph(LdbcConfig { persons, seed })
        }
        "dbpedia" => {
            let entities: usize = match flag_value(args, "--scale") {
                Some(s) => parse_num(s, "scale")?,
                None => 2000,
            };
            dbpedia_graph(DbpediaConfig { entities, seed })
        }
        other => return Err(format!("unknown generator {other:?}")),
    };
    let text = io::write_graph(&g);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!(
                "wrote {} vertices / {} edges to {path}",
                g.num_vertices(),
                g.num_edges()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn load_graph(path: &str) -> Result<PropertyGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    io::read_graph(&text).map_err(|e| format!("parsing {path:?}: {e}"))
}

fn load_pattern(text: &str) -> Result<PatternQuery, String> {
    parse_query(text).map_err(|e| format!("pattern: {e}"))
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats needs <GRAPH>")?;
    let g = load_graph(path)?;
    println!("vertices: {}", g.num_vertices());
    println!("edges:    {}", g.num_edges());
    let d = whyquery::graph::stats::degree_summary(&g);
    println!(
        "degree:   min {} / mean {:.1} / max {}",
        d.min, d.mean, d.max
    );
    println!("\nvertex types:");
    for (ty, c) in whyquery::graph::stats::vertex_attr_histogram(&g, "type") {
        println!("  {ty:<24} {c}");
    }
    println!("\nedge types:");
    for (ty, c) in whyquery::graph::stats::edge_type_histogram(&g) {
        println!("  {ty:<24} {c}");
    }
    Ok(())
}

fn do_match(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("match needs <GRAPH>")?;
    let pattern = args.get(1).ok_or("match needs <PATTERN>")?;
    let limit: usize = match flag_value(args, "--limit") {
        Some(s) => parse_num(s, "limit")?,
        None => 10,
    };
    let db = Database::open(load_graph(path)?).map_err(|e| e.to_string())?;
    let session = db.session();
    let q = load_pattern(pattern)?;
    let prepared = session.prepare(&q).map_err(|e| e.to_string())?;
    // stream lazily: a small --limit never enumerates the full result set
    let results: Vec<_> = prepared.stream_opts(MatchOptions::limited(limit)).collect();
    println!("{} match(es) (showing up to {limit}):", results.len());
    for (i, r) in results.iter().enumerate() {
        let parts: Vec<String> = r
            .vertex_bindings()
            .iter()
            .map(|(qv, dv)| format!("{qv}={dv}"))
            .collect();
        println!("  #{:<3} {}", i + 1, parts.join("  "));
    }
    Ok(())
}

fn client(args: &[String]) -> Result<(), String> {
    use whyquery::server::client::Client;
    let addr = args.first().ok_or("client needs <ADDR>")?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
    if args.iter().any(|a| a == "--stats") {
        let stats = client.stats().map_err(|e| e.to_string())?;
        for (key, value) in stats.fields() {
            println!("{key}={value}");
        }
        return Ok(());
    }
    if args.iter().any(|a| a == "--shutdown") {
        let detail = client.shutdown_server().map_err(|e| e.to_string())?;
        println!("server {detail}");
        return Ok(());
    }
    let pattern = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("client needs <PATTERN> (or --stats / --shutdown)")?;
    let reply = client
        .query(pattern, flag_value(args, "--slo"))
        .map_err(|e| e.to_string())?;
    let capped = if reply.capped { " (capped)" } else { "" };
    println!(
        "{} row(s), termination {}{capped}:",
        reply.rows.len(),
        reply.termination
    );
    for (i, row) in reply.rows.iter().enumerate() {
        println!("  #{:<3} {row}", i + 1);
    }
    Ok(())
}

/// The cardinality goal of `whyq why`'s flags; `NonEmpty` without one.
/// A goal no result size can meet is a usage error: `--at-most 0` (the
/// goal also asks for at least one answer) and `--between LO HI` with
/// `LO > HI`.
fn parse_goal(args: &[String]) -> Result<CardinalityGoal, String> {
    if let Some(s) = flag_value(args, "--at-least") {
        Ok(CardinalityGoal::AtLeast(parse_num(s, "threshold")?))
    } else if let Some(s) = flag_value(args, "--at-most") {
        match parse_num(s, "threshold")? {
            0 => Err("--at-most 0 can never be met: the goal also asks for an answer".into()),
            t => Ok(CardinalityGoal::AtMost(t)),
        }
    } else if let Some(i) = args.iter().position(|a| a == "--between") {
        let lo: u64 = parse_num(args.get(i + 1).ok_or("--between needs LO HI")?, "lo")?;
        let hi: u64 = parse_num(args.get(i + 2).ok_or("--between needs LO HI")?, "hi")?;
        if lo > hi {
            return Err(format!(
                "--between {lo} {hi} can never be met: LO exceeds HI"
            ));
        }
        Ok(CardinalityGoal::Between(lo, hi))
    } else {
        Ok(CardinalityGoal::NonEmpty)
    }
}

fn why(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("why needs <GRAPH>")?;
    let pattern = args.get(1).ok_or("why needs <PATTERN>")?;
    let goal = parse_goal(args)?;

    let db = Database::open(load_graph(path)?).map_err(|e| e.to_string())?;
    let q = load_pattern(pattern)?;
    let engine = WhyEngine::new(&db);
    let d = engine.diagnose(&q, goal).map_err(|e| e.to_string())?;
    println!("cardinality: {}", d.cardinality);
    println!("problem:     {}", d.problem);
    // the engine counts only as far as the goal decides: count the
    // explanations' queries for their size
    if let Some(sub) = &d.subgraph {
        let size = engine.cardinality(&sub.mcs).map_err(|e| e.to_string())?;
        println!("\nsubgraph-based explanation:");
        println!(
            "  largest conforming subquery: {} vertices, {} edges ({size} results)",
            sub.mcs.num_vertices(),
            sub.mcs.num_edges(),
        );
        println!("  {}", sub.differential);
        if let Some(e) = sub.crossing_edge {
            println!("  bound crossed at query edge {e}");
        }
    }
    if let Some(rw) = &d.rewrite {
        println!("\nmodification-based explanation:");
        for m in &rw.mods {
            println!("  * {m}");
        }
        let size = engine.cardinality(&rw.query).map_err(|e| e.to_string())?;
        println!(
            "  rewritten query delivers {size} result(s), syntactic distance {:.3}",
            rw.syntactic_distance
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goal(args: &[&str]) -> Result<CardinalityGoal, String> {
        let args: Vec<String> = ["g.txt", "(p)"]
            .iter()
            .chain(args)
            .map(ToString::to_string)
            .collect();
        parse_goal(&args)
    }

    #[test]
    fn goals_parse_from_their_flags() {
        assert_eq!(goal(&[]), Ok(CardinalityGoal::NonEmpty));
        assert_eq!(goal(&["--at-least", "5"]), Ok(CardinalityGoal::AtLeast(5)));
        assert_eq!(goal(&["--at-most", "3"]), Ok(CardinalityGoal::AtMost(3)));
        assert_eq!(
            goal(&["--between", "2", "2"]),
            Ok(CardinalityGoal::Between(2, 2))
        );
        assert_eq!(
            goal(&["--between", "0", &u64::MAX.to_string()]),
            Ok(CardinalityGoal::Between(0, u64::MAX))
        );
    }

    #[test]
    fn goals_that_cannot_be_met_are_usage_errors() {
        assert!(goal(&["--at-most", "0"]).is_err());
        assert!(goal(&["--between", "5", "4"]).is_err());
        assert!(goal(&["--between", "5"]).is_err());
        assert!(goal(&["--at-least", "x"]).is_err());
    }
}
