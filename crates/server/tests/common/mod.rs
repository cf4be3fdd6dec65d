//! Helpers shared by the serving suites (each test binary compiles this
//! module on its own).

use std::sync::Arc;
use std::time::{Duration, Instant};
use whyq_graph::{PropertyGraph, Value};
use whyq_server::{Server, ServerConfig, StatsSnapshot};
use whyq_session::Database;

/// Two persons who know each other plus a city — one `knows` match.
pub fn social() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let a = g.add_vertex([("type", Value::str("person"))]);
    let b = g.add_vertex([("type", Value::str("person"))]);
    let city = g.add_vertex([("type", Value::str("city"))]);
    g.add_edge(a, b, "knows", []);
    g.add_edge(a, city, "livesIn", []);
    g.add_edge(b, city, "livesIn", []);
    g
}

pub const KNOWS: &str = "(p:person)-[:knows]->(q:person)";

/// A server over [`social`], with a handle on its database.
pub fn start(config: ServerConfig) -> (Server, Arc<Database>) {
    let db = Arc::new(Database::open(social()).unwrap());
    let server = Server::start(Arc::clone(&db), config).unwrap();
    (server, db)
}

/// Poll the server counters until `pred` holds or `bound` elapses.
pub fn wait_for(server: &Server, bound: Duration, pred: impl Fn(&StatsSnapshot) -> bool) -> bool {
    let deadline = Instant::now() + bound;
    loop {
        if pred(&server.stats()) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
