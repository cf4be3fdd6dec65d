//! # whyq-server — the `whyqd` network serving layer
//!
//! A dependency-free TCP front end multiplexing many client connections
//! onto one shared [`Database`], built from `std::net` plus the
//! workspace's own primitives: the scoped-thread
//! [`Executor`](whyq_session::Executor) for batch execution and
//! [`Budget`]/[`CancelToken`] governance for per-request SLOs. It borrows
//! the shape of an inference-serving front end — admission control,
//! same-signature batching, deadlines, load shedding — because worst-case
//! pattern matching is as unpredictable as model inference, and the
//! why-query contract of *tagged partial answers* (`deadline`, `budget`,
//! `cancelled`, `shed`) makes degraded responses first-class servable
//! content rather than errors.
//!
//! The pieces, one module each:
//!
//! * [`protocol`] — the length-prefixed text wire protocol (`HELLO`,
//!   `QUERY`/`PREPARE`/`EXEC`, `CANCEL`, `STATS`, `SHUTDOWN`), its typed
//!   error space, and the response grammar. Specified in
//!   `docs/wire-protocol.md`.
//! * [`conn`](self) — per connection, a frame-reader thread and a worker
//!   thread: pipelined commands are answered strictly in order, `CANCEL`
//!   trips the in-flight request's token out of band, and a dropped
//!   connection cancels its query within one budget check interval.
//! * [`batch`](self) — all admitted requests funnel into one batcher
//!   thread that dispatches a lone request at once and coalesces the
//!   requests that queued behind a busy batch into one
//!   `Executor::find_batch` call; same-signature requests share one
//!   compiled plan through the database's plan cache.
//! * [`stats`] — lock-free counters behind the `STATS` command:
//!   admitted / shed / batched / degraded / cancelled and the queue-depth
//!   gauge, the raw inputs of any future adaptive admission policy.
//! * [`client`] — a small blocking client used by `whyq client`, the
//!   integration tests and the load generator.
//!
//! ## Request lifecycle
//!
//! ```text
//! frame → parse → admission (queue depth < bound? else shed)
//!       → per-request Budget from the SLO class (+ fresh CancelToken)
//!       → batch queue → all queued (≤ max_batch) → Executor::find_batch
//!       → rows + termination tag (complete | deadline | budget | cancelled)
//! ```
//!
//! ## Example
//!
//! ```
//! use whyq_graph::{PropertyGraph, Value};
//! use whyq_server::{client::Client, Server, ServerConfig};
//! use whyq_session::Database;
//! use std::sync::Arc;
//!
//! let mut g = PropertyGraph::new();
//! let a = g.add_vertex([("type", Value::str("person"))]);
//! let b = g.add_vertex([("type", Value::str("person"))]);
//! g.add_edge(a, b, "knows", []);
//!
//! let db = Arc::new(Database::open(g)?);
//! let server = Server::start(db, ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.query("(p:person)-[:knows]->(q:person)", None)?;
//! assert_eq!(reply.rows.len(), 1);
//! assert!(reply.termination.is_complete());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]
// Every public item documents itself; CI's docs lane denies this warning.
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod stats;

mod batch;
mod conn;

pub use stats::{ServerStats, StatsSnapshot};

use batch::BatchJob;
use conn::ConnHandle;
use protocol::ProtocolError;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};
use whyq_matcher::{Budget, CancelToken};
use whyq_session::Database;

/// One service-level-objective class: the [`Budget`] template a request
/// of this class executes under (per the ROADMAP "Budget semantics"
/// note: budgets are derived at admission, one per request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloClass {
    /// Class name as it appears on the wire (`QUERY @interactive …`).
    pub name: String,
    /// Wall-clock deadline, measured from admission.
    pub deadline: Option<Duration>,
    /// Step budget (DFS transitions, block-granular).
    pub steps: Option<u64>,
}

impl SloClass {
    /// A named class with the given limits.
    pub fn new(name: impl Into<String>, deadline: Option<Duration>, steps: Option<u64>) -> Self {
        SloClass {
            name: name.into(),
            deadline,
            steps,
        }
    }

    /// Build the per-request [`Budget`]: this class's limits plus the
    /// request's own cancel token. Combinators apply before any clone is
    /// shared, as the budget contract requires.
    pub fn budget(&self, token: &CancelToken) -> Budget {
        let mut b = Budget::cancelled_by(token);
        if let Some(d) = self.deadline {
            b = b.with_deadline(d);
        }
        if let Some(s) = self.steps {
            b = b.with_steps(s);
        }
        b
    }
}

/// Server tuning knobs. [`ServerConfig::default`] binds an ephemeral
/// loopback port with moderate limits — the configuration the tests and
/// the `whyqd` binary start from.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` = ephemeral loopback port).
    pub addr: String,
    /// Executor worker threads for batch execution. `0` = environment
    /// default (`WHYQ_THREADS`, else available parallelism).
    pub threads: usize,
    /// Admission bound: a request arriving while this many admitted
    /// requests are unanswered is shed (`ROWS 0 shed`).
    pub max_queue_depth: usize,
    /// Upper bound on how long the batcher holds a batch back for a
    /// request that has been admitted but has not reached it yet. Not a
    /// timer: with nothing on its way a batch is dispatched at once.
    /// Zero means never wait (arrivals already queued still coalesce).
    pub batch_window: Duration,
    /// Hard cap on requests per batch.
    pub max_batch: usize,
    /// Row cap per response; overflow is truncated and tagged `capped`.
    pub max_rows: usize,
    /// Frame payload cap in bytes (see [`protocol::DEFAULT_MAX_FRAME`]).
    pub max_frame: usize,
    /// How long graceful shutdown waits for in-flight requests before
    /// cancelling them.
    pub drain_deadline: Duration,
    /// Class used when a request names none.
    pub default_class: String,
    /// The SLO class table.
    pub classes: Vec<SloClass>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            max_queue_depth: 64,
            batch_window: Duration::from_micros(500),
            max_batch: 32,
            max_rows: 1000,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            drain_deadline: Duration::from_secs(2),
            default_class: "standard".to_string(),
            classes: vec![
                // tail-latency-sensitive traffic: tight wall clock, small
                // step budget — answers degrade rather than queue
                SloClass::new(
                    "interactive",
                    Some(Duration::from_millis(50)),
                    Some(2_000_000),
                ),
                // the default: roomy enough for real analytical patterns
                SloClass::new(
                    "standard",
                    Some(Duration::from_millis(500)),
                    Some(20_000_000),
                ),
                // background work: wall-clock bound only
                SloClass::new("batch", Some(Duration::from_secs(5)), None),
                // explicitly ungoverned (still cancellable)
                SloClass::new("unlimited", None, None),
            ],
        }
    }
}

impl ServerConfig {
    /// Resolve a wire class name (or the default when `None`).
    pub fn class(&self, name: Option<&str>) -> Result<&SloClass, ProtocolError> {
        let name = name.unwrap_or(&self.default_class);
        self.classes
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| ProtocolError::BadClass {
                class: name.to_string(),
            })
    }
}

/// Lifecycle states of [`Shared::state`].
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// State shared by the accept loop, the batcher and every connection.
pub(crate) struct Shared {
    pub(crate) db: Arc<Database>,
    pub(crate) config: ServerConfig,
    pub(crate) stats: ServerStats,
    state: AtomicU8,
    /// The batch-queue sender; `None` once the server has stopped.
    /// Connections clone it per request, so dropping this handle (plus
    /// the transient clones) is what lets the batcher exit.
    jobs: Mutex<Option<mpsc::Sender<BatchJob>>>,
    /// Requests admitted but not yet received by the batcher: counted in
    /// by the connection worker just before it sends the job, counted out
    /// by the batcher per job received, which keeps collecting a batch
    /// only while this is non-zero.
    pub(crate) in_transit: AtomicUsize,
    conns: Mutex<HashMap<u64, Arc<ConnHandle>>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    /// The full `STATS` surface: the server's own counters plus the
    /// shared database's sibling-cache counters merged in.
    pub(crate) fn stats_snapshot(&self) -> StatsSnapshot {
        let sib = self.db.sibling_stats();
        self.stats
            .snapshot()
            .with_sibling(sib.hits, sib.invalidations)
    }

    pub(crate) fn is_running(&self) -> bool {
        self.state.load(Ordering::Acquire) == RUNNING
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.state.load(Ordering::Acquire) == STOPPED
    }

    /// Enter the draining state (idempotent; the accept loop takes over).
    pub(crate) fn begin_drain(&self) {
        let _ = self
            .state
            .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire);
    }

    /// A sender into the batch queue, if the server still accepts work.
    pub(crate) fn job_sender(&self) -> Option<mpsc::Sender<BatchJob>> {
        self.lock_jobs().clone()
    }

    pub(crate) fn unregister(&self, id: u64) {
        self.lock_conns().remove(&id);
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, Option<mpsc::Sender<BatchJob>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_conns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<ConnHandle>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running `whyqd` server: an accept loop, a batcher, and two threads
/// per live connection, all over one shared [`Database`].
///
/// Start with [`Server::start`], stop with [`Server::shutdown`] (local)
/// or the `SHUTDOWN` wire command (remote); both run the same graceful
/// drain: stop accepting, wait out in-flight requests up to
/// [`ServerConfig::drain_deadline`], then cancel stragglers through
/// their per-request tokens.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Bind, spawn the accept loop and the batcher, and start serving.
    ///
    /// The database arrives in an `Arc` so the caller keeps a handle —
    /// tests assert on [`Database::compile_count`] while the server runs.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (jobs_tx, jobs_rx) = mpsc::channel::<BatchJob>();
        let shared = Arc::new(Shared {
            db,
            config,
            stats: ServerStats::default(),
            state: AtomicU8::new(RUNNING),
            jobs: Mutex::new(Some(jobs_tx)),
            in_transit: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || batch::run(&shared, &jobs_rx))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener, batcher))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` configs).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// A point-in-time copy of the observability counters (server
    /// counters plus the database's sibling-cache counters).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Request graceful shutdown without waiting (idempotent).
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Block until the server has fully stopped — i.e. until someone
    /// (this process or a `SHUTDOWN` frame) initiates shutdown and the
    /// drain completes. This is the `whyqd` main-thread call.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Graceful shutdown: initiate the drain and wait for it to finish.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // a dropped handle must not strand the accept thread in a bound
        // socket; drain asynchronously (join only happens via `join`)
        self.shared.begin_drain();
    }
}

/// The accept loop: poll-accept while running, then run the drain
/// sequence and stop.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, batcher: thread::JoinHandle<()>) {
    while shared.is_running() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let handle = Arc::new(ConnHandle::new(id));
                shared.lock_conns().insert(id, Arc::clone(&handle));
                ServerStats::incr(&shared.stats.connections);
                shared.stats.open_connections.fetch_add(1, Ordering::AcqRel);
                conn::spawn(Arc::clone(shared), stream, handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }

    // ---- drain sequence -------------------------------------------------
    // 1. in-flight requests get until the drain deadline to finish
    let deadline = Instant::now() + shared.config.drain_deadline;
    while shared.stats.snapshot().queue_depth > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    // 2. stragglers are cancelled through their per-request tokens, and
    //    every connection is condemned
    let conns: Vec<Arc<ConnHandle>> = shared.lock_conns().values().cloned().collect();
    for conn in conns {
        conn.kill();
    }
    shared.state.store(STOPPED, Ordering::Release);
    // 3. dropping the job sender lets the batcher finish its queue and
    //    exit once connection workers (transient clones) are gone
    shared.lock_jobs().take();
    // 4. bounded wait for connection teardown, then reap the batcher
    let teardown_deadline = Instant::now() + Duration::from_secs(3);
    while shared.stats.snapshot().open_connections > 0 && Instant::now() < teardown_deadline {
        thread::sleep(Duration::from_millis(5));
    }
    if shared.stats.snapshot().open_connections == 0 {
        let _ = batcher.join();
    }
    // the listener closes when this function returns
}
