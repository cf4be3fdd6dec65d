//! Per-connection machinery: a frame-reader thread and a worker thread.
//!
//! Each accepted socket gets two threads joined by an mpsc queue:
//!
//! * the **reader** decodes frames and parses commands. It handles
//!   `CANCEL` out of band — tripping the in-flight request's
//!   [`CancelToken`] the moment the frame arrives, while still queuing
//!   the command so its acknowledgement stays in pipeline order — and on
//!   EOF or a socket error it kills the connection, which trips the
//!   token too: **a dropped connection cancels its in-flight query**,
//!   and the matcher observes that within one budget check interval.
//! * the **worker** owns the write half, executes commands in order, and
//!   is the only thread that ever writes a response — so pipelined
//!   requests (many frames in flight before the first response) are
//!   answered strictly in request order.
//!
//! Both threads poll the connection's dead flag and the server state with
//! short read/recv timeouts, so teardown — local or remote — is bounded.

use crate::batch::BatchJob;
use crate::protocol::{
    parse_command, parse_pattern, render_err, render_rows, write_frame, Command, FrameError,
    FrameReader, ProtocolError, TermTag, PROTOCOL_VERSION,
};
use crate::stats::ServerStats;
use crate::Shared;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;
use whyq_matcher::{CancelToken, MatchOptions, Termination};
use whyq_query::PatternQuery;
use whyq_session::WhyqError;

/// How often blocked reads/receives wake up to poll liveness flags.
const POLL: Duration = Duration::from_millis(20);

/// Shared per-connection state: the registry entry the server uses to
/// cancel and tear the connection down from outside.
#[derive(Debug)]
pub(crate) struct ConnHandle {
    /// Registry key.
    pub id: u64,
    /// The [`CancelToken`] of the request currently in flight (refreshed
    /// by the worker at every admission). Cancelling it is always safe:
    /// tokens are single-request and one-way.
    cancel_slot: Mutex<CancelToken>,
    /// Set once the connection is condemned (peer gone, fatal protocol
    /// error, server teardown). Both threads poll it.
    dead: AtomicBool,
}

impl ConnHandle {
    pub(crate) fn new(id: u64) -> Self {
        ConnHandle {
            id,
            cancel_slot: Mutex::new(CancelToken::new()),
            dead: AtomicBool::new(false),
        }
    }

    fn slot(&self) -> std::sync::MutexGuard<'_, CancelToken> {
        // a poisoned slot only means a panicking thread held the lock
        // mid-store; the token inside is always valid to use
        self.cancel_slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Install the token of a newly admitted request.
    fn arm(&self, token: CancelToken) {
        *self.slot() = token;
    }

    /// Cancel whatever request is currently in flight.
    pub(crate) fn cancel_current(&self) {
        self.slot().cancel();
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Condemn the connection and cancel its in-flight request.
    pub(crate) fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        self.cancel_current();
    }
}

/// Launch the reader/worker pair for one accepted socket. The threads are
/// detached; they unregister the connection and fix the gauges on exit.
pub(crate) fn spawn(shared: Arc<Shared>, stream: TcpStream, handle: Arc<ConnHandle>) {
    let Ok(writer) = stream.try_clone() else {
        teardown(&shared, &handle);
        return;
    };
    // short read timeouts turn blocking reads into a liveness poll
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<Result<Command, ProtocolError>>();
    {
        let shared = Arc::clone(&shared);
        let handle = Arc::clone(&handle);
        thread::spawn(move || read_loop(&shared, stream, &handle, &tx));
    }
    thread::spawn(move || {
        work_loop(&shared, writer, &handle, &rx);
        teardown(&shared, &handle);
    });
}

/// Unregister and fix the connection gauges. Runs exactly once, from the
/// worker (or from `spawn` if the worker never started).
fn teardown(shared: &Shared, handle: &ConnHandle) {
    handle.kill();
    shared.unregister(handle.id);
    ServerStats::incr(&shared.stats.disconnects);
    shared.stats.open_connections.fetch_sub(1, Ordering::AcqRel);
}

/// The reader: decode frames, parse commands, act on `CANCEL` instantly,
/// queue everything for the worker in arrival order.
fn read_loop(
    shared: &Shared,
    mut stream: TcpStream,
    handle: &ConnHandle,
    tx: &mpsc::Sender<Result<Command, ProtocolError>>,
) {
    let mut frames = FrameReader::new(shared.config.max_frame);
    loop {
        if handle.is_dead() || shared.is_stopped() {
            break;
        }
        match frames.read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let parsed = parse_command(&payload);
                if matches!(parsed, Ok(Command::Cancel)) {
                    // out of band: trip the in-flight request *now*; the
                    // queued copy only orders the acknowledgement
                    handle.cancel_current();
                }
                if tx.send(parsed).is_err() {
                    break;
                }
            }
            // clean EOF at a frame boundary
            Ok(None) => break,
            Err(FrameError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                // just a liveness poll tick
            }
            // peer vanished mid-frame or the socket broke
            Err(FrameError::Io(_) | FrameError::TruncatedEof) => break,
            Err(FrameError::Protocol(e)) => {
                let fatal = e.is_fatal();
                if tx.send(Err(e)).is_err() {
                    break;
                }
                if fatal {
                    // framing is lost; stop consuming bytes — the worker
                    // reports the error and closes
                    break;
                }
            }
        }
    }
    // a gone reader means a gone (or condemned) connection: make sure the
    // in-flight query stops burning budget
    handle.kill();
    // dropping `tx` lets the worker drain the queue and exit
}

/// The worker: execute queued commands in order, own all writes.
fn work_loop(
    shared: &Arc<Shared>,
    mut writer: TcpStream,
    handle: &ConnHandle,
    rx: &mpsc::Receiver<Result<Command, ProtocolError>>,
) {
    let mut prepared: HashMap<u64, Arc<PatternQuery>> = HashMap::new();
    let mut next_handle: u64 = 1;
    loop {
        let message = match rx.recv_timeout(POLL) {
            Ok(m) => m,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if handle.is_dead() || shared.is_stopped() {
                    break;
                }
                continue;
            }
            // reader gone and queue drained
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let outcome: Result<String, ProtocolError> = match message {
            Err(e) => Err(e),
            Ok(command) => run_command(shared, handle, &mut prepared, &mut next_handle, command),
        };
        let (response, fatal) = match outcome {
            Ok(response) => (response, false),
            Err(e) => {
                ServerStats::incr(&shared.stats.protocol_errors);
                (render_err(&e), e.is_fatal())
            }
        };
        if write_frame(&mut writer, &response).is_err() || fatal {
            break;
        }
    }
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

/// Execute one command, producing the response payload.
fn run_command(
    shared: &Arc<Shared>,
    handle: &ConnHandle,
    prepared: &mut HashMap<u64, Arc<PatternQuery>>,
    next_handle: &mut u64,
    command: Command,
) -> Result<String, ProtocolError> {
    match command {
        Command::Hello => {
            let g = shared.db.graph();
            Ok(format!(
                "OK whyqd proto={PROTOCOL_VERSION} vertices={} edges={}",
                g.num_vertices(),
                g.num_edges()
            ))
        }
        Command::Stats => Ok(shared.stats_snapshot().render()),
        // the out-of-band trip already happened in the reader; this reply
        // just keeps the pipeline ordered
        Command::Cancel => Ok("OK cancel".to_string()),
        Command::Shutdown => {
            shared.begin_drain();
            Ok("OK draining".to_string())
        }
        Command::Prepare { pattern } => {
            let query = parse_pattern(&pattern)?;
            // warm the shared plan cache now, so the first EXEC pays no
            // compile — and surface engine-level rejections early
            let session = shared.db.session();
            session.prepare(&query).map_err(engine_error)?;
            let id = *next_handle;
            *next_handle += 1;
            let sig = query.signature_hash();
            prepared.insert(id, Arc::new(query));
            Ok(format!("OK prepared id={id} sig={sig:016x}"))
        }
        Command::Query { class, pattern } => {
            let query = Arc::new(parse_pattern(&pattern)?);
            execute(shared, handle, class.as_deref(), query)
        }
        Command::Exec { class, handle: h } => {
            let query = prepared
                .get(&h)
                .cloned()
                .ok_or(ProtocolError::BadHandle { handle: h })?;
            execute(shared, handle, class.as_deref(), query)
        }
    }
}

/// Admission → batching → response for one `QUERY`/`EXEC` request.
fn execute(
    shared: &Arc<Shared>,
    handle: &ConnHandle,
    class: Option<&str>,
    query: Arc<PatternQuery>,
) -> Result<String, ProtocolError> {
    if !shared.is_running() {
        return Err(ProtocolError::ShuttingDown);
    }
    let slo = shared.config.class(class)?;

    // admission control: shed rather than queue past the depth bound.
    // A shed is a *servable degraded answer* (`ROWS 0 shed`), not an
    // error — the why-query contract of tagged partial results extended
    // to the zero-results case. The slot is reserved here (one atomic
    // update, so a shed costs nothing else); every path below releases it.
    if !shared
        .stats
        .try_enter_queue(shared.config.max_queue_depth as u64)
    {
        ServerStats::incr(&shared.stats.shed);
        return Ok(render_rows(&[], TermTag::Shed, false));
    }
    let Some(jobs) = shared.job_sender() else {
        shared.stats.leave_queue();
        return Err(ProtocolError::ShuttingDown);
    };

    // one fresh token per request, installed where the reader (CANCEL,
    // disconnect) and the server (drain timeout) can reach it
    let token = CancelToken::new();
    handle.arm(token.clone());
    if handle.is_dead() {
        // the reader died between arming and here; don't start dead work
        token.cancel();
    }
    let budget = slo.budget(&token);
    let opts = MatchOptions::limited(shared.config.max_rows + 1).with_budget(budget);

    ServerStats::incr(&shared.stats.admitted);
    let (reply_tx, reply_rx) = mpsc::channel();
    // in transit from here until the batcher receives the job
    shared.in_transit.fetch_add(1, Ordering::SeqCst);
    let sent = jobs
        .send(BatchJob {
            query,
            opts,
            reply: reply_tx,
        })
        .is_ok();
    drop(jobs);
    let result = if sent {
        loop {
            match reply_rx.recv_timeout(POLL) {
                Ok(result) => break result,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if handle.is_dead() {
                        // belt and braces: the kill path cancels via the
                        // slot, but the slot may already hold a newer token
                        token.cancel();
                    }
                }
                // the batcher died without replying — count the request
                // as cancelled rather than inventing rows
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break Err(WhyqError::Interrupted {
                        termination: Termination::Cancelled,
                    });
                }
            }
        }
    } else {
        shared.in_transit.fetch_sub(1, Ordering::SeqCst);
        Err(WhyqError::Interrupted {
            termination: Termination::Cancelled,
        })
    };
    shared.stats.leave_queue();

    match result {
        Ok(governed) => {
            let tag = TermTag::from(governed.termination);
            match tag {
                TermTag::Complete => ServerStats::incr(&shared.stats.completed),
                TermTag::Deadline | TermTag::Budget => {
                    ServerStats::incr(&shared.stats.degraded);
                }
                TermTag::Cancelled => ServerStats::incr(&shared.stats.cancelled),
                TermTag::Shed => {}
            }
            let mut rows = governed.value;
            let capped = rows.len() > shared.config.max_rows;
            if capped {
                rows.truncate(shared.config.max_rows);
            }
            Ok(render_rows(&rows, tag, capped))
        }
        Err(e) => {
            ServerStats::incr(&shared.stats.failed);
            Err(engine_error(e))
        }
    }
}

/// Map an engine error onto the wire error space.
fn engine_error(e: WhyqError) -> ProtocolError {
    match e {
        // the query text parsed but the engine rejected its structure —
        // still the client's query, not a server fault
        WhyqError::InvalidQuery { reason } => ProtocolError::BadPattern { message: reason },
        other => ProtocolError::Internal {
            message: other.to_string(),
        },
    }
}
