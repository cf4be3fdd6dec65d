//! The `whyqd` wire protocol: length-prefixed text frames.
//!
//! Every message in either direction is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 text.
//! Requests are single-line commands (`HELLO`, `QUERY`, `PREPARE`,
//! `EXEC`, `CANCEL`, `STATS`, `SHUTDOWN`); responses are `OK`/`ROWS`/
//! `STATS`/`ERR` payloads whose first line carries the status and whose
//! remaining lines carry rows or counters. `docs/wire-protocol.md` at
//! the repository root specifies the grammar with a worked transcript;
//! this module is the single implementation both the server and the
//! [`crate::client`] parse and render with, so the two cannot drift.
//!
//! Robustness contract: every malformed input — an oversized length
//! prefix, a non-UTF-8 payload, an unknown verb, an unparsable pattern —
//! maps to a typed [`ProtocolError`] with a stable machine-readable
//! [`ProtocolError::code`]. Only errors where the *stream itself* has
//! lost framing ([`ProtocolError::is_fatal`]) close the connection;
//! everything else is answered with an `ERR` frame and the session
//! continues.

use std::fmt;
use std::io::{self, Read, Write};
use whyq_matcher::Termination;
use whyq_query::PatternQuery;

/// Wire protocol version announced in the `HELLO` response.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default upper bound on a frame payload (bytes). A pattern query is a
/// few hundred bytes; anything near this limit is a malfunctioning or
/// hostile client.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024;

/// Typed protocol-level failures. Every variant renders to a stable
/// `ERR <code> <message>` response via [`ProtocolError::code`] and
/// [`fmt::Display`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length prefix exceeds the configured frame cap. Fatal: the
    /// bytes that follow cannot be skipped reliably, so after reporting
    /// the error the connection closes.
    FrameTooLarge {
        /// Length the prefix announced.
        len: usize,
        /// Configured cap it exceeded.
        max: usize,
    },
    /// The payload was not valid UTF-8.
    InvalidUtf8,
    /// A zero-length or all-whitespace payload.
    EmptyFrame,
    /// The first token is not a known command verb.
    UnknownCommand {
        /// The unrecognized verb.
        verb: String,
    },
    /// A command was syntactically incomplete (missing pattern, handle…).
    BadArguments {
        /// What was malformed.
        message: String,
    },
    /// The pattern text did not parse (`whyq_query::parser` rejected it).
    BadPattern {
        /// The parser's positioned message.
        message: String,
    },
    /// `EXEC` named a handle this connection never prepared.
    BadHandle {
        /// The unknown handle.
        handle: u64,
    },
    /// `QUERY`/`EXEC` named an SLO class the server is not configured
    /// with.
    BadClass {
        /// The unknown class name.
        class: String,
    },
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// The engine failed the request (a worker panic, an invalid query
    /// that passed parsing). The database stays up; the connection stays
    /// open.
    Internal {
        /// The engine error rendered as text.
        message: String,
    },
}

impl ProtocolError {
    /// Stable machine-readable error code (the second token of an `ERR`
    /// response).
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::FrameTooLarge { .. } => "frame-too-large",
            ProtocolError::InvalidUtf8 => "invalid-utf8",
            ProtocolError::EmptyFrame => "empty-frame",
            ProtocolError::UnknownCommand { .. } => "unknown-command",
            ProtocolError::BadArguments { .. } => "bad-arguments",
            ProtocolError::BadPattern { .. } => "bad-pattern",
            ProtocolError::BadHandle { .. } => "bad-handle",
            ProtocolError::BadClass { .. } => "bad-class",
            ProtocolError::ShuttingDown => "shutting-down",
            ProtocolError::Internal { .. } => "internal",
        }
    }

    /// True when the stream has lost framing and the connection must
    /// close after the error is reported.
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtocolError::FrameTooLarge { .. })
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte cap")
            }
            ProtocolError::InvalidUtf8 => write!(f, "payload is not valid UTF-8"),
            ProtocolError::EmptyFrame => write!(f, "empty command frame"),
            ProtocolError::UnknownCommand { verb } => write!(f, "unknown command {verb:?}"),
            ProtocolError::BadArguments { message } => write!(f, "{message}"),
            ProtocolError::BadPattern { message } => write!(f, "{message}"),
            ProtocolError::BadHandle { handle } => {
                write!(
                    f,
                    "no prepared query with handle {handle} on this connection"
                )
            }
            ProtocolError::BadClass { class } => write!(f, "unknown SLO class {class:?}"),
            ProtocolError::ShuttingDown => write!(f, "server is draining; no new work admitted"),
            ProtocolError::Internal { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------

/// Write one frame: 4-byte big-endian length + UTF-8 payload, as one
/// write — one syscall and one segment on an unbuffered `TCP_NODELAY` socket.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large to encode"))?;
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Why [`FrameReader::read_frame`] returned without a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed (including `WouldBlock`/`TimedOut`
    /// from a read-timeout poll — the reader's buffer stays consistent,
    /// so the caller can simply call again).
    Io(io::Error),
    /// The peer closed the stream in the middle of a frame.
    TruncatedEof,
    /// The frame violates the protocol (oversized prefix, bad UTF-8).
    Protocol(ProtocolError),
}

/// Incremental frame decoder over any `Read`.
///
/// Accumulates bytes in an internal buffer and yields complete frames, so
/// it composes with read timeouts: a timed-out `read` surfaces as
/// [`FrameError::Io`] without disturbing partial state, and the next call
/// resumes where the stream left off.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// A decoder enforcing the given payload cap.
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Pull bytes from `r` until one full frame is decoded.
    ///
    /// `Ok(Some(payload))` — a complete frame; `Ok(None)` — the peer
    /// closed cleanly at a frame boundary; `Err` — see [`FrameError`].
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<String>, FrameError> {
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(FrameError::TruncatedEof)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Decode one frame from the buffer if fully present.
    fn take_buffered(&mut self) -> Result<Option<String>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max_frame {
            return Err(FrameError::Protocol(ProtocolError::FrameTooLarge {
                len,
                max: self.max_frame,
            }));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        match String::from_utf8(payload) {
            Ok(s) => Ok(Some(s)),
            Err(_) => Err(FrameError::Protocol(ProtocolError::InvalidUtf8)),
        }
    }
}

// ---------------------------------------------------------------------
// commands
// ---------------------------------------------------------------------

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Handshake; the server answers with its identity and the graph
    /// dimensions.
    Hello,
    /// Parse and execute a pattern under the (optional) SLO class.
    Query {
        /// SLO class (`@interactive` on the wire); `None` = server default.
        class: Option<String>,
        /// Pattern text in the `whyq_query::parser` syntax.
        pattern: String,
    },
    /// Parse and cache a pattern on this connection, returning a handle.
    Prepare {
        /// Pattern text.
        pattern: String,
    },
    /// Execute a previously prepared handle under the (optional) class.
    Exec {
        /// SLO class; `None` = server default.
        class: Option<String>,
        /// Handle returned by `PREPARE`.
        handle: u64,
    },
    /// Cancel the query currently in flight on this connection (handled
    /// out of band by the frame reader; the acknowledgement is ordered).
    Cancel,
    /// Report the server's observability counters.
    Stats,
    /// Begin graceful shutdown: stop accepting, drain in-flight work
    /// within the drain deadline, then exit.
    Shutdown,
}

/// Parse one request payload into a [`Command`].
pub fn parse_command(payload: &str) -> Result<Command, ProtocolError> {
    let text = payload.trim();
    if text.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    let (verb, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim_start()),
        None => (text, ""),
    };
    // an optional leading `@class` token
    let split_class = |rest: &str| -> (Option<String>, String) {
        if let Some(stripped) = rest.strip_prefix('@') {
            match stripped.find(char::is_whitespace) {
                Some(i) => (
                    Some(stripped[..i].to_string()),
                    stripped[i..].trim_start().to_string(),
                ),
                None => (Some(stripped.to_string()), String::new()),
            }
        } else {
            (None, rest.to_string())
        }
    };
    match verb {
        "HELLO" => Ok(Command::Hello),
        "QUERY" => {
            let (class, pattern) = split_class(rest);
            if pattern.is_empty() {
                return Err(ProtocolError::BadArguments {
                    message: "QUERY needs a pattern".into(),
                });
            }
            Ok(Command::Query { class, pattern })
        }
        "PREPARE" => {
            if rest.is_empty() {
                return Err(ProtocolError::BadArguments {
                    message: "PREPARE needs a pattern".into(),
                });
            }
            Ok(Command::Prepare {
                pattern: rest.to_string(),
            })
        }
        "EXEC" => {
            let (class, handle) = split_class(rest);
            let handle = handle.trim();
            let handle = handle
                .parse::<u64>()
                .map_err(|_| ProtocolError::BadArguments {
                    message: format!("EXEC needs a numeric handle, got {handle:?}"),
                })?;
            Ok(Command::Exec { class, handle })
        }
        "CANCEL" => Ok(Command::Cancel),
        "STATS" => Ok(Command::Stats),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(ProtocolError::UnknownCommand {
            verb: other.to_string(),
        }),
    }
}

// ---------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------

/// Wire rendering of how a request ended — [`Termination`] plus the
/// admission-control outcome `shed`, which tags a refused request as a
/// degraded-but-well-formed response rather than an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermTag {
    /// Results are the full answer.
    Complete,
    /// Partial: the SLO deadline passed mid-search.
    Deadline,
    /// Partial: the SLO step budget ran out.
    Budget,
    /// Partial: the request (or its connection) was cancelled.
    Cancelled,
    /// Empty: admission control refused the request under load.
    Shed,
}

impl TermTag {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            TermTag::Complete => "complete",
            TermTag::Deadline => "deadline",
            TermTag::Budget => "budget",
            TermTag::Cancelled => "cancelled",
            TermTag::Shed => "shed",
        }
    }

    /// Parse a wire token.
    pub fn parse(s: &str) -> Option<TermTag> {
        Some(match s {
            "complete" => TermTag::Complete,
            "deadline" => TermTag::Deadline,
            "budget" => TermTag::Budget,
            "cancelled" => TermTag::Cancelled,
            "shed" => TermTag::Shed,
            _ => return None,
        })
    }

    /// True iff the rows under this tag are the exact, complete answer.
    pub fn is_complete(self) -> bool {
        matches!(self, TermTag::Complete)
    }
}

impl From<Termination> for TermTag {
    fn from(t: Termination) -> TermTag {
        match t {
            Termination::Complete => TermTag::Complete,
            Termination::DeadlineExceeded => TermTag::Deadline,
            Termination::BudgetExhausted => TermTag::Budget,
            Termination::Cancelled => TermTag::Cancelled,
        }
    }
}

impl fmt::Display for TermTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Render a rows response: header `ROWS <n> <termination> [capped]`,
/// then one line per result listing its vertex bindings (`v0=17 v1=4`).
pub fn render_rows(rows: &[whyq_matcher::ResultGraph], tag: TermTag, capped: bool) -> String {
    use fmt::Write as _;
    let mut out = format!("ROWS {} {}", rows.len(), tag.as_str());
    if capped {
        out.push_str(" capped");
    }
    for r in rows {
        out.push('\n');
        let mut first = true;
        for (qv, dv) in r.vertex_bindings() {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{qv}={dv}");
            first = false;
        }
    }
    out
}

/// Render an error response: `ERR <code> <message>` (message forced onto
/// one line so the frame stays a simple line protocol).
pub fn render_err(e: &ProtocolError) -> String {
    format!("ERR {} {}", e.code(), e.to_string().replace('\n', " "))
}

/// A parsed server response, the client-side dual of the render
/// functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `OK <detail>` — acknowledgement with free-form detail text.
    Ok(String),
    /// `ROWS …` — query results.
    Rows {
        /// One line per result (`v0=17 v1=4`).
        rows: Vec<String>,
        /// How the execution ended.
        termination: TermTag,
        /// True when the row count hit the server's per-request cap.
        capped: bool,
    },
    /// `STATS` — counter lines (`admitted=12`), in server order.
    Stats(Vec<(String, u64)>),
    /// `ERR <code> <message>`.
    Err {
        /// Machine-readable code (see [`ProtocolError::code`]).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

/// Parse a response payload. `Err(msg)` means the payload violates the
/// response grammar itself.
pub fn parse_reply(payload: &str) -> Result<Reply, String> {
    let mut lines = payload.lines();
    let head = lines.next().ok_or("empty response frame")?;
    let mut toks = head.split_whitespace();
    match toks.next() {
        Some("OK") => {
            let detail = head.strip_prefix("OK").unwrap_or("").trim().to_string();
            Ok(Reply::Ok(detail))
        }
        Some("ROWS") => {
            let n: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("ROWS header missing count")?;
            let termination = toks
                .next()
                .and_then(TermTag::parse)
                .ok_or("ROWS header missing termination tag")?;
            let capped = toks.next() == Some("capped");
            let rows: Vec<String> = lines.map(str::to_string).collect();
            if rows.len() != n {
                return Err(format!("ROWS announced {n} rows, carried {}", rows.len()));
            }
            Ok(Reply::Rows {
                rows,
                termination,
                capped,
            })
        }
        Some("STATS") => {
            let mut counters = Vec::new();
            for line in lines {
                let (k, v) = line.split_once('=').ok_or("malformed STATS line")?;
                let v: u64 = v.parse().map_err(|_| "malformed STATS value")?;
                counters.push((k.to_string(), v));
            }
            Ok(Reply::Stats(counters))
        }
        Some("ERR") => {
            let code = toks.next().unwrap_or("unknown").to_string();
            let message = head.splitn(3, ' ').nth(2).unwrap_or("").to_string();
            Ok(Reply::Err { code, message })
        }
        _ => Err(format!("unknown response status line {head:?}")),
    }
}

/// Parse a pattern, mapping the parser error into the protocol error
/// space.
pub fn parse_pattern(text: &str) -> Result<PatternQuery, ProtocolError> {
    whyq_query::parse_query(text).map_err(|e| ProtocolError::BadPattern {
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "HELLO").unwrap();
        write_frame(&mut wire, "QUERY (a)").unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(
            reader.read_frame(&mut cursor).unwrap().as_deref(),
            Some("HELLO")
        );
        assert_eq!(
            reader.read_frame(&mut cursor).unwrap().as_deref(),
            Some("QUERY (a)")
        );
        assert!(reader.read_frame(&mut cursor).unwrap().is_none());
    }

    /// Counts `write` calls and hands its bytes back three at a time.
    #[derive(Default)]
    struct Pipe {
        bytes: Vec<u8>,
        writes: usize,
        read_at: usize,
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(3).min(self.bytes.len() - self.read_at);
            buf[..n].copy_from_slice(&self.bytes[self.read_at..self.read_at + n]);
            self.read_at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_frame_is_one_write_and_survives_split_reads() {
        let mut pipe = Pipe::default();
        write_frame(&mut pipe, "QUERY (a)-[:knows]->(b)").unwrap();
        assert_eq!(pipe.writes, 1, "header and payload must leave together");
        write_frame(&mut pipe, "").unwrap();
        assert_eq!(pipe.writes, 2);
        // header and payload both arrive split across reads
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        assert_eq!(
            reader.read_frame(&mut pipe).unwrap().as_deref(),
            Some("QUERY (a)-[:knows]->(b)")
        );
        assert_eq!(reader.read_frame(&mut pipe).unwrap().as_deref(), Some(""));
        assert!(reader.read_frame(&mut pipe).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_fatal_truncation_is_not_a_frame() {
        let mut reader = FrameReader::new(16);
        let mut cursor = io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        match reader.read_frame(&mut cursor) {
            Err(FrameError::Protocol(e)) => {
                assert_eq!(e.code(), "frame-too-large");
                assert!(e.is_fatal());
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
        // a frame cut off mid-payload is a truncation error at EOF
        let mut reader = FrameReader::new(1024);
        let mut partial = Vec::new();
        partial.extend_from_slice(&10u32.to_be_bytes());
        partial.extend_from_slice(b"abc");
        let mut cursor = io::Cursor::new(partial);
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(FrameError::TruncatedEof)
        ));
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(&[0xC3, 0x28]); // invalid UTF-8 pair
        let mut reader = FrameReader::new(1024);
        let mut cursor = io::Cursor::new(wire);
        match reader.read_frame(&mut cursor) {
            Err(FrameError::Protocol(e)) => {
                assert_eq!(e.code(), "invalid-utf8");
                assert!(!e.is_fatal());
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_command("HELLO").unwrap(), Command::Hello);
        assert_eq!(
            parse_command("QUERY (a:person)").unwrap(),
            Command::Query {
                class: None,
                pattern: "(a:person)".into()
            }
        );
        assert_eq!(
            parse_command("QUERY @interactive (a)-[:knows]->(b)").unwrap(),
            Command::Query {
                class: Some("interactive".into()),
                pattern: "(a)-[:knows]->(b)".into()
            }
        );
        assert_eq!(
            parse_command("PREPARE (a)").unwrap(),
            Command::Prepare {
                pattern: "(a)".into()
            }
        );
        assert_eq!(
            parse_command("EXEC @batch 3").unwrap(),
            Command::Exec {
                class: Some("batch".into()),
                handle: 3
            }
        );
        assert_eq!(parse_command("CANCEL").unwrap(), Command::Cancel);
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
    }

    #[test]
    fn command_errors_are_typed() {
        assert_eq!(parse_command("  ").unwrap_err().code(), "empty-frame");
        assert_eq!(
            parse_command("NOPE x").unwrap_err().code(),
            "unknown-command"
        );
        assert_eq!(parse_command("QUERY").unwrap_err().code(), "bad-arguments");
        assert_eq!(
            parse_command("QUERY @fast").unwrap_err().code(),
            "bad-arguments"
        );
        assert_eq!(
            parse_command("EXEC zero").unwrap_err().code(),
            "bad-arguments"
        );
        assert_eq!(
            parse_command("PREPARE").unwrap_err().code(),
            "bad-arguments"
        );
        assert_eq!(parse_pattern("(((").unwrap_err().code(), "bad-pattern");
    }

    #[test]
    fn replies_round_trip() {
        assert_eq!(
            parse_reply("OK whyqd proto=1").unwrap(),
            Reply::Ok("whyqd proto=1".into())
        );
        let rows = parse_reply("ROWS 2 complete\nv0=1 v1=2\nv0=3 v1=4").unwrap();
        assert_eq!(
            rows,
            Reply::Rows {
                rows: vec!["v0=1 v1=2".into(), "v0=3 v1=4".into()],
                termination: TermTag::Complete,
                capped: false,
            }
        );
        let shed = parse_reply("ROWS 0 shed").unwrap();
        assert_eq!(
            shed,
            Reply::Rows {
                rows: vec![],
                termination: TermTag::Shed,
                capped: false,
            }
        );
        assert_eq!(
            parse_reply("ERR bad-pattern parse error at byte 3: x").unwrap(),
            Reply::Err {
                code: "bad-pattern".into(),
                message: "parse error at byte 3: x".into()
            }
        );
        assert_eq!(
            parse_reply("STATS\nadmitted=4\nshed=1").unwrap(),
            Reply::Stats(vec![("admitted".into(), 4), ("shed".into(), 1)])
        );
        // grammar violations are detected, not guessed around
        assert!(parse_reply("ROWS 2 complete\nonly-one-row").is_err());
        assert!(parse_reply("GARBAGE").is_err());
    }

    #[test]
    fn termination_tags_cover_all_terminations() {
        for t in [
            Termination::Complete,
            Termination::DeadlineExceeded,
            Termination::BudgetExhausted,
            Termination::Cancelled,
        ] {
            let tag = TermTag::from(t);
            assert_eq!(TermTag::parse(tag.as_str()), Some(tag));
            assert_eq!(tag.is_complete(), t.is_complete());
        }
        assert_eq!(TermTag::parse("shed"), Some(TermTag::Shed));
        assert_eq!(TermTag::parse("bogus"), None);
    }
}
