//! Spans recorded by the benchmark around the calls it makes into a layer.
//!
//! Nothing inside the program is instrumented: a span is two clock reads in
//! this crate around one public call. Spans live in memory and are written
//! to `out/trace-<workload>.json` when the run ends. A span's self time is
//! its duration minus the durations of the spans naming it as `parent`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the operation the span belongs to; spans of one operation
    /// share it.
    pub op_id: u32,
    /// Index into the span list of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    /// Off in untraced runs and in the untraced half of a traced run, where
    /// `begin` then costs one branch.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; `None` while recording is off.
pub type Open = Option<u32>;

impl Spans {
    pub fn new() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u32, parent: Open) -> Open {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Record a span measured elsewhere (a client thread's own clock reads).
    pub fn push(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Open,
        start: Instant,
        end: Instant,
    ) -> Open {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Open,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, op_id, parent);
        let out = f();
        self.end(open);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op_id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.op_id, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_nothing_while_off() {
        let mut spans = Spans::new();
        assert_eq!(spans.begin("op", 0, None), None);
        spans.on = true;
        let op = spans.begin("op", 1, None);
        let x = spans.time("child", 1, op, || 7);
        spans.end(op);
        assert_eq!(x, 7);
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(spans.durations_ms("child").len(), 1);
    }
}
