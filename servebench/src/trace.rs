//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! serving layers (nothing inside the program is instrumented). Each span
//! has a name, start and end on one monotonic clock, the span that was
//! open when it began (its parent) and the wire session it served. They
//! stay in memory and are written out once, after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Session id of spans that serve no single session.
pub const NO_SESSION: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    session: u32,
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<u32>;

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; its parent is the innermost span still open.
    #[inline]
    pub fn begin(&mut self, name: &'static str, session: u32) -> Open {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `open` (which must be the innermost open one).
    #[inline]
    pub fn end(&mut self, open: Open) {
        let Some(id) = open else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.total_ns += d;
            t.self_ns += d.saturating_sub(kids);
        }
        out
    }

    /// Writes every span as CSV (`name,start_ns,end_ns,parent,session`;
    /// `-` for no parent or no session).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,session")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let session = if s.session == NO_SESSION {
                "-".to_owned()
            } else {
                s.session.to_string()
            };
            writeln!(
                w,
                "{},{},{},{parent},{session}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
