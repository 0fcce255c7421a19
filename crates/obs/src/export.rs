//! Snapshot exporters.
//!
//! Two shapes cover the workspace's needs:
//!
//! * [`Snapshot::to_json`] (in [`crate::registry`](mod@crate::registry))
//!   — one point-in-time document, pretty or compact; the CLI's
//!   `--metrics-out file.json` and `perf_bench`'s embedded `"metrics"`
//!   section use this.
//! * [`JsonlExporter`] — a streaming exporter writing one compact
//!   snapshot per line to any [`Write`] sink; `serve-sim --metrics-out
//!   file.jsonl` appends a line per scheduler tick, giving a time
//!   series that `tail -f` or any JSONL tool can follow live.

use std::io::{self, Write};

use crate::registry::Snapshot;

/// Streams snapshots as JSON Lines: one compact JSON object per line.
#[derive(Debug)]
pub struct JsonlExporter<W: Write> {
    sink: W,
    lines: u64,
}

impl<W: Write> JsonlExporter<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> Self {
        Self { sink, lines: 0 }
    }

    /// Writes `snapshot` as one line and flushes, so a crashed process
    /// loses at most the line being written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn export(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        writeln!(self.sink, "{}", snapshot.to_json(false))?;
        self.sink.flush()?;
        self.lines += 1;
        Ok(())
    }

    /// Number of lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::registry::Registry;

    #[test]
    fn writes_one_parseable_line_per_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("jl.events");
        let mut exporter = JsonlExporter::new(Vec::new());
        for _ in 0..3 {
            c.inc();
            exporter.export(&reg.snapshot()).unwrap();
        }
        assert_eq!(exporter.lines(), 3);
        let text = String::from_utf8(exporter.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = parse(line).unwrap();
            let count = v.get("counters").unwrap().get("jl.events").unwrap();
            assert_eq!(count.as_f64(), Some((i + 1) as f64));
        }
    }
}
