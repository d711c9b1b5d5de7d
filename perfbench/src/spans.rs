//! In-memory span recorder for the traced run.
//!
//! Each span is a call into one layer's public entry point: its name, start
//! and end (ns since the recorder was created), its parent span, and the
//! frame or request id it served. Spans stay in memory while the benchmark
//! runs and are written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Spans kept in memory; later spans are still timed and aggregated but
/// not stored, so a long run cannot grow without bound.
const MAX_STORED: usize = 400_000;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    id: u64,
}

/// Per-name totals: calls, summed duration and summed self time (duration
/// minus the part covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: (stored index or `NO_PARENT`, name, start, child ns).
    stack: Vec<(u32, &'static str, u64, u64)>,
    totals: BTreeMap<&'static str, SpanTotals>,
    dropped: u64,
}

/// Handle of an open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for frame or request `id`; the innermost
    /// open span is its parent.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let parent = self.stack.last().map_or(NO_PARENT, |s| s.0);
        let start = self.now();
        let slot = if self.spans.len() < MAX_STORED {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                id,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push((slot, name, start, 0));
        Open(self.stack.len())
    }

    /// Closes the innermost span and returns its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        assert_eq!(open.0, self.stack.len(), "spans close innermost first");
        let end = self.now();
        let (slot, name, start, child_ns) = self.stack.pop().expect("an open span");
        let dur = end - start;
        if slot != NO_PARENT {
            self.spans[slot as usize].end = end;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.3 += dur;
        }
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
        dur
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(name, id);
        let r = f();
        (r, self.end(open))
    }

    /// Records a span timed by someone else (the server's own
    /// submit → completion latency), with no parent.
    pub fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64, id: u64) {
        let start = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        if self.spans.len() < MAX_STORED {
            self.spans.push(Span {
                name,
                start,
                end: start + dur_ns,
                parent: NO_PARENT,
                id,
            });
        } else {
            self.dropped += 1;
        }
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.total_ns += dur_ns;
        t.self_ns += dur_ns;
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    /// Writes every stored span as tab-separated
    /// `name start_ns end_ns parent id` lines after one header line
    /// (parent is the 0-based index of the parent's span line, `-` for
    /// none).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# name\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.id
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "# {} further spans timed but not stored", self.dropped)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 1);
        let (_, inner) = t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.end(outer);
        let o = t.totals()["outer"];
        assert_eq!(o.total_ns, total);
        assert_eq!(o.self_ns, total - inner);
        assert_eq!(t.spans[1].parent, 0);
    }
}
