//! In-memory spans recorded around the replay driver's public calls.
//!
//! A root span covers setup (tick 0) or one tick; every other span is a
//! child of the root open when it started. Spans are only appended while
//! the run goes, and read once at the end.

use std::io::Write;
use std::time::Instant;

/// Name of the root span of each tick.
pub const TICK: &str = "tick";
/// Name of the root span of pipeline construction.
pub const SETUP: &str = "setup";

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `mobisim.step`.
    pub name: &'static str,
    /// Tick the span belongs to (0 for setup).
    pub tick: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Makes room for `additional` more spans, so growing the buffer
    /// never lands inside a timed tick.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// Opens the root span of `tick` (0 for setup); later spans become
    /// its children until [`end_root`](Self::end_root).
    pub fn begin_root(&mut self, name: &'static str, tick: u64) {
        let id = self.push(name, tick, None);
        self.root = Some(id);
    }

    /// Closes the open root span.
    pub fn end_root(&mut self) {
        let id = self.root.take().expect("a root span is open");
        self.end(id);
    }

    /// Opens a child of the current root and returns its handle.
    pub fn start(&mut self, name: &'static str) -> usize {
        let root = self.root.expect("child spans open inside a root span");
        let tick = self.spans[root].tick;
        self.push(name, tick, Some(root))
    }

    /// Closes the span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn push(&mut self, name: &'static str, tick: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tick,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line: name, tick, parent
    /// index (`-` for roots), start and end in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\ttick\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            match s.parent {
                Some(p) => writeln!(
                    out,
                    "{}\t{}\t{p}\t{}\t{}",
                    s.name, s.tick, s.start_ns, s.end_ns
                )?,
                None => writeln!(
                    out,
                    "{}\t{}\t-\t{}\t{}",
                    s.name, s.tick, s.start_ns, s.end_ns
                )?,
            }
        }
        Ok(())
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// `(name, summed self time in ns, summed duration in ns)`, in
    /// first-seen order.
    rows: Vec<(&'static str, u64, u64)>,
}

impl SelfTimes {
    /// Sums self time — duration minus the time covered by the span's
    /// children — and duration per name, over the spans whose tick lies
    /// in `ticks`.
    pub fn over(spans: &[Span], ticks: std::ops::RangeInclusive<u64>) -> SelfTimes {
        let mut children_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.duration_ns();
            }
        }
        let mut out = SelfTimes::default();
        for (s, child) in spans.iter().zip(&children_ns) {
            if !ticks.contains(&s.tick) {
                continue;
            }
            let own = s.duration_ns().saturating_sub(*child);
            match out.rows.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += s.duration_ns();
                }
                None => out.rows.push((s.name, own, s.duration_ns())),
            }
        }
        out
    }

    fn row(&self, name: &str) -> (u64, u64) {
        self.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0), |r| (r.1, r.2))
    }

    /// Summed self time of `name` in nanoseconds (0 when absent).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.row(name).0
    }

    /// Summed duration of `name` in nanoseconds (0 when absent).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.row(name).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tick: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            tick,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(TICK, 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("b", 1, Some(0), 50, 90),
            span("a", 1, Some(0), 90, 95),
            span(TICK, 2, None, 100, 300),
        ];
        let t = SelfTimes::over(&spans, 1..=1);
        assert_eq!(t.self_ns(TICK), 100 - 30 - 40 - 5);
        assert_eq!(t.total_ns(TICK), 100);
        assert_eq!(t.self_ns("a"), 35);
        assert_eq!(t.self_ns("b"), 40);
        assert_eq!(t.self_ns("missing"), 0);
        assert_eq!(SelfTimes::over(&spans, 2..=2).self_ns(TICK), 200);
    }

    #[test]
    fn tracer_nests_children_under_the_open_root() {
        let mut t = Tracer::new();
        t.begin_root(SETUP, 0);
        let s = t.start("x");
        t.end(s);
        t.end_root();
        t.begin_root(TICK, 1);
        t.end_root();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].tick, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }
}
