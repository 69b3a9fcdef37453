//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. Spans nest by call order on one thread, carry the op they
//! belong to, stay in memory while the run measures, and are written as
//! JSONL when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `arch.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A stack-disciplined span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals from [`Spans::rollup`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

impl Spans {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every span still open inside `id`, then `id` itself: the
    /// recovery path after a panic unwound past inner `close` calls.
    pub fn close_through(&mut self, id: usize) {
        while let Some(&top) = self.open.last() {
            self.close(top);
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span with no children.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in open order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds each span's direct children cover. Children of one
    /// span never overlap: they are opened and closed in turn on the
    /// recording thread.
    fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        covered
    }

    /// Count, total and self time per span name.
    pub fn rollup(&self) -> BTreeMap<&'static str, Totals> {
        let covered = self.child_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(*c);
        }
        out
    }

    /// Share (0..=1) of the time of all top-level spans named with
    /// `prefix` that their direct children cover; `None` when there are
    /// no such spans.
    pub fn coverage(&self, prefix: &str) -> Option<f64> {
        let covered = self.child_ns();
        let (mut total, mut child) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.parent.is_none() && s.name.starts_with(prefix) {
                total += s.ns();
                child += c;
            }
        }
        (total > 0).then(|| child as f64 / total as f64)
    }

    /// Median duration of the spans named `name`, ms; 0 when none.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        crate::stats::median(&ms).unwrap_or(0.0)
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.into_inner()?.flush()
    }
}

/// Calls `f`, inside a span named `name` when `spans` is recording.
pub fn step<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => s.time(name, op, f),
        None => f(),
    }
}

/// Whether every span lies inside its parent and shares its op.
#[cfg(test)]
pub fn nested(spans: &[Span]) -> bool {
    spans.iter().all(|s| match s.parent {
        None => s.end_ns >= s.start_ns,
        Some(p) => {
            let parent = &spans[p];
            parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns && parent.op == s.op
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(Instant::now());
        let op = spans.open("op", 1);
        spans.time("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.time("b", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.close(op);
        assert!(nested(spans.all()));
        let r = spans.rollup();
        let root = r["op"];
        assert_eq!(root.count, 1);
        assert_eq!(
            root.self_ns,
            root.total_ns - r["a"].total_ns - r["b"].total_ns
        );
        assert!(spans.coverage("op").unwrap() > 0.5);
        assert_eq!(spans.coverage("missing"), None);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut spans = Spans::new(Instant::now());
        let outer = spans.open("outer", 0);
        let _inner = spans.open("inner", 0);
        spans.close(outer);
    }
}
