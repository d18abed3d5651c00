//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, its parent and an id. Spans stay in
//! memory while the run measures and are written out when it ends. A
//! layer's self time is its spans' total duration minus the time their
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span; ids start at 1 and parent 0 means a root span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; a disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer timing from `epoch`, with room for `capacity` spans
    /// touched up front so recording never grows the resident set.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        let mut spans = Vec::with_capacity(capacity);
        spans.resize(
            capacity,
            Span {
                id: 0,
                parent: 0,
                name: "",
                start_ns: 0,
                end_ns: 0,
            },
        );
        spans.clear();
        Self {
            epoch,
            enabled: false,
            spans,
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (takes effect at the next `enter`).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether the next `enter` records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that started at `start_ns`, nested in the innermost
    /// open span. Returns a token for [`Tracer::exit`] (0 when disabled).
    pub fn enter_at(&mut self, name: &'static str, start_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` now.
    pub fn exit(&mut self, id: u32) {
        if id != 0 {
            let end = self.now_ns();
            self.exit_at(id, end);
        }
    }

    /// Close span `id` at `end_ns`. Spans close innermost first.
    pub fn exit_at(&mut self, id: u32, end_ns: u64) {
        if id == 0 {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Record a closed span from `start_ns` to `end_ns`, for a call the
    /// benchmark times whether or not the tracer records.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.enter_at(name, start_ns);
        self.exit_at(id, end_ns);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, in name order.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        summarize(&self.spans)
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `id parent name start_ns end_ns`.
    pub fn write_tsv(&self, mut out: impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregate time of the spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Total minus the time their children cover, ns.
    pub self_ns: u64,
}

/// Per-name call counts, total and self time.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.parent != 0 {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 4);
        t.set_enabled(true);
        let q = t.enter_at("query", 0);
        t.record("epoch_view", 10, 40);
        t.record("heavy_hitters", 40, 50);
        t.exit_at(q, 60);
        t.record("offer", 60, 70);
        let s = t.summary();
        assert_eq!(
            s["query"],
            LayerTime {
                calls: 1,
                total_ns: 60,
                self_ns: 20
            }
        );
        assert_eq!(s["epoch_view"].self_ns, 30);
        assert_eq!(s["offer"].calls, 1);
        assert_eq!(t.spans()[1].parent, q);
        assert_eq!(t.spans()[3].parent, 0);
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        let id = t.enter_at("x", 0);
        t.exit(id);
        t.record("y", 0, 1);
        assert!(t.spans().is_empty());
    }
}
