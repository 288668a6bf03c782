//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a layer
//! (topology generation, simulator construction, `run_until` slices,
//! snapshot, restore, the replays), keeps them all in memory and writes
//! them out once the workload ends. Spans nest strictly — the benchmark is
//! serial — so a span's self time is its duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use harness::WallClock;

/// One timed interval with its parent and the counts recorded in it.
#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
    attrs: Vec<(&'static str, u64)>,
}

/// Where a layer's time went, summed over every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus direct children) in seconds.
    pub self_s: f64,
}

/// The span recorder. One per traced workload.
#[derive(Debug)]
pub struct Spans {
    clock: WallClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans { clock: WallClock::start(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_s = self.clock.elapsed_secs();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
            attrs: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_s = self.clock.elapsed_secs();
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f(self);
        let secs = self.close(id);
        (out, secs)
    }

    /// Attaches a count to span `id`.
    pub fn attr(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Durations of every closed span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).collect()
    }

    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end_s - span.start_s;
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += span.end_s - span.start_s;
            t.self_s += own;
        }
        out
    }

    /// Every span and the per-name totals as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"totals\":{{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                t.count, t.total_s, t.self_s
            );
        }
        out.push_str("},\"spans\":[");
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\
                 \"end_s\":{},\"self_s\":{own}",
                span.name, span.start_s, span.end_s
            );
            for (key, value) in &span.attrs {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        let mid = spans.open("mid");
        let inner = spans.open("inner");
        spans.close(inner);
        spans.close(mid);
        spans.close(outer);
        let own = spans.self_times();
        let dur = |id: usize| spans.spans[id].end_s - spans.spans[id].start_s;
        assert!((own[outer] - (dur(outer) - dur(mid))).abs() < 1e-12);
        assert!((own[mid] - (dur(mid) - dur(inner))).abs() < 1e-12);
        assert!((own[inner] - dur(inner)).abs() < 1e-12);
        let totals = spans.totals();
        assert_eq!(totals["inner"].count, 1);
        assert!(spans.to_json("w", 1).contains("\"name\":\"mid\""));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        spans.open("inner");
        spans.close(outer);
    }
}
