//! Benchmark-side spans for the traced run.
//!
//! Each layer call the benchmark makes is wrapped in a span: name, start,
//! end, and the enclosing span as parent. Spans stay in memory and are
//! written out as Chrome trace-event JSON when the run ends. Per-layer
//! totals (calls, operations, total and self time) are folded in as spans
//! close, so they cover every span even when the kept list is full. A
//! layer's self time is its span durations minus the time its child
//! spans cover.
//!
//! With tracing off, `begin` and `end` return at their first branch.

use crate::stats::Hist;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept for the trace file; past this, only the totals grow.
const KEEP: usize = 100_000;

const NO_PARENT: u32 = u32::MAX;

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    ops: u64,
}

/// Totals for one span name.
#[derive(Default, Clone)]
pub struct Layer {
    pub calls: u64,
    /// Operations the spans covered (a span may time a batch of calls).
    pub ops: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Host ns per operation, one sample per span.
    pub ns_per_op: Hist,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    open: Vec<Open>,
    kept: Vec<Span>,
    next_id: u32,
    dropped: u64,
    /// Time inside spans named `probe.*`: layer calls a traced pass makes
    /// only to time a layer on its own, left out of the pass's time.
    probe_ns: u64,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            open: Vec::new(),
            kept: Vec::new(),
            next_id: 0,
            dropped: 0,
            probe_ns: 0,
            layers: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(NO_PARENT, |o| o.id);
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the innermost span, which must be `name`; it covered `ops`
    /// operations.
    pub fn end(&mut self, name: &'static str, ops: u64) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let o = self.open.pop().expect("span end without a begin");
        assert_eq!(o.name, name, "spans must nest");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        if let Some(p) = self.open.last_mut() {
            p.child_ns += dur;
        }
        if name.starts_with("probe.") {
            self.probe_ns += dur;
        }
        let l = self.layers.entry(name).or_default();
        l.calls += 1;
        l.ops += ops;
        l.total_ns += dur;
        l.self_ns += dur.saturating_sub(o.child_ns);
        if ops > 0 {
            l.ns_per_op.record(dur as f64 / ops as f64);
        }
        if self.kept.len() < KEEP {
            let start_ns = o.start.duration_since(self.t0).as_nanos() as u64;
            self.kept.push(Span {
                id: o.id,
                parent: o.parent,
                name,
                start_ns,
                end_ns: start_ns + dur,
                ops,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn probe_ns(&self) -> u64 {
        self.probe_ns
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }

    /// The kept spans as Chrome trace-event JSON (`ts`/`dur` in µs).
    pub fn chrome_json(&self) -> String {
        let mut w = jsonw::JsonWriter::new();
        w.begin_obj();
        w.field_u64("dropped_spans", self.dropped);
        w.key("traceEvents");
        w.begin_arr();
        for s in &self.kept {
            w.begin_obj();
            w.field_str("name", s.name);
            w.field_str("ph", "X");
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            w.field_f64("ts", s.start_ns as f64 / 1e3);
            w.field_f64("dur", (s.end_ns - s.start_ns) as f64 / 1e3);
            w.key("args");
            w.begin_obj();
            w.field_u64("id", s.id as u64);
            if s.parent != NO_PARENT {
                w.field_u64("parent", s.parent as u64);
            }
            w.field_u64("ops", s.ops);
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        spin(200_000);
        t.begin("inner");
        spin(400_000);
        t.end("inner", 4);
        t.end("outer", 1);
        let (outer, inner) = (t.layer("outer"), t.layer("inner"));
        assert_eq!(inner.total_ns, inner.self_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000 && inner.total_ns >= 400_000);
        assert_eq!(inner.ns_per_op.count(), 1);
        let per_op = inner.total_ns as f64 / 4.0;
        assert!((inner.ns_per_op.quantile(0.5) - per_op).abs() / per_op < 1e-3);
        let json = t.chrome_json();
        assert!(jsonw::validate(&json));
        assert!(json.contains("\"parent\":0"), "inner names outer as parent");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        t.end("x", 1);
        assert!(t.layers().is_empty());
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn crossed_spans_are_a_bug() {
        let mut t = Tracer::new(true);
        t.begin("a");
        t.begin("b");
        t.end("a", 1);
    }
}
