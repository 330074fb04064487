//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! a layer's public functions. Hot per-cycle and per-call layers (engine
//! phases, `route()`, `dest()`) would need millions of spans, so they are
//! recorded as *aggregate* spans: one record per layer and enclosing
//! span, carrying the call count and the accumulated busy time. Either
//! kind has a parent, so a layer's self time is its busy time minus the
//! busy time of its children, and nothing is counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub label: String,
    /// The benchmark repetition this span belongs to.
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls covered: 1 for an interval span, the call count for an
    /// aggregate span.
    pub count: u64,
    /// Nanoseconds the layer was busy: `end - start` for an interval
    /// span, the accumulated call time for an aggregate span.
    pub busy_ns: u64,
}

/// Summed figures of one layer within one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Span recorder. A disabled tracer records nothing; its methods are
/// still called at the (coarse) layer boundaries so traced and untraced
/// repetitions run the same benchmark code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start attributing spans to repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open an interval span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, label: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            label: label.into(),
            run: self.run,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span and return its id.
    pub fn close(&mut self) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.stack.pop().expect("close without a matching open");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
        Some(id)
    }

    /// Record an aggregate span under `parent` (a closed interval span or
    /// another aggregate). Returns its id so aggregates can nest.
    pub fn aggregate(&mut self, parent: u32, name: &'static str, count: u64, busy_ns: u64) -> u32 {
        assert!(self.enabled, "aggregate spans belong to the traced run");
        let id = self.spans.len() as u32;
        let p = &self.spans[parent as usize];
        let (start_ns, end_ns, run) = (p.start_ns, p.end_ns, p.run);
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            label: String::new(),
            run,
            start_ns,
            end_ns,
            count,
            busy_ns,
        });
        id
    }

    /// Self time of every span: busy time minus the children's busy time.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .map(|s| s.busy_ns.saturating_sub(child[s.id as usize]))
            .collect()
    }

    /// Per repetition and layer name: calls, busy and self time summed
    /// over the layer's spans.
    pub fn totals(&self) -> BTreeMap<(u32, &'static str), Totals> {
        let mut out: BTreeMap<(u32, &'static str), Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry((s.run, s.name)).or_default();
            t.count += s.count;
            t.busy_ns += s.busy_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"label\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{},\"busy_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.run,
                s.name,
                crate::report::json_string(&s.label),
                s.start_ns,
                s.end_ns,
                s.count,
                s.busy_ns,
                self_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        t.open("root", "");
        t.open("child", "");
        let child = t.close().unwrap();
        let root = t.close().unwrap();
        let agg = t.aggregate(child, "agg", 10, 0);
        t.aggregate(agg, "inner", 5, 0);
        let selfs = t.self_ns();
        let spans = &t.spans;
        assert_eq!(
            selfs[root as usize],
            spans[root as usize].busy_ns - spans[child as usize].busy_ns
        );
        assert_eq!(spans[agg as usize].parent, Some(child));
        assert_eq!(spans[agg as usize].run, spans[child as usize].run);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("root", "");
        assert_eq!(t.close(), None);
        assert!(t.spans.is_empty());
    }
}
