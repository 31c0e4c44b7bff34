//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around each call
//! into a layer: name, start, end and the enclosing span. They stay in
//! memory and are written out once, at the end of the run. With tracing
//! off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans relative to the tracer's creation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded (the traced run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span timed elsewhere (on another thread) as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let parent = self.open.last().copied();
            self.spans.push(Span { name: name.to_string(), parent, start_ns, end_ns });
        }
    }

    /// Total and self time per span name, in nanoseconds. Self time is a
    /// span's duration minus the part its children cover.
    fn self_times(&self) -> BTreeMap<&str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, &children) in self.spans.iter().zip(&child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name.as_str()).or_default();
            entry.0 += 1;
            entry.1 += total;
            // Children on other threads may overlap each other and
            // exceed the parent's wall; self time never goes negative.
            entry.2 += total.saturating_sub(children);
        }
        by_name
    }

    /// Prints the per-name span count, total and self time to stderr.
    pub fn print_self_times(&self) {
        let times = self.self_times();
        let root: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        eprintln!(
            "{:<32} {:>6} {:>12} {:>12} {:>7}",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, (count, total, own)) in times {
            eprintln!(
                "{name:<32} {count:>6} {:>12.3} {:>12.3} {:>6.1}%",
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / root.max(1) as f64
            );
        }
    }

    /// Writes every span as one JSON document under `benchmark/out/` and
    /// returns its path.
    pub fn write(&self, workload: &str, seed: u64) -> Result<PathBuf, String> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
        let mut doc =
            format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                doc,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        doc.push_str("]}\n");
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let times = t.self_times();
        let (_, outer_total, outer_self) = times["outer"];
        let (_, inner_total, _) = times["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
