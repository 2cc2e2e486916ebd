//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; nothing inside the program is instrumented beyond the
//! counters it already has. Spans stay in memory and are written once, at
//! exit.

use std::time::Instant;

/// One timed call: its layer name, start and end relative to the trace
/// origin, the enclosing span, and the request it served (the schedule
/// index of a fleet packet, or the index of a batch request).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.localize`.
    pub name: &'static str,
    /// Start, nanoseconds after the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds after the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Renames a closed span, for calls classified only after they return.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration of every span named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed self time of every span named `name`: each span's duration
    /// minus the time its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum()
    }

    /// The spans as JSON, one span object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        let root = t.begin("root", 7);
        t.time("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let children = t.total_ns("child");
        assert!(children >= 4_000_000);
        assert_eq!(t.self_ns("root"), t.total_ns("root") - children);
        assert_eq!(t.self_ns("child"), children);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"child\""));
        assert!(json.contains("\"parent\": 0"));
    }
}
