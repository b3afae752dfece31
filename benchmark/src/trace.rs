//! In-memory span recorder for the traced pass.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept in a
//! vector while the benchmark runs and written as JSON lines at exit; a
//! layer's number is the median *self* time of its spans — the span's duration
//! minus the durations of its direct children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    /// Spans of one request (real or shadow) share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span whose endpoints were stamped elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Instant::now();
    }

    /// Times `f` as a child span of `parent` (same request id).
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, Some(parent), request, start, end);
        out
    }

    /// Self time in milliseconds of every span, indexed by [`SpanId`].
    fn self_times_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_ms).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ms();
            }
        }
        own
    }

    /// Self times (ms) of all spans called `name`, in recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ms();
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| own[i])
            .collect()
    }

    /// For every span called `root`, the summed duration (ms) of its direct
    /// children — the part of a shadow request that its chain accounts for.
    pub fn children_ms(&self, root: &str) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                sums[parent] += span.duration_ms();
            }
        }
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .map(|i| sums[i])
            .collect()
    }

    /// Summed duration (ms) per child name below spans called `root`, largest
    /// first — who the chain's time belongs to.
    pub fn contributors(&self, root: &str) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for span in &self.spans {
            let Some(parent) = span.parent else { continue };
            if self.spans[parent].name != root {
                continue;
            }
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += span.duration_ms(),
                None => totals.push((span.name, span.duration_ms())),
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        totals
    }

    /// Writes one JSON object per span: name, start and end in microseconds
    /// since the tracer was created, parent span index (or null), request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{id},"name":"{}","start_us":{:.1},"end_us":{:.1},"parent":{parent},"request":{}}}"#,
                span.name,
                us(span.start),
                us(span.end),
                span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer.record("root", None, 1, at(0), at(100));
        let child = tracer.record("child", Some(root), 1, at(10), at(50));
        tracer.record("grandchild", Some(child), 1, at(20), at(30));
        tracer.record("child", Some(root), 1, at(60), at(80));
        assert_eq!(tracer.self_ms("root"), vec![40.0]);
        assert_eq!(tracer.self_ms("child"), vec![30.0, 20.0]);
        assert_eq!(tracer.children_ms("root"), vec![60.0]);
        assert_eq!(tracer.contributors("root"), vec![("child", 60.0)]);
    }
}
