//! In-memory span recorder.
//!
//! Spans are taken around the benchmark's own calls into the program's
//! public API (session runs, certification, domain projection, replay,
//! HTTP requests), never inside the program. A disabled tracer records
//! nothing and costs one branch per call, so the untraced run measures the
//! end-to-end metrics undisturbed; the traced run derives the per-layer
//! times from the spans and writes them out once the workload is over.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
pub struct Span {
    /// Layer boundary, e.g. `session.run` or `serve.finalise`.
    pub name: &'static str,
    /// The task (one sweep, hunt or job) the span belongs to; spans of one
    /// task share it.
    pub task: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the tracer's creation.
    pub start: Duration,
    pub end: Duration,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Host time spent inside the recorder itself.
    cost: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    /// Opens a span; returns its handle (`None` when tracing is off).
    pub fn enter(&mut self, name: &'static str, task: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        let at = now - self.origin;
        self.spans.push(Span {
            name,
            task,
            parent,
            start: at,
            end: at,
        });
        self.cost += now.elapsed();
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            let now = Instant::now();
            self.spans[index].end = now - self.origin;
            self.cost += now.elapsed();
        }
    }

    /// Records a span whose bounds were observed elsewhere (e.g. the
    /// arrival times of streamed server events).
    pub fn record(
        &mut self,
        name: &'static str,
        task: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            task,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.cost += now.elapsed();
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end.saturating_sub(span.start))
            .sum()
    }

    /// Host time the recorder itself consumed.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// The spans as one JSON document (`{"spans": [...]}`), with each
    /// span's self time: its duration minus the part its children cover.
    pub fn to_json(&self) -> String {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end.saturating_sub(span.start);
            }
        }
        let mut out = String::from("{\"spans\": [\n");
        for (index, span) in self.spans.iter().enumerate() {
            let duration = span.end.saturating_sub(span.start);
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {index}, \"name\": \"{}\", \"task\": {}, \"parent\": {parent}, \
                 \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                span.name,
                span.task,
                span.start.as_secs_f64(),
                span.end.as_secs_f64(),
                duration.saturating_sub(child_time[index]).as_secs_f64(),
            );
            out.push_str(if index + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
