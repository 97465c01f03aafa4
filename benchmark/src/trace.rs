//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer of
//! the program: name, start, end, the span that caused it and the request
//! (frame, round trip, burst) it belongs to. Spans stay in memory until the
//! run ends and are then written to `benchmark/out/trace-<workload>.json`.
//! A layer's self time is its span's duration minus what its children
//! cover; `traced.rs` takes that difference as it records (a frame span
//! minus its four stage spans), so nothing here walks the spans again.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// One thread's span buffer; buffers of several threads share an epoch and
/// are merged with [`Trace::absorb`].
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.ms()
    }

    /// Records a span around `work`; returns its result and duration (ms).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        work: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, request);
        let result = work();
        (result, self.end(id))
    }

    /// Appends another buffer recorded against the same epoch, keeping its
    /// parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + offset);
            span
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans to `benchmark/out/trace-<workload>.json` (relative
    /// to the working directory, which is the root of the checkout).
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let mut text = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            text,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                text.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            let _ = write!(
                text,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        text.push_str("\n]}\n");
        let dir = PathBuf::from("benchmark").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, text)?;
        Ok(path)
    }
}
