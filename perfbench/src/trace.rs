//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into each layer's public functions: name, start, end, parent span and
//! request id. They stay in memory until [`Tracer::write`] at the end.
//! A layer's self time is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    req: u64,
}

/// The span log of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for request `req` under `parent`.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Re-labels span `id` with request `req` (known only after the call).
    pub fn set_req(&mut self, id: SpanId, req: u64) {
        self.spans[id].req = req;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Self time in nanoseconds of every span, in recording order.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// For each span name, the self time summed per request, in µs:
    /// one sample per request that recorded the name.
    pub fn self_us_per_request(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *per.entry((s.name, s.req)).or_insert(0) += ns;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per {
            out.entry(name).or_default().push(ns as f64 / 1000.0);
        }
        out
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or writing `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("outer", 1, None);
        t.span("inner", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let per = t.self_us_per_request();
        assert!(per["inner"][0] >= 5000.0);
        assert!(per["outer"][0] < per["inner"][0]);
    }
}
