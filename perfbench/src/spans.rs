//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a library layer; nothing inside the library is instrumented.
//! A span's layer is its name up to the first `.` (`graph.partition` →
//! `graph`). Root spans are requests; a layer's self time is its spans'
//! durations minus the part their child spans cover, and a root's own
//! self time is the named unattributed remainder. Spans stay in memory
//! until [`Tracer::write_jsonl`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanHandle = Option<usize>;

/// Where one root span's wall time went.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Root span duration.
    pub wall_s: f64,
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, f64>,
    /// Root self time: wall time no layer span covers.
    pub unattributed_s: f64,
}

/// The recorder. With tracing off every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    /// Switch recording on or off between requests.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling tracing inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one (a root span starts a
    /// new request).
    pub fn begin(&mut self, name: &'static str) -> SpanHandle {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().copied();
        let request = match parent {
            Some(p) => self.spans[p].request,
            None => {
                self.requests += 1;
                self.requests
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `h` (the innermost open one).
    pub fn end(&mut self, h: SpanHandle) {
        let Some(id) = h else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.begin(name);
        let out = f();
        self.end(h);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self-time breakdown of every closed root span named `root`.
    /// Layer self times plus the unattributed remainder sum to the root's
    /// wall time exactly (integer nanoseconds), because children always
    /// nest inside their parent.
    pub fn breakdowns(&self, root: &str) -> Vec<Breakdown> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>, u64)> = BTreeMap::new();
        let roots: BTreeMap<u64, &Span> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root && s.end_ns > 0)
            .map(|s| (s.request, s))
            .collect();
        for s in &self.spans {
            let Some(r) = roots.get(&s.request) else {
                continue;
            };
            let self_ns = s.dur_ns().saturating_sub(child_ns[s.id]);
            let e = out
                .entry(s.request)
                .or_insert((r.dur_ns(), BTreeMap::new(), 0));
            if s.parent.is_none() {
                e.2 += self_ns;
            } else {
                *e.1.entry(s.layer()).or_insert(0) += self_ns;
            }
        }
        out.into_values()
            .map(|(wall, layers, un)| {
                let attributed: u64 = layers.values().sum();
                assert_eq!(
                    attributed + un,
                    wall,
                    "layer self times must sum to the wall"
                );
                Breakdown {
                    wall_s: wall as f64 * 1e-9,
                    layers: layers
                        .into_iter()
                        .map(|(k, v)| (k, v as f64 * 1e-9))
                        .collect(),
                    unattributed_s: un as f64 * 1e-9,
                }
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_wall() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            let r = t.begin("request");
            t.span("graph.partition", || std::hint::black_box(vec![0u8; 1000]));
            let s = t.begin("core.solve");
            t.span("sparse.step", || std::hint::black_box(vec![0u8; 1000]));
            t.end(s);
            t.end(r);
        }
        let b = t.breakdowns("request");
        assert_eq!(b.len(), 3);
        for x in &b {
            assert!(x.layers.contains_key("graph") && x.layers.contains_key("sparse"));
            let sum: f64 = x.layers.values().sum::<f64>() + x.unattributed_s;
            assert!((sum - x.wall_s).abs() < 1e-12);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.begin("request");
        t.end(r);
        assert!(t.spans().is_empty());
    }
}
