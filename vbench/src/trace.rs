//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (no span lives inside the program). They are
//! kept in memory, written out as JSON lines when the run ends, and
//! summarised as the median *self time* per span name: a span's duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// One thread's spans. Ids are indices into `spans`; merge tracers from
/// several threads with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

pub type SpanId = usize;

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Record `f` as one root span when there is a tracer, else just
    /// call it.
    pub fn time_opt<R>(
        tr: &mut Option<&mut Tracer>,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        match tr {
            Some(t) => t.time(name, None, request, f),
            None => f(),
        }
    }

    /// Append another thread's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in microseconds: duration minus the
    /// union of its children's intervals.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Self-time samples (µs) grouped by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_us()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Median self time (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        self.by_name()
            .get(name)
            .map_or(f64::NAN, |v| crate::load::median(v))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 10_000,
                parent: None,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 1_000,
                end_ns: 4_000,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 3_000,
                end_ns: 6_000,
                parent: Some(0),
                request: 1,
            },
        ];
        assert_eq!(t.self_times_us(), vec![5.0, 3.0, 3.0]);
        let mut other = Tracer::new(Instant::now());
        other.spans = t.spans.clone();
        t.absorb(other);
        assert_eq!(t.spans[4].parent, Some(3));
    }
}
