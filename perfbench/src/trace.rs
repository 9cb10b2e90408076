//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent), kept in memory and written out once when
//! the run ends. A layer's self time is its spans' duration minus the part
//! of each span that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that it can parent spans of its own. Returns `f`'s value and the
    /// span's duration in seconds.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> (T, f64) {
        // Relaxed: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        let seconds = span.seconds();
        self.spans
            .lock()
            .expect("span store poisoned: a traced call panicked")
            .push(span);
        (out, seconds)
    }

    /// All finished spans, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned: a traced call panicked")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Summed duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.seconds())
}

/// Self time per layer (the span name up to its first `.`), in seconds:
/// each span's duration minus the union of its children's intervals.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            // Children of a pool span run concurrently: merge overlaps.
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(layer).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// Writes one JSON object per span: `id`, `parent`, `name`, `start_ns`,
/// `end_ns`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            parent,
            crate::json_str(&s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(0, None, "sweep.pool", 0, 100),
            span(1, Some(0), "kind.A", 10, 50),
            span(2, Some(0), "kind.B", 30, 70),
            span(3, Some(0), "kind.A", 80, 90),
        ];
        let self_s = layer_self_s(&spans);
        // The pool is covered on [10, 70] and [80, 90]: 70 of 100 ns.
        assert!((self_s["sweep"] - 30e-9).abs() < 1e-15);
        assert!((self_s["kind"] - 90e-9).abs() < 1e-15);
    }
}
