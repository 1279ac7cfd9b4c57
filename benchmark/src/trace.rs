//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Threads collect spans in their own `Vec` and hand them to the
//! [`Tracer`] when they finish, so recording takes no lock. Spans stay in
//! memory until the run writes them out as JSON lines.

use crate::json::Json;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request this span served; 0 when it serves none.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span clock and id source shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (also used as a request id).
    pub fn id(&self) -> u64 {
        // Relaxed: the counter publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Builds a span with a preallocated `id`.
    pub fn span_with_id(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            id,
            parent,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        }
    }

    /// Records a span into a thread's buffer and returns its id.
    pub fn push(
        &self,
        buf: &mut Vec<Span>,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        buf.push(self.span_with_id(id, name, parent, req, start, end));
        id
    }

    /// Hands a finished thread's spans to the tracer.
    pub fn keep(&self, buf: Vec<Span>) {
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .extend(buf);
    }

    /// Every span kept so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self
            .spans
            .lock()
            .expect("a span-recording thread panicked")
            .clone();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Writes one JSON object per span, with its self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut j = Json::obj();
        j.set("name", s.name)
            .set("id", s.id)
            .set("parent", s.parent)
            .set("req", s.req)
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns)
            .set("self_ns", selfs[&s.id]);
        writeln!(out, "{}", j.encode())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Overlapping children cover 10..50 once: 40 ns.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A child running past its parent counts only inside it.
            span(4, 1, 90, 130),
            // A grandchild is its child's business, not the root's.
            span(5, 2, 12, 20),
        ];
        let s = self_ns(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
        assert_eq!(s[&2], 30 - 8);
        assert_eq!(s[&3], 20);
        assert_eq!(s[&4], 40);
        assert_eq!(s[&5], 8);
    }
}
