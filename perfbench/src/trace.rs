//! In-memory span recorder for the traced run. Spans are taken around
//! calls into each layer's public entry points from the benchmark's own
//! code, kept in memory, and written out once the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Read-path spans carry `READ_REQ + load index` as their request id, so
/// they never share an id with a write-path cycle.
pub const READ_REQ: u64 = 1 << 32;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Cycle (fleet) or load (dashboards) the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closed by [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: u64, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            req,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, o: Open) {
        let end_ns = self.now_ns();
        self.spans.lock().push(Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            req: o.req,
            start_ns: o.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let o = self.begin(name, parent, req);
        let out = f();
        self.end(o);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span name, summed over every request: the wall time the
/// name's spans cover minus the part of it covered by their children.
/// Parallel spans of one name (renders on scrape workers) count once per
/// instant, so the per-name totals add up to at most the covered wall time.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut own: HashMap<(&'static str, u64), Vec<(u64, u64)>> = HashMap::new();
    let mut kids: HashMap<(&'static str, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        own.entry((s.name, s.req))
            .or_default()
            .push((s.start_ns, s.end_ns));
        if let Some(p) = by_id.get(&s.parent) {
            kids.entry((p.name, p.req))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (key, iv) in own {
        let covered = union_len(iv);
        // Children run inside their parent's interval.
        let child = kids.remove(&key).map_or(0, union_len).min(covered);
        *out.entry(key.0).or_default() += covered - child;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 1,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, 0, "cycle", 0, 100),
            span(2, 1, "scrape", 10, 60),
            // Two renders in parallel on scrape workers.
            span(3, 2, "render", 10, 40),
            span(4, 2, "render", 20, 50),
            span(5, 1, "rules", 60, 90),
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["render"], 40);
        assert_eq!(st["scrape"], 10);
        assert_eq!(st["rules"], 30);
        assert_eq!(st["cycle"], 20);
        assert_eq!(st.values().sum::<u64>(), 100);
    }
}
