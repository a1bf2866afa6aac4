//! The benchmark's own span recorder. The traced run wraps every public
//! call the harness makes into a workspace crate in a span (name, start,
//! end, parent, request id), keeps the spans in memory and writes them out
//! when the run ends. Off, a span is one branch around the call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` for request `req`; the span's
    /// parent is the innermost span open on this thread.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| s.borrow().last().copied());
        OPEN.with(|s| s.borrow_mut().push(id));
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(SpanRec {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }
}

/// Read-side view of a finished traced run.
pub struct Spans {
    spans: Vec<SpanRec>,
    child_ns: HashMap<u64, u64>,
}

impl Spans {
    pub fn new(spans: Vec<SpanRec>) -> Spans {
        let mut child_ns = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.dur_ns();
            }
        }
        Spans { spans, child_ns }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e6
    }

    /// Mean duration per span, 0 when the run made no such call.
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ms(name) / n as f64,
        }
    }

    pub fn self_ns(&self, s: &SpanRec) -> u64 {
        s.dur_ns()
            .saturating_sub(self.child_ns.get(&s.id).copied().unwrap_or(0))
    }

    /// Share of the `root` spans' time that no child span covers.
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let total: u64 = self.named(root).map(SpanRec::dur_ns).sum();
        let uncovered: u64 = self.named(root).map(|s| self.self_ns(s)).sum();
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }

    /// Self time and span count per layer, in ms.
    pub fn layer_self(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.layer()).or_default();
            e.0 += self.self_ns(s) as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_uncovered_share() {
        let t = Tracer::new(true);
        t.span("op", 1, || {
            t.span("a.x", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        let s = Spans::new(t.spans());
        assert_eq!(s.count("op"), 1);
        let child = s.spans.iter().find(|r| r.name == "a.x").expect("child");
        let root = s.spans.iter().find(|r| r.name == "op").expect("root");
        assert_eq!(child.parent, Some(root.id));
        let share = s.uncovered_share("op");
        assert!(share > 0.2 && share < 0.8, "{share}");
        assert!(s.layer_self().contains_key("a"));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
