//! Spans recorded by the benchmark around each call into a layer of the
//! stack. Kept in memory and written out once, as a Chrome trace whose
//! events carry their own id, their parent's id and a request id.

use crate::json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span (0 for a root).
    pub parent: u64,
    /// Request the span belongs to (0 outside any request).
    pub request: u64,
    pub name: &'static str,
    pub detail: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Open spans, innermost last: (span id, request id).
    stack: RefCell<Vec<(u64, u64)>>,
    next_id: Cell<u64>,
    next_request: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
            next_request: Cell::new(1),
        }
    }

    /// Runs `f` inside a span that starts a new request; spans opened
    /// inside it inherit the request id.
    pub fn request<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let request = self.next_request.get();
        self.next_request.set(request + 1);
        self.open(name, String::new(), Some(request), f)
    }

    /// The request id the next span would inherit (0 outside any).
    pub fn current_request(&self) -> u64 {
        self.stack.borrow().last().map_or(0, |s| s.1)
    }

    /// Runs `f` inside a root span of an earlier request.
    pub fn within<R>(&self, request: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, String::new(), Some(request), f)
    }

    /// Runs `f` inside a span of the enclosing request.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, String::new(), None, f)
    }

    /// Like [`span`](Self::span), labelled with `detail` (built only
    /// when tracing is on).
    pub fn span_detail<R>(
        &self,
        name: &'static str,
        detail: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        let detail = if self.enabled {
            detail()
        } else {
            String::new()
        };
        self.open(name, detail, None, f)
    }

    fn open<R>(
        &self,
        name: &'static str,
        detail: String,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let (parent, inherited) = self.stack.borrow().last().copied().unwrap_or((0, 0));
        let request = request.unwrap_or(inherited);
        self.stack.borrow_mut().push((id, request));
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            request,
            name,
            detail,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as Chrome trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"detail\":{}}}}}",
                    json::string(s.name),
                    json::number(s.start_ns as f64 / 1e3),
                    json::number(s.dur_ns as f64 / 1e3),
                    s.id,
                    s.parent,
                    s.request,
                    json::string(&s.detail)
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_carry_parent_and_request() {
        let t = Tracer::new(true);
        t.request("outer", || {
            t.span("inner", || ());
            t.span_detail("labelled", || "x".to_string(), || ());
        });
        t.request("second", || ());
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        let outer = by("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by("inner").parent, outer.id);
        assert_eq!(by("inner").request, outer.request);
        assert_eq!(by("labelled").detail, "x");
        assert_ne!(by("second").request, outer.request);
        assert!(t.chrome_json().contains("\"parent\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.request("r", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
