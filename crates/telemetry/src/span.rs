//! Hierarchical spans with a thread-local span stack.
//!
//! A [`SpanGuard`] is opened with [`span!`](crate::span!) (or
//! [`SpanGuard::enter`]), lives on the stack, and emits one JSONL line
//! when dropped — children therefore appear in the trace *before* their
//! parents, which is why the schema validator resolves parent ids in a
//! second pass. Parentage follows the per-thread span stack, so a span's
//! parent is always on its own thread: no lane thread opens spans.
//!
//! Timestamps are microseconds since the process's first telemetry use
//! (a monotonic [`Instant`] epoch), so subtraction inside one trace is
//! always meaningful.

use crate::sink;
use crate::FieldValue;
use serde::{Map, Value};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Span ids start at 1; 0 means "no span" (a root's parent).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process's monotonic telemetry epoch.
fn epoch_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Id of the innermost open span on this thread (0 when none).
fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span. Dropping it closes the span and emits its JSONL line.
/// Deliberately `!Send`: a guard must close on the thread that opened it,
/// or the thread-local stack would corrupt.
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    fields: Vec<(String, FieldValue)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span as a child of this thread's innermost open span.
    /// Returns an inert guard when no sink is installed.
    pub fn enter(name: &'static str) -> Self {
        if !crate::emit_enabled() {
            return Self::disabled();
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = current_span_id();
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Self {
            id,
            parent,
            name,
            start_us: epoch_us(),
            fields: Vec::new(),
            _not_send: PhantomData,
        }
    }

    /// An inert guard: no id, no emission, fields ignored.
    fn disabled() -> Self {
        Self {
            id: 0,
            parent: 0,
            name: "",
            start_us: 0,
            fields: Vec::new(),
            _not_send: PhantomData,
        }
    }

    /// Attaches a field to be emitted when the span closes. Later values
    /// win for repeated keys (resolved at emission).
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) -> &mut Self {
        if self.id != 0 {
            self.fields.push((key.to_string(), value.into()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in LIFO order, so this is almost always a pop;
            // the scan tolerates a guard outliving its children's thread.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let dur_us = epoch_us().saturating_sub(self.start_us);
        let mut obj = Map::new();
        obj.insert("type".into(), Value::String("span".into()));
        obj.insert("name".into(), Value::String(self.name.into()));
        obj.insert("id".into(), Value::Number(self.id as f64));
        obj.insert("parent".into(), Value::Number(self.parent as f64));
        obj.insert("thread".into(), Value::String(thread_label()));
        obj.insert("start_us".into(), Value::Number(self.start_us as f64));
        obj.insert("dur_us".into(), Value::Number(dur_us as f64));
        obj.insert("fields".into(), fields_json(&self.fields));
        emit_object(obj);
    }
}

/// Emits one event line under the current span. Prefer the
/// [`log_event!`](crate::log_event!) macro, which skips field construction
/// when tracing is disabled.
pub fn log_event_fields(name: &str, fields: Vec<(String, FieldValue)>) {
    if !crate::emit_enabled() {
        return;
    }
    let mut obj = Map::new();
    obj.insert("type".into(), Value::String("event".into()));
    obj.insert("name".into(), Value::String(name.into()));
    obj.insert("span".into(), Value::Number(current_span_id() as f64));
    obj.insert("ts_us".into(), Value::Number(epoch_us() as f64));
    obj.insert("fields".into(), fields_json(&fields));
    emit_object(obj);
}

fn fields_json(fields: &[(String, FieldValue)]) -> Value {
    let mut map = Map::new();
    for (k, v) in fields {
        map.insert(k.clone(), v.to_json());
    }
    Value::Object(map)
}

fn emit_object(obj: Map) {
    if let Ok(line) = serde_json::to_string(&Value::Object(obj)) {
        sink::emit(&line);
    }
}

fn thread_label() -> String {
    let current = std::thread::current();
    match current.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", current.id()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use std::sync::Arc;

    impl SpanGuard {
        /// This span's id (0 when disabled).
        fn id(&self) -> u64 {
            self.id
        }
    }

    fn with_ring(f: impl FnOnce(&RingSink)) {
        // Sink-installing tests share the process-global slot (and the
        // bus tests flip the emit_enabled gate); serialize them.
        let _guard = crate::test_support::sink_lock();
        let ring = Arc::new(RingSink::new(1024));
        let prev = crate::swap(Some(ring.clone() as Arc<dyn crate::Sink>));
        f(&ring);
        crate::swap(prev);
    }

    #[test]
    fn disabled_guard_emits_nothing() {
        let _guard = crate::test_support::sink_lock();
        let prev = crate::swap(None);
        assert!(!crate::sink::enabled());
        {
            let mut s = SpanGuard::enter("quiet");
            s.field("k", 1u64);
            assert_eq!(s.id(), 0);
        }
        assert_eq!(current_span_id(), 0);
        crate::swap(prev);
    }

    #[test]
    fn nested_spans_nest_ids_and_emit_child_first() {
        use crate::Record;
        with_ring(|ring| {
            let outer_id;
            let inner_id;
            {
                let outer = SpanGuard::enter("outer");
                outer_id = outer.id();
                assert_eq!(current_span_id(), outer_id);
                {
                    let mut inner = SpanGuard::enter("inner");
                    inner.field("n", 2u64);
                    inner_id = inner.id();
                    assert_eq!(current_span_id(), inner_id);
                }
                assert_eq!(current_span_id(), outer_id);
            }
            assert_eq!(current_span_id(), 0);
            let lines = ring.lines();
            assert_eq!(lines.len(), 2);
            let first = crate::parse_line(&lines[0]).unwrap();
            let second = crate::parse_line(&lines[1]).unwrap();
            match (first, second) {
                (
                    Record::Span {
                        name: n1,
                        id: i1,
                        parent: p1,
                        ..
                    },
                    Record::Span {
                        name: n2,
                        id: i2,
                        parent: p2,
                        ..
                    },
                ) => {
                    assert_eq!((n1.as_str(), i1, p1), ("inner", inner_id, outer_id));
                    assert_eq!((n2.as_str(), i2, p2), ("outer", outer_id, 0));
                }
                other => panic!("expected two spans, got {other:?}"),
            }
        });
    }

    #[test]
    fn events_attach_to_the_current_span() {
        with_ring(|ring| {
            {
                let root = SpanGuard::enter("holder");
                crate::log_event!("ping", "ok" = true, "n" = 7u64);
                let _ = root;
            }
            let lines = ring.lines();
            assert_eq!(lines.len(), 2, "{lines:?}");
            match crate::parse_line(&lines[0]).unwrap() {
                crate::Record::Event {
                    name, span, fields, ..
                } => {
                    assert_eq!(name, "ping");
                    assert_ne!(span, 0, "event must attach to the open span");
                    assert_eq!(fields.get("ok").and_then(|v| v.as_bool()), Some(true));
                    assert_eq!(fields.get("n").and_then(|v| v.as_f64()), Some(7.0));
                }
                other => panic!("expected event, got {other:?}"),
            }
        });
    }

    #[test]
    fn trace_round_trips_through_validator() {
        with_ring(|ring| {
            {
                let _a = crate::span!("root.a", "k" = "v");
                let _b = crate::span!("child.b");
                crate::log_event!("tick", "i" = 1u64);
            }
            let text = ring.lines().join("\n");
            let summary = crate::validate_trace(&text).unwrap();
            assert_eq!(summary.spans, 2);
            assert_eq!(summary.events, 1);
            assert_eq!(summary.roots, 1);
        });
    }
}
