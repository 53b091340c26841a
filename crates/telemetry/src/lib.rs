//! # klotski-telemetry
//!
//! The observability substrate shared by the planner, the routing engine,
//! the worker pool, the service, and the CLI. Std-only, like the rest of
//! the workspace. Two independent facilities:
//!
//! * **Spans and events** — hierarchical RAII spans ([`SpanGuard`]) with a
//!   thread-local span stack and monotonic microsecond timestamps, emitted
//!   as JSONL to a process-global pluggable [`Sink`] (file, stderr, or an
//!   in-memory ring buffer for tests). Emission is gated at runtime:
//!   nothing is recorded unless a sink is installed or the [`bus()`] has a
//!   subscriber ([`emit_enabled`] is two relaxed atomic loads), so the
//!   instrumented hot paths cost near zero when tracing is off.
//! * **Metrics** — lock-free [`Counter`]s, gauges, and
//!   [`LogLinearHistogram`]s behind a [`Registry`] (one process-global,
//!   one per service instance), rendered in Prometheus text format by one
//!   function. Metrics are always live (the service scrapes them without
//!   any trace sink); hot paths cache `Arc` handles at construction so
//!   recording is one relaxed atomic op.
//!
//! Trace lines follow a small schema (`schema`) with a validating parser
//! used by tests, `klotski trace <file>`, and CI.
//!
//! ```
//! use klotski_telemetry::{self as telemetry, span, RingSink};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingSink::new(64));
//! let prev = telemetry::swap(Some(ring.clone()));
//! {
//!     let mut root = span!("demo.root", "preset" = "a");
//!     root.field("phase", 1u64);
//! } // guard drop emits one JSONL line
//! telemetry::swap(prev);
//! assert_eq!(ring.lines().len(), 1);
//! ```

mod bus;
mod metrics;
mod schema;
mod sink;
mod span;

pub use bus::{bus, current_stream, tag_stream, Subscription};
pub use metrics::{registry, Counter, LogLinearHistogram, Registry};
pub use schema::{parse_line, validate_trace, Record};
pub use sink::{install, swap, uninstall, FileSink, RingSink, Sink, StderrSink};
pub use span::{log_event_fields, SpanGuard};

/// True when emitting a span/event line would reach anyone: a sink is
/// installed or the [`bus`] has at least one live subscriber. The runtime
/// gate used by [`span!`]/[`log_event!`] and [`SpanGuard::enter`]; two
/// relaxed atomic loads on the hot path.
#[inline]
pub fn emit_enabled() -> bool {
    sink::enabled() || bus::bus().has_subscribers()
}

/// Shared test-only lock serializing tests that install process-global
/// sinks or assert on lines flowing through the global bus.
#[cfg(test)]
mod test_support {
    use std::sync::{Mutex, MutexGuard};

    static SINK_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn sink_lock() -> MutexGuard<'static, ()> {
        SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A typed span/event field value, converted from ordinary Rust scalars at
/// the call site (`guard.field("lane", 3u64)`).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean field.
    Bool(bool),
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field.
    F64(f64),
    /// String field.
    Str(String),
}

impl FieldValue {
    pub(crate) fn to_json(&self) -> serde::Value {
        match self {
            FieldValue::Bool(b) => serde::Value::Bool(*b),
            FieldValue::U64(n) => serde::Value::Number(*n as f64),
            FieldValue::I64(n) => serde::Value::Number(*n as f64),
            FieldValue::F64(x) if x.is_finite() => serde::Value::Number(*x),
            FieldValue::F64(_) => serde::Value::Null,
            FieldValue::Str(s) => serde::Value::String(s.clone()),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Opens a span: `let _guard = span!("astar.plan", "preset" = "c");`.
///
/// The guard must be bound to a local; its `Drop` closes the span and
/// emits the JSONL line.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:literal = $v:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __guard = $crate::SpanGuard::enter($name);
        $( __guard.field($k, $v); )*
        __guard
    }};
}

/// Emits one structured event line attached to the current span:
/// `log_event!("report.experiment", "name" = name, "secs" = 1.5);`.
///
/// Fields are only evaluated when a sink is installed.
#[macro_export]
macro_rules! log_event {
    ($name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        if $crate::emit_enabled() {
            $crate::log_event_fields(
                $name,
                vec![ $( ($k.to_string(), $crate::FieldValue::from($v)) ),* ],
            );
        }
    };
}
