//! Pluggable trace sinks: the process-global sink slot, and one scoped
//! sink per thread.
//!
//! At most one global sink is installed at a time; swapping sinks flushes
//! the outgoing one, so a caller that uninstalls a [`FileSink`] can read a
//! complete file immediately afterwards. A thread may also hold a scoped
//! sink while a [`SinkScope`] guard lives ([`scope`]): it hears the lines
//! emitted on that thread only, whether or not a global sink is installed.
//! The hot-path gate is a relaxed atomic load and a thread-local read, so
//! instrumented code pays nothing beyond that when neither exists.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A destination for JSONL trace lines. `write_line` receives one line
/// without the trailing newline and must be safe to call from any thread.
pub trait Sink: Send + Sync {
    /// Appends one trace line.
    fn write_line(&self, line: &str);
    /// Makes previously written lines durable/visible. Default: no-op.
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

thread_local! {
    /// This thread's scoped sink, held while a [`SinkScope`] lives.
    static SCOPED: RefCell<Option<Arc<dyn Sink>>> = const { RefCell::new(None) };
}

/// True when a global sink is installed.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when this thread holds a scoped sink.
#[inline]
pub(crate) fn scoped() -> bool {
    SCOPED.with(|s| s.borrow().is_some())
}

/// Makes `sink` this thread's scoped sink until the guard drops: every line
/// emitted on this thread reaches it too, and lines emitted on other
/// threads never do.
pub fn scope<S: Sink + 'static>(sink: Arc<S>) -> SinkScope {
    SCOPED.with(|s| *s.borrow_mut() = Some(sink));
    SinkScope(PhantomData)
}

/// Holds a thread's scoped sink until dropped. `!Send` for the same reason
/// [`crate::SpanGuard`] is: the scope lives in a thread-local.
pub struct SinkScope(PhantomData<*const ()>);

impl Drop for SinkScope {
    fn drop(&mut self) {
        SCOPED.with(|s| *s.borrow_mut() = None);
    }
}

/// Installs `sink` as the process-global trace sink, replacing (and
/// flushing) any previous one.
pub fn install<S: Sink + 'static>(sink: Arc<S>) {
    let _ = swap(Some(sink as Arc<dyn Sink>));
}

/// Removes the current sink (flushing it) and disables tracing.
/// Returns the removed sink, if any.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    swap(None)
}

/// Replaces the global sink wholesale and returns the previous one
/// (flushed). `swap(None)` disables tracing; restoring the returned value
/// later re-enables it — the pattern benches use to measure an untraced
/// arm without losing the caller's sink.
pub fn swap(new: Option<Arc<dyn Sink>>) -> Option<Arc<dyn Sink>> {
    let mut slot = SINK.write().unwrap();
    ENABLED.store(new.is_some(), Ordering::Relaxed);
    let old = std::mem::replace(&mut *slot, new);
    if let Some(old) = &old {
        old.flush();
    }
    old
}

/// Writes one line to the global sink, if one is installed, and to this
/// thread's scoped sink, if it holds one. The two are independent: a job's
/// scoped trace fills with no global sink, and a trace file still captures
/// every thread's lines while a job's trace is kept.
pub(crate) fn emit(line: &str) {
    if enabled() {
        if let Some(sink) = SINK.read().unwrap().as_ref() {
            sink.write_line(line);
        }
    }
    SCOPED.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.write_line(line);
        }
    });
}

/// Writes trace lines to stderr, one per call. Used by the `report`
/// binary's structured progress logging.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn write_line(&self, line: &str) {
        eprintln!("{line}");
    }
}

/// Buffered JSONL file writer. Lines become durable on [`Sink::flush`]
/// (called automatically when the sink is swapped out) or on drop.
#[derive(Debug)]
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for FileSink {
    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

/// An in-memory ring buffer of the most recent `capacity` lines, for
/// tests: install, exercise, then assert on [`lines`](Self::lines).
#[derive(Debug)]
pub struct RingSink {
    lines: Mutex<VecDeque<String>>,
    capacity: usize,
}

impl RingSink {
    /// A ring keeping at most `capacity` lines (≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            lines: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Snapshot of the buffered lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().iter().cloned().collect()
    }
}

impl Sink for RingSink {
    fn write_line(&self, line: &str) {
        let mut lines = self.lines.lock().unwrap();
        if lines.len() == self.capacity {
            lines.pop_front();
        }
        lines.push_back(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sink_caps_capacity_and_keeps_newest() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.write_line(&format!("line{i}"));
        }
        assert_eq!(ring.lines(), vec!["line2", "line3", "line4"]);
    }

    #[test]
    fn a_scoped_sink_hears_its_own_thread_until_its_guard_drops() {
        // No global sink, so emission is this thread's scope alone; the
        // lock keeps the sink-swapping tests from installing one meanwhile.
        let _guard = crate::test_support::sink_lock();
        let prev = crate::swap(None);
        let ring = Arc::new(RingSink::new(16));
        assert!(!crate::emit_enabled());
        {
            let _scope = scope(ring.clone());
            assert!(
                crate::emit_enabled(),
                "a scoped sink alone enables emission"
            );
            crate::log_event!("scope.test", "n" = 7u64);
            std::thread::spawn(|| {
                assert!(!crate::emit_enabled(), "the scope is this thread's only");
                crate::log_event!("scope.other");
            })
            .join()
            .unwrap();
        }
        assert!(!crate::emit_enabled(), "the scope ends with its guard");
        crate::log_event!("scope.after");
        let lines = ring.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        match crate::parse_line(&lines[0]).unwrap() {
            crate::Record::Event { name, fields, .. } => {
                assert_eq!(name, "scope.test");
                assert_eq!(fields.get("n").and_then(|v| v.as_f64()), Some(7.0));
            }
            other => panic!("expected event, got {other:?}"),
        }
        crate::swap(prev);
    }

    #[test]
    fn a_line_reaches_both_the_global_and_the_scoped_sink() {
        let _guard = crate::test_support::sink_lock();
        let global = Arc::new(RingSink::new(16));
        let prev = crate::swap(Some(global.clone()));
        let scoped = Arc::new(RingSink::new(16));
        {
            let _scope = scope(scoped.clone());
            emit("a");
        }
        emit("b");
        crate::swap(prev);
        assert_eq!(scoped.lines(), ["a"]);
        assert_eq!(global.lines(), ["a", "b"]);
    }

    #[test]
    fn file_sink_round_trips_lines() {
        let path = std::env::temp_dir().join(format!("klotski-sink-{}.jsonl", std::process::id()));
        let sink = FileSink::create(&path).unwrap();
        sink.write_line("alpha");
        sink.write_line("beta");
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "alpha\nbeta\n");
        let _ = std::fs::remove_file(&path);
    }
}
