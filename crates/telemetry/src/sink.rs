//! Pluggable trace sinks and the process-global sink slot.
//!
//! Exactly one sink is installed at a time. The hot-path gate is
//! [`enabled`] — a single relaxed atomic load — so instrumented code pays
//! nothing beyond that when tracing is off. Swapping sinks flushes the
//! outgoing one, so a caller that uninstalls a [`FileSink`] can read a
//! complete file immediately afterwards.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
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

/// True when a sink is installed. This is the fast path every span/event
/// checks first; keep call sites cheap by checking it before building
/// fields.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
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

/// Writes one line to the installed sink, if any, and offers it to the
/// live-subscriber [`bus`](crate::bus) — the two destinations are
/// independent, so SSE streaming works with no sink installed and a trace
/// file still captures everything while subscribers watch.
pub(crate) fn emit(line: &str) {
    if enabled() {
        if let Some(sink) = SINK.read().unwrap().as_ref() {
            sink.write_line(line);
        }
    }
    crate::bus::bus().publish(line);
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
