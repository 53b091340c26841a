//! A bounded broadcast bus bridging trace lines to live subscribers.
//!
//! The sink slot ([`crate::sink`]) is a single write-only destination; the
//! bus is its fan-out counterpart for *readers*: the service's SSE
//! endpoint subscribes here to stream `astar.progress` / `dp.progress` /
//! `controller.phase` events to operators while a job runs. Every line
//! that reaches [`crate::sink::emit`] is also offered to the bus, so
//! subscribing works whether or not a sink is installed — span/event
//! emission is gated on [`crate::emit_enabled`], which is true when
//! either a sink is installed or at least one subscriber exists.
//!
//! Three properties the planners depend on:
//!
//! * **Never blocks.** Each subscription owns a bounded queue; when it is
//!   full the oldest line is dropped and the subscription's lag-drop
//!   counter advances. A stalled HTTP client can therefore never apply
//!   backpressure to a search thread.
//! * **Stream isolation.** Publishers are tagged per thread with a
//!   [`StreamTag`] (the service tags its worker thread with the job's
//!   stream id before running it); a subscription filters on one stream
//!   id, or 0 for everything. Lines emitted by routing lane threads carry
//!   no tag — the per-job progress events (`astar.progress`,
//!   `dp.progress`, `controller.phase`) are all emitted on the tagged
//!   thread itself.
//! * **Cheap when idle.** With no subscribers, [`EventBus::publish`] is a
//!   single relaxed atomic load.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// The process-global event bus.
pub fn bus() -> &'static EventBus {
    static BUS: OnceLock<EventBus> = OnceLock::new();
    BUS.get_or_init(EventBus::default)
}

thread_local! {
    /// Stream id attached to lines published from this thread (0 = untagged).
    static CURRENT_STREAM: Cell<u64> = const { Cell::new(0) };
}

/// The stream id lines published from this thread carry (0 when untagged).
pub fn current_stream() -> u64 {
    CURRENT_STREAM.with(|s| s.get())
}

/// Tags this thread's published lines with `stream` until the guard drops
/// (restoring the previous tag, so tags nest). `!Send` for the same reason
/// [`crate::SpanGuard`] is: the tag lives in a thread-local.
pub struct StreamTag {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

/// Starts tagging this thread's published lines with `stream`.
pub fn tag_stream(stream: u64) -> StreamTag {
    let prev = CURRENT_STREAM.with(|s| s.replace(stream));
    StreamTag {
        prev,
        _not_send: PhantomData,
    }
}

impl Drop for StreamTag {
    fn drop(&mut self) {
        CURRENT_STREAM.with(|s| s.set(self.prev));
    }
}

#[derive(Default)]
struct SubState {
    queue: VecDeque<String>,
    closed: bool,
    /// Set by [`EventBus::wake`]; the next wait returns `None` at once.
    woken: bool,
}

struct SubCore {
    /// Stream this subscription wants (0 = all).
    stream: u64,
    /// Queue bound; the oldest line is dropped on overflow.
    capacity: usize,
    state: Mutex<SubState>,
    ready: Condvar,
    /// Lines this subscription lost to overflow.
    dropped: AtomicU64,
}

/// A live subscription. Dropping it unsubscribes.
pub struct Subscription {
    core: Arc<SubCore>,
}

impl Subscription {
    /// Next line, waiting up to `timeout`. `None` on timeout or on a
    /// `EventBus::wake` of this stream — the caller's cue to re-check what
    /// it waits for, emit a heartbeat and try again.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<String> {
        let mut state = self.core.state.lock().unwrap();
        loop {
            if let Some(line) = state.queue.pop_front() {
                return Some(line);
            }
            if std::mem::take(&mut state.woken) {
                return None;
            }
            let (next, wait) = self.core.ready.wait_timeout(state, timeout).unwrap();
            state = next;
            if wait.timed_out() {
                return state.queue.pop_front();
            }
        }
    }

    /// Next line if one is already queued.
    pub fn try_recv(&self) -> Option<String> {
        self.core.state.lock().unwrap().queue.pop_front()
    }

    /// Lines this subscription lost to queue overflow so far.
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.core.state.lock().unwrap().closed = true;
        bus().unsubscribe(&self.core);
    }
}

/// Bounded broadcast of trace lines to per-subscriber queues.
#[derive(Default)]
pub struct EventBus {
    subs: Mutex<Vec<Arc<SubCore>>>,
    /// Mirror of `subs.len()` readable without the lock — the publish gate.
    active: AtomicUsize,
    /// Stream ids start at 1; 0 means "all streams" / "untagged".
    next_stream: AtomicU64,
}

impl EventBus {
    /// Opens a subscription to `stream` (0 = every stream) buffering at
    /// most `capacity` lines (≥ 1, oldest dropped on overflow).
    pub fn subscribe(&self, stream: u64, capacity: usize) -> Subscription {
        let core = Arc::new(SubCore {
            stream,
            capacity: capacity.max(1),
            state: Mutex::new(SubState::default()),
            ready: Condvar::new(),
            dropped: AtomicU64::new(0),
        });
        let mut subs = self.subs.lock().unwrap();
        subs.push(Arc::clone(&core));
        self.active.store(subs.len(), Ordering::Relaxed);
        drop(subs);
        Subscription { core }
    }

    /// True when at least one subscription is open. One relaxed load; part
    /// of the [`crate::emit_enabled`] hot-path gate.
    #[inline]
    pub(crate) fn has_subscribers(&self) -> bool {
        self.active.load(Ordering::Relaxed) > 0
    }

    /// Wakes every subscription to `stream` (not the catch-all ones) out of
    /// [`Subscription::recv_timeout`] without a line: the publisher's cue
    /// that something a subscriber waits on besides lines — a job settling —
    /// has happened.
    pub fn wake(&self, stream: u64) {
        if !self.has_subscribers() {
            return;
        }
        for sub in self.subs.lock().unwrap().iter() {
            if sub.stream == stream {
                sub.state.lock().unwrap().woken = true;
                sub.ready.notify_one();
            }
        }
    }

    /// Allocates a fresh nonzero stream id. Process-global so two services
    /// in one test binary can share the bus without colliding.
    pub fn next_stream_id(&self) -> u64 {
        self.next_stream.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Offers `line` to every subscription matching this thread's stream
    /// tag. Called by [`crate::sink::emit`] for every trace line.
    pub(crate) fn publish(&self, line: &str) {
        if !self.has_subscribers() {
            return;
        }
        let stream = current_stream();
        let subs = self.subs.lock().unwrap();
        for sub in subs.iter() {
            if sub.stream != 0 && sub.stream != stream {
                continue;
            }
            let mut state = sub.state.lock().unwrap();
            if state.closed {
                continue;
            }
            if state.queue.len() >= sub.capacity {
                state.queue.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
            }
            state.queue.push_back(line.to_string());
            drop(state);
            sub.ready.notify_one();
        }
    }

    fn unsubscribe(&self, core: &Arc<SubCore>) {
        let mut subs = self.subs.lock().unwrap();
        subs.retain(|s| !Arc::ptr_eq(s, core));
        self.active.store(subs.len(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test here opens subscriptions, which flips the process-wide
    // [`crate::emit_enabled`] gate — serialize against the sink tests in
    // `span.rs` that assert emission is dark.

    #[test]
    fn publish_reaches_matching_streams_only() {
        let _guard = crate::test_support::sink_lock();
        let sub_all = bus().subscribe(0, 16);
        let s1 = bus().next_stream_id();
        let s2 = bus().next_stream_id();
        assert_ne!(s1, s2);
        let sub_s1 = bus().subscribe(s1, 16);

        {
            let _tag = tag_stream(s1);
            assert_eq!(current_stream(), s1);
            bus().publish("one");
        }
        {
            let _tag = tag_stream(s2);
            bus().publish("two");
        }
        assert_eq!(current_stream(), 0, "tags restore on drop");

        assert_eq!(sub_s1.try_recv().as_deref(), Some("one"));
        assert_eq!(sub_s1.try_recv(), None, "stream filter excludes s2");
        // The catch-all subscription sees both.
        let mut seen = Vec::new();
        while let Some(l) = sub_all.try_recv() {
            seen.push(l);
        }
        let ours: Vec<_> = seen.iter().filter(|l| *l == "one" || *l == "two").collect();
        assert_eq!(ours, ["one", "two"]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_lag() {
        let _guard = crate::test_support::sink_lock();
        let stream = bus().next_stream_id();
        let sub = bus().subscribe(stream, 2);
        let _tag = tag_stream(stream);
        for i in 0..5 {
            bus().publish(&format!("l{i}"));
        }
        assert_eq!(sub.dropped(), 3);
        assert_eq!(sub.try_recv().as_deref(), Some("l3"));
        assert_eq!(sub.try_recv().as_deref(), Some("l4"));
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn recv_timeout_wakes_on_publish_and_times_out_when_idle() {
        let _guard = crate::test_support::sink_lock();
        let stream = bus().next_stream_id();
        let sub = bus().subscribe(stream, 4);
        assert_eq!(sub.recv_timeout(Duration::from_millis(10)), None);

        let publisher = std::thread::spawn(move || {
            let _tag = tag_stream(stream);
            std::thread::sleep(Duration::from_millis(20));
            bus().publish("wake");
        });
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5)).as_deref(),
            Some("wake")
        );
        publisher.join().unwrap();
    }

    #[test]
    fn wake_ends_a_wait_without_a_line() {
        let _guard = crate::test_support::sink_lock();
        let stream = bus().next_stream_id();
        let sub = bus().subscribe(stream, 4);
        // A wake that lands before the wait still ends it, once.
        bus().wake(stream);
        let start = std::time::Instant::now();
        assert_eq!(sub.recv_timeout(Duration::from_secs(5)), None);
        assert!(start.elapsed() < Duration::from_secs(1));

        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            bus().wake(stream);
        });
        let start = std::time::Instant::now();
        assert_eq!(sub.recv_timeout(Duration::from_secs(5)), None);
        assert!(start.elapsed() < Duration::from_secs(1));
        waker.join().unwrap();
    }

    #[test]
    fn dropping_a_subscription_unsubscribes_it() {
        let _guard = crate::test_support::sink_lock();
        let open = || bus().active.load(Ordering::Relaxed);
        let before = open();
        let stream = bus().next_stream_id();
        {
            let _sub = bus().subscribe(stream, 4);
            assert!(open() > before);
            assert!(bus().has_subscribers());
        }
        assert_eq!(open(), before);
    }

    #[test]
    fn emitted_events_reach_the_bus_without_a_sink() {
        // End to end: log_event! → sink::emit → bus, no sink installed.
        // Serialized against sink-swapping tests in span.rs via the shared
        // lock so their exact-line-count assertions stay deterministic.
        let _guard = crate::test_support::sink_lock();
        let prev = crate::swap(None);
        let stream = bus().next_stream_id();
        let sub = bus().subscribe(stream, 64);
        {
            let _tag = tag_stream(stream);
            assert!(crate::emit_enabled(), "subscriber alone enables emission");
            crate::log_event!("bus.test", "n" = 7u64);
        }
        let line = sub.recv_timeout(Duration::from_secs(5)).expect("line");
        match crate::parse_line(&line).unwrap() {
            crate::Record::Event { name, fields, .. } => {
                assert_eq!(name, "bus.test");
                assert_eq!(fields.get("n").and_then(|v| v.as_f64()), Some(7.0));
            }
            other => panic!("expected event, got {other:?}"),
        }
        assert_eq!(sub.dropped(), 0);
        drop(sub);
        crate::swap(prev);
    }
}
