//! # klotski-service
//!
//! A concurrent planning/audit daemon over NPD (§5's EDP-Lite pipeline as
//! a long-running service): the paper's planner runs inside a deployment
//! pipeline that re-plans and re-audits for as long as a migration lasts,
//! and this crate is that serving layer, built std-only.
//!
//! * **HTTP/1.1 + JSON** on a plain `TcpListener`: `POST /v1/plan` and
//!   `/v1/audit` take NPD documents, `POST /v1/run` a controller scenario;
//!   `GET /v1/jobs/{id}[/result|/events]` polls or streams a job;
//!   `/metrics` is Prometheus text, `/healthz` the load-balancer probe.
//!   One request per connection; a connection thread that has answered
//!   waits idle for the next connection, and the acceptor spawns a thread
//!   only when none is idle: concurrency is unbounded, and a client that
//!   sends one request after another is served without a spawn.
//! * **Bounded**: at most `queue_depth` jobs wait on the board between
//!   connection threads and long-lived workers; one more is refused with
//!   `503 + Retry-After` before it becomes a job. Each worker plans on
//!   [`lanes_per_worker`](ServiceConfig::lanes_per_worker) lanes, whose
//!   helper threads spawn per call and are joined before it returns.
//! * **Cached and coalesced** by `(NPD digest, options digest)`: a repeated
//!   document returns the original bytes, and concurrent duplicates of one
//!   kind follow the first submission's job instead of planning again.
//!   Each cached plan keeps its search's ESC verdicts beside it, so a miss
//!   for the same document under another name starts its search warm.
//! * **Warm restart**: with `--state-dir`, a checksummed write-ahead
//!   journal of admissions and artifacts is replayed at start-up.
//! * **Byte-identity**: the service and `klotski plan` call the same
//!   [`pipeline::plan_document`].
//! * **Graceful shutdown**: SIGTERM/SIGINT stop admission, drain the
//!   waiting jobs, and join every worker.
//!
//! ## The life of a job
//!
//! Plan, audit and run jobs — and admits replayed from the journal — take
//! one path, and the modules are laid out along it:
//!
//! ```text
//! JobTable::admit (one hold of the board's lock)
//!   ├─ slot live ─────────── Follower: waits on the leader's job
//!   ├─ closed / depth full ─ Refused: 503, no job, no slot, no journal record
//!   └─ Leader: new job ─ take slot ─ journal admit ─ wait on the board (Queued)
//!                                                          │
//! JobTable::next ─ oldest waiting job → Running ───────────┘
//!   └─ work::run_job ─ done | cached | failed | deadline | panicked
//!        └─ work::settle: journal → count → JobTable::settle (release slot → publish)
//! ```

mod admission;
mod cache;
mod events;
mod http;
mod jobs;
mod metrics;
pub mod pipeline;
pub mod signal;
mod state;
mod work;

use crate::cache::PlanCache;
use crate::http::Response;
use crate::jobs::JobTable;
use crate::metrics::{Observed, ServiceMetrics};
use crate::pipeline::PlanArtifact;
use crate::state::StateStore;
use klotski_core::Verdicts;
use klotski_npd::api::ErrorResponse;
use klotski_parallel::default_lanes;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The crate's one lock policy: a poisoned lock is taken anyway. Every
/// critical section here leaves its structure consistent statement by
/// statement (a map insert, a counter bump, a phase store), so a panic
/// under a guard tears nothing — and refusing the lock ever after would
/// turn one failed request into a dead daemon.
pub(crate) fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(mutex.lock())
}

/// [`locked`]'s policy for a guard handed back by a `Condvar` wait.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Service tuning knobs. `Default` is a sensible single-host deployment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// Planner worker threads. `0` is accepted (admission-only mode, used
    /// by backpressure tests: nothing ever takes a waiting job).
    pub workers: usize,
    /// Jobs that may wait for a worker; beyond it submissions get 503.
    pub queue_depth: usize,
    /// Satisfiability lanes per worker: the lane count of the
    /// [`WorkerPool`](klotski_parallel::WorkerPool) its jobs plan on.
    pub lanes_per_worker: usize,
    /// Shared plan-cache capacity in artifacts (0 disables). Each cached
    /// artifact keeps its search's ESC verdicts beside it, so this bounds
    /// verdict reuse as well.
    pub cache_capacity: usize,
    /// Service-wide planning deadline applied when a request does not set
    /// `deadline_ms`. `None` = unbounded (the search budget still applies).
    pub default_deadline: Option<Duration>,
    /// Concurrent `GET /v1/jobs/{id}/events` subscribers; beyond it new
    /// streams are shed with 503 (each holds a connection thread until its
    /// job settles).
    pub sse_max_subscribers: usize,
    /// Directory for the write-ahead job journal; `None` runs stateless.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: default_lanes(),
            queue_depth: 64,
            lanes_per_worker: 1,
            cache_capacity: 128,
            default_deadline: None,
            sse_max_subscribers: 32,
            state_dir: None,
        }
    }
}

/// Jobs remembered for polling: past it the oldest settled job is
/// forgotten, never a live one.
const JOBS_CAPACITY: usize = 1024;

/// Journal size that triggers compaction: the journal is rewritten as the
/// live cache plus pending admissions.
const JOURNAL_COMPACT_BYTES: u64 = 8 * 1024 * 1024;

/// State shared by the acceptor, connection threads, and workers.
pub(crate) struct Shared {
    config: ServiceConfig,
    /// Every job from admission to settlement, and the jobs waiting for a
    /// worker. Lock order: the board, then the journal, then the cache.
    jobs: JobTable,
    /// Finished artifacts, each beside the ESC verdicts of the search that
    /// planned it under its `work::store_key` (none for a replayed one:
    /// verdicts live in memory only).
    cache: PlanCache<PlanArtifact, (u64, Verdicts)>,
    metrics: ServiceMetrics,
    workers_busy: AtomicUsize,
    /// Open `/events` subscribers (the 503-shedding gauge).
    sse_active: AtomicUsize,
    draining: AtomicBool,
    /// Write-ahead journal, when `--state-dir` is set.
    state: Option<StateStore>,
    /// Where the acceptor hands streams to idle connection threads.
    connections: Handoff,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Publishes what the board, the workers, the cache and the journal
    /// report right now; `/metrics` calls it just before rendering.
    fn publish_observed(&self) {
        let journal = |read: fn(&StateStore) -> u64| self.state.as_ref().map_or(0, read);
        self.metrics.publish(&Observed {
            queue_depth: self.jobs.waiting(),
            queue_capacity: self.config.queue_depth.max(1),
            workers_busy: self.workers_busy.load(Ordering::Relaxed),
            workers: self.config.workers,
            cache: self.cache.stats(),
            journal_bytes: journal(StateStore::bytes),
            journal_records: journal(StateStore::records),
            journal_compactions: journal(StateStore::compactions),
            journal_errors: journal(StateStore::errors),
        });
    }

    /// The one exit for client errors: the `ErrorResponse` envelope under a
    /// 4xx status, counted in `klotski_bad_requests_total`. Not for `409
    /// not finished` (a poll-again signal) nor for replaying the stored
    /// error of a failed job (`klotski_jobs_failed_total` has that one).
    fn reject(&self, status: u16, why: impl Into<String>) -> Response {
        self.metrics.bad_requests.inc();
        Response::json(status, &ErrorResponse::new(why))
    }

    /// The one exit for backpressure: `503` + `Retry-After`, counted in
    /// `klotski_rejected_busy_total`.
    fn busy(&self, why: impl Into<String>) -> Response {
        self.metrics.rejected_busy.inc();
        Response::json(503, &ErrorResponse::new(why)).with_header("Retry-After", "1")
    }
}

/// A running daemon. Dropping it without [`shutdown`](Self::shutdown)
/// leaves threads running; call shutdown for a clean exit.
pub struct Service {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Binds, spawns the acceptor and worker threads, and returns. With a
    /// `state_dir`, the journal is replayed first: finished artifacts seed
    /// the plan cache and admitted-but-unfinished jobs wait on the board, so
    /// the daemon comes up warm before it accepts its first connection.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (store, replay) = match &config.state_dir {
            Some(dir) => {
                let (store, replay) = StateStore::open(dir, JOURNAL_COMPACT_BYTES)?;
                (Some(store), replay)
            }
            None => (None, state::Replay::default()),
        };
        if replay.truncated_bytes > 0 {
            // A torn or corrupt tail was cut off: whatever it held is lost.
            klotski_telemetry::log_event!(
                "service.journal_truncated",
                "bytes" = replay.truncated_bytes,
            );
        }
        let shared = Arc::new(Shared {
            jobs: JobTable::new(JOBS_CAPACITY, config.queue_depth),
            cache: PlanCache::new(config.cache_capacity),
            metrics: ServiceMetrics::new(),
            workers_busy: AtomicUsize::new(0),
            sse_active: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            state: store,
            connections: Handoff::default(),
            config,
        });

        // Seed the cache and re-admit interrupted jobs before any worker
        // or connection runs, so replayed state is never raced by traffic.
        for (key, artifact) in replay.artifacts {
            shared.cache.insert(key, artifact, None, None);
            shared.metrics.state_replayed_artifacts.inc();
        }
        for pending in replay.pending {
            admission::replay_pending_job(&shared, pending);
        }

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("klotski-worker-{i}"))
                    .spawn(move || work::worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("klotski-acceptor".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn acceptor")
        };

        Ok(Self {
            shared,
            local_addr,
            acceptor,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until a shutdown signal arrives, then drains and exits.
    /// This is the `klotski serve` main loop.
    pub fn run_until_signalled(self) {
        while !signal::shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Graceful shutdown: stop admission, drain the waiting jobs, join all
    /// threads. In-flight and already-queued jobs finish; new submissions
    /// have been getting 503 since the drain flag flipped.
    pub fn shutdown(self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.jobs.close();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        // Every queued job has settled; leave a compact, durable journal
        // so the next start replays exactly the live cache.
        if let Some(state) = &self.shared.state {
            state.compact(self.shared.cache.snapshot());
            state.flush();
        }
    }
}

/// Accept loop: each accepted stream goes to an idle connection thread, or
/// to a thread spawned for it when none is idle (`Connection: close`, one
/// request per connection). Once the drain flag flips the loop leaves and
/// closes the hand-off, so every idle thread exits.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Err(stream) = shared.connections.give(stream) {
            #[cfg(test)]
            shared.connections.spawned.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(shared);
            let _ = std::thread::Builder::new()
                .name("klotski-conn".into())
                .spawn(move || serve_connections(stream, &shared));
        }
    }
    shared.connections.close();
}

/// A connection thread: serves its connection, then each one handed to it
/// while it waits idle, until the hand-off closes or it idles past
/// [`CONN_IDLE`]. A handler that panics ends the thread, which never
/// counts itself idle again.
fn serve_connections(mut stream: TcpStream, shared: &Shared) {
    loop {
        let _ = admission::handle_connection(&mut stream, shared);
        match shared.connections.next(stream) {
            Some(next) => stream = next,
            None => break,
        }
    }
    #[cfg(test)]
    shared.connections.exited.fetch_add(1, Ordering::SeqCst);
}

/// How long a connection thread waits idle for its next connection before
/// it exits.
const CONN_IDLE: Duration = Duration::from_secs(5);

/// Accepted streams on their way to idle connection threads. It has no
/// size: a thread is spawned whenever none is idle, so a stalled client, a
/// synchronous submission or an event stream never delays another
/// connection.
#[derive(Default)]
struct Handoff {
    state: Mutex<HandoffState>,
    /// Signalled when a stream is handed over or the hand-off closes.
    ready: Condvar,
    /// Connection threads spawned and ended, for the tests.
    #[cfg(test)]
    spawned: AtomicUsize,
    #[cfg(test)]
    exited: AtomicUsize,
}

#[derive(Default)]
struct HandoffState {
    /// Waiting threads no stream has been handed to yet.
    idle: usize,
    /// Streams handed over, each to its own waiting thread, not yet taken.
    pending: VecDeque<TcpStream>,
    /// Set by the acceptor as it leaves: waiting threads exit.
    closed: bool,
}

impl Handoff {
    /// Hands `stream` to an idle thread, or back when none is idle.
    fn give(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = locked(&self.state);
        if state.idle == 0 {
            return Err(stream);
        }
        state.idle -= 1;
        state.pending.push_back(stream);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Counts the calling thread idle, then closes its finished stream and
    /// waits for the next one: `None` once the hand-off closes or after
    /// [`CONN_IDLE`]. Idle before the close, so a client that connects
    /// again as soon as it reads the end of its reply finds this thread.
    fn next(&self, finished: TcpStream) -> Option<TcpStream> {
        let mut state = locked(&self.state);
        if state.closed {
            return None;
        }
        state.idle += 1;
        drop(state);
        drop(finished);
        let deadline = Instant::now() + CONN_IDLE;
        let mut state = locked(&self.state);
        loop {
            // A stream handed over is taken even by a thread whose wait
            // has just run out: one idle thread was counted out for it.
            if let Some(stream) = state.pending.pop_front() {
                return Some(stream);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if state.closed || left.is_zero() {
                state.idle -= 1;
                return None;
            }
            state = recover(self.ready.wait_timeout(state, left)).0;
        }
    }

    /// Stops hand-offs and wakes every waiting thread to exit.
    fn close(&self) {
        locked(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Threads waiting for a connection.
    #[cfg(test)]
    fn idle(&self) -> usize {
        locked(&self.state).idle
    }
}

/// What the crate's socket-level tests share: a one-shot HTTP client and
/// the small document every test plans.
#[cfg(test)]
mod testkit {
    use klotski_npd::convert::region_to_npd;
    use klotski_topology::presets::{self, PresetId};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    pub(crate) type Reply = (u16, Vec<(String, String)>, String);

    pub(crate) fn small_npd_json() -> String {
        region_to_npd(&presets::config(PresetId::A))
            .to_json_pretty()
            .unwrap()
    }

    /// Sends `head` + `body`, reads the connection to EOF, and splits the reply
    /// into status, lowercased headers and the raw body.
    pub(crate) fn request(addr: SocketAddr, head: &str, body: &str) -> Reply {
        let mut stream = TcpStream::connect(addr).unwrap();
        let msg = format!("{head}\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        stream.write_all(msg.as_bytes()).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let reply = String::from_utf8(reply).unwrap();
        let (head, body) = reply.split_once("\r\n\r\n").unwrap();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        (status, headers, body.to_string())
    }

    pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sends a GET and dechunks a `Transfer-Encoding: chunked` reply, reading
    /// the connection to EOF (the server closes after the terminal chunk).
    pub(crate) fn stream_request(addr: SocketAddr, path: &str) -> Reply {
        let (status, headers, raw_body) =
            request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t"), "");
        let chunked = header(&headers, "transfer-encoding") == Some("chunked");
        let body = if chunked {
            dechunk(&raw_body)
        } else {
            raw_body
        };
        (status, headers, body)
    }

    fn dechunk(mut raw: &str) -> String {
        let mut out = String::new();
        loop {
            let (size_line, rest) = raw.split_once("\r\n").expect("chunk size line");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            if size == 0 {
                return out;
            }
            out.push_str(&rest[..size]);
            raw = &rest[size + 2..]; // skip the payload's trailing CRLF
        }
    }

    /// The fields of every `name` event in `ring`.
    pub(crate) fn events_named(ring: &klotski_telemetry::RingSink, name: &str) -> Vec<serde::Map> {
        let mut found = Vec::new();
        for line in ring.lines() {
            match klotski_telemetry::parse_line(&line) {
                Ok(klotski_telemetry::Record::Event {
                    name: n, fields, ..
                }) if n == name => found.push(fields),
                _ => {}
            }
        }
        found
    }

    /// The value of one unlabeled-or-labeled series on a fresh `/metrics`
    /// scrape, e.g. `klotski_run_requests_total{outcome="failed"}`.
    pub(crate) fn metric(addr: SocketAddr, series: &str) -> u64 {
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no series {series} in:\n{text}"))
            .parse()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{events_named, header, request, small_npd_json};
    use klotski_npd::api::{AcceptedResponse, PlanRequestOptions};
    use klotski_npd::convert::region_to_npd;
    use klotski_npd::Npd;
    use klotski_topology::presets::{self, PresetId};
    use std::io::{Read, Write};

    #[test]
    fn a_poisoned_lock_is_taken_anyway() {
        let cell = Arc::new(Mutex::new(1));
        let poisoner = Arc::clone(&cell);
        let _ = std::thread::spawn(move || {
            let _guard = locked(&poisoner);
            panic!("poison the lock");
        })
        .join();
        assert!(cell.is_poisoned());
        *locked(&cell) += 1;
        assert_eq!(*locked(&cell), 2);
    }

    #[test]
    fn warm_restart_answers_known_digests_without_planning() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let config = || ServiceConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let npd = small_npd_json();

        let service = Service::start(config()).unwrap();
        let (status, headers, cold) = request(
            service.local_addr(),
            "POST /v1/plan HTTP/1.1\r\nHost: t",
            &npd,
        );
        assert_eq!(status, 200, "{cold}");
        assert_eq!(header(&headers, "x-klotski-cache"), Some("miss"));
        service.shutdown();

        // The restarted daemon replays the journal: the digest answers as
        // a cache hit, byte-identical, with zero pipeline executions.
        let service = Service::start(config()).unwrap();
        let addr = service.local_addr();
        let (status, headers, warm) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200, "{warm}");
        assert_eq!(header(&headers, "x-klotski-cache"), Some("hit"));
        assert_eq!(cold, warm, "replayed artifact must be byte-identical");

        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(
            text.contains("klotski_pipeline_executions_total 0"),
            "{text}"
        );
        assert!(
            text.contains("klotski_state_replayed_artifacts 1"),
            "{text}"
        );

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One `admit` frame for `npd` under `theta`, as the release before the
    /// speed knobs left the wire wrote it: the options object still carries
    /// `incremental` and `esc_cache_cap`.
    fn admit_frame(npd: &Npd, theta: Option<f64>) -> Vec<u8> {
        let options = PlanRequestOptions {
            theta,
            ..PlanRequestOptions::default()
        };
        let key = (klotski_npd::npd_digest(npd), options.digest());
        let theta = theta.map_or("null".into(), |t| t.to_string());
        let payload = format!(
            r#"{{"op":"admit","key":"{:016x}:{:016x}","kind":"plan","npd":{},"options":{{"theta":{theta},"alpha":null,"planner":null,"deadline_ms":null,"incremental":null,"esc_cache_cap":null,"ensemble":null}},"artifact":null}}"#,
            key.0,
            key.1,
            serde_json::to_string(&npd.to_json_pretty().unwrap()).unwrap(),
        );
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&klotski_npd::api::fnv1a(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        frame
    }

    #[test]
    fn admit_journaled_by_the_previous_release_replays_and_plans() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.name = "journal-compat".into();
        std::fs::write(dir.join("journal.log"), admit_frame(&npd, None)).unwrap();
        let npd = npd.to_json_pretty().unwrap();

        let service = Service::start(ServiceConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        // The same document either follows the replayed job or hits the
        // artifact it left in the cache; it never plans a second time.
        let (status, _, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200, "{body}");
        assert!(!Npd::from_json(&body).unwrap().phases.is_empty());
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_state_replayed_jobs 1"), "{text}");
        assert!(
            text.contains("klotski_pipeline_executions_total 1"),
            "{text}"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash can leave more acknowledged admits in the journal than the
    /// board's depth (the waiting jobs plus one running per worker): every
    /// one is replayed onto the board, and none is erased from the journal.
    #[test]
    fn replay_admits_every_journaled_job_past_the_depth() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.name = "journal-deep".into();
        let journal: Vec<u8> = [0.70, 0.71, 0.72]
            .into_iter()
            .flat_map(|theta| admit_frame(&npd, Some(theta)))
            .collect();
        std::fs::write(dir.join("journal.log"), journal).unwrap();

        let service = Service::start(ServiceConfig {
            workers: 0,
            queue_depth: 1,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let (_, _, text) = request(service.local_addr(), "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_state_replayed_jobs 3"), "{text}");
        assert!(text.contains("klotski_queue_depth 3"), "{text}");
        assert!(text.contains("klotski_queue_capacity 1"), "{text}");
        service.shutdown();

        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(replay.pending.len(), 3, "{:?}", replay.pending);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_tail_cut_off_at_start_up_is_reported() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A torn write: 23 bytes that are no frame.
        std::fs::write(dir.join("journal.log"), [0xa5u8; 23]).unwrap();
        // Start-up replays the journal on this thread, so this thread's
        // scoped sink hears its report and no other test's.
        let events = Arc::new(klotski_telemetry::RingSink::new(64));
        let scope = klotski_telemetry::scope(events.clone());

        let service = Service::start(ServiceConfig {
            workers: 0,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        service.shutdown();
        drop(scope);

        let reported: Vec<Option<f64>> = events_named(&events, "service.journal_truncated")
            .iter()
            .map(|fields| fields.get("bytes").and_then(|v| v.as_f64()))
            .collect();
        assert_eq!(reported, [Some(23.0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn healthz(addr: SocketAddr) -> u16 {
        request(addr, "GET /healthz HTTP/1.1\r\nHost: t", "").0
    }

    fn admission_only() -> Service {
        Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    /// A thread counts itself idle before it closes its connection, so a
    /// client that reconnects once it reads the end of its reply always
    /// finds that thread waiting.
    #[test]
    fn sequential_requests_share_one_connection_thread() {
        let service = admission_only();
        let connections = &service.shared.connections;
        for _ in 0..200 {
            assert_eq!(healthz(service.local_addr()), 200);
            assert_eq!(connections.idle(), 1, "idle once the reply ends");
        }
        assert_eq!(connections.spawned.load(Ordering::SeqCst), 1);
        service.shutdown();
    }

    /// The one idle thread takes a client that never sends its request;
    /// the next client finds no thread idle and gets one of its own instead
    /// of waiting out the first one's 30 s socket timeout.
    #[test]
    fn a_silent_client_does_not_delay_the_next() {
        let service = admission_only();
        let addr = service.local_addr();
        assert_eq!(healthz(addr), 200);
        let silent = TcpStream::connect(addr).unwrap();

        let mut probe = TcpStream::connect(addr).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        probe
            .read_to_string(&mut reply)
            .expect("answered while the silent client holds its thread");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert_eq!(service.shared.connections.spawned.load(Ordering::SeqCst), 2);
        drop(silent);
        service.shutdown();
    }

    /// Closing the hand-off wakes every idle thread, which exits at once
    /// rather than after `CONN_IDLE`.
    #[test]
    fn shutdown_leaves_no_connection_thread_waiting() {
        let service = admission_only();
        let addr = service.local_addr();
        let silent = TcpStream::connect(addr).unwrap();
        assert_eq!(healthz(addr), 200);
        drop(silent);
        let shared = Arc::clone(&service.shared);
        let connections = &shared.connections;
        let waited = Instant::now();
        while connections.idle() < 2 && waited.elapsed() < CONN_IDLE / 5 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(connections.idle(), 2);

        service.shutdown();
        let closed = Instant::now();
        let spawned = connections.spawned.load(Ordering::SeqCst);
        while connections.exited.load(Ordering::SeqCst) < spawned
            && closed.elapsed() < CONN_IDLE / 5
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(connections.idle(), 0);
        assert_eq!(connections.exited.load(Ordering::SeqCst), spawned);
        assert_eq!(spawned, 2);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();
        let (status, _, body) = request(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 202);
        let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();
        let shared = Arc::clone(&service.shared);

        // Shutdown must block until the admitted job has been planned.
        service.shutdown();
        let job = shared.jobs.get(accepted.job.parse().unwrap()).unwrap();
        let (state, outcome) = job.status();
        assert!(outcome.is_some_and(|o| o.is_ok()), "state {state:?}");
        assert_eq!(state, klotski_npd::api::JobState::Done);
    }
}
