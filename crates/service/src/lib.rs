//! # klotski-service
//!
//! A concurrent planning/audit daemon over NPD (§5's EDP-Lite pipeline as
//! a long-running service). The paper's planner runs inside a production
//! deployment pipeline where many migrations are planned and re-audited
//! continuously; this crate is that serving layer, built std-only:
//!
//! * **HTTP/1.1 + JSON** on a plain `TcpListener` — `POST /v1/plan` and
//!   `POST /v1/audit` accept NPD documents, `GET /v1/jobs/{id}` polls
//!   asynchronous jobs, `GET /metrics` exposes Prometheus text,
//!   `GET /healthz` is the load-balancer probe.
//! * **Bounded admission**: a fixed-capacity MPMC queue between connection
//!   threads and planner workers. A full queue answers
//!   `503 + Retry-After` — the daemon sheds load instead of growing.
//! * **Long-lived workers**: each worker thread owns a persistent
//!   [`WorkerPool`] reused across jobs, so satisfiability lanes are warmed
//!   once, not per request.
//! * **Shared plan cache** keyed by `(NPD digest, options digest)`:
//!   repeated submissions of the same document return the original bytes.
//! * **Request coalescing**: concurrent submissions of one kind with an
//!   identical `(NPD digest, options digest)` key singleflight onto one
//!   pipeline computation — the first becomes the leader, duplicates
//!   follow its job (same id, same event stream) and receive
//!   byte-identical bytes.
//! * **Warm persistent state**: with `--state-dir`, a checksummed
//!   write-ahead journal persists admissions and finished artifacts; a
//!   restarted daemon replays it, answering known digests from cache
//!   immediately and re-running jobs that were in flight at the crash.
//! * **Byte-identity**: the service and `klotski plan` call the same
//!   [`pipeline::plan_document`], so a daemon response is byte-for-byte
//!   the file the CLI would have written.
//! * **Graceful shutdown**: SIGTERM/SIGINT stop admission, drain the
//!   queue, and join every worker before exit.

pub mod cache;
pub mod http;
pub mod jobs;
mod metrics;
pub mod pipeline;
pub mod queue;
pub mod signal;
pub mod state;

use crate::cache::PlanCache;
use crate::http::{read_request, HttpError, Request, Response};
use crate::jobs::{Job, JobKind, JobOutput, JobTable, RunArtifact};
use crate::metrics::{Observed, ServiceMetrics};
use crate::pipeline::{plan_document_keyed, PipelineError, PlanArtifact};
use crate::queue::{BoundedQueue, PushError};
use crate::state::{PendingJob, StateStore};
use klotski_controller::{run_scenario, ControllerError, Scenario};
use klotski_core::planner::SearchBudget;
use klotski_core::PlanError;
use klotski_npd::api::{AcceptedResponse, ErrorResponse, JobStatusResponse, PlanRequestOptions};
use klotski_npd::Npd;
use klotski_parallel::{default_lanes, WorkerPool};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service tuning knobs. `Default` is a sensible single-host deployment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// Planner worker threads. `0` is accepted (admission-only mode, used
    /// by backpressure tests: nothing ever drains the queue).
    pub workers: usize,
    /// Bounded queue capacity; beyond it submissions get 503.
    pub queue_depth: usize,
    /// Satisfiability lanes per worker's persistent [`WorkerPool`].
    pub lanes_per_worker: usize,
    /// Shared plan-cache capacity in artifacts (0 disables).
    pub cache_capacity: usize,
    /// Finished/live jobs remembered for polling.
    pub jobs_capacity: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// How long a synchronous (no `?wait=0`) submission blocks before
    /// degrading to `202 Accepted` + job id.
    pub sync_wait: Duration,
    /// Service-wide planning deadline applied when a request does not set
    /// `deadline_ms`. `None` = unbounded (the search budget still applies).
    pub default_deadline: Option<Duration>,
    /// Concurrent `GET /v1/jobs/{id}/events` subscribers; beyond it new
    /// streams are shed with 503 (each holds a connection thread and a
    /// bounded event queue).
    pub sse_max_subscribers: usize,
    /// Per-subscriber event-queue bound; on overflow the oldest line is
    /// dropped and the lag-drop counters advance — a stalled reader never
    /// blocks a planner.
    pub sse_queue_capacity: usize,
    /// Keep-alive comment interval on idle event streams.
    pub sse_heartbeat: Duration,
    /// Directory for the write-ahead job journal; `None` runs stateless.
    pub state_dir: Option<PathBuf>,
    /// Journal size that triggers compaction (the journal is rewritten as
    /// the live cache plus pending admissions).
    pub journal_compact_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: default_lanes(),
            queue_depth: 64,
            lanes_per_worker: 1,
            cache_capacity: 128,
            jobs_capacity: 1024,
            max_body_bytes: 8 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            sync_wait: Duration::from_secs(300),
            default_deadline: None,
            sse_max_subscribers: 32,
            sse_queue_capacity: 1024,
            sse_heartbeat: Duration::from_secs(1),
            state_dir: None,
            journal_compact_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A singleflight slot: the `(npd_digest, options_digest)` key plus the
/// job kind. The kind is part of it because a job's polled result is
/// rendered by the job's own kind: an audit must never follow a plan.
type InflightSlot = ((u64, u64), JobKind);

/// One admitted unit of work travelling the queue.
struct QueuedJob {
    job: Arc<Job>,
    work: Work,
}

/// The two kinds of payload workers drain from the queue.
enum Work {
    /// Plan or audit an NPD document (cached by content digest). The NPD
    /// is boxed to keep queue slots variant-size balanced.
    Plan {
        npd: Box<Npd>,
        options: PlanRequestOptions,
        key: (u64, u64),
    },
    /// Execute a scripted controller scenario. Runs are executions, not
    /// pure functions of a document, so they bypass the plan cache.
    Run {
        scenario: Scenario,
        deadline_ms: Option<u64>,
    },
}

/// State shared by the acceptor, connection threads, and workers.
struct Shared {
    config: ServiceConfig,
    queue: BoundedQueue<QueuedJob>,
    jobs: JobTable,
    cache: PlanCache<PlanArtifact>,
    metrics: ServiceMetrics,
    workers_busy: AtomicUsize,
    /// Open `/events` subscribers (the 503-shedding gauge).
    sse_active: AtomicUsize,
    draining: std::sync::atomic::AtomicBool,
    /// Singleflight table: the job currently computing each slot. Entries
    /// are removed by the worker that settles the key.
    inflight: Mutex<HashMap<InflightSlot, Arc<Job>>>,
    /// Write-ahead journal, when `--state-dir` is set.
    state: Option<StateStore>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Publishes what the queue, the workers, the cache and the journal
    /// report right now; `/metrics` calls it just before rendering.
    fn publish_observed(&self) {
        self.metrics.publish(&Observed {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers_busy: self.workers_busy.load(Ordering::Relaxed),
            workers: self.config.workers,
            shards: &self.cache.shard_stats(),
            journal_bytes: self.state.as_ref().map_or(0, |s| s.bytes()),
            journal_records: self.state.as_ref().map_or(0, |s| s.records()),
            journal_compactions: self.state.as_ref().map_or(0, |s| s.compactions()),
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
    /// the plan cache and admitted-but-unfinished jobs are re-enqueued, so
    /// the daemon comes up warm before it accepts its first connection.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (store, replay) = match &config.state_dir {
            Some(dir) => {
                let (store, replay) = StateStore::open(dir, config.journal_compact_bytes)?;
                (Some(store), replay)
            }
            None => (None, state::Replay::default()),
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            jobs: JobTable::new(config.jobs_capacity),
            cache: PlanCache::new(config.cache_capacity),
            metrics: ServiceMetrics::new(),
            workers_busy: AtomicUsize::new(0),
            sse_active: AtomicUsize::new(0),
            draining: std::sync::atomic::AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            state: store,
            config,
        });

        // Seed the cache and re-enqueue interrupted jobs before any worker
        // or connection runs, so replayed state is never raced by traffic.
        for (key, artifact) in replay.artifacts {
            shared.cache.insert(key, artifact);
            shared.metrics.state_replayed_artifacts.inc();
        }
        for pending in replay.pending {
            replay_pending_job(&shared, pending);
        }

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("klotski-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
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

    /// Graceful shutdown: stop admission, drain the queue, join all
    /// threads. In-flight and already-queued jobs finish; new submissions
    /// have been getting 503 since the drain flag flipped.
    pub fn shutdown(self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
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

/// Re-admits a journal-replayed job: it gets a fresh job id (the old one
/// died with the old process) and its key re-enters the singleflight table
/// so duplicates arriving during warmup coalesce onto the replay.
fn replay_pending_job(shared: &Arc<Shared>, pending: PendingJob) {
    let kind = if pending.kind == JobKind::Audit.label() {
        JobKind::Audit
    } else {
        JobKind::Plan
    };
    let Ok(npd) = Npd::from_json(&pending.npd) else {
        // An admit that no longer parses (schema drift) can never run.
        if let Some(state) = &shared.state {
            state.settled(pending.key);
        }
        return;
    };
    let job = shared.jobs.create(kind);
    shared
        .inflight
        .lock()
        .unwrap()
        .insert((pending.key, kind), Arc::clone(&job));
    let work = Work::Plan {
        npd: Box::new(npd),
        options: pending.options,
        key: pending.key,
    };
    if push_job(shared, &job, work).is_err() {
        settle_inflight(shared, pending.key, &job);
        if let Some(state) = &shared.state {
            state.settled(pending.key);
        }
        return;
    }
    shared.metrics.state_replayed_jobs.inc();
}

/// Accept loop: one short-lived thread per connection (`Connection:
/// close`), exiting once the drain flag flips.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("klotski-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &shared);
            });
    }
}

/// Worker loop: pop, plan, publish. Exits when the queue is closed and
/// drained. Each worker owns one persistent pool reused across jobs.
fn worker_loop(shared: &Arc<Shared>) {
    let pool = WorkerPool::shared(shared.config.lanes_per_worker.max(1));
    while let Some(queued) = shared.queue.pop() {
        shared.workers_busy.fetch_add(1, Ordering::Relaxed);
        run_job(shared, &queued, &pool);
        shared.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one job to its terminal state. A panic anywhere under the job (a
/// planner bug, a poisoned document) is caught here and settled as a `500`
/// like any other failure, so it costs its submitters an error — never the
/// daemon a worker, a coalesced follower its answer, or a restart a crash
/// loop over the journaled admit.
fn run_job(shared: &Arc<Shared>, queued: &QueuedJob, pool: &Arc<WorkerPool>) {
    // Tag this thread with the job's stream id: every trace line the job
    // emits (planner progress, controller phases, the job span itself)
    // reaches exactly this job's `/events` subscribers.
    let _stream_tag = klotski_telemetry::tag_stream(queued.job.stream);
    let mut span = klotski_telemetry::span!(
        "service.job",
        "kind" = queued.job.kind.label(),
        "job" = queued.job.id,
    );
    queued.job.set_running();
    let unwound = catch_unwind(AssertUnwindSafe(|| match &queued.work {
        Work::Plan { npd, options, key } => {
            let result = run_plan_job(shared, queued, pool, npd, options, *key);
            settle_plan_job(shared, queued, &mut span, *key, result);
        }
        Work::Run {
            scenario,
            deadline_ms,
        } => run_scenario_job(shared, queued, &mut span, scenario, *deadline_ms),
    }));
    let Err(panic) = unwound else { return };
    let why = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into());
    let message = format!("internal error: job panicked: {why}");
    match &queued.work {
        Work::Plan { key, .. } => {
            settle_plan_job(shared, queued, &mut span, *key, Err((500, message)))
        }
        Work::Run { .. } => {
            shared.metrics.run_outcome("failed").inc();
            fail_job(shared, queued, &mut span, 500, message);
        }
    }
}

/// How a plan/audit job ended: the artifact and whether this job planned it
/// (`false`: a same-key job's artifact was already cached), or the HTTP
/// status and message to fail with.
type PlanJobResult = Result<(Arc<PlanArtifact>, bool), (u16, String)>;

fn run_plan_job(
    shared: &Arc<Shared>,
    queued: &QueuedJob,
    pool: &Arc<WorkerPool>,
    npd: &Npd,
    options: &PlanRequestOptions,
    key: (u64, u64),
) -> PlanJobResult {
    // A same-key job may have finished while this one sat queued.
    if let Some(hit) = shared.cache.get(key) {
        return Ok((hit, false));
    }
    let mut budget = SearchBudget::default();
    if let Some(d) = job_deadline(shared, options.deadline_ms) {
        // Deadlines bound admission-to-answer, so they start at admission.
        budget = budget.with_deadline(queued.job.admitted + d);
    }
    shared.metrics.pipeline_executions.inc();
    #[cfg(test)]
    tests::injected_fault(shared, key);
    match plan_document_keyed(npd, options, key, budget, Some(Arc::clone(pool))) {
        Ok(artifact) => {
            let artifact = Arc::new(artifact);
            shared.cache.insert(key, Arc::clone(&artifact));
            Ok((artifact, true))
        }
        Err(e) => {
            let status = match &e {
                PipelineError::Invalid(_) => 422,
                PipelineError::Plan(_) if e.is_budget_exceeded() => 504,
                PipelineError::Plan(_) => 422,
                PipelineError::Internal(_) => 500,
            };
            Err((status, e.to_string()))
        }
    }
}

/// The one exit of a plan/audit job: resolve the journaled admit, release
/// the singleflight slot, count, and publish to every waiter — in that
/// order, so nothing observes a finished job whose key is still in flight.
fn settle_plan_job(
    shared: &Arc<Shared>,
    queued: &QueuedJob,
    span: &mut klotski_telemetry::SpanGuard,
    key: (u64, u64),
    result: PlanJobResult,
) {
    if let Some(state) = &shared.state {
        match &result {
            Ok((artifact, true)) => state.artifact(key, artifact, || shared.cache.snapshot()),
            // A cached artifact is already journaled; a failure is terminal,
            // not retried: clear the admit so a restart does not re-run a
            // deterministically failing (or panicking) job.
            Ok((_, false)) | Err(_) => state.settled(key),
        }
    }
    settle_inflight(shared, key, &queued.job);
    match result {
        Ok((artifact, planned)) => {
            shared.metrics.jobs_completed.inc();
            shared.metrics.latency.record(queued.job.admitted.elapsed());
            queued.job.complete(JobOutput::Plan(artifact));
            span.field("outcome", if planned { "done" } else { "cached" });
        }
        Err((status, message)) => fail_job(shared, queued, span, status, message),
    }
}

/// Removes the job's singleflight entry, guarded by pointer identity so a
/// racing replacement leader for the same key is never evicted by the old
/// job's settlement.
fn settle_inflight(shared: &Shared, key: (u64, u64), job: &Arc<Job>) {
    let mut inflight = shared.inflight.lock().unwrap();
    let slot = (key, job.kind);
    if inflight.get(&slot).is_some_and(|j| Arc::ptr_eq(j, job)) {
        inflight.remove(&slot);
    }
}

/// Executes a `POST /v1/run` scenario on the worker thread. The controller
/// owns its own pool sized by the scenario's thread override (runs are
/// bit-deterministic per lane count, so the scenario decides, not the
/// worker).
fn run_scenario_job(
    shared: &Arc<Shared>,
    queued: &QueuedJob,
    span: &mut klotski_telemetry::SpanGuard,
    scenario: &Scenario,
    deadline_ms: Option<u64>,
) {
    let deadline = job_deadline(shared, deadline_ms).map(|d| queued.job.admitted + d);
    match run_scenario(scenario, deadline) {
        Ok(report) => {
            let json = serde_json::to_string_pretty(&report)
                .map(String::into_bytes)
                .unwrap_or_else(|_| b"{}".to_vec());
            shared.metrics.jobs_completed.inc();
            shared.metrics.latency.record(queued.job.admitted.elapsed());
            span.field("completed", report.completed);
            span.field("replans", report.replans.len() as u64);
            let outcome = report.outcome_label();
            shared.metrics.run_outcome(outcome).inc();
            queued
                .job
                .complete(JobOutput::Run(Arc::new(RunArtifact { report, json })));
            span.field("outcome", outcome);
        }
        Err(e) => {
            let status = match &e {
                ControllerError::Scenario(_) => 422,
                ControllerError::InitialPlan(PlanError::BudgetExceeded { .. }) => 504,
                ControllerError::InitialPlan(_) => 422,
            };
            shared.metrics.run_outcome("failed").inc();
            fail_job(shared, queued, span, status, e.to_string());
        }
    }
}

/// The effective deadline: the request's, else the service-wide default.
fn job_deadline(shared: &Arc<Shared>, request_ms: Option<u64>) -> Option<Duration> {
    request_ms
        .map(Duration::from_millis)
        .or(shared.config.default_deadline)
}

fn fail_job(
    shared: &Arc<Shared>,
    queued: &QueuedJob,
    span: &mut klotski_telemetry::SpanGuard,
    status: u16,
    message: String,
) {
    shared.metrics.jobs_failed.inc();
    if status == 504 {
        shared.metrics.jobs_cancelled.inc();
        span.field("outcome", "deadline");
    } else {
        span.field("outcome", "failed");
    }
    queued.job.fail(status, message);
}

/// Reads one request, routes it, writes one response.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    http::configure_stream(&stream, shared.config.io_timeout)?;
    let request = match read_request(&mut stream, shared.config.max_body_bytes) {
        Ok(r) => r,
        Err(HttpError::BodyTooLarge(n)) => {
            return shared
                .reject(413, format!("body of {n} bytes too large"))
                .write_to(&mut stream);
        }
        Err(HttpError::Malformed(why)) => return shared.reject(400, why).write_to(&mut stream),
        Err(HttpError::Io(e)) => return Err(e),
    };
    shared.metrics.http_requests.inc();
    // The events endpoint streams; everything else is one buffered
    // response.
    if request.method == "GET"
        && request.path.starts_with("/v1/jobs/")
        && request.path.ends_with("/events")
    {
        return stream_events(stream, &request, shared);
    }
    let response = route(&request, shared);
    response.write_to(&mut stream)
}

/// `GET /v1/jobs/{id}/events`: a chunked `text/event-stream` of the job's
/// trace lines from the process-global event bus, with heartbeats while
/// idle and a terminal `end` event carrying the job's outcome — for run
/// jobs, the same outcome label and fingerprint the result endpoint's
/// headers carry, byte for byte.
fn stream_events(
    mut stream: TcpStream,
    request: &Request,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let rest = &request.path["/v1/jobs/".len()..];
    let id_str = rest.strip_suffix("/events").unwrap_or(rest);
    let Ok(id) = id_str.parse::<u64>() else {
        return shared
            .reject(400, format!("bad job id {id_str:?}"))
            .write_to(&mut stream);
    };
    let Some(job) = shared.jobs.get(id) else {
        return shared
            .reject(404, format!("no job {id}"))
            .write_to(&mut stream);
    };
    // Shed before subscribing: every accepted stream pins a connection
    // thread and a bounded queue until the job finishes.
    if shared.sse_active.fetch_add(1, Ordering::SeqCst) >= shared.config.sse_max_subscribers {
        shared.sse_active.fetch_sub(1, Ordering::SeqCst);
        return shared
            .busy("too many event subscribers")
            .write_to(&mut stream);
    }
    let result = serve_events(&mut stream, &job, shared);
    shared.sse_active.fetch_sub(1, Ordering::SeqCst);
    result
}

fn serve_events(
    stream: &mut TcpStream,
    job: &Arc<Job>,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    // Subscribe before the first status check: lines published between a
    // "still running" verdict and a later subscription would be lost.
    let sub = klotski_telemetry::bus().subscribe(job.stream, shared.config.sse_queue_capacity);
    shared.metrics.sse_streams.inc();
    http::write_chunked_head(
        stream,
        200,
        &[
            ("Content-Type", "text/event-stream"),
            ("Cache-Control", "no-cache"),
        ],
    )?;
    loop {
        let (state, output, error) = job.status();
        let terminal = matches!(
            state,
            klotski_npd::api::JobState::Done | klotski_npd::api::JobState::Failed
        );
        // Flush everything already queued so the end event is truly last.
        while let Some(line) = sub.try_recv() {
            write_event(stream, "trace", &line)?;
        }
        if terminal {
            let dropped = sub.dropped();
            shared.metrics.sse_lag_dropped.add(dropped);
            let end = terminal_event(output.as_ref(), error.as_ref(), dropped);
            write_event(stream, "end", &end)?;
            return http::finish_chunked(stream);
        }
        match sub.recv_timeout(shared.config.sse_heartbeat) {
            Some(line) => write_event(stream, "trace", &line)?,
            None => http::write_chunk(stream, b": heartbeat\n\n")?,
        }
    }
}

fn write_event(stream: &mut TcpStream, name: &str, data: &str) -> std::io::Result<()> {
    http::write_chunk(
        stream,
        format!("event: {name}\ndata: {data}\n\n").as_bytes(),
    )
}

/// The `end` event payload. Run jobs carry `outcome` + `fingerprint`
/// exactly as the result endpoint's `X-Klotski-Run-Outcome` /
/// `X-Klotski-Run-Fingerprint` headers render them; plan/audit jobs carry
/// the NPD digest; failed jobs carry the error.
fn terminal_event(
    output: Option<&JobOutput>,
    error: Option<&jobs::JobError>,
    dropped: u64,
) -> String {
    let mut obj = serde::Map::new();
    match (output, error) {
        (Some(JobOutput::Run(run)), _) => {
            obj.insert(
                "outcome".into(),
                serde::Value::String(run.report.outcome_label().into()),
            );
            obj.insert(
                "fingerprint".into(),
                serde::Value::String(format!("{:016x}", run.report.fingerprint())),
            );
        }
        (Some(JobOutput::Plan(artifact)), _) => {
            obj.insert("outcome".into(), serde::Value::String("done".into()));
            obj.insert(
                "digest".into(),
                serde::Value::String(artifact.summary.npd_digest.clone()),
            );
        }
        (None, Some(e)) => {
            obj.insert("outcome".into(), serde::Value::String("failed".into()));
            obj.insert("status".into(), serde::Value::Number(e.status as f64));
            obj.insert("error".into(), serde::Value::String(e.message.clone()));
        }
        (None, None) => {
            obj.insert("outcome".into(), serde::Value::String("unknown".into()));
        }
    }
    obj.insert("lag_dropped".into(), serde::Value::Number(dropped as f64));
    serde_json::to_string(&serde::Value::Object(obj)).unwrap_or_else(|_| "{}".into())
}

fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            if shared.draining() {
                Response::text(503, "draining").with_header("Retry-After", "1")
            } else {
                Response::text(200, "ok")
            }
        }
        ("GET", "/metrics") => {
            // This daemon's registry, then the process-wide one: search,
            // routing, pool and controller introspection.
            shared.publish_observed();
            let mut text = shared.metrics.registry.render_prometheus();
            text.push_str(&klotski_telemetry::registry().render_prometheus());
            Response::text(200, text)
        }
        ("POST", "/v1/plan") => submit(request, shared, JobKind::Plan),
        ("POST", "/v1/audit") => submit(request, shared, JobKind::Audit),
        ("POST", "/v1/run") => submit_run(request, shared),
        ("GET", _) if path.starts_with("/v1/jobs/") => job_endpoint(request, shared),
        (_, "/healthz" | "/metrics" | "/v1/plan" | "/v1/audit" | "/v1/run") => {
            shared.reject(405, "method not allowed")
        }
        _ => shared.reject(404, format!("no route for {path}")),
    }
}

/// Parses per-request options out of the query string.
fn options_from_query(request: &Request) -> Result<PlanRequestOptions, String> {
    let mut options = PlanRequestOptions::default();
    for (key, value) in &request.query {
        match key.as_str() {
            "theta" => {
                options.theta = Some(value.parse().map_err(|_| format!("bad theta {value:?}"))?)
            }
            "alpha" => {
                options.alpha = Some(value.parse().map_err(|_| format!("bad alpha {value:?}"))?)
            }
            "planner" => options.planner = Some(value.clone()),
            "deadline_ms" => {
                options.deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad deadline_ms {value:?}"))?,
                )
            }
            "ensemble" => {
                // CLI shorthand `K@SEED`; full specs (custom α ladder /
                // surge factor) travel as PlanRequestOptions JSON.
                options.ensemble = Some(
                    klotski_core::EnsembleSpec::parse(value)
                        .map_err(|e| format!("bad ensemble {value:?}: {e}"))?,
                )
            }
            "wait" => {} // handled by the caller
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok(options)
}

/// Shared handler for `POST /v1/plan` and `POST /v1/audit`.
fn submit(request: &Request, shared: &Arc<Shared>, kind: JobKind) -> Response {
    let counter = match kind {
        JobKind::Plan => &shared.metrics.plan_requests,
        // Run submissions are counted by terminal outcome in the worker,
        // not at admission; this handler never sees them.
        JobKind::Audit | JobKind::Run => &shared.metrics.audit_requests,
    };
    counter.inc();

    if shared.draining() {
        return shared.busy("draining; not accepting work");
    }
    let options = match options_from_query(request) {
        Ok(o) => o,
        Err(why) => return shared.reject(400, why),
    };
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => return shared.reject(400, "body is not UTF-8"),
    };
    let npd = match Npd::from_json(body) {
        Ok(n) => n,
        Err(e) => return shared.reject(422, format!("invalid NPD: {e}")),
    };

    // The one digest computation this request pays: the same key drives
    // the cache, the singleflight table, and the pipeline's summary.
    let key = (klotski_npd::npd_digest(&npd), options.digest());
    if let Some(hit) = shared.cache.get(key) {
        return finished_response(kind, &JobOutput::Plan(hit), true);
    }

    submit_plan_job(request, shared, kind, npd, body, options, key)
}

/// Admits a plan/audit computation, singleflighting identical keys: the
/// first submission of a kind for an idle key leads (it enqueues the work);
/// every concurrent duplicate of that kind follows the leader's job — same
/// job id, same event stream, byte-identical result — without enqueueing
/// anything.
fn submit_plan_job(
    request: &Request,
    shared: &Arc<Shared>,
    kind: JobKind,
    npd: Npd,
    npd_json: &str,
    options: PlanRequestOptions,
    key: (u64, u64),
) -> Response {
    // Check-and-insert under one lock hold so exactly one concurrent
    // submission per key leads.
    let (job, leader) = {
        let mut inflight = shared.inflight.lock().unwrap();
        match inflight.get(&(key, kind)) {
            Some(existing) => (Arc::clone(existing), false),
            None => {
                let job = shared.jobs.create(kind);
                inflight.insert((key, kind), Arc::clone(&job));
                (job, true)
            }
        }
    };
    if !leader {
        shared.metrics.coalesce_followers.inc();
        return answer_job(request, shared, kind, &job)
            .with_header("X-Klotski-Coalesce", "follower");
    }
    shared.metrics.coalesce_leaders.inc();
    // Journal the admission before the push: a crash at any later point
    // re-runs this job on restart instead of losing it.
    if let Some(state) = &shared.state {
        state.admit(key, kind.label(), npd_json, &options);
    }
    let work = Work::Plan {
        npd: Box::new(npd),
        options,
        key,
    };
    if let Err(response) = push_job(shared, &job, work) {
        settle_inflight(shared, key, &job);
        if let Some(state) = &shared.state {
            state.settled(key);
        }
        return response;
    }
    answer_job(request, shared, kind, &job).with_header("X-Klotski-Coalesce", "leader")
}

/// `POST /v1/run`: execute a scripted controller scenario. The body is a
/// scenario document; `?deadline_ms=N` bounds the whole run (initial plan
/// included) and `?wait=0` submits asynchronously like plan/audit.
fn submit_run(request: &Request, shared: &Arc<Shared>) -> Response {
    // Runs are counted by terminal outcome (`klotski_run_requests_total`
    // labels) when the worker resolves them, not at admission.
    if shared.draining() {
        return shared.busy("draining; not accepting work");
    }
    let mut deadline_ms = None;
    for (key, value) in &request.query {
        match key.as_str() {
            "deadline_ms" => match value.parse() {
                Ok(ms) => deadline_ms = Some(ms),
                Err(_) => return shared.reject(400, format!("bad deadline_ms {value:?}")),
            },
            "wait" => {}
            other => return shared.reject(400, format!("unknown query parameter {other:?}")),
        }
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => return shared.reject(400, "body is not UTF-8"),
    };
    let scenario = match Scenario::from_json(body) {
        Ok(s) => s,
        Err(e) => return shared.reject(422, e.to_string()),
    };

    enqueue_and_answer(
        request,
        shared,
        JobKind::Run,
        Work::Run {
            scenario,
            deadline_ms,
        },
    )
}

/// Admits `work` into the bounded queue and answers: 503 on backpressure,
/// 202 + job id for `?wait=0` (or a sync-wait timeout), otherwise the
/// finished result.
fn enqueue_and_answer(
    request: &Request,
    shared: &Arc<Shared>,
    kind: JobKind,
    work: Work,
) -> Response {
    let job = shared.jobs.create(kind);
    match push_job(shared, &job, work) {
        Ok(()) => answer_job(request, shared, kind, &job),
        Err(response) => response,
    }
}

/// Pushes an admitted job into the bounded queue. On backpressure the job
/// is failed and the 503 response to answer with is returned.
fn push_job(shared: &Arc<Shared>, job: &Arc<Job>, work: Work) -> Result<(), Response> {
    let queued = QueuedJob {
        job: Arc::clone(job),
        work,
    };
    match shared.queue.try_push(queued) {
        Ok(()) => Ok(()),
        Err(PushError::Full(_)) => {
            job.fail(503, "queue full");
            Err(shared.busy(format!(
                "queue full ({} jobs queued); retry later",
                shared.queue.capacity()
            )))
        }
        Err(PushError::Closed(_)) => {
            job.fail(503, "draining");
            Err(shared.busy("draining; not accepting work"))
        }
    }
}

/// Answers for an already-enqueued job: 202 + job id for `?wait=0` (or a
/// sync-wait timeout), otherwise the finished result.
fn answer_job(request: &Request, shared: &Arc<Shared>, kind: JobKind, job: &Arc<Job>) -> Response {
    if request.query_param("wait") == Some("0") {
        return Response::json(
            202,
            &AcceptedResponse {
                job: job.id.to_string(),
            },
        )
        .with_header("Location", format!("/v1/jobs/{}", job.id));
    }
    match job.wait(shared.config.sync_wait) {
        Some(Ok(output)) => {
            let cached = output.plan().is_some_and(|a| a.summary.cached);
            finished_response(kind, &output, cached)
        }
        Some(Err(e)) => Response::json(e.status, &ErrorResponse::new(e.message)),
        None => Response::json(
            202,
            &AcceptedResponse {
                job: job.id.to_string(),
            },
        )
        .with_header("Location", format!("/v1/jobs/{}", job.id)),
    }
}

/// Renders a finished job for its request kind. Plan responses are the
/// raw plan-attached NPD bytes (byte-identical to the CLI); audit
/// responses are the summary + safety timeline; run responses are the
/// controller's full report.
fn finished_response(kind: JobKind, output: &JobOutput, cached: bool) -> Response {
    let cache_header = if cached { "hit" } else { "miss" };
    match (kind, output) {
        (JobKind::Plan, JobOutput::Plan(artifact)) => {
            Response::raw_json(200, artifact.plan_json.clone())
                .with_header("X-Klotski-Cache", cache_header)
                .with_header("X-Klotski-Digest", artifact.summary.npd_digest.clone())
                .with_header("X-Klotski-Cost", format!("{}", artifact.summary.cost))
        }
        (JobKind::Audit, JobOutput::Plan(artifact)) => {
            // Pre-encoded per (artifact, cached): cache hits skip the JSON
            // serialization entirely and answer with the bytes the first
            // responder rendered.
            Response::raw_json(200, artifact.audit_response_bytes(cached).as_ref().clone())
                .with_header("X-Klotski-Cache", cache_header)
        }
        (_, JobOutput::Run(run)) => Response::raw_json(200, run.json.clone())
            .with_header("X-Klotski-Run-Outcome", run.report.outcome_label())
            .with_header(
                "X-Klotski-Run-Fingerprint",
                format!("{:016x}", run.report.fingerprint()),
            ),
        // A kind/output mismatch cannot happen (workers publish the output
        // matching the job's kind); answer the bytes we do have.
        (JobKind::Run, JobOutput::Plan(artifact)) => {
            Response::raw_json(200, artifact.plan_json.clone())
        }
    }
}

/// `GET /v1/jobs/{id}` and `GET /v1/jobs/{id}/result`.
fn job_endpoint(request: &Request, shared: &Arc<Shared>) -> Response {
    let rest = &request.path["/v1/jobs/".len()..];
    let (id_str, want_result) = match rest.strip_suffix("/result") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return shared.reject(400, format!("bad job id {id_str:?}"));
    };
    let Some(job) = shared.jobs.get(id) else {
        return shared.reject(404, format!("no job {id}"));
    };
    let (state, output, error) = job.status();
    if want_result {
        return match (output, error) {
            (Some(o), _) => {
                let cached = o.plan().is_some_and(|a| a.summary.cached);
                finished_response(job.kind, &o, cached)
            }
            (None, Some(e)) => Response::json(e.status, &ErrorResponse::new(e.message)),
            (None, None) => Response::json(
                409,
                &ErrorResponse::new(format!("job {id} not finished (state {state:?})")),
            )
            .with_header("Retry-After", "1"),
        };
    }
    Response::json(
        200,
        &JobStatusResponse {
            id: id.to_string(),
            kind: job.kind.label().to_string(),
            state,
            error: error.map(|e| e.message),
            // Run jobs have no plan summary; their result endpoint carries
            // the full controller report instead.
            summary: output.and_then(|o| o.plan().map(|a| a.summary.clone())),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_npd::api::AuditResponse;
    use klotski_npd::convert::region_to_npd;
    use klotski_topology::presets::{self, PresetId};
    use std::io::{Read, Write};
    use std::time::Instant;

    fn small_npd_json() -> String {
        region_to_npd(&presets::config(PresetId::A))
            .to_json_pretty()
            .unwrap()
    }

    /// NPD digest whose plan job panics on its worker; 0 = disarmed. Keyed
    /// by document so concurrently running tests never trip it.
    static PANIC_ON_NPD_DIGEST: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    /// The `#[cfg(test)]` fault hook `run_plan_job` calls before planning.
    /// The panic waits for a duplicate submission to coalesce onto the job,
    /// so the follower is attached by construction rather than by timing.
    pub(super) fn injected_fault(shared: &Shared, key: (u64, u64)) {
        if key.0 != PANIC_ON_NPD_DIGEST.load(Ordering::SeqCst) {
            return;
        }
        let patience = Instant::now() + Duration::from_secs(20);
        while shared.metrics.coalesce_followers.get() == 0 && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("injected planner fault");
    }

    fn request(addr: SocketAddr, head: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
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

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn plan_audit_cache_and_metrics_end_to_end() {
        let service = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();

        let (status, _, body) = request(addr, "GET /healthz HTTP/1.1\r\nHost: t", "");
        assert_eq!((status, body.as_str()), (200, "ok"));

        // First plan: a cache miss that returns the plan-attached document.
        let (status, headers, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-klotski-cache"), Some("miss"));
        let shipped = Npd::from_json(&body).unwrap();
        assert!(!shipped.phases.is_empty());

        // Second identical plan: served from cache, byte-identical.
        let (status, headers, body2) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-klotski-cache"), Some("hit"));
        assert_eq!(body, body2);

        // Audit of the same document also hits the cache.
        let (status, headers, body) = request(addr, "POST /v1/audit HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-klotski-cache"), Some("hit"));
        let audit: AuditResponse = serde_json::from_str(&body).unwrap();
        assert!(audit.summary.cached);
        assert_eq!(audit.audit.phases.len(), audit.summary.phases);
        assert!(audit.audit.peak_utilization() <= audit.audit.theta + 1e-9);

        let (status, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert_eq!(status, 200);
        assert!(text.contains("klotski_plan_requests_total 2"), "{text}");
        assert!(text.contains("klotski_audit_requests_total 1"));
        assert!(text.contains("klotski_jobs_completed_total 1"));
        assert!(text.contains("klotski_plan_latency_seconds_count 1"));
        // The process-wide registry rides along: the plan above flushed
        // search introspection counters.
        assert!(text.contains("klotski_search_expansions_total"), "{text}");
        assert!(text.contains("klotski_search_esc_hits_total"));
        assert!(text.contains("klotski_pool_tasks_total"));

        service.shutdown();
    }

    /// `/metrics` is two registries rendered by one function; the body as
    /// a whole must still be one well-formed exposition.
    #[test]
    fn live_metrics_body_is_a_well_formed_exposition() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let (status, _, body) =
            request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &small_npd_json());
        assert_eq!(status, 200, "{body}");
        let scenario = serde_json::to_string(&klotski_controller::Scenario::sample()).unwrap();
        let (status, _, body) = request(addr, "POST /v1/run HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 200, "{body}");
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        service.shutdown();

        // family → (HELP lines, TYPE lines, declared kind), in body order.
        let mut declared: HashMap<&str, (usize, usize, &str)> = HashMap::new();
        let mut current = "";
        let mut samples = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                current = rest.split(' ').next().unwrap();
                declared.entry(current).or_default().0 += 1;
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (family, kind) = rest.split_once(' ').expect("TYPE has a kind");
                assert_eq!(family, current, "TYPE must follow its own HELP: {line}");
                let entry = declared.entry(family).or_default();
                entry.1 += 1;
                entry.2 = kind;
            } else {
                let name = line.split(['{', ' ']).next().unwrap();
                let (_, _, kind) = declared[current];
                let owned = name.strip_prefix(current).is_some_and(|suffix| {
                    suffix.is_empty() || (kind == "summary" && ["_count", "_sum"].contains(&suffix))
                });
                assert!(owned, "sample {line:?} sits under family {current:?}");
                assert!(line.rsplit(' ').next().unwrap().parse::<f64>().is_ok());
                samples += 1;
            }
        }
        assert!(samples > 60, "both registries rendered: {samples} samples");
        for (family, (helps, types, kind)) in &declared {
            assert_eq!((*helps, *types), (1, 1), "{family} declared once");
            if family.ends_with("_total") {
                assert_eq!(*kind, "counter", "{family}");
            }
        }
        for (family, kind) in [
            ("klotski_plan_latency_seconds", "summary"),
            ("klotski_search_plan_seconds", "summary"),
            ("klotski_controller_audit_seconds", "summary"),
            ("klotski_queue_depth", "gauge"),
        ] {
            assert_eq!(declared.get(family).map(|d| d.2), Some(kind), "{family}");
        }
    }

    #[test]
    fn expired_deadline_cancels_job_and_traces_it() {
        let ring = Arc::new(klotski_telemetry::RingSink::new(1 << 14));
        let saved = klotski_telemetry::swap(Some(ring.clone()));

        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();

        let (status, _, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 504, "{body}");
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(err.error.contains("budget"), "{}", err.error);

        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_jobs_cancelled_total 1"), "{text}");
        assert!(text.contains("klotski_jobs_failed_total 1"));

        service.shutdown();
        klotski_telemetry::swap(saved);

        // The sink is process-global, so service.job spans from other
        // tests running concurrently in this binary (outcome done/cached)
        // land in the same ring; select ours by its terminal outcome.
        let deadline_span = ring
            .lines()
            .iter()
            .filter_map(|l| klotski_telemetry::parse_line(l).ok())
            .find_map(|r| match r {
                klotski_telemetry::Record::Span { name, fields, .. }
                    if name == "service.job"
                        && fields.get("outcome").and_then(|v| v.as_str()) == Some("deadline") =>
                {
                    Some(fields)
                }
                _ => None,
            });
        assert!(
            deadline_span.is_some(),
            "no service.job span with outcome=\"deadline\" in trace: {:?}",
            ring.lines()
        );
    }

    #[test]
    fn async_submission_polls_to_completion() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0, // force real planning
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();

        let (status, headers, body) =
            request(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 202, "{body}");
        let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(
            header(&headers, "location"),
            Some(format!("/v1/jobs/{}", accepted.job).as_str())
        );

        // Poll until done.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, _, body) = request(
                addr,
                &format!("GET /v1/jobs/{} HTTP/1.1\r\nHost: t", accepted.job),
                "",
            );
            assert_eq!(status, 200, "{body}");
            let poll: JobStatusResponse = serde_json::from_str(&body).unwrap();
            match poll.state {
                klotski_npd::api::JobState::Done => {
                    let summary = poll.summary.expect("summary on done");
                    assert!(summary.phases > 0);
                    break;
                }
                klotski_npd::api::JobState::Failed => panic!("job failed: {:?}", poll.error),
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
            assert!(Instant::now() < deadline, "job never finished");
        }

        // Fetch the raw result bytes.
        let (status, _, body) = request(
            addr,
            &format!("GET /v1/jobs/{}/result HTTP/1.1\r\nHost: t", accepted.job),
            "",
        );
        assert_eq!(status, 200);
        assert!(Npd::from_json(&body).is_ok());

        service.shutdown();
    }

    #[test]
    fn scenario_run_end_to_end() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let scenario = serde_json::to_string(&klotski_controller::Scenario::sample()).unwrap();

        // Synchronous run: the full controller report comes back.
        let (status, headers, body) = request(addr, "POST /v1/run HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-klotski-run-outcome"), Some("completed"));
        let report: klotski_controller::ControllerReport = serde_json::from_str(&body).unwrap();
        assert!(report.completed);
        assert!(!report.steps.is_empty());
        assert_eq!(
            header(&headers, "x-klotski-run-fingerprint"),
            Some(format!("{:016x}", report.fingerprint()).as_str())
        );

        // Invalid scenarios are rejected before admission.
        let (status, _, body) = request(
            addr,
            "POST /v1/run HTTP/1.1\r\nHost: t",
            r#"{"name": "x", "preset": "nope"}"#,
        );
        assert_eq!(status, 422, "{body}");
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(err.error.contains("unknown preset"), "{}", err.error);

        // Async submission polls to completion; run jobs carry no plan
        // summary, the result endpoint returns the report bytes.
        let (status, _, body) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 202, "{body}");
        let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, _, body) = request(
                addr,
                &format!("GET /v1/jobs/{} HTTP/1.1\r\nHost: t", accepted.job),
                "",
            );
            assert_eq!(status, 200, "{body}");
            let poll: JobStatusResponse = serde_json::from_str(&body).unwrap();
            match poll.state {
                klotski_npd::api::JobState::Done => {
                    assert_eq!(poll.kind, "run");
                    assert!(poll.summary.is_none(), "run jobs have no plan summary");
                    break;
                }
                klotski_npd::api::JobState::Failed => panic!("run failed: {:?}", poll.error),
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
            assert!(Instant::now() < deadline, "run never finished");
        }
        let (status, _, body) = request(
            addr,
            &format!("GET /v1/jobs/{}/result HTTP/1.1\r\nHost: t", accepted.job),
            "",
        );
        assert_eq!(status, 200);
        let polled: klotski_controller::ControllerReport = serde_json::from_str(&body).unwrap();
        assert_eq!(polled.fingerprint(), report.fingerprint());

        // The outcome-labeled run counter and the process-wide controller
        // metrics surface. The invalid scenario was rejected pre-admission,
        // so it lands in bad_requests, not the outcome counters.
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(
            text.contains("klotski_run_requests_total{outcome=\"completed\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("klotski_run_requests_total{outcome=\"failed\"} 0"),
            "{text}"
        );
        assert!(text.contains("klotski_controller_phases_applied_total"));
        assert!(text.contains("klotski_controller_replan_seconds"));

        service.shutdown();
    }

    /// Sends a GET and dechunks a `Transfer-Encoding: chunked` reply,
    /// reading the connection to EOF (the server closes after the terminal
    /// chunk).
    fn stream_request(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let msg = format!("GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        stream.write_all(msg.as_bytes()).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let reply = String::from_utf8(reply).unwrap();
        let (head, raw_body) = reply.split_once("\r\n\r\n").unwrap();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
        let body = if chunked {
            dechunk(raw_body)
        } else {
            raw_body.to_string()
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

    #[test]
    fn event_stream_follows_a_run_to_its_terminal_event() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            sse_heartbeat: Duration::from_millis(50),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        // A tight progress interval so planner progress reaches the stream.
        let mut scenario = klotski_controller::Scenario::sample();
        scenario.progress_every = Some(1);
        let scenario = serde_json::to_string(&scenario).unwrap();

        // Occupy the single worker with one run, then queue the observed
        // run behind it: the subscriber below attaches while job 2 is
        // still queued, so the stream carries its trace from the first
        // event.
        let (status, _, _) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 202);
        let (status, _, body) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 202, "{body}");
        let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();

        let (status, headers, events) =
            stream_request(addr, &format!("/v1/jobs/{}/events", accepted.job));
        assert_eq!(status, 200, "{events}");
        assert_eq!(header(&headers, "content-type"), Some("text/event-stream"));

        // Live trace lines from this run streamed before the terminal
        // event: controller phases and (tight-interval) planner progress.
        assert!(events.contains("event: trace\n"), "{events}");
        assert!(events.contains("controller."), "{events}");
        assert!(events.contains("astar.progress"), "{events}");

        // The terminal event is last and byte-matches the result headers.
        let end_data = events
            .rsplit("event: end\ndata: ")
            .next()
            .expect("end event");
        let end_json = end_data.split('\n').next().unwrap();
        let end: serde::Value = serde_json::from_str(end_json).unwrap();
        let end = end.as_object().expect("end event is an object");
        let (status, result_headers, _) = request(
            addr,
            &format!("GET /v1/jobs/{}/result HTTP/1.1\r\nHost: t", accepted.job),
            "",
        );
        assert_eq!(status, 200);
        assert_eq!(
            end.get("outcome").and_then(|v| v.as_str()),
            header(&result_headers, "x-klotski-run-outcome"),
        );
        assert_eq!(
            end.get("fingerprint").and_then(|v| v.as_str()),
            header(&result_headers, "x-klotski-run-fingerprint"),
        );

        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_sse_streams_total 1"), "{text}");

        service.shutdown();
    }

    #[test]
    fn event_stream_sheds_beyond_the_subscriber_cap() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            sse_max_subscribers: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let scenario = serde_json::to_string(&klotski_controller::Scenario::sample()).unwrap();
        let (status, _, body) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 202, "{body}");
        let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();

        let (status, headers, body) =
            stream_request(addr, &format!("/v1/jobs/{}/events", accepted.job));
        assert_eq!(status, 503, "{body}");
        assert_eq!(header(&headers, "retry-after"), Some("1"));

        // Bad ids and unknown jobs answer without streaming.
        let (status, _, _) = stream_request(addr, "/v1/jobs/nope/events");
        assert_eq!(status, 400);

        service.shutdown();
    }

    #[test]
    fn stalled_subscriber_drops_lines_without_changing_the_run() {
        // A one-line queue that is never drained: every event after the
        // first overflows. The run itself must not notice.
        let sub = klotski_telemetry::bus().subscribe(0, 1);

        let scenario = klotski_controller::Scenario::sample();
        let baseline = klotski_controller::run_scenario(&scenario, None)
            .expect("baseline run")
            .fingerprint();

        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let body = serde_json::to_string(&scenario).unwrap();
        let (status, headers, reply) = request(addr, "POST /v1/run HTTP/1.1\r\nHost: t", &body);
        assert_eq!(status, 200, "{reply}");
        assert_eq!(
            header(&headers, "x-klotski-run-fingerprint"),
            Some(format!("{baseline:016x}").as_str()),
            "a lagging subscriber must not perturb the run"
        );
        assert!(sub.dropped() > 0, "the stalled queue must have overflowed");

        service.shutdown();
    }

    #[test]
    fn invalid_inputs_get_4xx_envelopes() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();

        let (status, _, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", "{not json");
        assert_eq!(status, 422, "{body}");
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(err.error.contains("invalid NPD"));

        let (status, _, _) = request(addr, "POST /v1/plan?theta=bogus HTTP/1.1\r\nHost: t", "{}");
        assert_eq!(status, 400);

        let (status, _, _) = request(addr, "GET /v1/jobs/999 HTTP/1.1\r\nHost: t", "");
        assert_eq!(status, 404);

        let (status, _, _) = request(addr, "DELETE /v1/plan HTTP/1.1\r\nHost: t", "");
        assert_eq!(status, 405);

        let (status, _, _) = request(addr, "GET /nope HTTP/1.1\r\nHost: t", "");
        assert_eq!(status, 404);

        // Every 4xx above went through the one counting exit: five so far,
        // and an unknown job id counts on both of its endpoints.
        let bad_requests = || {
            let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
            let line = text
                .lines()
                .find(|l| l.starts_with("klotski_bad_requests_total "))
                .expect("bad_requests series");
            line.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
        };
        assert_eq!(bad_requests(), 5);
        let (status, _, _) = request(addr, "GET /v1/jobs/999999 HTTP/1.1\r\nHost: t", "");
        assert_eq!(status, 404);
        assert_eq!(bad_requests(), 6);
        let (status, _, _) = stream_request(addr, "/v1/jobs/999999/events");
        assert_eq!(status, 404);
        assert_eq!(bad_requests(), 7);

        service.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_503_and_retry_after() {
        // No workers: nothing drains, so the queue fills deterministically.
        // Distinct keys (one θ each), so every submission leads and takes
        // a slot instead of following the first.
        let service = Service::start(ServiceConfig {
            workers: 0,
            queue_depth: 2,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();
        let submit = |theta: &str| {
            let head = format!("POST /v1/plan?wait=0&theta={theta} HTTP/1.1\r\nHost: t");
            request(addr, &head, &npd)
        };

        for theta in ["0.70", "0.71"] {
            let (status, _, _) = submit(theta);
            assert_eq!(status, 202);
        }
        let (status, headers, body) = submit("0.72");
        assert_eq!(status, 503, "{body}");
        assert_eq!(header(&headers, "retry-after"), Some("1"));
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(err.error.contains("queue full"));

        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_rejected_busy_total 1"), "{text}");
        assert!(text.contains("klotski_queue_depth 2"));

        service.shutdown();
    }

    #[test]
    fn followers_share_the_leaders_job_without_enqueueing() {
        // No workers: the leader's job sits queued, so follower status is
        // deterministic — duplicates must reuse its job id and take no
        // queue slot.
        let service = Service::start(ServiceConfig {
            workers: 0,
            queue_depth: 8,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();

        let (status, headers, body) =
            request(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 202, "{body}");
        assert_eq!(header(&headers, "x-klotski-coalesce"), Some("leader"));
        let leader: AcceptedResponse = serde_json::from_str(&body).unwrap();
        for _ in 0..2 {
            let (status, headers, body) =
                request(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
            assert_eq!(status, 202, "{body}");
            assert_eq!(header(&headers, "x-klotski-coalesce"), Some("follower"));
            let follower: AcceptedResponse = serde_json::from_str(&body).unwrap();
            assert_eq!(follower.job, leader.job, "followers share the job id");
        }

        // An audit of the same document must not follow the plan leader:
        // `/v1/jobs/{id}/result` renders by the job's kind, so a shared job
        // would hand the audit client plan bytes.
        let (status, headers, body) =
            request(addr, "POST /v1/audit?wait=0 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 202, "{body}");
        assert_eq!(header(&headers, "x-klotski-coalesce"), Some("leader"));
        let audit: AcceptedResponse = serde_json::from_str(&body).unwrap();
        assert_ne!(audit.job, leader.job, "an audit never follows a plan");
        let head = format!("GET /v1/jobs/{} HTTP/1.1\r\nHost: t", audit.job);
        let (_, _, body) = request(addr, &head, "");
        let polled: JobStatusResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(polled.kind, "audit");

        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_coalesce_leaders_total 2"), "{text}");
        assert!(
            text.contains("klotski_coalesce_followers_total 2"),
            "{text}"
        );
        assert!(
            text.contains("klotski_queue_depth 2"),
            "followers must not enqueue: {text}"
        );

        service.shutdown();
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

    #[test]
    fn panicking_job_fails_its_waiters_and_spares_the_worker() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(ServiceConfig {
            workers: 1,
            sync_wait: Duration::from_secs(30),
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();

        // A document only this test submits, armed to panic its planner.
        let mut doomed = region_to_npd(&presets::config(PresetId::A));
        doomed.name = "panic-containment".into();
        PANIC_ON_NPD_DIGEST.store(klotski_npd::npd_digest(&doomed), Ordering::SeqCst);
        let doomed = doomed.to_json_pretty().unwrap();

        // Two identical synchronous submissions: one leads, one coalesces
        // onto the leader's job. Both must be answered, with the 500.
        let mut roles = Vec::new();
        std::thread::scope(|scope| {
            let submit = || request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &doomed);
            let handles = [scope.spawn(submit), scope.spawn(submit)];
            for handle in handles {
                let (status, headers, body) = handle.join().unwrap();
                assert_eq!(status, 500, "{body}");
                let err: ErrorResponse = serde_json::from_str(&body).unwrap();
                assert!(err.error.contains("panicked"), "{}", err.error);
                roles.push(header(&headers, "x-klotski-coalesce").unwrap().to_string());
            }
        });
        roles.sort();
        assert_eq!(roles, ["follower", "leader"]);

        // The failure is counted, the worker is idle again, and the key has
        // left the singleflight table.
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_jobs_failed_total 1"), "{text}");
        assert!(service.shared.inflight.lock().unwrap().is_empty());
        // (The gauge drops just after the waiters wake, hence the poll.)
        let patience = Instant::now() + Duration::from_secs(10);
        while service.shared.workers_busy.load(Ordering::Relaxed) != 0 {
            assert!(Instant::now() < patience, "worker still counted busy");
            std::thread::sleep(Duration::from_millis(1));
        }

        // The daemon's only worker survived: the next job completes.
        let (status, _, body) =
            request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &small_npd_json());
        assert_eq!(status, 200, "{body}");

        // The admit was settled: a restart has nothing to re-run (no crash
        // loop over the poisoned document).
        service.shutdown();
        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        assert!(replay.pending.is_empty(), "{:?}", replay.pending);
        assert_eq!(replay.artifacts.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_journaled_by_the_previous_release_replays_and_plans() {
        // The admit record as the parent commit wrote it: the options object
        // still carries the two speed knobs that have since left the wire.
        let dir = std::env::temp_dir().join(format!("klotski-serve-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.name = "journal-compat".into();
        let key = (
            klotski_npd::npd_digest(&npd),
            PlanRequestOptions::default().digest(),
        );
        let npd = npd.to_json_pretty().unwrap();
        let payload = format!(
            r#"{{"op":"admit","key":"{:016x}:{:016x}","kind":"plan","npd":{},"options":{{"theta":null,"alpha":null,"planner":null,"deadline_ms":null,"incremental":null,"esc_cache_cap":null,"ensemble":null}},"artifact":null}}"#,
            key.0,
            key.1,
            serde_json::to_string(&npd).unwrap(),
        );
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&klotski_npd::api::fnv1a(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        std::fs::write(dir.join("journal.log"), frame).unwrap();

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
        let (state, artifact, error) = job.status();
        assert_eq!(state, klotski_npd::api::JobState::Done, "error: {error:?}");
        assert!(artifact.is_some());
    }
}
