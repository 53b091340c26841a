//! The worker side of a job's life: take, run, settle. The two job bodies
//! compute and *return* an [`Outcome`]; [`settle`] is the one exit every
//! outcome takes, and the only place a job's journal record is resolved,
//! its terminal metrics move, and its waiters are woken.

use crate::cache::Body;
use crate::jobs::{Job, JobError, JobKey, JobKind, JobOutput, RunArtifact};
use crate::pipeline::{build_instance, plan_instance, PipelineError, PlanArtifact};
use crate::Shared;
use klotski_controller::{run_scenario, ControllerError, Scenario};
use klotski_core::planner::SearchBudget;
use klotski_core::PlanError;
use klotski_npd::api::{npd_digest, PlanRequestOptions};
use klotski_npd::Npd;
use klotski_parallel::WorkerPool;
use klotski_telemetry::SpanGuard;
use klotski_topology::Fnv1a;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The two kinds of payload a job carries from the board to a worker.
pub(crate) enum Work {
    /// Plan or audit an NPD document (cached by content digest). The NPD
    /// is boxed to keep the variants' sizes balanced; `body` is the
    /// leader's request body it was decoded from — what the journal records
    /// and the cache's byte index files beside the artifact.
    Plan {
        npd: Box<Npd>,
        options: PlanRequestOptions,
        key: JobKey,
        body: String,
    },
    /// Execute a scripted controller scenario. Runs are executions, not
    /// pure functions of a document, so they bypass the plan cache.
    Run {
        scenario: Scenario,
        deadline_ms: Option<u64>,
    },
}

impl Work {
    /// The singleflight key: plan/audit work has one, runs never coalesce.
    pub(crate) fn key(&self) -> Option<JobKey> {
        match self {
            Work::Plan { key, .. } => Some(*key),
            Work::Run { .. } => None,
        }
    }
}

/// How a job ended. Five causes arrive here: done, cached, failed, deadline
/// (`Failed` with `504`) and panicked (`Failed` with `500`).
pub(crate) enum Outcome {
    /// Ran to completion: a freshly planned artifact or a run report.
    Done(JobOutput),
    /// A same-key job's artifact was cached while this one sat queued.
    Cached(Arc<PlanArtifact>),
    /// Ended with the HTTP status and message its waiters are answered.
    Failed(JobError),
}

impl Outcome {
    fn failed(status: u16, message: String) -> Self {
        Outcome::Failed(JobError { status, message })
    }
}

/// Worker loop: take, run, settle. Exits when the board is closed and
/// drained. Every job of a worker plans on its `lanes_per_worker` lanes.
pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    let pool = WorkerPool::shared(shared.config.lanes_per_worker.max(1));
    while let Some((job, work)) = shared.jobs.next() {
        shared.workers_busy.fetch_add(1, Ordering::Relaxed);
        run_job(shared, &job, &work, &pool);
        shared.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one job to its terminal state. A panic anywhere under the job (a
/// planner bug, a poisoned document) is caught here and settled as a `500`
/// like any other failure, so it costs its submitters an error — never the
/// daemon a worker, a coalesced follower its answer, or a restart a crash
/// loop over the journaled admit.
fn run_job(shared: &Shared, job: &Arc<Job>, work: &Work, pool: &Arc<WorkerPool>) {
    // Tag this thread with the job's stream id: every trace line the job
    // emits (planner progress, controller phases, the job span itself)
    // reaches exactly this job's `/events` subscribers.
    let _stream_tag = klotski_telemetry::tag_stream(job.stream);
    let mut span =
        klotski_telemetry::span!("service.job", "kind" = job.kind.label(), "job" = job.id,);
    let outcome = catch_unwind(AssertUnwindSafe(|| match work {
        Work::Plan {
            npd,
            options,
            key,
            body,
        } => run_plan_job(shared, job, pool, npd, options, *key, body),
        Work::Run {
            scenario,
            deadline_ms,
        } => run_scenario_job(shared, job, &mut span, scenario, *deadline_ms),
    }))
    .unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        Outcome::failed(500, format!("internal error: job panicked: {why}"))
    });
    span.field("outcome", settle(shared, job, outcome));
}

/// The one exit of every job: resolve the journaled admit, count, then
/// release the singleflight slot and publish to every waiter
/// ([`JobTable::settle`](crate::jobs::JobTable::settle)) — in that order.
/// The journal goes first so a leader admitted to the freed slot journals
/// its admit *after* this job's terminal record, never before it; counting
/// precedes the publish so whoever is woken already reads the moved
/// metrics; the slot is released before the publish so nothing observes a
/// finished job still leading its slot. Returns the outcome's label (the
/// `outcome` field of the job's `service.job` span).
pub(crate) fn settle(shared: &Shared, job: &Arc<Job>, outcome: Outcome) -> &'static str {
    if let (Some(state), Some(key)) = (&shared.state, job.key) {
        match &outcome {
            Outcome::Done(JobOutput::Plan(artifact)) => {
                state.artifact(key, artifact, || shared.cache.snapshot())
            }
            // A cached artifact is already journaled; a failure is terminal,
            // not retried: clear the admit so a restart does not re-run a
            // deterministically failing (or panicking) job.
            _ => state.settled(key),
        }
    }
    let metrics = &shared.metrics;
    let (label, result) = match outcome {
        Outcome::Done(JobOutput::Run(run)) => {
            let label = run.report.outcome_label();
            metrics.run_outcome(label).inc();
            (label, Ok(JobOutput::Run(run)))
        }
        Outcome::Done(output) => ("done", Ok(output)),
        Outcome::Cached(artifact) => ("cached", Ok(JobOutput::Plan(artifact))),
        Outcome::Failed(error) => {
            metrics.jobs_failed.inc();
            if job.kind == JobKind::Run {
                metrics.run_outcome("failed").inc();
            }
            let deadline = error.status == 504;
            if deadline {
                metrics.jobs_cancelled.inc();
            }
            (if deadline { "deadline" } else { "failed" }, Err(error))
        }
    };
    if result.is_ok() {
        metrics.jobs_completed.inc();
        metrics.latency.record(job.admitted.elapsed());
    }
    shared.jobs.settle(job, result);
    // An event stream learns of the settlement now, not at its heartbeat.
    klotski_telemetry::bus().wake(job.stream);
    label
}

/// The key a request's verdicts are kept under: the digest of its document
/// with the name blanked, mixed with the digest of the options that reach
/// the migration spec — θ, which every cached `pass` was judged against,
/// and the ensemble, whose members every verdict covers. Not α, the planner
/// or the deadline: they steer the search, not its checks. Two documents
/// that differ anywhere but their name key apart, even where the difference
/// (a switch's name, say) routes nothing; that costs a cold plan, never a
/// wrong verdict.
fn store_key(npd: &Npd, options: &PlanRequestOptions) -> u64 {
    let unnamed = Npd {
        name: String::new(),
        ..npd.clone()
    };
    let checked = PlanRequestOptions {
        theta: options.theta,
        ensemble: options.ensemble.clone(),
        ..PlanRequestOptions::default()
    };
    Fnv1a::new()
        .u64(npd_digest(&unnamed))
        .u64(checked.digest())
        .finish()
}

/// Plans (or audits — one artifact answers both) a document on this
/// worker's pool. The search starts from a copy of the verdicts kept beside
/// the newest cached artifact under the request's [`store_key`], if any,
/// and its own go into the cache beside its artifact, with `body` filed in
/// the byte index; a job that fails or panics leaves the cache as it was.
fn run_plan_job(
    shared: &Shared,
    job: &Job,
    pool: &Arc<WorkerPool>,
    npd: &Npd,
    options: &PlanRequestOptions,
    key: JobKey,
    body: &str,
) -> Outcome {
    // A same-key job may have finished while this one sat queued. Its
    // request already counted its one lookup, so this one is not counted.
    if let Some(hit) = shared.cache.peek(key) {
        return Outcome::Cached(hit);
    }
    let mut budget = SearchBudget::default();
    if let Some(d) = job_deadline(shared, options.deadline_ms) {
        // Deadlines bound admission-to-answer, so they start at admission.
        budget = budget.with_deadline(job.admitted + d);
    }
    shared.metrics.pipeline_executions.inc();
    let _span = klotski_telemetry::span!("pipeline.plan", "npd" = npd.name.as_str());
    let stored = store_key(npd, options);
    let planned = build_instance(npd, options).and_then(|instance| {
        let prior = shared
            .cache
            .newest(|(k, _)| *k == stored)
            .and_then(|warm| warm.1.clone().adopt(&instance.spec));
        #[cfg(test)]
        tests::injected_fault(shared, key.0);
        plan_instance(npd, &instance, key, budget, Some(Arc::clone(pool)), prior)
    });
    match planned {
        Ok((artifact, verdicts)) => {
            // Cached before it is settled: a duplicate arriving once the
            // slot is free must find the artifact, not plan again.
            let artifact = Arc::new(artifact);
            let warm = Some((stored, verdicts));
            let filed = Some(Body::new(body.as_bytes()));
            shared.cache.insert(key, Arc::clone(&artifact), warm, filed);
            Outcome::Done(JobOutput::Plan(artifact))
        }
        Err(e) => {
            let status = match &e {
                PipelineError::Invalid(_) => 422,
                PipelineError::Plan(_) if e.is_budget_exceeded() => 504,
                PipelineError::Plan(_) => 422,
                PipelineError::Internal(_) => 500,
            };
            Outcome::failed(status, e.to_string())
        }
    }
}

/// Executes a `POST /v1/run` scenario on the worker thread. The controller
/// owns its own pool sized by the scenario's thread override (runs are
/// bit-deterministic per lane count, so the scenario decides, not the
/// worker).
fn run_scenario_job(
    shared: &Shared,
    job: &Job,
    span: &mut SpanGuard,
    scenario: &Scenario,
    deadline_ms: Option<u64>,
) -> Outcome {
    let deadline = job_deadline(shared, deadline_ms).map(|d| job.admitted + d);
    #[cfg(test)]
    tests::injected_fault(shared, klotski_npd::api::fnv1a(scenario.name.as_bytes()));
    match run_scenario(scenario, deadline) {
        Ok(report) => {
            let json = serde_json::to_string_pretty(&report)
                .map(String::into_bytes)
                .unwrap_or_else(|_| b"{}".to_vec());
            span.field("completed", report.completed);
            span.field("replans", report.replans.len() as u64);
            Outcome::Done(JobOutput::Run(Arc::new(RunArtifact { report, json })))
        }
        Err(e) => {
            let status = match &e {
                ControllerError::Scenario(_) => 422,
                ControllerError::InitialPlan(PlanError::BudgetExceeded { .. }) => 504,
                ControllerError::InitialPlan(_) => 422,
            };
            Outcome::failed(status, e.to_string())
        }
    }
}

/// The effective deadline: the request's, else the service-wide default.
fn job_deadline(shared: &Shared, request_ms: Option<u64>) -> Option<Duration> {
    request_ms
        .map(Duration::from_millis)
        .or(shared.config.default_deadline)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::plan_document;
    use crate::state::StateStore;
    use crate::testkit::{header, metric, request, small_npd_json, stream_request};
    use crate::{locked, Service, ServiceConfig};
    use klotski_core::EnsembleSpec;
    use klotski_npd::api::{fnv1a, AcceptedResponse, AuditResponse, ErrorResponse, PlanSummary};
    use klotski_npd::convert::region_to_npd;
    use klotski_topology::presets::{self, PresetId};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
    use std::time::Instant;

    /// Armed `#[cfg(test)]` faults: a job body whose tag (a plan's NPD
    /// digest, a run's scenario-name hash) is listed runs the fault just
    /// before its real work. Tagged by document so concurrently running
    /// tests never trip each other's.
    static FAULTS: Mutex<Vec<(u64, Fault)>> = Mutex::new(Vec::new());

    type Fault = fn(&Shared);

    pub(crate) fn arm(tag: u64, fault: Fault) {
        locked(&FAULTS).push((tag, fault));
    }

    pub(super) fn injected_fault(shared: &Shared, tag: u64) {
        let armed = locked(&FAULTS).iter().find(|(t, _)| *t == tag).map(|f| f.1);
        if let Some(fault) = armed {
            fault(shared);
        }
    }

    /// Panics once a duplicate submission has coalesced onto the job, so
    /// the follower is attached by construction rather than by timing.
    fn panic_once_followed(shared: &Shared) {
        let patience = Instant::now() + Duration::from_secs(20);
        while shared.metrics.coalesce_followers.get() == 0 && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("injected planner fault");
    }

    /// A hold for lining jobs up: an armed job waits on its gate until the
    /// test opens it (or a minute passes, so a failed test does not pin the
    /// thread forever). One gate per test that holds.
    pub(crate) struct Gate(AtomicBool);

    impl Gate {
        pub(crate) const fn closed() -> Self {
            Gate(AtomicBool::new(false))
        }

        pub(crate) fn hold(&self) {
            let patience = Instant::now() + Duration::from_secs(60);
            while !self.0.load(Ordering::Acquire) && Instant::now() < patience {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        pub(crate) fn open(&self) {
            self.0.store(true, Ordering::Release);
        }
    }

    /// Opened by the coalescing test.
    static COALESCE_GATE: Gate = Gate(AtomicBool::new(false));

    /// Opened by the concurrent-miss test.
    static MISS_GATE: Gate = Gate(AtomicBool::new(false));

    /// What `plan_document` answers for `json`, from a cold cache.
    fn cold_bytes(json: &str) -> String {
        let npd = Npd::from_json(json).unwrap();
        let options = PlanRequestOptions::default();
        let artifact = plan_document(&npd, &options, SearchBudget::default(), None).unwrap();
        String::from_utf8(artifact.plan_json).unwrap()
    }

    /// The summary `POST /v1/audit` answers for `json`.
    fn audit_summary(addr: std::net::SocketAddr, json: &str) -> PlanSummary {
        let (status, _, body) = request(addr, "POST /v1/audit HTTP/1.1\r\nHost: t", json);
        assert_eq!(status, 200, "{body}");
        serde_json::from_str::<AuditResponse>(&body)
            .unwrap()
            .summary
    }

    /// Preset A's document under `name`.
    fn preset_a(name: &str) -> Npd {
        renamed(&region_to_npd(&presets::config(PresetId::A)), name)
    }

    /// `blueprint` under `name`.
    fn renamed(blueprint: &Npd, name: &str) -> Npd {
        Npd {
            name: name.into(),
            ..blueprint.clone()
        }
    }

    /// A preset-A document only the calling test submits.
    fn private_npd(name: &str) -> (u64, String) {
        let npd = preset_a(name);
        (klotski_npd::npd_digest(&npd), npd.to_json_pretty().unwrap())
    }

    /// The keys resident in the daemon's cache, oldest first.
    fn resident(service: &Service) -> Vec<JobKey> {
        let snapshot = service.shared.cache.snapshot();
        snapshot.into_iter().map(|(key, _)| key).collect()
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
    fn panicking_job_fails_its_waiters_and_spares_the_worker() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(ServiceConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();

        // A document only this test submits, armed to panic its planner.
        let (digest, doomed) = private_npd("panic-containment");
        arm(digest, panic_once_followed);

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
        // left the singleflight index.
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        assert!(text.contains("klotski_jobs_failed_total 1"), "{text}");
        assert_eq!(service.shared.jobs.live_slots(), 0);
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

    /// Coalescing determinism: concurrent identical submissions ride
    /// exactly one pipeline execution — the leader's — and every follower
    /// (including an SSE subscriber attached mid-flight) observes
    /// byte-identical output. The single worker is held on a gated run
    /// until every follower and the subscriber have attached, so the plan
    /// leader is still queued when they arrive, by construction.
    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_execution() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = Arc::new(small_npd_json());

        // Occupy the single worker with a run that waits on the gate.
        let mut holder = klotski_controller::Scenario::sample();
        holder.name = "coalesce-gate".into();
        arm(fnv1a(holder.name.as_bytes()), |_| COALESCE_GATE.hold());
        let holder = serde_json::to_string(&holder).unwrap();
        let (status, _, body) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &holder);
        assert_eq!(status, 202, "{body}");

        let (status, headers, body) =
            request(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 202, "{body}");
        assert_eq!(header(&headers, "x-klotski-coalesce"), Some("leader"));
        let leader: AcceptedResponse = serde_json::from_str(&body).unwrap();

        // An async duplicate is answered with the leader's own job id.
        let (status, headers, body) =
            request(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 202);
        assert_eq!(header(&headers, "x-klotski-coalesce"), Some("follower"));
        let dup: AcceptedResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(dup.job, leader.job, "follower must share the leader's job");

        // Synchronous duplicates block on the shared job; the SSE
        // subscriber attaches to the same job id while it is still queued.
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let npd = Arc::clone(&npd);
                std::thread::spawn(move || request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd))
            })
            .collect();
        let subscriber = {
            let path = format!("/v1/jobs/{}/events", leader.job);
            std::thread::spawn(move || stream_request(addr, &path))
        };
        let patience = Instant::now() + Duration::from_secs(20);
        while metric(addr, "klotski_coalesce_followers_total") < 4
            || metric(addr, "klotski_sse_streams_total") < 1
        {
            assert!(Instant::now() < patience, "followers never attached");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Held on the run, the worker has not started the plan.
        assert_eq!(metric(addr, "klotski_pipeline_executions_total"), 0);
        COALESCE_GATE.open();

        let bodies: Vec<String> = waiters
            .into_iter()
            .map(|w| {
                let (status, headers, body) = w.join().unwrap();
                assert_eq!(status, 200, "{body}");
                assert_eq!(header(&headers, "x-klotski-coalesce"), Some("follower"));
                body
            })
            .collect();
        assert!(
            bodies.windows(2).all(|w| w[0] == w[1]),
            "coalesced follower bodies differ"
        );
        let (status, _, events) = subscriber.join().unwrap();
        assert_eq!(status, 200);
        assert!(events.contains("event: end\n"), "{events}");

        assert_eq!(metric(addr, "klotski_pipeline_executions_total"), 1);
        assert_eq!(metric(addr, "klotski_coalesce_leaders_total"), 1);
        assert_eq!(metric(addr, "klotski_coalesce_followers_total"), 4);
        service.shutdown();
    }

    #[test]
    fn failed_and_panicked_runs_count_once_through_the_shared_exit() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let failed_runs = || metric(addr, "klotski_run_requests_total{outcome=\"failed\"}");

        // Passes `Scenario::from_json` at admission; only the worker, with
        // the topology built, can see the victim index is out of range.
        let mut invalid = klotski_controller::Scenario::sample();
        invalid.events[1].circuit = Some(1_000_000);
        let invalid = serde_json::to_string(&invalid).unwrap();
        let (status, _, body) = request(addr, "POST /v1/run HTTP/1.1\r\nHost: t", &invalid);
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("out of range"), "{body}");
        assert_eq!(metric(addr, "klotski_jobs_failed_total"), 1);
        assert_eq!(failed_runs(), 1);

        let mut doomed = klotski_controller::Scenario::sample();
        doomed.name = "run-panic-containment".into();
        arm(fnv1a(doomed.name.as_bytes()), |_| {
            panic!("injected controller fault")
        });
        let doomed = serde_json::to_string(&doomed).unwrap();
        let (status, _, body) = request(addr, "POST /v1/run HTTP/1.1\r\nHost: t", &doomed);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("job panicked"), "{body}");
        assert_eq!(metric(addr, "klotski_jobs_failed_total"), 2);
        assert_eq!(failed_runs(), 2);
        assert_eq!(metric(addr, "klotski_jobs_cancelled_total"), 0);

        // The worker outlived the panic: a clean run completes.
        let sample = serde_json::to_string(&klotski_controller::Scenario::sample()).unwrap();
        let (status, headers, body) = request(addr, "POST /v1/run HTTP/1.1\r\nHost: t", &sample);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-klotski-run-outcome"), Some("completed"));
        assert_eq!(metric(addr, "klotski_jobs_failed_total"), 2);
        service.shutdown();
    }

    #[test]
    fn a_submission_the_board_refuses_leaves_nothing_behind() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-shed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No workers: the one waiting place stays taken by the first job.
        let service = Service::start(ServiceConfig {
            workers: 0,
            queue_depth: 1,
            cache_capacity: 0,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();
        let submit = |theta: &str| {
            let head = format!("POST /v1/plan?wait=0&theta={theta} HTTP/1.1\r\nHost: t");
            request(addr, &head, &npd)
        };
        let (status, _, body) = submit("0.70");
        assert_eq!(status, 202, "{body}");
        let (status, headers, body) = submit("0.71");
        assert_eq!(status, 503, "{body}");
        assert_eq!(header(&headers, "retry-after"), Some("1"));

        // A refusal is backpressure, not a job failure: it took no slot,
        // and the queued leader keeps its own.
        assert_eq!(metric(addr, "klotski_rejected_busy_total"), 1);
        assert_eq!(metric(addr, "klotski_jobs_failed_total"), 0);
        assert_eq!(service.shared.jobs.live_slots(), 1);

        // Only the queued job's admit is in the journal.
        service.shutdown();
        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        let thetas: Vec<Option<f64>> = replay.pending.iter().map(|p| p.options.theta).collect();
        assert_eq!(thetas, [Some(0.70)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fails its job unless the journal on disk already holds the admit of
    /// the document `private_npd("journaled-first")`.
    fn assert_admit_journaled(shared: &Shared) {
        let dir = shared.config.state_dir.as_ref().expect("state dir");
        // Replayed from a copy: opening a journal compacts it.
        let copy = dir.join("copy");
        std::fs::create_dir_all(&copy).unwrap();
        std::fs::copy(dir.join("journal.log"), copy.join("journal.log")).unwrap();
        let (_store, replay) = StateStore::open(&copy, 1 << 20).unwrap();
        let (digest, _) = private_npd("journaled-first");
        let keys: Vec<JobKey> = replay.pending.iter().map(|p| p.key).collect();
        assert!(
            keys.iter().any(|k| k.0 == digest),
            "admit not journaled: {keys:?}"
        );
    }

    #[test]
    fn a_jobs_admit_is_journaled_before_it_starts() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-first-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(ServiceConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let (digest, npd) = private_npd("journaled-first");
        arm(digest, assert_admit_journaled);
        let (status, _, body) = request(
            service.local_addr(),
            "POST /v1/plan HTTP/1.1\r\nHost: t",
            &npd,
        );
        assert_eq!(status, 200, "{body}");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_journal_write_is_counted_and_unhealthy_until_a_compaction() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(ServiceConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        assert_eq!(metric(addr, "klotski_journal_errors_total"), 0);

        // The journal goes read-only between this job's admit (written)
        // and its artifact (lost).
        let (digest, npd) = private_npd("journal-fault");
        arm(digest, |shared| {
            shared.state.as_ref().expect("state dir").break_journal()
        });
        let (status, headers, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-klotski-cache"), Some("miss"));
        assert_eq!(metric(addr, "klotski_journal_errors_total"), 1);
        assert_eq!(metric(addr, "klotski_jobs_completed_total"), 1);
        let (status, headers, body) = request(addr, "GET /healthz HTTP/1.1\r\nHost: t", "");
        assert_eq!((status, body.as_str()), (503, "journal failing"));
        assert_eq!(header(&headers, "retry-after"), Some("1"));

        // A compaction reopens the journal for appends.
        let shared = &service.shared;
        (shared.state.as_ref().expect("state dir")).compact(shared.cache.snapshot());
        let (status, _, body) = request(addr, "GET /healthz HTTP/1.1\r\nHost: t", "");
        assert_eq!((status, body.as_str()), (200, "ok"));

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The name is the one field the store key ignores; θ, a circuit
    /// capacity and the ensemble seed each key apart, and α, the planner and
    /// the deadline do not.
    #[test]
    fn the_key_ignores_the_name_and_nothing_the_checks_read() {
        let defaults = PlanRequestOptions::default();
        let base = store_key(&preset_a("one"), &defaults);
        assert_eq!(store_key(&preset_a("two"), &defaults), base);
        let steering = PlanRequestOptions {
            alpha: Some(0.5),
            planner: Some("dp".into()),
            deadline_ms: Some(5),
            ..PlanRequestOptions::default()
        };
        assert_eq!(store_key(&preset_a("two"), &steering), base);

        let theta = PlanRequestOptions {
            theta: Some(0.74),
            ..PlanRequestOptions::default()
        };
        let mut capacity = preset_a("one");
        capacity.eb.fauu_eb_gbps *= 1.5;
        let seeded = |seed| PlanRequestOptions {
            ensemble: Some(EnsembleSpec::with_k(4, seed)),
            ..PlanRequestOptions::default()
        };
        let keys = [
            store_key(&preset_a("one"), &theta),
            store_key(&capacity, &defaults),
            store_key(&preset_a("one"), &seeded(7)),
            store_key(&preset_a("one"), &seeded(8)),
        ];
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(*k, base, "case {i}");
            assert!(!keys[..i].contains(k), "case {i}");
        }
    }

    /// A fleet of blueprints under many names: each blueprint's first
    /// request plans cold and every later one under another name plans warm
    /// from the cached artifact of its own blueprint, however the requests
    /// of the blueprints interleave — and answers `plan_document`'s bytes.
    #[test]
    fn every_blueprint_stays_warm_across_its_renamed_copies() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let blueprints: Vec<Npd> = [1.0, 1.5, 2.0]
            .into_iter()
            .map(|scale| {
                let mut npd = preset_a("fleet");
                npd.eb.fauu_eb_gbps *= scale;
                npd
            })
            .collect();
        for copy in 0..3 {
            for (b, blueprint) in blueprints.iter().enumerate() {
                let json = renamed(blueprint, &format!("fleet-{b}-{copy}"))
                    .to_json_pretty()
                    .unwrap();
                let summary = audit_summary(addr, &json);
                assert!(summary.sat_checks > 0);
                assert_eq!(summary.full_evaluations > 0, copy == 0, "{b}/{copy}");
                if copy == 2 {
                    let (status, _, body) =
                        request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &json);
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(body, cold_bytes(&json), "{b}");
                }
            }
        }
        service.shutdown();
    }

    /// A job that panics with a cached search's verdicts in hand, or passes
    /// its deadline on them, leaves the cache exactly as it was: the next
    /// renamed miss plans warm and answers `plan_document`'s bytes.
    #[test]
    fn a_job_that_dies_on_cached_verdicts_leaves_the_cache_as_it_was() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let plan = |query: &str, json: &str| {
            let head = format!("POST /v1/plan{query} HTTP/1.1\r\nHost: t");
            request(addr, &head, json)
        };
        let (_, seed) = private_npd("dies-seed");
        assert!(audit_summary(addr, &seed).full_evaluations > 0);
        let before = resident(&service);

        let (digest, doomed) = private_npd("dies-panic");
        arm(digest, |_| panic!("injected fault on cached verdicts"));
        let (status, _, body) = plan("", &doomed);
        assert_eq!(status, 500, "{body}");
        assert_eq!(resident(&service), before);

        let (_, late) = private_npd("dies-late");
        let (status, _, body) = plan("?deadline_ms=0", &late);
        assert_eq!(status, 504, "{body}");
        assert_eq!(resident(&service), before);

        let (_, next) = private_npd("dies-next");
        assert_eq!(audit_summary(addr, &next).full_evaluations, 0);
        let (status, headers, body) = plan("", &next);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-klotski-cache"), Some("hit"));
        assert_eq!(body, cold_bytes(&next));
        service.shutdown();
    }

    /// Two workers, two misses under one store key at once: both start from
    /// the cached search's verdicts — neither can finish before the other
    /// has looked them up — and both answer `plan_document`'s bytes.
    #[test]
    fn two_concurrent_misses_on_one_key_both_plan_warm() {
        let service = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let (_, seed) = private_npd("race-seed");
        assert!(audit_summary(addr, &seed).full_evaluations > 0);

        let racers: Vec<(String, String)> = ["race-one", "race-two"]
            .into_iter()
            .map(|name| {
                let (digest, json) = private_npd(name);
                arm(digest, |_| MISS_GATE.hold());
                let head = "POST /v1/audit?wait=0 HTTP/1.1\r\nHost: t";
                let (status, _, body) = request(addr, head, &json);
                assert_eq!(status, 202, "{body}");
                let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();
                (json, accepted.job)
            })
            .collect();
        let patience = Instant::now() + Duration::from_secs(20);
        while service.shared.workers_busy.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < patience, "the misses never both started");
            std::thread::sleep(Duration::from_millis(1));
        }
        MISS_GATE.open();

        for (json, job) in &racers {
            let path = format!("GET /v1/jobs/{job}/result HTTP/1.1\r\nHost: t");
            let summary = loop {
                let (status, _, body) = request(addr, &path, "");
                if status == 200 {
                    break serde_json::from_str::<AuditResponse>(&body)
                        .unwrap()
                        .summary;
                }
                assert!(Instant::now() < patience, "job {job} never finished");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(summary.full_evaluations, 0, "job {job} planned cold");
            let (status, _, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", json);
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, cold_bytes(json));
        }
        service.shutdown();
    }

    /// `--cache 0` keeps no plan and so no verdicts: a renamed miss plans
    /// cold.
    #[test]
    fn without_a_cache_a_renamed_miss_plans_cold() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        for name in ["uncached-one", "uncached-two"] {
            let (_, json) = private_npd(name);
            assert!(audit_summary(addr, &json).full_evaluations > 0, "{name}");
        }
        service.shutdown();
    }
}
