//! The admission side of a job's life: read one request, route it, admit
//! work onto the board, and answer. Plan, audit and run submissions — and
//! admits replayed from the journal — enter through one function,
//! [`JobTable::admit`](crate::jobs::JobTable::admit).

use crate::cache::Body;
use crate::events::stream_events;
use crate::http::{self, read_request, HttpError, Request, Response};
use crate::jobs::{Admission, Job, JobError, JobKind, JobOutput, Source};
use crate::state::{PendingJob, StateStore};
use crate::work::Work;
use crate::Shared;
use klotski_controller::Scenario;
use klotski_npd::api::{AcceptedResponse, ErrorResponse, JobStatusResponse, PlanRequestOptions};
use klotski_npd::Npd;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request body.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a synchronous (no `?wait=0`) submission blocks before degrading
/// to `202 Accepted` + job id.
const SYNC_WAIT: Duration = Duration::from_secs(300);

/// Reads one request, routes it, writes one response. The caller closes
/// the stream, so that its thread can count itself idle first.
pub(crate) fn handle_connection(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    http::configure_stream(stream, IO_TIMEOUT)?;
    let request = match read_request(stream, MAX_BODY_BYTES) {
        Ok(r) => r,
        Err(HttpError::BodyTooLarge(n)) => {
            return shared
                .reject(413, format!("body of {n} bytes too large"))
                .write_to(stream);
        }
        Err(HttpError::Malformed(why)) => return shared.reject(400, why).write_to(stream),
        Err(HttpError::Io(e)) => return Err(e),
    };
    shared.metrics.http_requests.inc();
    // The events endpoint streams; everything else is one buffered
    // response.
    match route(&request, shared) {
        Routed::Answer(response) => response.write_to(stream),
        Routed::Events(job) => stream_events(stream, &job, shared),
    }
}

/// What a request resolved to.
enum Routed {
    /// One buffered response.
    Answer(Response),
    /// `GET /v1/jobs/{id}/events` of this job: the caller streams.
    Events(Arc<Job>),
}

fn route(request: &Request, shared: &Shared) -> Routed {
    let path = request.path.as_str();
    Routed::Answer(match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            if shared.draining() {
                Response::text(503, "draining").with_header("Retry-After", "1")
            } else if shared.state.as_ref().is_some_and(StateStore::failing) {
                Response::text(503, "journal failing").with_header("Retry-After", "1")
            } else {
                Response::text(200, "ok")
            }
        }
        ("GET", "/metrics") => {
            // This daemon's registry, then the process-wide one: what the
            // planner publishes per search and the controller per run.
            shared.publish_observed();
            let mut text = shared.metrics.registry.render_prometheus();
            text.push_str(&klotski_telemetry::registry().render_prometheus());
            Response::text(200, text)
        }
        ("POST", "/v1/plan") => {
            shared.metrics.plan_requests.inc();
            submit(request, shared, JobKind::Plan)
        }
        ("POST", "/v1/audit") => {
            shared.metrics.audit_requests.inc();
            submit(request, shared, JobKind::Audit)
        }
        ("POST", "/v1/run") => submit_run(request, shared),
        ("GET", _) if path.starts_with("/v1/jobs/") => {
            return job_endpoint(&path["/v1/jobs/".len()..], shared)
        }
        (_, "/healthz" | "/metrics" | "/v1/plan" | "/v1/audit" | "/v1/run") => {
            shared.reject(405, "method not allowed")
        }
        _ => shared.reject(404, format!("no route for {path}")),
    })
}

/// One query parameter's value, parsed.
fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {name} {value:?}"))
}

/// Parses per-request options out of the query string.
fn options_from_query(request: &Request) -> Result<PlanRequestOptions, String> {
    let mut options = PlanRequestOptions::default();
    for (key, value) in &request.query {
        match key.as_str() {
            "theta" => options.theta = Some(parsed(key, value)?),
            "alpha" => options.alpha = Some(parsed(key, value)?),
            "planner" => options.planner = Some(value.clone()),
            "deadline_ms" => options.deadline_ms = Some(parsed(key, value)?),
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

/// Shared handler for `POST /v1/plan` and `POST /v1/audit`: a cache hit is
/// answered at once — by the body's bytes if an entry was admitted with
/// them, else by the document's digest; otherwise the submission leads or
/// follows a job (`X-Klotski-Coalesce`) — a follower shares the leader's job
/// id, event stream and byte-identical result.
fn submit(request: &Request, shared: &Shared, kind: JobKind) -> Response {
    if shared.draining() {
        return shared.busy("draining; not accepting work");
    }
    let options = match options_from_query(request) {
        Ok(o) => o,
        Err(why) => return shared.reject(400, why),
    };
    // Bytes an entry was admitted with decode to that entry's document:
    // answered without decoding or digesting them again.
    let raw = Body::new(&request.body);
    let options_digest = options.digest();
    if let Some(hit) = shared.cache.get_by_body(raw, options_digest) {
        return finished_response(kind, &JobOutput::Plan(hit), true);
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => return shared.reject(400, "body is not UTF-8"),
    };
    let npd = match Npd::from_json(body) {
        Ok(n) => n,
        Err(e) => return shared.reject(422, format!("invalid NPD: {e}")),
    };

    // The miss side's one digest computation: the same key drives the
    // cache, the singleflight slot, and the pipeline's summary.
    let key = (klotski_npd::npd_digest(&npd), options_digest);
    if let Some(hit) = shared.cache.get(key, raw) {
        return finished_response(kind, &JobOutput::Plan(hit), true);
    }
    // A document the topology builders would refuse (a zero count, a
    // non-positive capacity) is the client's error, not a job: answered
    // here, on the miss path only, before it takes a slot or a worker.
    if let Err(e) = klotski_npd::convert::npd_to_region(&npd) {
        return shared.reject(400, format!("invalid request: {e}"));
    }

    let work = Work::Plan {
        npd: Box::new(npd),
        options,
        key,
        body: body.to_owned(),
    };
    let by_id = by_id(request);
    let source = Source::Client {
        journal: shared.state.as_ref(),
        by_id,
    };
    let (job, role) = match shared.jobs.admit(kind, work, source) {
        Admission::Leader(job) => {
            shared.metrics.coalesce_leaders.inc();
            (job, "leader")
        }
        Admission::Follower(job) => {
            shared.metrics.coalesce_followers.inc();
            (job, "follower")
        }
        Admission::Refused(why) => return shared.busy(why),
    };
    answer_job(by_id, &job).with_header("X-Klotski-Coalesce", role)
}

/// `POST /v1/run`: execute a scripted controller scenario. The body is a
/// scenario document; `?deadline_ms=N` bounds the whole run (initial plan
/// included) and `?wait=0` submits asynchronously like plan/audit.
fn submit_run(request: &Request, shared: &Shared) -> Response {
    // Runs are counted by terminal outcome (`klotski_run_requests_total`
    // labels) when the worker resolves them, not at admission.
    if shared.draining() {
        return shared.busy("draining; not accepting work");
    }
    let mut deadline_ms = None;
    for (key, value) in &request.query {
        match key.as_str() {
            "deadline_ms" => match parsed(key, value) {
                Ok(ms) => deadline_ms = Some(ms),
                Err(why) => return shared.reject(400, why),
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

    let work = Work::Run {
        scenario,
        deadline_ms,
    };
    let by_id = by_id(request);
    let source = Source::Client {
        journal: None,
        by_id,
    };
    match shared.jobs.admit(JobKind::Run, work, source) {
        // Keyless: a run always leads.
        Admission::Leader(job) | Admission::Follower(job) => answer_job(by_id, &job),
        Admission::Refused(why) => shared.busy(why),
    }
}

/// Re-admits a journal-replayed job: it gets a fresh job id (the old one
/// died with the old process) and its key re-enters the singleflight index
/// so duplicates arriving during warmup coalesce onto the replay. Its admit
/// was acknowledged and is already in the journal, so it is never refused:
/// the board may hold more than its depth until the workers catch up.
pub(crate) fn replay_pending_job(shared: &Shared, pending: PendingJob) {
    let kind = if pending.kind == JobKind::Audit.label() {
        JobKind::Audit
    } else {
        JobKind::Plan
    };
    match Npd::from_json(&pending.npd) {
        Ok(npd) => {
            let work = Work::Plan {
                npd: Box::new(npd),
                options: pending.options,
                key: pending.key,
                body: pending.npd,
            };
            shared.jobs.admit(kind, work, Source::Replay);
            shared.metrics.state_replayed_jobs.inc();
        }
        // An admit that no longer parses (schema drift) can never run: it is
        // cleared without becoming a job.
        Err(_) => {
            if let Some(state) = &shared.state {
                state.settled(pending.key);
            }
        }
    }
}

/// `202 Accepted`: the job id to poll, and where.
fn accepted(job: &Job) -> Response {
    Response::json(
        202,
        &AcceptedResponse {
            job: job.id.to_string(),
        },
    )
    .with_header("Location", format!("/v1/jobs/{}", job.id))
}

/// Whether the client asked to be answered with the job's id (`?wait=0`)
/// instead of its result.
fn by_id(request: &Request) -> bool {
    request.query_param("wait") == Some("0")
}

/// Answers for an admitted job: 202 + job id when `by_id` (or on a
/// sync-wait timeout), otherwise the finished result. Either way a job whose id is
/// answered keeps its trace: marked at admission, or by the timed-out wait.
fn answer_job(by_id: bool, job: &Job) -> Response {
    if by_id {
        return accepted(job);
    }
    match job.wait(SYNC_WAIT) {
        Some(outcome) => settled_response(job.kind, outcome),
        None => accepted(job),
    }
}

/// A settled job's answer: its finished bytes, or the error it stored.
fn settled_response(kind: JobKind, outcome: Result<JobOutput, JobError>) -> Response {
    match outcome {
        // A job's own answer — leader's, follower's or poller's — is a
        // cache miss, whoever planned the artifact.
        Ok(output) => finished_response(kind, &output, false),
        Err(e) => Response::json(e.status, &ErrorResponse::new(e.message)),
    }
}

/// Renders a finished job for its request kind. Plan responses are the
/// raw plan-attached NPD bytes (byte-identical to the CLI); audit
/// responses are the summary + safety timeline; run responses are the
/// controller's full report. `cached`: answered straight from the
/// plan cache, without a job.
fn finished_response(kind: JobKind, output: &JobOutput, cached: bool) -> Response {
    let cache_header = if cached { "hit" } else { "miss" };
    match output {
        JobOutput::Run(run) => Response::raw_json(200, run.json.clone())
            .with_header("X-Klotski-Run-Outcome", run.report.outcome_label())
            .with_header(
                "X-Klotski-Run-Fingerprint",
                format!("{:016x}", run.report.fingerprint()),
            ),
        // Pre-encoded per (artifact, cached): cache hits skip the JSON
        // serialization entirely and answer with the bytes the first
        // responder rendered.
        JobOutput::Plan(artifact) if kind == JobKind::Audit => {
            Response::raw_json(200, artifact.audit_response_bytes(cached).as_ref().clone())
                .with_header("X-Klotski-Cache", cache_header)
        }
        JobOutput::Plan(artifact) => Response::raw_json(200, artifact.plan_json.clone())
            .with_header("X-Klotski-Cache", cache_header)
            .with_header("X-Klotski-Digest", artifact.summary.npd_digest.clone())
            .with_header("X-Klotski-Cost", format!("{}", artifact.summary.cost)),
    }
}

/// Which face of a job a `/v1/jobs/{id}…` path asks for.
enum JobView {
    Status,
    Result,
    Events,
}

/// `GET /v1/jobs/{id}`, `/v1/jobs/{id}/result` and `/v1/jobs/{id}/events`;
/// `rest` is the path after `/v1/jobs/`.
fn job_endpoint(rest: &str, shared: &Shared) -> Routed {
    let (id_str, view) = if let Some(id) = rest.strip_suffix("/result") {
        (id, JobView::Result)
    } else if let Some(id) = rest.strip_suffix("/events") {
        (id, JobView::Events)
    } else {
        (rest, JobView::Status)
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return Routed::Answer(shared.reject(400, format!("bad job id {id_str:?}")));
    };
    let Some(job) = shared.jobs.get(id) else {
        return Routed::Answer(shared.reject(404, format!("no job {id}")));
    };
    let (state, settled) = job.status();
    Routed::Answer(match view {
        JobView::Events => return Routed::Events(job),
        JobView::Result => match settled {
            Some(outcome) => settled_response(job.kind, outcome),
            None => Response::json(
                409,
                &ErrorResponse::new(format!("job {id} not finished (state {state:?})")),
            )
            .with_header("Retry-After", "1"),
        },
        JobView::Status => {
            // Run jobs have no plan summary; their result endpoint carries
            // the full controller report instead.
            let (summary, error) = match settled {
                Some(Ok(output)) => (output.plan().map(|a| a.summary.clone()), None),
                Some(Err(e)) => (None, Some(e.message)),
                None => (None, None),
            };
            let status = JobStatusResponse {
                id: id.to_string(),
                kind: job.kind.label().to_string(),
                state,
                error,
                summary,
            };
            Response::json(200, &status)
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::cache::Body;
    use crate::state::StateStore;
    use crate::testkit::{header, metric, request, small_npd_json, stream_request};
    use crate::{Service, ServiceConfig};
    use klotski_npd::api::{
        AcceptedResponse, AuditResponse, ErrorResponse, JobStatusResponse, PlanRequestOptions,
    };
    use klotski_npd::Npd;
    use std::collections::HashMap;
    use std::time::{Duration, Instant};

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

        // Only the layer that owns a request publishes: the routing engine,
        // the worker pool and the checker return their counts instead, and
        // an ensemble search ships its per-matrix rows in the plan summary.
        let (status, _, body) =
            request(addr, "POST /v1/plan?ensemble=3@5 HTTP/1.1\r\nHost: t", &npd);
        assert_eq!(status, 200, "{body}");
        let (_, _, text) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        let gone = ["pool_", "routing_", "esc_cache_", "ensemble_"];
        for line in text.lines() {
            let series = line
                .trim_start_matches("# HELP ")
                .trim_start_matches("# TYPE ");
            let published = series
                .strip_prefix("klotski_")
                .is_some_and(|rest| gone.iter().any(|family| rest.starts_with(family)));
            assert!(!published, "{line}");
        }

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
        let bad_requests = || metric(addr, "klotski_bad_requests_total");
        assert_eq!(bad_requests(), 5);
        let (status, _, _) = request(addr, "GET /v1/jobs/999999 HTTP/1.1\r\nHost: t", "");
        assert_eq!(status, 404);
        assert_eq!(bad_requests(), 6);
        let (status, _, _) = stream_request(addr, "/v1/jobs/999999/events");
        assert_eq!(status, 404);
        assert_eq!(bad_requests(), 7);

        service.shutdown();
    }

    /// A request body an entry was admitted with answers from the byte
    /// index; another rendering of the same document answers from the same
    /// entry by digest. Every request counts exactly one lookup.
    #[test]
    fn both_renderings_of_a_document_hit_one_entry() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let pretty = small_npd_json();
        let compact = serde_json::to_string(&Npd::from_json(&pretty).unwrap()).unwrap();
        assert_ne!(pretty, compact);
        let lookups = || {
            let hits = metric(addr, "klotski_cache_hits_total");
            (hits, metric(addr, "klotski_cache_misses_total"))
        };
        let plan = |query: &str, body: &str| {
            let head = format!("POST /v1/plan{query} HTTP/1.1\r\nHost: t");
            let (status, headers, body) = request(addr, &head, body);
            assert_eq!(status, 200, "{body}");
            let cache = header(&headers, "x-klotski-cache").unwrap().to_string();
            (
                cache,
                header(&headers, "x-klotski-digest").unwrap().to_string(),
                body,
            )
        };

        let (cache, digest, planned) = plan("", &pretty);
        assert_eq!(cache, "miss");
        assert_eq!(lookups(), (0, 1));
        // The leader's bytes (by the index), the other rendering (by
        // digest), each twice: four hits on one entry, one lookup each.
        for (round, body) in [&pretty, &compact, &pretty, &compact]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                plan("", body),
                ("hit".into(), digest.clone(), planned.clone())
            );
            assert_eq!(lookups(), (round as u64 + 1, 1), "request {round}");
        }
        assert_eq!(metric(addr, "klotski_cache_entries"), 1);

        // The same bytes under another θ are another key: a miss, planned.
        let (cache, other, _) = plan("?theta=0.7", &pretty);
        assert_eq!((cache.as_str(), other), ("miss", digest));
        assert_eq!(lookups(), (4, 2));
        assert_eq!(plan("?theta=0.7", &pretty).0, "hit");
        assert_eq!(metric(addr, "klotski_cache_entries"), 2);

        // A malformed body is refused each time it is sent, counts no
        // lookup and files nothing.
        let malformed = format!("{}x", &pretty[..pretty.len() / 2]);
        for _ in 0..2 {
            let (status, _, body) = request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &malformed);
            assert_eq!(status, 422, "{body}");
            assert!(body.contains("invalid NPD"), "{body}");
        }
        assert_eq!(lookups(), (5, 2));
        assert_eq!(metric(addr, "klotski_cache_entries"), 2);
        assert_eq!(metric(addr, "klotski_pipeline_executions_total"), 2);

        // The index holds the leader's bytes, not the other rendering's.
        let by_body = |body: &str| {
            let options = PlanRequestOptions::default().digest();
            service
                .shared
                .cache
                .get_by_body(Body::new(body.as_bytes()), options)
        };
        assert!(by_body(&pretty).is_some());
        assert!(by_body(&compact).is_none());
        assert!(by_body(&malformed).is_none());
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

    /// Sixteen distinct submissions race for four waiting places: exactly
    /// four become jobs — each leading, holding a slot and journaled — and
    /// the other twelve are refused before a job exists.
    #[test]
    fn a_refused_submission_never_becomes_a_job() {
        let dir = std::env::temp_dir().join(format!("klotski-serve-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(ServiceConfig {
            workers: 0,
            queue_depth: 4,
            cache_capacity: 0,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let npd = small_npd_json();
        let barrier = std::sync::Barrier::new(16);
        let mut answers: Vec<(u16, String)> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..16)
                .map(|i| {
                    let (npd, barrier) = (&npd, &barrier);
                    scope.spawn(move || {
                        let head = format!(
                            "POST /v1/plan?wait=0&theta=0.{} HTTP/1.1\r\nHost: t",
                            60 + i
                        );
                        barrier.wait();
                        let (status, _, body) = request(addr, &head, npd);
                        (status, body)
                    })
                })
                .collect();
            submitters.into_iter().map(|h| h.join().unwrap()).collect()
        });
        answers.sort();
        let statuses: Vec<u16> = answers.iter().map(|a| a.0).collect();
        assert_eq!(statuses, [[202; 4].as_slice(), &[503; 12]].concat());
        for (_, body) in &answers[4..] {
            let err: ErrorResponse = serde_json::from_str(body).unwrap();
            assert_eq!(err.error, "queue full (4 jobs queued); retry later");
        }
        assert_eq!(metric(addr, "klotski_coalesce_leaders_total"), 4);
        assert_eq!(metric(addr, "klotski_rejected_busy_total"), 12);
        assert_eq!(service.shared.jobs.live_slots(), 4);

        service.shutdown();
        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(replay.pending.len(), 4, "{:?}", replay.pending);
        let _ = std::fs::remove_dir_all(&dir);
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
}
