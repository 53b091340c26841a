//! `GET /v1/jobs/{id}/events`: a job's trace as server-sent events,
//! replayed from its first kept line, then live until the job settles.

use crate::http;
use crate::jobs::{Cursor, Job, JobError, JobOutput};
use crate::Shared;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Keep-alive comment interval on an idle event stream.
const SSE_HEARTBEAT: Duration = Duration::from_secs(1);

/// A chunked `text/event-stream` of the job's trace lines, with heartbeats
/// while idle and a terminal `end` event carrying the job's outcome once it
/// has settled and every kept line is sent — for run jobs, the same outcome
/// label and fingerprint the result endpoint's headers carry, byte for
/// byte.
pub(crate) fn stream_events(
    stream: &mut TcpStream,
    job: &Job,
    shared: &Shared,
) -> std::io::Result<()> {
    // Shed before streaming: every accepted stream pins a connection
    // thread until its job settles.
    if shared.sse_active.fetch_add(1, Ordering::SeqCst) >= shared.config.sse_max_subscribers {
        shared.sse_active.fetch_sub(1, Ordering::SeqCst);
        return shared.busy("too many event subscribers").write_to(stream);
    }
    let result = serve_events(stream, job, shared);
    shared.sse_active.fetch_sub(1, Ordering::SeqCst);
    result
}

fn serve_events(stream: &mut TcpStream, job: &Job, shared: &Shared) -> std::io::Result<()> {
    shared.metrics.sse_streams.inc();
    http::write_chunked_head(
        stream,
        200,
        &[
            ("Content-Type", "text/event-stream"),
            ("Cache-Control", "no-cache"),
        ],
    )?;
    let mut cursor = Cursor::default();
    loop {
        let (lines, settled) = job.follow(&mut cursor, SSE_HEARTBEAT);
        for line in &lines {
            write_event(stream, "trace", line)?;
        }
        if let Some(outcome) = &settled {
            shared.metrics.sse_lag_dropped.add(cursor.missed);
            write_event(stream, "end", &terminal_event(outcome, cursor.missed))?;
            return http::finish_chunked(stream);
        }
        if lines.is_empty() {
            http::write_chunk(stream, b": heartbeat\n\n")?;
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
fn terminal_event(outcome: &Result<JobOutput, JobError>, dropped: u64) -> String {
    let mut obj = serde::Map::new();
    match outcome {
        Ok(JobOutput::Run(run)) => {
            obj.insert(
                "outcome".into(),
                serde::Value::String(run.report.outcome_label().into()),
            );
            obj.insert(
                "fingerprint".into(),
                serde::Value::String(format!("{:016x}", run.report.fingerprint())),
            );
        }
        Ok(JobOutput::Plan(artifact)) => {
            obj.insert("outcome".into(), serde::Value::String("done".into()));
            obj.insert(
                "digest".into(),
                serde::Value::String(artifact.summary.npd_digest.clone()),
            );
        }
        Err(e) => {
            obj.insert("outcome".into(), serde::Value::String("failed".into()));
            obj.insert("status".into(), serde::Value::Number(e.status as f64));
            obj.insert("error".into(), serde::Value::String(e.message.clone()));
        }
    }
    obj.insert("lag_dropped".into(), serde::Value::Number(dropped as f64));
    serde_json::to_string(&serde::Value::Object(obj)).unwrap_or_else(|_| "{}".into())
}

#[cfg(test)]
mod tests {
    use crate::jobs::{Admission, Cursor, JobError, JobKind, Source, TRACE_CAPACITY};
    use crate::testkit::{header, metric, request, small_npd_json, stream_request};
    use crate::work::tests::{arm, Gate};
    use crate::work::{settle, Outcome, Work};
    use crate::{Service, ServiceConfig};
    use klotski_npd::api::{fnv1a, AcceptedResponse};
    use std::time::{Duration, Instant};

    /// Opened by the streaming test once its subscriber is attached.
    static EVENTS_GATE: Gate = Gate::closed();

    #[test]
    fn event_stream_follows_a_run_to_its_terminal_event() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        // A tight progress interval so planner progress reaches the stream.
        let mut scenario = klotski_controller::Scenario::sample();
        scenario.progress_every = Some(1);
        let scenario = serde_json::to_string(&scenario).unwrap();

        // Hold the single worker on a run that waits on the gate, then
        // queue the observed run behind it: the subscriber below attaches
        // while job 2 is still queued, so the stream carries its trace from
        // the first event.
        let mut holder = klotski_controller::Scenario::sample();
        holder.name = "events-gate".into();
        arm(fnv1a(holder.name.as_bytes()), |_| EVENTS_GATE.hold());
        let holder = serde_json::to_string(&holder).unwrap();
        let (status, _, body) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &holder);
        assert_eq!(status, 202, "{body}");
        let (status, _, body) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &scenario);
        assert_eq!(status, 202, "{body}");
        let accepted: AcceptedResponse = serde_json::from_str(&body).unwrap();

        let subscriber = {
            let path = format!("/v1/jobs/{}/events", accepted.job);
            std::thread::spawn(move || (stream_request(addr, &path), Instant::now()))
        };
        let patience = Instant::now() + Duration::from_secs(20);
        while metric(addr, "klotski_sse_streams_total") < 1 {
            assert!(Instant::now() < patience, "the subscriber never attached");
            std::thread::sleep(Duration::from_millis(1));
        }
        EVENTS_GATE.open();
        let job = service
            .shared
            .jobs
            .get(accepted.job.parse().unwrap())
            .expect("job");
        let settled_outcome = job.wait(Duration::from_secs(60)).expect("the run settles");
        assert!(settled_outcome.is_ok(), "the run succeeds");
        let settled = Instant::now();
        let ((status, headers, events), ended) = subscriber.join().unwrap();
        // The settle wakes the stream: its `end` follows at once, not at
        // the next heartbeat.
        let lag = ended.saturating_duration_since(settled);
        assert!(lag < Duration::from_millis(200), "end trailed by {lag:?}");
        assert_eq!(status, 200, "{events}");
        assert_eq!(header(&headers, "content-type"), Some("text/event-stream"));

        // Live trace lines from this run streamed before the terminal
        // event: controller phases, (tight-interval) planner progress and,
        // closed before the settle, the job's own span.
        assert!(events.contains("event: trace\n"), "{events}");
        assert!(events.contains("controller."), "{events}");
        assert!(events.contains("astar.progress"), "{events}");
        let job_span = events
            .find(r#""name":"service.job""#)
            .expect("service.job span");
        assert!(job_span < events.find("event: end\n").unwrap(), "{events}");

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

        // The job's id was handed out, so it kept its trace: a subscriber
        // that attaches after the settle replays the same stream.
        let path = format!("/v1/jobs/{}/events", accepted.job);
        let (status, _, replayed) = stream_request(addr, &path);
        assert_eq!(status, 200, "{replayed}");
        assert_eq!(sse(&replayed), sse(&events));
        assert_eq!(metric(addr, "klotski_sse_streams_total"), 2);

        service.shutdown();
    }

    /// A stream's events as `(name, data)` pairs, heartbeats left out.
    fn sse(stream: &str) -> Vec<(&str, &str)> {
        stream
            .split("\n\n")
            .filter_map(|event| {
                let (name, data) = event.split_once('\n')?;
                Some((name.strip_prefix("event: ")?, data.strip_prefix("data: ")?))
            })
            .collect()
    }

    /// The trace lines and the `end` event of one stream.
    fn trace_and_end(stream: &str) -> (Vec<&str>, serde::Map) {
        let mut events = sse(stream);
        let (name, end) = events.pop().expect("an end event");
        assert_eq!(name, "end", "{stream}");
        assert!(events.iter().all(|(name, _)| *name == "trace"), "{stream}");
        let end: serde::Value = serde_json::from_str(end).unwrap();
        let end = end.as_object().expect("end event is an object").clone();
        (events.into_iter().map(|(_, data)| data).collect(), end)
    }

    fn lag_dropped(end: &serde::Map) -> u64 {
        end.get("lag_dropped").and_then(|v| v.as_f64()).unwrap() as u64
    }

    #[test]
    fn a_synchronous_job_keeps_no_trace_once_settled() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let (status, _, body) =
            request(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &small_npd_json());
        assert_eq!(status, 200, "{body}");
        // The daemon's first job, answered with its result, never its id.
        let job = service.shared.jobs.get(1).expect("job 1");
        let mut cursor = Cursor::default();
        let (lines, settled) = job.follow(&mut cursor, Duration::ZERO);
        assert!(lines.is_empty() && settled.is_some());
        assert!(
            cursor.missed > 0,
            "the plan traced, and its settle evicted it"
        );

        let (status, _, events) = stream_request(addr, "/v1/jobs/1/events");
        assert_eq!(status, 200, "{events}");
        let (trace, end) = trace_and_end(&events);
        assert!(trace.is_empty(), "{events}");
        assert_eq!(end.get("outcome").and_then(|v| v.as_str()), Some("done"));
        assert_eq!(lag_dropped(&end), cursor.missed);
        service.shutdown();
    }

    #[test]
    fn end_event_follows_the_settle_not_the_heartbeat() {
        // A job that settles with no trace line after it: only the settle's
        // wake can end the stream before the next heartbeat, a second on.
        // No workers, so the test settles it.
        let service = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let work = Work::Run {
            scenario: klotski_controller::Scenario::sample(),
            deadline_ms: None,
        };
        let jobs = &service.shared.jobs;
        let source = Source::Client {
            journal: None,
            by_id: false,
        };
        let Admission::Leader(job) = jobs.admit(JobKind::Run, work, source) else {
            unreachable!("a keyless job leads");
        };
        let subscriber = {
            let path = format!("/v1/jobs/{}/events", job.id);
            std::thread::spawn(move || (stream_request(addr, &path), Instant::now()))
        };
        let patience = Instant::now() + Duration::from_secs(20);
        while metric(addr, "klotski_sse_streams_total") < 1 {
            assert!(Instant::now() < patience, "the subscriber never attached");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let the stream reach its wait for the next line.
        std::thread::sleep(Duration::from_millis(50));
        let settled = Instant::now();
        let error = JobError {
            status: 500,
            message: "settled by the test".into(),
        };
        settle(&service.shared, &job, Outcome::Failed(error));
        let ((status, _, events), ended) = subscriber.join().unwrap();
        assert_eq!(status, 200, "{events}");
        assert!(events.contains("event: end\n"), "{events}");
        let lag = ended.saturating_duration_since(settled);
        assert!(lag < Duration::from_millis(200), "end trailed by {lag:?}");
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

    /// Emits twice the job's trace bound on the worker thread, inside the
    /// job's scope, before the run's own work.
    fn chatter(_: &crate::Shared) {
        for line in 0..2 * TRACE_CAPACITY {
            klotski_telemetry::log_event!("test.chatter", "line" = line);
        }
    }

    #[test]
    fn lagging_readers_miss_counted_lines_without_changing_the_run() {
        let mut scenario = klotski_controller::Scenario::sample();
        scenario.name = "events-chatter".into();
        let baseline = klotski_controller::run_scenario(&scenario, None)
            .expect("baseline run")
            .fingerprint();
        arm(fnv1a(scenario.name.as_bytes()), chatter);

        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let body = serde_json::to_string(&scenario).unwrap();
        let (status, _, reply) = request(addr, "POST /v1/run?wait=0 HTTP/1.1\r\nHost: t", &body);
        assert_eq!(status, 202, "{reply}");
        let id = serde_json::from_str::<AcceptedResponse>(&reply)
            .unwrap()
            .job;
        let path = format!("/v1/jobs/{id}/events");
        // One reader follows the run as it goes; another comes once it has
        // settled, a whole trace behind.
        let live = {
            let path = path.clone();
            std::thread::spawn(move || stream_request(addr, &path))
        };
        let job = service.shared.jobs.get(id.parse().unwrap()).expect("job");
        let outcome = job.wait(Duration::from_secs(60)).expect("the run settles");
        let (status, result_headers, _) = request(
            addr,
            &format!("GET /v1/jobs/{id}/result HTTP/1.1\r\nHost: t"),
            "",
        );
        assert!(outcome.is_ok() && status == 200);
        assert_eq!(
            header(&result_headers, "x-klotski-run-fingerprint"),
            Some(format!("{baseline:016x}").as_str()),
            "a reader must not perturb the run"
        );

        let (_, _, late) = stream_request(addr, &path);
        let (late_trace, late_end) = trace_and_end(&late);
        let total = late_trace.len() as u64 + lag_dropped(&late_end);
        assert_eq!(
            late_trace.len(),
            TRACE_CAPACITY,
            "the job kept its newest lines"
        );
        assert!(total > 2 * TRACE_CAPACITY as u64, "{total}");
        // Every line of the trace reached the live reader or is counted as
        // missed by it.
        let (_, _, live) = live.join().unwrap();
        let (live_trace, live_end) = trace_and_end(&live);
        assert_eq!(live_trace.len() as u64 + lag_dropped(&live_end), total);
        assert_eq!(live_trace.last(), late_trace.last());
        assert_eq!(
            metric(addr, "klotski_sse_lag_dropped_total"),
            lag_dropped(&live_end) + lag_dropped(&late_end)
        );

        service.shutdown();
    }
}
