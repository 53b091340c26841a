//! `GET /v1/jobs/{id}/events`: a job's trace, live, as server-sent events.

use crate::http;
use crate::jobs::{Job, JobError, JobOutput};
use crate::Shared;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Per-subscriber event-queue bound: on overflow the oldest line is dropped
/// and the lag-drop counters advance — a stalled reader never blocks a
/// planner.
const SSE_QUEUE_CAPACITY: usize = 1024;

/// Keep-alive comment interval on an idle event stream.
const SSE_HEARTBEAT: Duration = Duration::from_secs(1);

/// A chunked `text/event-stream` of the job's trace lines from the
/// process-global event bus, with heartbeats while idle and a terminal
/// `end` event carrying the job's outcome — for run jobs, the same outcome
/// label and fingerprint the result endpoint's headers carry, byte for
/// byte.
pub(crate) fn stream_events(
    mut stream: TcpStream,
    job: &Job,
    shared: &Shared,
) -> std::io::Result<()> {
    // Shed before subscribing: every accepted stream pins a connection
    // thread and a bounded queue until the job finishes.
    if shared.sse_active.fetch_add(1, Ordering::SeqCst) >= shared.config.sse_max_subscribers {
        shared.sse_active.fetch_sub(1, Ordering::SeqCst);
        return shared
            .busy("too many event subscribers")
            .write_to(&mut stream);
    }
    let result = serve_events(&mut stream, job, shared);
    shared.sse_active.fetch_sub(1, Ordering::SeqCst);
    result
}

fn serve_events(stream: &mut TcpStream, job: &Job, shared: &Shared) -> std::io::Result<()> {
    // Subscribe before the first status check: lines published between a
    // "still running" verdict and a later subscription would be lost.
    let sub = klotski_telemetry::bus().subscribe(job.stream, SSE_QUEUE_CAPACITY);
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
        let (_, settled) = job.status();
        // Flush everything already queued so the end event is truly last.
        while let Some(line) = sub.try_recv() {
            write_event(stream, "trace", &line)?;
        }
        if let Some(outcome) = &settled {
            let dropped = sub.dropped();
            shared.metrics.sse_lag_dropped.add(dropped);
            let end = terminal_event(outcome, dropped);
            write_event(stream, "end", &end)?;
            return http::finish_chunked(stream);
        }
        match sub.recv_timeout(SSE_HEARTBEAT) {
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
    use crate::jobs::{Admission, JobKind};
    use crate::testkit::{header, metric, request, stream_request};
    use crate::work::tests::{arm, Gate};
    use crate::work::{settle, Outcome};
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
    fn end_event_follows_the_settle_not_the_heartbeat() {
        // A job that settles with no trace line after it: only the settle's
        // wake can end the stream before the next heartbeat, a second on.
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let Admission::Leader(job) = service.shared.jobs.admit(JobKind::Run, None) else {
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
        settle(&service.shared, &job, Outcome::Shed("settled by the test"));
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
}
