//! End-to-end tests of the planning daemon over real sockets, including
//! the tentpole acceptance criterion: a plan served over HTTP is
//! byte-identical to the file the `klotski` CLI writes for the same NPD.

use klotski::npd::api::{AcceptedResponse, AuditResponse, JobState, JobStatusResponse};
use klotski::npd::convert::region_to_npd;
use klotski::npd::Npd;
use klotski::service::{Service, ServiceConfig};
use klotski::topology::presets::{self, PresetId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends one HTTP/1.1 request and returns (status, headers, body).
fn http(addr: SocketAddr, head: &str, body: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let msg = format!("{head}\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    stream.write_all(msg.as_bytes()).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8(reply[..split].to_vec()).unwrap();
    let body = reply[split + 4..].to_vec();
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
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn npd_json(id: PresetId) -> String {
    region_to_npd(&presets::config(id))
        .to_json_pretty()
        .unwrap()
}

/// Tentpole acceptance: the daemon's plan response must be byte-for-byte
/// the file `klotski plan -o` writes, exercising the real CLI binary.
#[test]
fn served_plan_is_byte_identical_to_cli_output() {
    let npd = npd_json(PresetId::A);
    let dir = std::env::temp_dir().join(format!("klotski-svc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("a.json");
    let output = dir.join("a_plan.json");
    std::fs::write(&input, &npd).unwrap();

    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_klotski"))
        .args([
            "plan",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("run CLI");
    assert!(
        cli.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_bytes = std::fs::read(&output).unwrap();

    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let (status, headers, served_bytes) = http(
        service.local_addr(),
        "POST /v1/plan HTTP/1.1\r\nHost: t",
        &npd,
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served_bytes));
    assert_eq!(header(&headers, "x-klotski-cache"), Some("miss"));
    assert_eq!(
        served_bytes, cli_bytes,
        "served plan differs from CLI plan for the same NPD"
    );

    // And a second submission serves the identical bytes from cache.
    let (status, headers, cached_bytes) = http(
        service.local_addr(),
        "POST /v1/plan HTTP/1.1\r\nHost: t",
        &npd,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-klotski-cache"), Some("hit"));
    assert_eq!(cached_bytes, cli_bytes);

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `ensemble` query option plans against a traffic ensemble: the
/// response is byte-identical to the CLI's `--ensemble` output, and an
/// invalid spec is rejected up front with a 400.
#[test]
fn ensemble_query_option_matches_cli_and_validates() {
    let npd = npd_json(PresetId::A);
    let dir = std::env::temp_dir().join(format!("klotski-svc-ens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("a.json");
    let output = dir.join("a_ens_plan.json");
    std::fs::write(&input, &npd).unwrap();

    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_klotski"))
        .args([
            "plan",
            input.to_str().unwrap(),
            "--ensemble",
            "2@11",
            "-o",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("run CLI");
    assert!(
        cli.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_bytes = std::fs::read(&output).unwrap();

    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let (status, _, served_bytes) = http(
        service.local_addr(),
        "POST /v1/plan?ensemble=2@11 HTTP/1.1\r\nHost: t",
        &npd,
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served_bytes));
    assert_eq!(
        served_bytes, cli_bytes,
        "served ensemble plan differs from CLI plan for the same NPD"
    );

    // Malformed and semantically invalid ensembles are rejected before any
    // planning (or cache lookup) happens.
    for bad in ["ensemble=0@1", "ensemble=nope"] {
        let (status, _, body) = http(
            service.local_addr(),
            &format!("POST /v1/plan?{bad} HTTP/1.1\r\nHost: t"),
            &npd,
        );
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    }

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hostile document — counts or capacities the topology builders assert
/// on, or counts that would build until memory runs out — is a client
/// error: `400` naming the field (or what is too many) at admission, no job,
/// no worker touched, nothing counted as a failed job.
#[test]
fn hostile_npd_is_a_400_not_a_failed_job() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let series = |name: &str| -> String {
        let (_, _, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
        String::from_utf8(body)
            .unwrap()
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .to_string()
    };
    let before = (
        series("klotski_workers"),
        series("klotski_jobs_failed_total"),
    );

    let mut grids = region_to_npd(&presets::config(PresetId::A));
    grids.hgrid.layers[0].grids = 0;
    let mut capacity = region_to_npd(&presets::config(PresetId::A));
    capacity.eb.fauu_eb_gbps = -5.0;
    let mut pods = region_to_npd(&presets::config(PresetId::A));
    pods.fabric.buildings[0].pods = 10_000_000;
    for (npd, field) in [
        (grids, "hgrid.layers[0].grids"),
        (capacity, "eb.fauu_eb_gbps"),
        (pods, "switches"),
    ] {
        for endpoint in ["/v1/plan", "/v1/audit", "/v1/plan?wait=0"] {
            let (status, _, body) = http(
                addr,
                &format!("POST {endpoint} HTTP/1.1\r\nHost: t"),
                &npd.to_json_pretty().unwrap(),
            );
            let body = String::from_utf8_lossy(&body);
            assert_eq!(status, 400, "{endpoint}: {body}");
            assert!(
                body.contains("invalid request") && body.contains(field),
                "{body}"
            );
        }
    }

    let after = (
        series("klotski_workers"),
        series("klotski_jobs_failed_total"),
    );
    assert_eq!(before, after);
    assert_eq!(before.0, "klotski_workers 1");
    // The one worker is still there to plan.
    let (status, _, _) = http(
        addr,
        "POST /v1/plan HTTP/1.1\r\nHost: t",
        &npd_json(PresetId::A),
    );
    assert_eq!(status, 200);
    service.shutdown();
}

/// Async submission: 202 + job id, poll to Done, fetch the result, and the
/// audit endpoint returns a safety timeline consistent with the plan.
#[test]
fn async_jobs_and_audit_timeline() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        cache_capacity: 0, // every request really plans
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let npd = npd_json(PresetId::A);

    let (status, _, body) = http(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let accepted: AcceptedResponse =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let summary = loop {
        let (status, _, body) = http(
            addr,
            &format!("GET /v1/jobs/{} HTTP/1.1\r\nHost: t", accepted.job),
            "",
        );
        assert_eq!(status, 200);
        let poll: JobStatusResponse =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        match poll.state {
            JobState::Done => break poll.summary.expect("summary"),
            JobState::Failed => panic!("job failed: {:?}", poll.error),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
        assert!(Instant::now() < deadline, "job stuck");
    };
    assert!(summary.phases > 0);
    assert_eq!(summary.planner, "klotski-a*");

    let (status, _, body) = http(
        addr,
        &format!("GET /v1/jobs/{}/result HTTP/1.1\r\nHost: t", accepted.job),
        "",
    );
    assert_eq!(status, 200);
    let shipped = Npd::from_json(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(shipped.phases.len(), summary.phases);

    let (status, _, body) = http(addr, "POST /v1/audit HTTP/1.1\r\nHost: t", &npd);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let audit: AuditResponse = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(audit.audit.phases.len(), summary.phases);
    // Every phase of a valid plan stays under θ.
    assert!(audit.audit.peak_utilization() <= audit.audit.theta + 1e-9);

    service.shutdown();
}

/// Backpressure: with no workers draining, the bounded queue fills and the
/// next submission is shed with 503 + Retry-After, never an error or hang.
#[test]
fn overfilled_queue_sheds_load_with_503() {
    let service = Service::start(ServiceConfig {
        workers: 0,
        queue_depth: 3,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let npd = npd_json(PresetId::A);
    // One θ per submission: distinct keys, so each leads and occupies a
    // queue slot instead of following the first.
    let submit = |theta: &str| {
        let head = format!("POST /v1/plan?wait=0&theta={theta} HTTP/1.1\r\nHost: t");
        http(addr, &head, &npd)
    };

    for theta in ["0.70", "0.71", "0.72"] {
        let (status, _, _) = submit(theta);
        assert_eq!(status, 202);
    }
    for theta in ["0.73", "0.74"] {
        let (status, headers, body) = submit(theta);
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        assert_eq!(header(&headers, "retry-after"), Some("1"));
    }

    let (status, _, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("klotski_rejected_busy_total 2"), "{text}");
    assert!(text.contains("klotski_queue_depth 3"), "{text}");

    service.shutdown();
}

/// Sustained concurrency: 32 simultaneous audit submissions against a
/// bounded service all resolve — 200 for the admitted, 503 for the shed,
/// nothing hangs or panics (ISSUE acceptance: bounded memory under ≥32
/// concurrent audits).
#[test]
fn thirty_two_concurrent_audits_resolve_bounded() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 16,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let npd = std::sync::Arc::new(npd_json(PresetId::A));

    let clients: Vec<_> = (0..32)
        .map(|_| {
            let npd = std::sync::Arc::clone(&npd);
            std::thread::spawn(move || {
                let (status, _, _) = http(addr, "POST /v1/audit HTTP/1.1\r\nHost: t", &npd);
                status
            })
        })
        .collect();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "unexpected statuses: {statuses:?}"
    );
    assert!(statuses.contains(&200), "no audit succeeded: {statuses:?}");

    // The service is still healthy afterwards.
    let (status, _, body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t", "");
    assert_eq!((status, body.as_slice()), (200, b"ok".as_slice()));

    service.shutdown();
}

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn serve_daemon(port: u16, state_dir: &std::path::Path, workers: &str) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_klotski"))
        .args([
            "serve",
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--workers",
            workers,
            "--state-dir",
            state_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon")
}

fn wait_healthy(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(addr).is_err() {
        assert!(
            Instant::now() < deadline,
            "daemon did not come up on {addr}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, _, _) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t", "");
    assert_eq!(status, 200);
}

/// Crash recovery: kill the real daemon with a job admitted but not
/// finished, restart it on the same `--state-dir`, and the journal replay
/// must re-serve completed digests
/// from cache (byte-identical, no re-planning) and re-run the incomplete
/// job to the same bytes the CLI produces — even with a torn record at
/// the journal's tail.
#[test]
fn killed_daemon_recovers_completed_and_pending_work_from_its_journal() {
    let npd_a = npd_json(PresetId::A);
    // A second document with a distinct digest but the same planning cost:
    // preset A under a different tenant name.
    let npd_b = {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.name = "crash-recovery-pending".into();
        npd.to_json_pretty().unwrap()
    };
    let dir = std::env::temp_dir().join(format!("klotski-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = dir.join("state");
    std::fs::create_dir_all(&state_dir).unwrap();

    // Reference bytes for the job the recovered daemon must re-run.
    let input = dir.join("b.json");
    let output = dir.join("b_plan.json");
    std::fs::write(&input, &npd_b).unwrap();
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_klotski"))
        .args([
            "plan",
            input.to_str().unwrap(),
            "-o",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("run CLI");
    assert!(
        cli.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_b = std::fs::read(&output).unwrap();

    let port = free_port();
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let mut child = serve_daemon(port, &state_dir, "1");
    wait_healthy(addr);

    // One completed plan (journaled artifact) ...
    let (status, headers, cold_a) = http(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd_a);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&cold_a));
    assert_eq!(header(&headers, "x-klotski-cache"), Some("miss"));

    child.kill().unwrap();
    child.wait().unwrap();

    // ... and one admitted-but-unfinished job: a daemon without workers
    // journals the admit and never runs it, so the kill always lands
    // before the job finishes.
    let mut child = serve_daemon(port, &state_dir, "0");
    wait_healthy(addr);
    let (status, _, body) = http(addr, "POST /v1/plan?wait=0 HTTP/1.1\r\nHost: t", &npd_b);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    child.kill().unwrap();
    child.wait().unwrap();

    // A torn frame at the crash point must not poison replay: the tail is
    // truncated at the last good record.
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(state_dir.join("journal.log"))
        .unwrap();
    journal.write_all(&[0x2a, 0x00, 0x00]).unwrap();
    drop(journal);

    let mut child = serve_daemon(port, &state_dir, "1");
    wait_healthy(addr);

    // Completed digests are re-served from cache without re-planning.
    let (status, headers, warm_a) = http(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd_a);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&warm_a));
    assert_eq!(header(&headers, "x-klotski-cache"), Some("hit"));
    assert_eq!(warm_a, cold_a, "recovered plan differs from cold plan");

    // The interrupted job was re-admitted at startup; a duplicate
    // submission coalesces onto it (or hits its finished artifact) and
    // lands on exactly the bytes the CLI computes for the same NPD.
    let (status, _, warm_b) = http(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd_b);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&warm_b));
    assert_eq!(warm_b, cli_b, "replayed job diverged from the CLI plan");

    let (status, _, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: t", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("klotski_state_replayed_artifacts 1"),
        "{text}"
    );
    assert!(text.contains("klotski_state_replayed_jobs 1"), "{text}");

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown drains admitted jobs and then refuses new ones.
#[test]
fn shutdown_drains_inflight_work() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let npd = npd_json(PresetId::A);

    // A synchronous client whose job must be completed by the drain.
    let waiter = {
        let npd = npd.clone();
        std::thread::spawn(move || http(addr, "POST /v1/plan HTTP/1.1\r\nHost: t", &npd))
    };
    // Give it a moment to be admitted before we start draining.
    std::thread::sleep(Duration::from_millis(50));
    service.shutdown();

    let (status, _, body) = waiter.join().unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(Npd::from_json(std::str::from_utf8(&body).unwrap()).is_ok());

    // The listener is gone (or resets) after shutdown: a fresh submission
    // cannot succeed.
    assert!(
        TcpStream::connect(addr).is_err()
            || http(addr, "GET /healthz HTTP/1.1\r\nHost: t", "").0 != 200
    );
}
