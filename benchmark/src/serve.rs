//! `serve_zipf`: one op is one `POST /v1/plan` over loopback to an
//! in-process `Service` (one worker, one lane, 64-entry cache, journal on),
//! on a new connection as the daemon requires. Two closed-loop clients draw
//! tenants zipf(1.1) from 256 documents derived from preset B — renamed per
//! tenant, so digests differ and planning cost does not. The working set is
//! 4× the cache: the median request is a cache read, the 90th percentile a
//! miss that plans, admits to the cache and appends to the journal.

use crate::calib::{Calibrator, Timeline};
use crate::metrics::Report;
use crate::staged::{audit_from_scratch, search_metrics, stage_metrics, staged_plan};
use crate::stats::{median, SplitMix64, Zipf};
use crate::trace::Tracer;
use crate::{golden, walk, Env};
use klotski_core::planner::SearchBudget;
use klotski_npd::api::{fnv1a, PlanRequestOptions};
use klotski_npd::convert::region_to_npd;
use klotski_npd::Npd;
use klotski_parallel::WorkerPool;
use klotski_service::pipeline::plan_document;
use klotski_service::{Service, ServiceConfig};
use klotski_topology::presets::{self, PresetId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TENANTS: usize = 256;
const CACHE_CAPACITY: usize = 64;
const ZIPF_S: f64 = 1.1;
const CLIENTS: usize = 2;
/// Requests each client sends per round (~0.4 s). Between rounds the clients
/// wait while the main thread times a calibration slice on the idle machine.
const ROUND: usize = 50;
/// Requests sent before timing starts: enough to fill the cache, so the
/// measured phase sees the steady-state hit ratio from its first request.
const WARMUP_REQUESTS: usize = 3 * ROUND * CLIENTS;
/// Every request opens a connection, and closed loopback connections linger
/// in TIME_WAIT: beyond ~15 000 per run the ephemeral ports run out.
const MAX_REQUESTS: usize = 12_000;

/// Distinguishes the state directories of the set-ups of one run.
static STATE_DIRS: AtomicUsize = AtomicUsize::new(0);

struct Ctx {
    service: Option<Service>,
    addr: SocketAddr,
    state_dir: PathBuf,
    docs: Vec<String>,
    /// FNV of the in-process `plan_document` bytes, per tenant.
    reference: Vec<u64>,
    zipf: Zipf,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// One response as a client saw it.
struct Reply {
    sent: Instant,
    connected: Instant,
    written: Instant,
    done: Instant,
    ok: bool,
    cached: bool,
    leader: bool,
}

impl Reply {
    fn ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

fn exchange(addr: SocketAddr, request: &[u8]) -> Option<(Instant, Instant, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .ok()?;
    stream.write_all(request).ok()?;
    let written = Instant::now();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).ok()?;
    Some((connected, written, reply))
}

/// `POST /v1/plan` with `doc` as the body; the reply is correct when it is a
/// 200 whose body hashes to `want`.
fn post_plan(addr: SocketAddr, doc: &str, want: u64) -> Reply {
    let request = format!(
        "POST /v1/plan HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{doc}",
        doc.len()
    );
    let sent = Instant::now();
    let got = exchange(addr, request.as_bytes());
    let done = Instant::now();
    let mut reply = Reply {
        sent,
        connected: done,
        written: done,
        done,
        ok: false,
        cached: false,
        leader: false,
    };
    let Some((connected, written, bytes)) = got else {
        return reply;
    };
    reply.connected = connected;
    reply.written = written;
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return reply;
    };
    let head = String::from_utf8_lossy(&bytes[..head_end]).to_ascii_lowercase();
    let header = |name: &str, value: &str| {
        head.lines()
            .any(|l| l.starts_with(name) && l.contains(value))
    };
    reply.ok = head.starts_with("http/1.1 200") && fnv1a(&bytes[head_end + 4..]) == want;
    reply.cached = header("x-klotski-cache:", "hit");
    reply.leader = header("x-klotski-coalesce:", "leader");
    reply
}

fn get(addr: SocketAddr, path: &str) -> Option<String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
    let (_, _, bytes) = exchange(addr, request.as_bytes())?;
    let text = String::from_utf8(bytes).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// First value of an unlabeled family in Prometheus text.
fn scrape(text: &str, family: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

impl Ctx {
    /// Closed loop in rounds: each client draws tenants from its own stream
    /// and sends the next request when the previous reply is complete,
    /// [`ROUND`] requests per round; rounds repeat until `until` has passed
    /// or `cap` requests were sent. Returns the replies in round order and
    /// the timeline, with one slice per round boundary when a calibrator is
    /// given (the warm-up needs none).
    fn drive(
        &self,
        seed: u64,
        phase: u64,
        until: Option<Instant>,
        cap: usize,
        mut calibrator: Option<&mut Calibrator>,
    ) -> (Vec<Reply>, Timeline) {
        let barrier = Barrier::new(CLIENTS + 1);
        let stop = AtomicBool::new(false);
        let mut timeline = Timeline::default();
        let per_client: Vec<Vec<Vec<Reply>>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (barrier, stop) = (&barrier, &stop);
                    scope.spawn(move || {
                        let mut rng =
                            SplitMix64::new(seed ^ (phase << 32) ^ ((c as u64 + 1) << 48));
                        let mut rounds = Vec::new();
                        loop {
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                return rounds;
                            }
                            rounds.push(
                                (0..ROUND)
                                    .map(|_| {
                                        let tenant = self.zipf.rank(rng.next_unit());
                                        post_plan(
                                            self.addr,
                                            &self.docs[tenant],
                                            self.reference[tenant],
                                        )
                                    })
                                    .collect::<Vec<_>>(),
                            );
                            barrier.wait();
                        }
                    })
                })
                .collect();
            let mut sent = 0;
            loop {
                if let Some(calibrator) = calibrator.as_deref_mut() {
                    timeline.slices.push((sent, calibrator.slice()));
                }
                let done = sent >= cap || until.is_some_and(|t| Instant::now() >= t);
                stop.store(done, Ordering::SeqCst);
                barrier.wait();
                if done {
                    break;
                }
                let round = Instant::now();
                barrier.wait();
                timeline.wall_s += round.elapsed().as_secs_f64();
                sent += ROUND * CLIENTS;
            }
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let rounds = per_client[0].len();
        let mut per_client: Vec<_> = per_client.into_iter().map(Vec::into_iter).collect();
        let replies: Vec<Reply> = (0..rounds)
            .flat_map(|_| {
                per_client
                    .iter_mut()
                    .flat_map(|c| c.next().expect("every client ran every round"))
                    .collect::<Vec<_>>()
            })
            .collect();
        timeline.ms = replies.iter().map(Reply::ms).collect();
        timeline.failed = replies.iter().filter(|r| !r.ok).count() as u64;
        (replies, timeline)
    }
}

fn setup(env: &Env) -> Result<Ctx, String> {
    let base = region_to_npd(&presets::config(PresetId::B));
    let tag = SplitMix64::new(env.seed).next_u64();
    let tenants: Vec<Npd> = (0..TENANTS)
        .map(|i| {
            let mut npd = base.clone();
            npd.name = format!("tenant-{tag:016x}-{i:03}");
            npd
        })
        .collect();
    let docs = tenants
        .iter()
        .map(|npd| npd.to_json_pretty().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;

    // The oracle: every tenant's plan bytes from an in-process
    // `plan_document`, one half of the tenants per core.
    let reference: Vec<u64> = std::thread::scope(|scope| {
        let halves: Vec<_> = tenants
            .chunks(TENANTS.div_ceil(CLIENTS))
            .map(|chunk| {
                scope.spawn(move || {
                    let pool = WorkerPool::shared(1);
                    chunk
                        .iter()
                        .map(|npd| {
                            plan_document(
                                npd,
                                &PlanRequestOptions::default(),
                                SearchBudget::default(),
                                Some(Arc::clone(&pool)),
                            )
                            .map(|a| fnv1a(&a.plan_json))
                            .map_err(|e| e.to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for half in halves {
            all.extend(half.join().expect("oracle thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    golden::check(
        env,
        "serve_zipf",
        &[("tenant0_plan_fnv", format!("{:016x}", reference[0]))],
    )?;

    let state_dir = env.dir.join("out").join(format!(
        "state-{}-{}",
        std::process::id(),
        STATE_DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).map_err(|e| format!("{}: {e}", state_dir.display()))?;
    let service = Service::start(ServiceConfig {
        workers: 1,
        lanes_per_worker: 1,
        cache_capacity: CACHE_CAPACITY,
        state_dir: Some(state_dir.clone()),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service start: {e}"))?;
    let ctx = Ctx {
        addr: service.local_addr(),
        service: Some(service),
        state_dir,
        docs,
        reference,
        zipf: Zipf::new(TENANTS, ZIPF_S),
    };
    let (_, warm) = ctx.drive(env.seed, 0, None, WARMUP_REQUESTS, None);
    if warm.failed > 0 {
        return Err(format!(
            "{} warm-up requests failed or returned wrong bytes",
            warm.failed
        ));
    }
    Ok(ctx)
}

pub fn run(env: &Env, calibrator: &mut Calibrator) -> Result<Report, String> {
    let mut report = Report::default();
    let (ctx, setup_s) = crate::repeat_setup(env, calibrator, || setup(env))?;
    report.metrics.set("setup_s", setup_s);

    let share = if env.traced { 0.7 } else { 1.0 };
    // Created before the load so that the clients' instants follow its epoch.
    let mut tr = Tracer::new();
    let started = Instant::now();
    let cpu0 = crate::stats::cpu_seconds();
    let until = started + Duration::from_secs_f64(env.seconds * share);
    let (replies, timeline) = ctx.drive(env.seed, 1, Some(until), MAX_REQUESTS, Some(calibrator));
    let cpu_s = crate::stats::cpu_seconds() - cpu0;
    if replies.is_empty() {
        return Err("no request round completed".into());
    }

    if !env.traced {
        crate::report_end_to_end("serve_zipf", &timeline, &mut report);
        return Ok(report);
    }

    // Every other request carries spans; the rest are the untraced control
    // for `bench.trace_overhead_pct`.
    for r in replies.iter().skip(1).step_by(2) {
        tr.next_op();
        let root = tr.record(0, "op", tr.ns_of(r.sent), tr.ns_of(r.done));
        tr.record(
            root,
            "http.connect",
            tr.ns_of(r.sent),
            tr.ns_of(r.connected),
        );
        tr.record(
            root,
            "http.write",
            tr.ns_of(r.connected),
            tr.ns_of(r.written),
        );
        tr.record(
            root,
            "http.wait_read",
            tr.ns_of(r.written),
            tr.ns_of(r.done),
        );
    }
    let plain = Timeline {
        ms: replies.iter().step_by(2).map(Reply::ms).collect(),
        slices: timeline.slices.clone(),
        ..Timeline::default()
    };
    let traced = Timeline {
        ms: replies.iter().skip(1).step_by(2).map(Reply::ms).collect(),
        ..Timeline::default()
    };
    let ok: Vec<&Reply> = replies.iter().filter(|r| r.ok).collect();
    let hit_us: Vec<f64> = ok
        .iter()
        .filter(|r| r.cached)
        .map(|r| r.ms() * 1e3)
        .collect();
    let miss_ms: Vec<f64> = ok
        .iter()
        .filter(|r| !r.cached && r.leader)
        .map(|r| r.ms())
        .collect();
    crate::report_traced(
        &mut report,
        &tr,
        &plain,
        &traced,
        cpu_s * 1e3 / replies.len() as f64,
    );
    report.failed = timeline.failed;
    let m = &mut report.metrics;
    m.set("service.hit_us_p50", median(&hit_us));
    m.set("service.miss_ms_p50", median(&miss_ms));
    let hit_ratio = hit_us.len() as f64 / ok.len().max(1) as f64;
    m.set("service.cache_hit_ratio", hit_ratio);
    if !(0.55..=0.85).contains(&hit_ratio) {
        // Outside this band p50 stops being a hit or p90 stops being a miss,
        // and the end-to-end metrics no longer mean what the README says.
        report
            .errors
            .push(format!("cache hit ratio {hit_ratio:.3} outside 0.55..0.85"));
    }

    let healthz: Vec<f64> = (0..200)
        .filter_map(|_| {
            let t = Instant::now();
            get(ctx.addr, "/healthz").map(|_| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    m.set("service.healthz_us_p50", median(&healthz));
    let text = get(ctx.addr, "/metrics").ok_or("GET /metrics failed")?;
    let leaders = scrape(&text, "klotski_coalesce_leaders_total");
    let followers = scrape(&text, "klotski_coalesce_followers_total");
    m.set(
        "service.follower_ratio",
        followers / (leaders + followers).max(1.0),
    );
    for (metric, family) in [
        (
            "service.pipeline_executions",
            "klotski_pipeline_executions_total",
        ),
        ("service.cache_evictions", "klotski_cache_evictions_total"),
        ("service.shed", "klotski_rejected_busy_total"),
        ("service.journal_bytes", "klotski_journal_bytes"),
        ("service.journal_records", "klotski_journal_records_total"),
        (
            "service.journal_compactions",
            "klotski_journal_compactions_total",
        ),
    ] {
        m.set(metric, scrape(&text, family));
    }

    // The same document planned in-process, whole and staged: what a miss
    // would cost without the daemon around it. (`bench.unaccounted_pct` was
    // taken above, over the request roots only.)
    let pool = WorkerPool::shared(1);
    let options = PlanRequestOptions::default();
    let mut whole = Timeline::default();
    let mut searches = Vec::new();
    let mut last = None;
    while started.elapsed().as_secs_f64() < env.seconds * 0.9 || whole.ms.is_empty() {
        whole.time(|| {
            Npd::from_json(&ctx.docs[0]).is_ok_and(|npd| {
                plan_document(
                    &npd,
                    &options,
                    SearchBudget::default(),
                    Some(Arc::clone(&pool)),
                )
                .is_ok_and(|a| fnv1a(&a.plan_json) == ctx.reference[0])
            })
        });
        let s = staged_plan(&mut tr, &ctx.docs[0], &options, &pool)?;
        if fnv1a(&s.plan_json) != ctx.reference[0] {
            report
                .errors
                .push("staged replay bytes differ from plan_document's".into());
        }
        searches.push(s.outcome.stats);
        last = Some(s);
    }
    if whole.failed > 0 {
        report
            .errors
            .push("in-process plan_document bytes differ from the oracle's".into());
    }
    let m = &mut report.metrics;
    m.set("service.overhead_ms", median(&miss_ms) - whole.raw(0.5));
    stage_metrics(&tr, m, false);
    let last = last.expect("the loop above runs at least once");
    search_metrics(m, &searches);

    audit_from_scratch(&last.spec, &last.outcome.plan)?;
    walk::probe(&mut tr, &last.spec, &last.outcome.plan, &mut report.metrics)?;
    crate::write_trace(env, "serve_zipf", &tr)?;
    Ok(report)
}
