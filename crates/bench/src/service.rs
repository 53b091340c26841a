//! Planning-service load generation: start an in-process daemon, hammer it
//! with concurrent clients, and report throughput, client-observed latency
//! percentiles, shed rate, and plan-cache effectiveness. The `report`
//! binary's `service` experiment renders a table and writes the raw
//! numbers to `BENCH_service.json`.

use crate::table::Table;
use klotski_npd::convert::region_to_npd;
use klotski_service::{Service, ServiceConfig};
use klotski_topology::presets::{self, PresetId};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load-generation configuration's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceRow {
    /// Concurrent client threads.
    pub clients: usize,
    /// Planner worker threads in the daemon.
    pub workers: usize,
    /// Bounded queue depth.
    pub queue_depth: usize,
    /// Requests attempted (all clients).
    pub requests: usize,
    /// 200 responses.
    pub ok: usize,
    /// 503 responses (shed by backpressure).
    pub shed: usize,
    /// Successful requests per second, wall-clock.
    pub throughput_rps: f64,
    /// Client-observed latency percentiles over 200s, milliseconds.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Fraction of 200s answered from the shared plan cache.
    pub cache_hit_rate: f64,
}

/// The JSON document written to `BENCH_service.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceReport {
    pub rows: Vec<ServiceRow>,
}

/// Minimal HTTP POST; returns (status, cache header hit?, latency).
fn post(addr: SocketAddr, path: &str, body: &str) -> Option<(u16, bool, Duration)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .ok()?;
    let msg = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).ok()?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).ok()?;
    let head_end = reply.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&reply[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let cached = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("x-klotski-cache:") && l.contains("hit"));
    Some((status, cached, start.elapsed()))
}

fn percentile(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Runs one load point: `clients` threads each issuing `per_client`
/// plan/audit submissions against a fresh daemon.
pub fn measure(clients: usize, per_client: usize, workers: usize) -> ServiceRow {
    let config = ServiceConfig {
        workers,
        queue_depth: 16,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let queue_depth = config.queue_depth;
    let service = Service::start(config).expect("bind service");
    let addr = service.local_addr();

    // Three request classes: default plan, tighter-θ plan (distinct cache
    // key), audit of the default document. The repetition across clients
    // is the bursty duplicate-submission pattern the cache exists for.
    let npd_a = Arc::new(
        region_to_npd(&presets::config(PresetId::A))
            .to_json_pretty()
            .unwrap(),
    );
    let paths = ["/v1/plan", "/v1/plan?theta=0.8", "/v1/audit"];

    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let npd = Arc::clone(&npd_a);
            std::thread::spawn(move || {
                let mut results = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let path = paths[(c + r) % paths.len()];
                    if let Some(outcome) = post(addr, path, &npd) {
                        results.push(outcome);
                    }
                    if outcome_was_shed(&results) {
                        // Brief backoff so shed clients retry instead of
                        // spinning the queue-full path.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                results
            })
        })
        .collect();
    let results: Vec<(u16, bool, Duration)> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let wall = start.elapsed();
    service.shutdown();

    let ok: Vec<&(u16, bool, Duration)> = results.iter().filter(|(s, _, _)| *s == 200).collect();
    let shed = results.iter().filter(|(s, _, _)| *s == 503).count();
    let hits = ok.iter().filter(|(_, cached, _)| *cached).count();
    let mut latencies: Vec<Duration> = ok.iter().map(|(_, _, d)| *d).collect();
    latencies.sort_unstable();
    ServiceRow {
        clients,
        workers,
        queue_depth,
        requests: clients * per_client,
        ok: ok.len(),
        shed,
        throughput_rps: ok.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        cache_hit_rate: if ok.is_empty() {
            0.0
        } else {
            hits as f64 / ok.len() as f64
        },
    }
}

fn outcome_was_shed(results: &[(u16, bool, Duration)]) -> bool {
    matches!(results.last(), Some((503, _, _)))
}

/// Merges one experiment's section into `BENCH_service.json`, preserving
/// every other key already in the document — the `service` and `fleet`
/// experiments share the file without clobbering each other. Returns the
/// note rendered under the experiment's table.
pub(crate) fn write_bench_section(key: &str, section_json: &str) -> String {
    let path = "BENCH_service.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde::Value>(&text).ok())
        .and_then(|value| match value {
            serde::Value::Object(map) => Some(map),
            _ => None,
        })
        .unwrap_or_default();
    let section = match serde_json::from_str::<serde::Value>(section_json) {
        Ok(v) => v,
        Err(e) => return format!("could not parse {key} section: {e}"),
    };
    doc.insert(key.to_string(), section);
    match serde_json::to_string_pretty(&serde::Value::Object(doc)) {
        Ok(json) => match std::fs::write(path, json) {
            Ok(()) => format!("wrote {key} into {path}"),
            Err(e) => format!("could not write {path}: {e}"),
        },
        Err(e) => format!("could not serialize {path}: {e}"),
    }
}

/// The per-arm sample whose throughput is the median of its round samples
/// (one preempted round cannot drag an arm's reported numbers).
fn median_row(mut samples: Vec<ServiceRow>) -> ServiceRow {
    samples.sort_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps));
    samples.remove(samples.len() / 2)
}

/// The `service` experiment: sweeps client counts against a fixed daemon
/// shape, renders the table, and merges its rows into
/// `BENCH_service.json`.
///
/// The client-count arms are measured in interleaved rounds with a
/// rotating start: arm-at-a-time measurement folds machine drift —
/// frequency scaling, page-cache warm-up — entirely into whichever arm
/// runs last, and a fixed order hands each arm a systematic inheritance
/// from its predecessor. `KLOTSKI_SERVICE_ROUNDS` sets the rounds
/// (default 3); each arm reports its median round.
pub fn service() -> String {
    let workers = klotski_parallel::default_lanes().clamp(2, 4);
    let arms = [4usize, 16, 32];
    let rounds = crate::env_usize("KLOTSKI_SERVICE_ROUNDS", 3).max(1);
    let mut samples: Vec<Vec<ServiceRow>> = vec![Vec::new(); arms.len()];
    for round in 0..rounds {
        for k in 0..arms.len() {
            let i = (round + k) % arms.len();
            samples[i].push(measure(arms[i], 8, workers));
        }
    }
    let rows: Vec<ServiceRow> = samples.into_iter().map(median_row).collect();
    let report = ServiceReport { rows };
    let json = serde_json::to_string_pretty(&report.rows).expect("report serializes");
    let note = write_bench_section("rows", &json);
    let mut t = Table::new([
        "clients",
        "workers",
        "requests",
        "ok",
        "shed",
        "rps",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "cache hit",
    ]);
    for r in &report.rows {
        t.row([
            r.clients.to_string(),
            r.workers.to_string(),
            r.requests.to_string(),
            r.ok.to_string(),
            r.shed.to_string(),
            format!("{:.1}", r.throughput_rps),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.0}%", r.cache_hit_rate * 100.0),
        ]);
    }
    format!(
        "== Planning service under concurrent load (preset A, queue depth 16) ==\n{}\n[{note}]",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_exact_ranks() {
        let samples: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile(&samples, 0.5), 5.0);
        assert_eq!(percentile(&samples, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn small_load_point_measures_cleanly() {
        let row = measure(4, 3, 2);
        assert_eq!(row.requests, 12);
        assert!(row.ok + row.shed <= row.requests);
        assert!(row.ok > 0, "no request succeeded");
        assert!(row.throughput_rps > 0.0);
        assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        assert!((0.0..=1.0).contains(&row.cache_hit_rate));
    }
}
