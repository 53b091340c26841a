//! The service's metric series: handles into the daemon's own
//! [`Registry`], which `/metrics` renders ahead of the process-global one.
//!
//! The registry is per [`Service`](crate::Service), not the global: tests
//! run several daemons in one process and assert exact counts.
//!
//! Events the service itself counts are [`Counter`] handles bumped on the
//! request path; all of them are created at start, not on first increment,
//! so a scrape after a warm restart already reads
//! `klotski_pipeline_executions_total 0`. Values another module owns
//! (queue, workers, plan cache, journal) are read once per scrape and
//! published by [`ServiceMetrics::publish`] just before rendering.

use crate::cache::CacheStats;
use klotski_telemetry::{Counter, LogLinearHistogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// `(family, help)` of every series the service owns.
#[rustfmt::skip]
const FAMILIES: &[(&str, &str)] = &[
    ("klotski_uptime_seconds", "Seconds since service start."),
    ("klotski_http_requests_total", "HTTP requests accepted."),
    ("klotski_plan_requests_total", "Plan submissions."),
    ("klotski_audit_requests_total", "Audit submissions."),
    ("klotski_run_requests_total", "Scenario runs by terminal outcome."),
    ("klotski_sse_streams_total", "Event streams served by /v1/jobs/{id}/events."),
    ("klotski_sse_lag_dropped_total", "Trace lines evicted from a job's trace before its event-stream reader reached them."),
    ("klotski_bad_requests_total", "Requests rejected 4xx."),
    ("klotski_rejected_busy_total", "Submissions rejected 503 (backpressure)."),
    ("klotski_jobs_completed_total", "Jobs finished successfully."),
    ("klotski_jobs_failed_total", "Jobs finished with an error."),
    ("klotski_jobs_cancelled_total", "Jobs stopped by deadline expiry or cancellation."),
    ("klotski_queue_depth", "Jobs waiting in the bounded queue."),
    ("klotski_queue_capacity", "Bounded queue capacity."),
    ("klotski_workers", "Planner worker threads."),
    ("klotski_workers_busy", "Worker threads currently planning."),
    ("klotski_cache_entries", "Entries in the shared plan cache."),
    ("klotski_cache_hits_total", "Plan-cache hits."),
    ("klotski_cache_misses_total", "Plan-cache misses."),
    ("klotski_cache_hit_rate", "Plan-cache hit fraction."),
    ("klotski_cache_evictions_total", "Plan-cache SIEVE evictions."),
    ("klotski_coalesce_leaders_total", "Submissions that led an in-flight key."),
    ("klotski_coalesce_followers_total", "Submissions coalesced onto an in-flight leader."),
    ("klotski_pipeline_executions_total", "Planning pipeline executions (work not absorbed by cache or coalescing)."),
    ("klotski_journal_bytes", "Write-ahead job journal size."),
    ("klotski_journal_records_total", "Journal records appended since open."),
    ("klotski_journal_compactions_total", "Journal compactions performed."),
    ("klotski_journal_errors_total", "Journal writes that failed (the job was answered, not made durable)."),
    ("klotski_state_replayed_artifacts", "Artifacts restored from the journal at startup."),
    ("klotski_state_replayed_jobs", "Incomplete jobs re-enqueued from the journal at startup."),
    ("klotski_plan_latency_seconds", "Job latency, admission to completion."),
];

/// The `outcome` labels of `klotski_run_requests_total`:
/// [`ControllerReport::outcome_label`]'s vocabulary plus `failed` for jobs
/// that never produced a report (invalid scenario, initial-plan failure,
/// deadline at the initial plan).
///
/// [`ControllerReport::outcome_label`]: klotski_controller::ControllerReport::outcome_label
const RUN_OUTCOMES: [&str; 4] = ["completed", "rolled_back", "paused", "failed"];

/// One daemon's registry and the handles its request path records into
/// (what each counts is its [`FAMILIES`] help text). Everything is
/// relaxed-atomic: metrics never contend with the request path.
pub(crate) struct ServiceMetrics {
    /// Rendered by `GET /metrics`.
    pub registry: Registry,
    pub http_requests: Arc<Counter>,
    pub plan_requests: Arc<Counter>,
    pub audit_requests: Arc<Counter>,
    /// `POST /v1/run` jobs by terminal outcome, in [`RUN_OUTCOMES`] order
    /// (counted when the run resolves, not at admission — pre-admission
    /// rejects land in `bad_requests`/`rejected_busy`).
    run_outcomes: [Arc<Counter>; 4],
    pub sse_streams: Arc<Counter>,
    pub sse_lag_dropped: Arc<Counter>,
    pub bad_requests: Arc<Counter>,
    /// 503s of every cause: queue full, subscriber cap, draining.
    pub rejected_busy: Arc<Counter>,
    pub jobs_completed: Arc<Counter>,
    pub jobs_failed: Arc<Counter>,
    /// A subset of `jobs_failed`.
    pub jobs_cancelled: Arc<Counter>,
    /// Plan/audit submissions that became the one enqueued computation for
    /// their `(npd_digest, options_digest)` key.
    pub coalesce_leaders: Arc<Counter>,
    /// Plan/audit submissions answered by subscribing to an in-flight
    /// leader instead of enqueueing their own job.
    pub coalesce_followers: Arc<Counter>,
    /// Cache hits, coalesced followers, and journal-replayed answers never
    /// increment this.
    pub pipeline_executions: Arc<Counter>,
    pub state_replayed_artifacts: Arc<Counter>,
    pub state_replayed_jobs: Arc<Counter>,
    pub latency: Arc<LogLinearHistogram>,
    started: Instant,
}

/// What the `/metrics` handler reads at scrape time from the modules that
/// own the values.
pub(crate) struct Observed {
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Worker threads currently planning.
    pub workers_busy: usize,
    /// Total worker threads.
    pub workers: usize,
    /// Plan-cache counters and resident entry count.
    pub cache: CacheStats,
    /// Journal size in bytes (0 without `--state-dir`).
    pub journal_bytes: u64,
    /// Journal records appended since open.
    pub journal_records: u64,
    /// Journal compactions performed (the open-time rewrite included).
    pub journal_compactions: u64,
    /// Journal writes that failed.
    pub journal_errors: u64,
}

impl ServiceMetrics {
    /// A fresh registry holding every service series at zero, with the
    /// uptime clock started now.
    pub(crate) fn new() -> Self {
        let registry = Registry::default();
        for (family, help) in FAMILIES {
            registry.set_help(family, help);
        }
        let counter = |name: &str| registry.counter(name);
        Self {
            http_requests: counter("klotski_http_requests_total"),
            plan_requests: counter("klotski_plan_requests_total"),
            audit_requests: counter("klotski_audit_requests_total"),
            run_outcomes: RUN_OUTCOMES
                .map(|l| counter(&format!("klotski_run_requests_total{{outcome=\"{l}\"}}"))),
            sse_streams: counter("klotski_sse_streams_total"),
            sse_lag_dropped: counter("klotski_sse_lag_dropped_total"),
            bad_requests: counter("klotski_bad_requests_total"),
            rejected_busy: counter("klotski_rejected_busy_total"),
            jobs_completed: counter("klotski_jobs_completed_total"),
            jobs_failed: counter("klotski_jobs_failed_total"),
            jobs_cancelled: counter("klotski_jobs_cancelled_total"),
            coalesce_leaders: counter("klotski_coalesce_leaders_total"),
            coalesce_followers: counter("klotski_coalesce_followers_total"),
            pipeline_executions: counter("klotski_pipeline_executions_total"),
            state_replayed_artifacts: counter("klotski_state_replayed_artifacts"),
            state_replayed_jobs: counter("klotski_state_replayed_jobs"),
            latency: registry.loglinear("klotski_plan_latency_seconds"),
            started: Instant::now(),
            registry,
        }
    }

    /// The `klotski_run_requests_total` counter for an outcome label;
    /// unknown labels count as failed.
    pub(crate) fn run_outcome(&self, label: &str) -> &Counter {
        let known = RUN_OUTCOMES.iter().position(|l| *l == label);
        &self.run_outcomes[known.unwrap_or(RUN_OUTCOMES.len() - 1)]
    }

    /// Publishes the observed values into the registry. Monotone counts
    /// stay counters (raised to the owner's total); the rest are gauges.
    pub(crate) fn publish(&self, seen: &Observed) {
        let reg = &self.registry;
        let CacheStats {
            entries,
            hits,
            misses,
            evictions,
        } = seen.cache;
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        for (name, value) in [
            (
                "klotski_uptime_seconds",
                self.started.elapsed().as_secs_f64(),
            ),
            ("klotski_queue_depth", seen.queue_depth as f64),
            ("klotski_queue_capacity", seen.queue_capacity as f64),
            ("klotski_workers", seen.workers as f64),
            ("klotski_workers_busy", seen.workers_busy as f64),
            ("klotski_cache_entries", entries as f64),
            ("klotski_cache_hit_rate", hit_rate),
            ("klotski_journal_bytes", seen.journal_bytes as f64),
        ] {
            reg.gauge(name).set(value);
        }
        for (name, total) in [
            ("klotski_cache_hits_total", hits),
            ("klotski_cache_misses_total", misses),
            ("klotski_cache_evictions_total", evictions),
            ("klotski_journal_records_total", seen.journal_records),
            (
                "klotski_journal_compactions_total",
                seen.journal_compactions,
            ),
            ("klotski_journal_errors_total", seen.journal_errors),
        ] {
            reg.counter(name).raise_to(total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Every `family{labels}` the two-renderer `/metrics` emitted for the
    /// fixture below, minus its two `quantile="0.95"` lines and, since
    /// exposition v3, the per-shard cache families (the cache has no
    /// shards). A series may gain neighbours; it must not silently
    /// disappear.
    const SERIES_SINCE_V1: &str = r#"
        klotski_uptime_seconds klotski_http_requests_total klotski_plan_requests_total
        klotski_audit_requests_total klotski_run_requests_total{outcome="completed"}
        klotski_run_requests_total{outcome="rolled_back"} klotski_run_requests_total{outcome="paused"}
        klotski_run_requests_total{outcome="failed"} klotski_sse_streams_total
        klotski_sse_lag_dropped_total klotski_bad_requests_total klotski_rejected_busy_total
        klotski_jobs_completed_total klotski_jobs_failed_total klotski_jobs_cancelled_total
        klotski_queue_depth klotski_queue_capacity klotski_workers klotski_workers_busy
        klotski_cache_entries klotski_cache_hits_total klotski_cache_misses_total
        klotski_cache_hit_rate klotski_cache_evictions_total
        klotski_coalesce_leaders_total klotski_coalesce_followers_total
        klotski_pipeline_executions_total klotski_journal_bytes klotski_journal_records_total
        klotski_journal_compactions_total klotski_state_replayed_artifacts
        klotski_state_replayed_jobs klotski_plan_latency_seconds{quantile="0.5"}
        klotski_plan_latency_seconds{quantile="0.99"} klotski_plan_latency_seconds_count
        klotski_plan_latency_seconds_sum"#;

    /// The exact exposition text is an external contract — dashboards parse
    /// it. Pin every line (bar the uptime sample, which is wall-clock) on
    /// the fixture it has been pinned on since v1. Exposition v2: counters
    /// typed `counter`, families sorted by name, the latency summary under
    /// a header with p50/p99/p999 at 0.78 % resolution (the 12 ms sample
    /// reads 12.031 ms; v1 said 14.733 ms). Exposition v3: the three
    /// `klotski_cache_shard_*` families are gone with the shards and
    /// `klotski_journal_errors_total` is new.
    #[test]
    fn render_snapshot_is_stable() {
        let m = ServiceMetrics::new();
        m.http_requests.add(7);
        m.plan_requests.add(3);
        m.audit_requests.inc();
        m.run_outcome("completed").inc();
        m.run_outcome("rolled_back").inc();
        m.run_outcome("bogus-label").inc();
        m.sse_streams.add(2);
        m.sse_lag_dropped.add(5);
        m.jobs_completed.add(4);
        m.jobs_failed.add(2);
        m.jobs_cancelled.inc();
        m.coalesce_leaders.add(2);
        m.coalesce_followers.add(6);
        m.pipeline_executions.add(2);
        m.state_replayed_artifacts.add(3);
        m.state_replayed_jobs.inc();
        m.latency.record(Duration::from_millis(12));
        m.publish(&Observed {
            queue_depth: 2,
            queue_capacity: 64,
            workers_busy: 1,
            workers: 4,
            cache: CacheStats {
                entries: 5,
                hits: 9,
                misses: 1,
                evictions: 3,
            },
            journal_bytes: 4096,
            journal_records: 11,
            journal_compactions: 1,
            journal_errors: 0,
        });
        let text = m.registry.render_prometheus();

        let samples = text.lines().filter(|l| !l.starts_with('#'));
        let names: Vec<&str> = samples
            .filter_map(|l| Some(l.rsplit_once(' ')?.0))
            .collect();
        for series in SERIES_SINCE_V1.split_whitespace() {
            assert!(names.contains(&series), "missing {series} in:\n{text}");
        }

        let pinned: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with("klotski_uptime_seconds "))
            .collect();
        let expected = "\
# HELP klotski_audit_requests_total Audit submissions.
# TYPE klotski_audit_requests_total counter
klotski_audit_requests_total 1
# HELP klotski_bad_requests_total Requests rejected 4xx.
# TYPE klotski_bad_requests_total counter
klotski_bad_requests_total 0
# HELP klotski_cache_entries Entries in the shared plan cache.
# TYPE klotski_cache_entries gauge
klotski_cache_entries 5
# HELP klotski_cache_evictions_total Plan-cache SIEVE evictions.
# TYPE klotski_cache_evictions_total counter
klotski_cache_evictions_total 3
# HELP klotski_cache_hit_rate Plan-cache hit fraction.
# TYPE klotski_cache_hit_rate gauge
klotski_cache_hit_rate 0.9
# HELP klotski_cache_hits_total Plan-cache hits.
# TYPE klotski_cache_hits_total counter
klotski_cache_hits_total 9
# HELP klotski_cache_misses_total Plan-cache misses.
# TYPE klotski_cache_misses_total counter
klotski_cache_misses_total 1
# HELP klotski_coalesce_followers_total Submissions coalesced onto an in-flight leader.
# TYPE klotski_coalesce_followers_total counter
klotski_coalesce_followers_total 6
# HELP klotski_coalesce_leaders_total Submissions that led an in-flight key.
# TYPE klotski_coalesce_leaders_total counter
klotski_coalesce_leaders_total 2
# HELP klotski_http_requests_total HTTP requests accepted.
# TYPE klotski_http_requests_total counter
klotski_http_requests_total 7
# HELP klotski_jobs_cancelled_total Jobs stopped by deadline expiry or cancellation.
# TYPE klotski_jobs_cancelled_total counter
klotski_jobs_cancelled_total 1
# HELP klotski_jobs_completed_total Jobs finished successfully.
# TYPE klotski_jobs_completed_total counter
klotski_jobs_completed_total 4
# HELP klotski_jobs_failed_total Jobs finished with an error.
# TYPE klotski_jobs_failed_total counter
klotski_jobs_failed_total 2
# HELP klotski_journal_bytes Write-ahead job journal size.
# TYPE klotski_journal_bytes gauge
klotski_journal_bytes 4096
# HELP klotski_journal_compactions_total Journal compactions performed.
# TYPE klotski_journal_compactions_total counter
klotski_journal_compactions_total 1
# HELP klotski_journal_errors_total Journal writes that failed (the job was answered, not made durable).
# TYPE klotski_journal_errors_total counter
klotski_journal_errors_total 0
# HELP klotski_journal_records_total Journal records appended since open.
# TYPE klotski_journal_records_total counter
klotski_journal_records_total 11
# HELP klotski_pipeline_executions_total Planning pipeline executions (work not absorbed by cache or coalescing).
# TYPE klotski_pipeline_executions_total counter
klotski_pipeline_executions_total 2
# HELP klotski_plan_latency_seconds Job latency, admission to completion.
# TYPE klotski_plan_latency_seconds summary
klotski_plan_latency_seconds{quantile=\"0.5\"} 0.012031
klotski_plan_latency_seconds{quantile=\"0.99\"} 0.012031
klotski_plan_latency_seconds{quantile=\"0.999\"} 0.012031
klotski_plan_latency_seconds_count 1
klotski_plan_latency_seconds_sum 0.012000
# HELP klotski_plan_requests_total Plan submissions.
# TYPE klotski_plan_requests_total counter
klotski_plan_requests_total 3
# HELP klotski_queue_capacity Bounded queue capacity.
# TYPE klotski_queue_capacity gauge
klotski_queue_capacity 64
# HELP klotski_queue_depth Jobs waiting in the bounded queue.
# TYPE klotski_queue_depth gauge
klotski_queue_depth 2
# HELP klotski_rejected_busy_total Submissions rejected 503 (backpressure).
# TYPE klotski_rejected_busy_total counter
klotski_rejected_busy_total 0
# HELP klotski_run_requests_total Scenario runs by terminal outcome.
# TYPE klotski_run_requests_total counter
klotski_run_requests_total{outcome=\"completed\"} 1
klotski_run_requests_total{outcome=\"failed\"} 1
klotski_run_requests_total{outcome=\"paused\"} 0
klotski_run_requests_total{outcome=\"rolled_back\"} 1
# HELP klotski_sse_lag_dropped_total Trace lines evicted from a job's trace before its event-stream reader reached them.
# TYPE klotski_sse_lag_dropped_total counter
klotski_sse_lag_dropped_total 5
# HELP klotski_sse_streams_total Event streams served by /v1/jobs/{id}/events.
# TYPE klotski_sse_streams_total counter
klotski_sse_streams_total 2
# HELP klotski_state_replayed_artifacts Artifacts restored from the journal at startup.
# TYPE klotski_state_replayed_artifacts counter
klotski_state_replayed_artifacts 3
# HELP klotski_state_replayed_jobs Incomplete jobs re-enqueued from the journal at startup.
# TYPE klotski_state_replayed_jobs counter
klotski_state_replayed_jobs 1
# HELP klotski_uptime_seconds Seconds since service start.
# TYPE klotski_uptime_seconds gauge
# HELP klotski_workers Planner worker threads.
# TYPE klotski_workers gauge
klotski_workers 4
# HELP klotski_workers_busy Worker threads currently planning.
# TYPE klotski_workers_busy gauge
klotski_workers_busy 1";
        assert_eq!(pinned.join("\n"), expected);
    }
}
