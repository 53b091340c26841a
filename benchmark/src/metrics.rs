//! The metric names this harness prints. `BENCHMARK.json` at the repository
//! root lists the same names; `ci.sh --smoke` fails when the two differ.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p10", "ms"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`. The prefix is the crate
/// the number belongs to; `bench.` is the harness itself. A layer a workload
/// never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("npd.decode_us", "us"),
    ("npd.digest_us", "us"),
    ("npd.to_region_us", "us"),
    ("npd.attach_encode_us", "us"),
    ("topology.build_region_ms", "ms"),
    ("topology.csr_build_ms", "ms"),
    ("topology.switches", "count"),
    ("topology.circuits", "count"),
    ("traffic.ensemble_realize_ms", "ms"),
    ("traffic.matrices", "count"),
    ("traffic.demands", "count"),
    ("core.spec_build_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.audit_ms", "ms"),
    ("core.astar.plan_ms", "ms"),
    ("core.dp.plan_ms", "ms"),
    ("core.satcheck_ms", "ms"),
    ("core.search_other_ms", "ms"),
    ("core.sat_checks", "count"),
    ("core.full_evaluations", "count"),
    ("core.esc_hit_ratio", "ratio"),
    ("core.states_visited", "count"),
    ("core.states_generated", "count"),
    ("core.check_us", "us"),
    ("core.check_scratch_us", "us"),
    ("core.ensemble_matrix_checks", "count"),
    ("core.ensemble_short_circuits", "count"),
    ("routing.replay_extra_us", "us"),
    ("routing.incr_evaluate_us", "us"),
    ("routing.incr_rebase_us", "us"),
    ("routing.incr_clean_ratio", "ratio"),
    ("routing.incr_dirty_dests", "count"),
    ("routing.incr_bytes", "bytes"),
    ("routing.footprint_bytes", "bytes"),
    ("routing.mask_us", "us"),
    ("routing.route_scratch_us", "us"),
    ("routing.summarize_us", "us"),
    ("parallel.dispatch_us", "us"),
    ("parallel.lanes2_speedup", "ratio"),
    ("controller.run_ms", "ms"),
    ("controller.initial_plan_ms", "ms"),
    ("controller.step_ms_p50", "ms"),
    ("controller.audit_live_us", "us"),
    ("controller.replan_ms_p50", "ms"),
    ("controller.steps", "count"),
    ("controller.replans", "count"),
    ("controller.pauses", "count"),
    ("service.hit_us_p50", "us"),
    ("service.healthz_us_p50", "us"),
    ("service.miss_ms_p50", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.follower_ratio", "ratio"),
    ("service.pipeline_executions", "count"),
    ("service.cache_evictions", "count"),
    ("service.shed", "count"),
    ("service.journal_bytes", "bytes"),
    ("service.journal_records", "count"),
    ("service.journal_compactions", "count"),
    ("core.astar.plan_ms.e", "ms"),
    ("core.validate_ms.e", "ms"),
    ("core.spec_build_ms.e", "ms"),
    ("topology.build_region_ms.e", "ms"),
    ("bench.op_ms_p50", "ms"),
    ("bench.op_ms_p90", "ms"),
    ("bench.cpu_ms_per_op", "ms"),
    ("bench.slice_ms", "ms"),
    ("bench.unaccounted_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Values measured by one run, keyed by a name from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a name in neither table: that is a bug in the harness, and
    /// it would otherwise drop the number silently.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is in no table"));
        self.0
            .insert(known.0, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Metrics,
    /// Ops (or requests) timed.
    pub attempted: u64,
    /// Ops that errored or returned wrong output.
    pub failed: u64,
    /// Correctness failures outside the timed ops (oracle, golden,
    /// determinism); any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.metrics.get(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_carries_every_metric_of_the_table() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metrics.set("setup_s", 0.25);
        let line = report.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        report.errors.push("golden mismatch".into());
        assert!(report
            .result_line(END_TO_END)
            .contains("\"correct\": false"));
    }
}
