//! Controller scenario sweep: scripted disturbance timelines executed end
//! to end by `klotski-controller` on preset A. Four timelines cover the
//! controller's whole state machine — a clean run (no disturbances), the
//! README's surge-plus-transient-failure sample (absorbed without
//! pausing), a tight-θ link failure that forces a safe-pause and an
//! incremental replan, and the same failure with a starved replanning
//! budget so the controller rolls back instead. The `report` binary's
//! `scenarios` experiment renders a table and writes the raw rows —
//! completion outcomes, replan latency, ESC/incremental reuse — to
//! `BENCH_scenarios.json`.

use crate::table::Table;
use klotski_controller::{run_scenario, ReplanPolicy, Scenario, ScenarioEvent};
use serde::Serialize;

/// One scenario execution in `BENCH_scenarios.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// Scenario name.
    pub scenario: String,
    /// Topology preset the migration runs on.
    pub preset: String,
    /// Phases of the initial plan.
    pub initial_phases: usize,
    /// Initial planning latency, milliseconds.
    pub initial_plan_ms: f64,
    /// Executed batches (canary batches count).
    pub steps: usize,
    /// Shadow audits run (one per executed batch).
    pub audits: u64,
    /// Safe-pauses triggered by a failed audit or lookahead.
    pub pauses: usize,
    /// Replanning attempts.
    pub replans: usize,
    /// Replanning attempts that produced a plan.
    pub replans_ok: usize,
    /// Total replanning latency across all attempts, milliseconds.
    pub replan_ms: f64,
    /// ESC cache entries live after the last replan (0 when no replan ran).
    pub replan_esc_entries: u64,
    /// Incremental destination advances across all replans (clean + dirty).
    pub replan_incremental: u64,
    /// `completed` | `rolled_back` | `paused` — the shared
    /// [`klotski_controller::ControllerReport::outcome_label`] vocabulary,
    /// matching the service's run counter labels and SSE terminal events.
    pub outcome: String,
    /// Deterministic run fingerprint (hex), stable across thread counts.
    pub fingerprint: String,
}

/// The JSON document written to `BENCH_scenarios.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ScenariosReport {
    pub rows: Vec<ScenarioRow>,
}

/// The four timelines of the sweep, all on preset A so the report stays
/// laptop-fast. The tight-θ pair is calibrated so the seeded link failure
/// pushes four circuits above the bound: with the default budget the
/// controller replans around it; with `max_states: 1` the replan starves
/// and the controller rolls back to the last audited-safe step.
fn timelines() -> Vec<Scenario> {
    let clean = Scenario {
        name: "clean".to_string(),
        events: vec![],
        ..Scenario::sample()
    };
    let tight = Scenario {
        name: "tight-link-failure".to_string(),
        theta: Some(0.62),
        events: vec![ScenarioEvent::link_failure(1, None, None)],
        ..Scenario::sample()
    };
    let starved = Scenario {
        name: "starved-rollback".to_string(),
        replan: ReplanPolicy {
            max_states: 1,
            ..ReplanPolicy::default()
        },
        ..tight.clone()
    };
    vec![clean, Scenario::sample(), tight, starved]
}

/// Runs every timeline and builds the JSON report.
pub fn measure() -> ScenariosReport {
    let rows = timelines()
        .iter()
        .map(|scenario| {
            let report = run_scenario(scenario, None)
                .unwrap_or_else(|e| panic!("scenario {} failed to start: {e}", scenario.name));
            let outcome = report.outcome_label();
            ScenarioRow {
                scenario: report.name.clone(),
                preset: scenario.preset.clone(),
                initial_phases: report.initial_phases,
                initial_plan_ms: report.initial_latency_ms,
                steps: report.steps.len(),
                audits: report.audit_stats.live_audits,
                pauses: report.pauses(),
                replans: report.replans.len(),
                replans_ok: report.replans.iter().filter(|r| r.ok).count(),
                // `+ 0.0` normalizes the empty sum's -0.0 for the JSON.
                replan_ms: report.replans.iter().map(|r| r.latency_ms).sum::<f64>() + 0.0,
                replan_esc_entries: report
                    .replans
                    .iter()
                    .map(|r| r.stats.esc_entries)
                    .max()
                    .unwrap_or(0),
                replan_incremental: report
                    .replans
                    .iter()
                    .map(|r| r.stats.incremental_clean + r.stats.incremental_dirty)
                    .sum(),
                outcome: outcome.to_string(),
                fingerprint: format!("{:016x}", report.fingerprint()),
            }
        })
        .collect();
    ScenariosReport { rows }
}

/// The `scenarios` experiment: renders the sweep as a table and writes
/// `BENCH_scenarios.json` in the working directory.
pub fn scenarios() -> String {
    let report = measure();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = "BENCH_scenarios.json";
    let note = match std::fs::write(path, &json) {
        Ok(()) => format!("wrote {path}"),
        Err(e) => format!("could not write {path}: {e}"),
    };
    let mut t = Table::new([
        "scenario",
        "steps",
        "audits",
        "pauses",
        "replans",
        "replan time",
        "esc/incr reuse",
        "outcome",
        "fingerprint",
    ]);
    for r in &report.rows {
        t.row([
            r.scenario.clone(),
            r.steps.to_string(),
            r.audits.to_string(),
            r.pauses.to_string(),
            format!("{}/{} ok", r.replans_ok, r.replans),
            if r.replans == 0 {
                "-".to_string()
            } else {
                format!("{:.1}ms", r.replan_ms)
            },
            format!("{}/{}", r.replan_esc_entries, r.replan_incremental),
            r.outcome.clone(),
            r.fingerprint.clone(),
        ]);
    }
    format!(
        "== Controller scenarios (preset A timelines) ==\n{}\n[{note}]",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_exercises_the_whole_state_machine() {
        let report = measure();
        assert_eq!(report.rows.len(), 4);
        let by_name = |n: &str| {
            report
                .rows
                .iter()
                .find(|r| r.scenario == n)
                .unwrap_or_else(|| panic!("missing row {n}"))
        };
        // Clean and sample runs complete without pausing.
        for name in ["clean", "surge-and-failure"] {
            let r = by_name(name);
            assert_eq!(r.outcome, "completed", "{name}");
            assert_eq!(r.pauses, 0, "{name}");
            assert_eq!(r.audits as usize, r.steps, "{name}: one audit per step");
        }
        // The tight-θ failure pauses, replans incrementally, and completes.
        let tight = by_name("tight-link-failure");
        assert_eq!(tight.outcome, "completed");
        assert!(tight.pauses > 0);
        assert!(tight.replans_ok >= 1);
        assert!(tight.replan_esc_entries > 0 && tight.replan_incremental > 0);
        // The starved variant fails its replan and rolls back.
        let starved = by_name("starved-rollback");
        assert_eq!(starved.outcome, "rolled_back");
        assert_eq!(starved.replans_ok, 0);
        assert!(starved.replans >= 1);
    }
}
