//! Flight recorder: the controller's always-on black box.
//!
//! A [`FlightRecorder`] rides along with every run — independent of the
//! process-global trace sink, so it costs one ring-buffer write per batch
//! even when tracing is off — keeping the last N structured events
//! (steps, replans, rollbacks) in a [`RingSink`]. When the engine
//! safe-pauses, rolls back, or aborts, it freezes a [`FlightBundle`]: the
//! recent event window plus the diagnostic state an operator needs first
//! (violated constraint, observed-topology drift diff, replan budget
//! state, safe-point stack). The bundle lands on
//! [`ControllerReport::flight`] and is written to disk by
//! `klotski run --flight-dump <dir>`.
//!
//! Every recorded field is deterministic — step indices, verdicts,
//! bit-exact utilizations; never wall-clock — so a bundle is as replayable
//! as the run fingerprint it accompanies:
//! [`ControllerReport::fingerprint`] excludes the bundle, and a fixed
//! scenario seed produces byte-identical bundles at any thread count.
//!
//! [`ControllerReport::flight`]: crate::ControllerReport::flight
//! [`ControllerReport::fingerprint`]: crate::ControllerReport::fingerprint

use crate::engine::{ReplanRecord, RollbackRecord, StepRecord};
use crate::scenario::ReplanPolicy;
use klotski_telemetry::{RingSink, Sink};
use serde::{Deserialize, Map, Serialize, Value};

/// Default event-window size: enough to cover every batch of the presets'
/// runs and the tail of a long-horizon one.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// The last-N-events recorder. One per run, always on.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    ring: RingSink,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            ring: RingSink::new(capacity.max(1)),
        }
    }

    fn push(&self, obj: Map) {
        if let Ok(line) = serde_json::to_string(&Value::Object(obj)) {
            self.ring.write_line(&line);
        }
    }

    /// Records one applied batch and its shadow-audit verdict.
    pub(crate) fn step(&self, rec: &StepRecord) {
        let mut obj = Map::new();
        obj.insert("kind".into(), Value::String("step".into()));
        obj.insert("step".into(), Value::Number(rec.step as f64));
        obj.insert("action".into(), Value::String(rec.action.clone()));
        obj.insert("blocks".into(), Value::Number(rec.blocks as f64));
        obj.insert("canary".into(), Value::Bool(rec.canary));
        obj.insert("safe".into(), Value::Bool(rec.safe));
        obj.insert("max_utilization".into(), Value::Number(rec.max_utilization));
        obj.insert(
            "drift_circuits".into(),
            Value::Number(rec.drift_circuits as f64),
        );
        obj.insert(
            "drift_switches".into(),
            Value::Number(rec.drift_switches as f64),
        );
        obj.insert("paused".into(), Value::Bool(rec.paused));
        if let Some(reason) = &rec.pause_reason {
            obj.insert("pause_reason".into(), Value::String(reason.clone()));
        }
        if let Some(k) = rec.ensemble_fail_matrix {
            obj.insert("ensemble_fail_matrix".into(), Value::Number(k as f64));
        }
        self.push(obj);
    }

    /// Records one replanning attempt. Latency is deliberately omitted:
    /// bundles must stay machine-independent.
    pub(crate) fn replan(&self, rec: &ReplanRecord) {
        let mut obj = Map::new();
        obj.insert("kind".into(), Value::String("replan".into()));
        obj.insert("at_step".into(), Value::Number(rec.at_step as f64));
        obj.insert("ok".into(), Value::Bool(rec.ok));
        obj.insert("phases".into(), Value::Number(rec.phases as f64));
        if let Some(error) = &rec.error {
            obj.insert("error".into(), Value::String(error.clone()));
        }
        self.push(obj);
    }

    /// Records the rollback walk's outcome.
    pub(crate) fn rollback(&self, rec: &RollbackRecord) {
        let mut obj = Map::new();
        obj.insert("kind".into(), Value::String("rollback".into()));
        obj.insert("at_step".into(), Value::Number(rec.at_step as f64));
        obj.insert(
            "to_step".into(),
            match rec.to_step {
                Some(s) => Value::Number(s as f64),
                None => Value::String("initial".into()),
            },
        );
        obj.insert(
            "snapshots_skipped".into(),
            Value::Number(rec.snapshots_skipped as f64),
        );
        obj.insert("safe".into(), Value::Bool(rec.safe));
        self.push(obj);
    }

    /// Records a free-form deterministic note (deadline aborts and the
    /// like): `{"kind": <kind>, "step": <step>, "detail": <detail>}`.
    pub(crate) fn note(&self, kind: &str, step: usize, detail: &str) {
        let mut obj = Map::new();
        obj.insert("kind".into(), Value::String(kind.into()));
        obj.insert("step".into(), Value::Number(step as f64));
        obj.insert("detail".into(), Value::String(detail.into()));
        self.push(obj);
    }

    /// The retained event window, oldest first.
    pub(crate) fn lines(&self) -> Vec<String> {
        self.ring.lines()
    }
}

/// The diagnostics bundle frozen at a safe-pause, rollback, or abort.
/// Deterministic for a fixed scenario seed; excluded from the run
/// fingerprint so its presence never perturbs it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightBundle {
    /// Run (scenario or spec) name.
    pub name: String,
    /// What froze the bundle: `safe-pause` | `rollback` | `deadline-abort`.
    pub trigger: String,
    /// Step index at the trigger.
    pub at_step: usize,
    /// The violated constraint (audit violation or lookahead verdict), if
    /// one triggered the stop.
    pub violated_constraint: Option<String>,
    /// Circuits usable in the plan but down in the observed fleet.
    pub drift_circuits: usize,
    /// Switches up in the plan but down in the observed fleet.
    pub drift_switches: usize,
    /// Replans consumed when the bundle froze.
    pub replans_used: usize,
    /// The policy those replans were budgeted under.
    pub replan_budget: ReplanPolicy,
    /// Audited-safe snapshot stack, oldest first; -1 is the migration's
    /// initial state, other entries are the blessing step's index.
    pub safe_point_steps: Vec<i64>,
    /// The recorder's event window (JSONL, oldest first).
    pub events: Vec<String>,
}

impl FlightBundle {
    /// Serializes the bundle as pretty JSON (the `--flight-dump` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bundle serializes")
    }

    /// Parses a dumped bundle back; used by tests and CI smoke checks.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid flight bundle: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_the_newest_window() {
        let rec = FlightRecorder::new(2);
        for step in 0..4 {
            rec.note("tick", step, "x");
        }
        let lines = rec.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"step\":2"), "{lines:?}");
        assert!(lines[1].contains("\"step\":3"), "{lines:?}");
    }

    #[test]
    fn step_records_serialize_without_wall_clock_fields() {
        let rec = FlightRecorder::new(8);
        rec.step(&StepRecord {
            step: 3,
            action: "drain(ssw)".into(),
            blocks: 2,
            canary: true,
            safe: false,
            max_utilization: 0.81,
            drift_circuits: 4,
            drift_switches: 0,
            paused: true,
            pause_reason: Some("util 0.810 > theta".into()),
            ensemble_fail_matrix: None,
        });
        rec.replan(&ReplanRecord {
            at_step: 3,
            ok: false,
            phases: 0,
            error: Some("planner budget exceeded after 1 states".into()),
            latency_ms: 123.4,
            stats: Default::default(),
        });
        let lines = rec.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"pause_reason\""), "{}", lines[0]);
        assert!(
            !lines[1].contains("latency"),
            "wall clock leaked: {}",
            lines[1]
        );
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let rec = FlightRecorder::new(4);
        rec.note("step", 0, "ok");
        let bundle = FlightBundle {
            name: "tight-link-failure".into(),
            trigger: "rollback".into(),
            at_step: 2,
            violated_constraint: Some("util 0.9 > theta".into()),
            drift_circuits: 3,
            drift_switches: 1,
            replans_used: 1,
            replan_budget: ReplanPolicy::default(),
            safe_point_steps: vec![-1, 0, 1],
            events: rec.lines(),
        };
        let back = FlightBundle::from_json(&bundle.to_json()).unwrap();
        assert_eq!(back, bundle);
        assert!(FlightBundle::from_json("{").is_err());
    }
}
