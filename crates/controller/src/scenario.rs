//! Scripted event timelines for controller runs.
//!
//! A scenario is a deterministic description of everything the world does
//! to a migration while the controller executes it: traffic surges
//! (§7.2's warm-storage incident), link failures, and external operations
//! (routine maintenance outside the migration's control). The file format
//! is JSON; `klotski run --scenario <file>` and `POST /v1/run` both consume
//! it, and the `scenarios` report experiment generates timelines
//! programmatically from the same types.
//!
//! Time is measured in *steps*: one step per applied batch of blocks
//! (canary batches count). Events fire when the controller finishes the
//! batch with the matching step index, which makes a scenario replayable —
//! the same file and seed always produce the same run.

use klotski_core::planner::PlannerKind;
use klotski_topology::presets::PresetId;
use klotski_traffic::{DemandClass, EnsembleSpec, SurgeEvent};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A scripted controller run: the migration to execute plus the event
/// timeline injected while it runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display name, echoed in the report.
    pub name: String,
    /// Topology preset to migrate (`a`–`e`, `e-dmag`, `e-ssw`).
    pub preset: String,
    /// Seed for every randomized choice (victim selection). Fixing it makes
    /// the run bit-deterministic at any thread count.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Utilization bound override; `None` keeps the preset default.
    #[serde(default)]
    pub theta: Option<f64>,
    /// Planner used for the initial plan and every replan: `astar` | `dp`.
    #[serde(default = "default_planner")]
    pub planner: String,
    /// Phase-cost α for the generalized cost function.
    #[serde(default)]
    pub alpha: f64,
    /// Blocks in the canary batch applied (and audited) before the rest of
    /// each phase. 0 disables canarying: whole phases apply at once.
    #[serde(default = "default_canary")]
    pub canary_blocks: usize,
    /// Organic demand growth per executed step (§7.1).
    #[serde(default)]
    pub demand_growth_per_step: f64,
    /// Worker-pool lane override; `None` uses the spec default.
    #[serde(default)]
    pub threads: Option<usize>,
    /// The event timeline.
    #[serde(default)]
    pub events: Vec<ScenarioEvent>,
    /// Replanning budget and rollback trigger.
    #[serde(default)]
    pub replan: ReplanPolicy,
    /// Planner progress-event interval override (expansions/states per
    /// `astar.progress`/`dp.progress` event); `None` keeps the core default
    /// of 4096. Dial down for fine-grained SSE streams.
    #[serde(default)]
    pub progress_every: Option<u64>,
    /// Operation-block scale override (Figure 11): >1 splits the default
    /// blocks into finer batches, stretching the run over more steps; `None`
    /// keeps the §5 default policy. Long-horizon benchmarks use this to
    /// drive hundreds-of-step runs on one preset.
    #[serde(default)]
    pub block_scale: Option<f64>,
    /// Traffic ensemble: plan AND shadow-audit every step against all K
    /// realized matrices (the realized demand plus its EWMA/surge variants).
    /// The spec carries its own explicit seed, so ensemble runs replay
    /// byte-for-byte. `None` keeps single-matrix behaviour.
    #[serde(default)]
    pub ensemble: Option<EnsembleSpec>,
}

/// What a scripted disturbance does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Traffic surge multiplying one demand class (or all) over a window of
    /// steps (§7.2's warm-storage incident).
    Surge,
    /// A circuit goes down outside the migration's control.
    LinkFailure,
    /// An external operation drains a switch the migration does not own.
    ExternalOp,
}

/// One scripted disturbance. Fields beyond the window only apply to some
/// kinds — `factor`/`class` to surges, `circuit` to link failures, `switch`
/// to external ops; [`Scenario::validate`] rejects mismatches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// What happens.
    pub kind: EventKind,
    /// First step (0-based) at which the event is active.
    pub at_step: usize,
    /// First step at which it is no longer active (exclusive). Required for
    /// surges; `None` means a failure/external op never recovers.
    #[serde(default)]
    pub until_step: Option<usize>,
    /// Surge demand multiplier (e.g. 1.4 = +40%).
    #[serde(default = "default_factor")]
    pub factor: f64,
    /// Surged demand class; `None` = all classes.
    #[serde(default)]
    pub class: Option<DemandClass>,
    /// Explicit victim circuit index for link failures; `None` picks a
    /// seeded-random usable circuit not involved in the migration.
    #[serde(default)]
    pub circuit: Option<usize>,
    /// Explicit victim switch index for external ops; `None` picks a
    /// seeded-random uninvolved switch.
    #[serde(default)]
    pub switch: Option<usize>,
}

impl ScenarioEvent {
    /// A surge on `class` (`None` = all classes) over `[at_step,
    /// until_step)`.
    pub fn surge(
        at_step: usize,
        until_step: usize,
        factor: f64,
        class: Option<DemandClass>,
    ) -> Self {
        Self {
            kind: EventKind::Surge,
            at_step,
            until_step: Some(until_step),
            factor,
            class,
            circuit: None,
            switch: None,
        }
    }

    /// A link failure over `[at_step, until_step)`; `circuit: None` picks a
    /// seeded-random uninvolved victim.
    pub fn link_failure(at_step: usize, until_step: Option<usize>, circuit: Option<usize>) -> Self {
        Self {
            kind: EventKind::LinkFailure,
            at_step,
            until_step,
            factor: default_factor(),
            class: None,
            circuit,
            switch: None,
        }
    }

    /// An external switch drain over `[at_step, until_step)`; `switch:
    /// None` picks a seeded-random uninvolved victim.
    pub fn external_op(at_step: usize, until_step: Option<usize>, switch: Option<usize>) -> Self {
        Self {
            kind: EventKind::ExternalOp,
            at_step,
            until_step,
            factor: default_factor(),
            class: None,
            circuit: None,
            switch,
        }
    }
}

/// Replanning budget; when a replan fails or the count runs out, the
/// controller rolls back to the last audited-safe state instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanPolicy {
    /// Replans allowed over the whole run.
    #[serde(default = "default_max_replans")]
    pub max_replans: usize,
    /// Search-state budget per replan. State budgets are deterministic;
    /// determinism across machines requires replans to be state-bound, not
    /// time-bound.
    #[serde(default = "default_max_states")]
    pub max_states: u64,
    /// Wall-clock limit per replan, milliseconds (a machine-speed backstop;
    /// see `max_states` for the deterministic bound).
    #[serde(default = "default_time_limit_ms")]
    pub time_limit_ms: u64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        Self {
            max_replans: default_max_replans(),
            max_states: default_max_states(),
            time_limit_ms: default_time_limit_ms(),
        }
    }
}

fn default_seed() -> u64 {
    23
}
fn default_planner() -> String {
    "astar".to_string()
}
fn default_canary() -> usize {
    1
}
fn default_max_replans() -> usize {
    8
}
fn default_max_states() -> u64 {
    2_000_000
}
fn default_time_limit_ms() -> u64 {
    30_000
}
fn default_factor() -> f64 {
    1.0
}

/// Scenario parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Parses and validates a scenario from JSON.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let s: Scenario =
            serde_json::from_str(json).map_err(|e| ScenarioError(format!("parse: {e}")))?;
        s.validate()?;
        Ok(s)
    }

    /// Resolves the preset id named by `preset`.
    pub fn preset_id(&self) -> Result<PresetId, ScenarioError> {
        PresetId::ALL
            .into_iter()
            .find(|id| id.to_string().eq_ignore_ascii_case(&self.preset))
            .ok_or_else(|| ScenarioError(format!("unknown preset {:?}", self.preset)))
    }

    /// Resolves the planner named by `planner`.
    pub fn planner_kind(&self) -> Result<PlannerKind, ScenarioError> {
        PlannerKind::parse(&self.planner).map_err(ScenarioError)
    }

    /// Structural validation: known preset/planner, sane windows and
    /// factors.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.preset_id()?;
        self.planner_kind()?;
        if let Some(theta) = self.theta {
            if !(theta > 0.0 && theta <= 1.0) {
                return Err(ScenarioError(format!("theta {theta} out of (0, 1]")));
            }
        }
        if !(self.demand_growth_per_step.is_finite() && self.demand_growth_per_step > -1.0) {
            return Err(ScenarioError(
                "demand growth must be finite and > -1".into(),
            ));
        }
        if self.replan.max_states == 0 {
            return Err(ScenarioError("replan.max_states must be positive".into()));
        }
        if self.progress_every == Some(0) {
            return Err(ScenarioError("progress_every must be positive".into()));
        }
        if let Some(scale) = self.block_scale {
            if !(scale.is_finite() && scale > 0.0) {
                return Err(ScenarioError(format!(
                    "block_scale {scale} must be finite and positive"
                )));
            }
        }
        if let Some(ensemble) = &self.ensemble {
            ensemble
                .validate()
                .map_err(|e| ScenarioError(format!("ensemble: {e}")))?;
        }
        for (i, ev) in self.events.iter().enumerate() {
            if let Some(until) = ev.until_step {
                if until <= ev.at_step {
                    return Err(ScenarioError(format!(
                        "event {i}: window [{}, {until}) is empty",
                        ev.at_step
                    )));
                }
            }
            match ev.kind {
                EventKind::Surge => {
                    if ev.until_step.is_none() {
                        return Err(ScenarioError(format!(
                            "event {i}: surge needs an until_step"
                        )));
                    }
                    if !(ev.factor.is_finite() && ev.factor >= 0.0) {
                        return Err(ScenarioError(format!(
                            "event {i}: surge factor {} must be finite and non-negative",
                            ev.factor
                        )));
                    }
                    if ev.circuit.is_some() || ev.switch.is_some() {
                        return Err(ScenarioError(format!(
                            "event {i}: surge takes no circuit/switch victim"
                        )));
                    }
                }
                EventKind::LinkFailure => {
                    if ev.switch.is_some() || ev.class.is_some() {
                        return Err(ScenarioError(format!(
                            "event {i}: link failure takes only an optional circuit"
                        )));
                    }
                }
                EventKind::ExternalOp => {
                    if ev.circuit.is_some() || ev.class.is_some() {
                        return Err(ScenarioError(format!(
                            "event {i}: external op takes only an optional switch"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// The scenario shipped with the README quickstart: one mid-migration
    /// east/west surge plus a transient link failure on preset A.
    pub fn sample() -> Self {
        Self {
            name: "surge-and-failure".to_string(),
            preset: "a".to_string(),
            seed: 23,
            theta: None,
            planner: "astar".to_string(),
            alpha: 0.0,
            canary_blocks: 1,
            demand_growth_per_step: 0.0,
            threads: None,
            events: vec![
                ScenarioEvent::surge(1, 4, 1.3, Some(DemandClass::RswToRsw)),
                ScenarioEvent::link_failure(2, Some(5), None),
            ],
            replan: ReplanPolicy::default(),
            progress_every: None,
            block_scale: None,
            ensemble: None,
        }
    }
}

/// The surge events of a timeline as `klotski-traffic` surges, which the
/// controller applies through [`klotski_traffic::surge::realized_demand`].
pub(crate) fn surges(events: &[ScenarioEvent]) -> Vec<SurgeEvent> {
    events
        .iter()
        .filter(|ev| ev.kind == EventKind::Surge)
        .map(|ev| SurgeEvent {
            from_step: ev.at_step,
            until_step: ev.until_step.unwrap_or(usize::MAX),
            factor: ev.factor,
            class: ev.class,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_roundtrips_and_validates() {
        let s = Scenario::sample();
        s.validate().unwrap();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn bad_preset_is_rejected() {
        let mut s = Scenario::sample();
        s.preset = "z".to_string();
        assert!(s.validate().is_err());
    }

    #[test]
    fn unknown_planner_is_rejected_with_the_front_ends_message() {
        let mut s = Scenario::sample();
        s.planner = "sat".to_string();
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "invalid scenario: unknown planner \"sat\" (expected \"astar\" or \"dp\")"
        );
    }

    #[test]
    fn empty_surge_window_is_rejected() {
        let mut s = Scenario::sample();
        s.events = vec![ScenarioEvent::surge(3, 3, 1.5, None)];
        assert!(s.validate().is_err());
    }

    #[test]
    fn mismatched_victim_fields_are_rejected() {
        let mut s = Scenario::sample();
        let mut ev = ScenarioEvent::surge(0, 2, 1.5, None);
        ev.circuit = Some(3);
        s.events = vec![ev];
        assert!(s.validate().is_err());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let s = Scenario::from_json(r#"{"name": "min", "preset": "a"}"#).unwrap();
        assert_eq!(s.seed, 23);
        assert_eq!(s.planner, "astar");
        assert_eq!(s.canary_blocks, 1);
        assert_eq!(s.replan, ReplanPolicy::default());
        assert!(s.events.is_empty());
    }

    #[test]
    fn malformed_event_kind_is_a_parse_error() {
        let err = Scenario::from_json(
            r#"{"name": "x", "preset": "a",
                "events": [{"kind": "Meteor", "at_step": 0}]}"#,
        )
        .unwrap_err();
        assert!(err.0.starts_with("parse:"), "{err}");
    }

    #[test]
    fn negative_times_are_parse_errors() {
        for event in [
            r#"{"kind": "LinkFailure", "at_step": -3}"#,
            r#"{"kind": "LinkFailure", "at_step": 1, "until_step": -3}"#,
        ] {
            let json = format!(r#"{{"name": "x", "preset": "a", "events": [{event}]}}"#);
            let err = Scenario::from_json(&json).unwrap_err();
            assert!(err.0.starts_with("parse:"), "{event}: {err}");
        }
    }

    #[test]
    fn zero_progress_interval_is_rejected() {
        let err = Scenario::from_json(r#"{"name": "x", "preset": "a", "progress_every": 0}"#)
            .unwrap_err();
        assert!(err.0.contains("progress_every"), "{err}");
        let s =
            Scenario::from_json(r#"{"name": "x", "preset": "a", "progress_every": 64}"#).unwrap();
        assert_eq!(s.progress_every, Some(64));
    }

    #[test]
    fn ensemble_field_parses_and_validates() {
        let s = Scenario::from_json(
            r#"{"name": "x", "preset": "a", "ensemble": {"k": 3, "seed": 42}}"#,
        )
        .unwrap();
        let ens = s.ensemble.expect("parsed");
        assert_eq!((ens.k, ens.seed), (3, 42));
        // K=0 is structurally valid JSON but semantically rejected.
        let err =
            Scenario::from_json(r#"{"name": "x", "preset": "a", "ensemble": {"k": 0, "seed": 1}}"#)
                .unwrap_err();
        assert!(err.0.contains("ensemble"), "{err}");
        // The seed is required on the wire: a seedless ensemble is a parse
        // error, not a silent ambient default.
        let err = Scenario::from_json(r#"{"name": "x", "preset": "a", "ensemble": {"k": 2}}"#)
            .unwrap_err();
        assert!(err.0.starts_with("parse:"), "{err}");
    }

    #[test]
    fn surges_extracts_only_surge_events() {
        let surges = surges(&Scenario::sample().events);
        assert_eq!(surges.len(), 1);
        assert_eq!(surges[0].from_step, 1);
        assert_eq!(surges[0].until_step, 4);
    }
}
