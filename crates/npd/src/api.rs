//! Request/response schema types for the `klotski-service` planning daemon.
//!
//! The service speaks NPD on the wire: a `POST /v1/plan` body *is* an
//! [`Npd`] document (the same JSON `klotski export` writes), and the plan
//! response *is* the plan-attached NPD document (the same bytes
//! `klotski plan -o` writes). This module adds the envelope types around
//! that exchange — per-request options, job status for async polling, the
//! audit response — plus the content digest that keys the service's shared
//! plan cache.
//!
//! Digests are FNV-1a over the *canonical* (compact, field-ordered) JSON
//! encoding, so two structurally identical documents share a cache entry no
//! matter how their JSON was formatted on the wire.

use crate::schema::Npd;
use klotski_core::report::PlanAudit;
use klotski_core::{EnsembleMatrixStat, EnsembleSpec};
use serde::{Deserialize, Serialize};

pub use klotski_topology::fnv1a;

/// Content digest of an NPD document: FNV-1a over its canonical JSON.
/// Attached phases are part of the digest, so a plan-carrying document and
/// its bare topology hash differently (replanning a shipped document is a
/// distinct cache entry).
pub fn npd_digest(npd: &Npd) -> u64 {
    let canonical = serde_json::to_string(npd).expect("NPD serializes");
    fnv1a(canonical.as_bytes())
}

/// Renders a digest the way the service prints it (16 hex digits).
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Per-request planning options. Every field is optional; an absent field
/// means "the CLI default", which is what keeps a default service request
/// byte-identical to `klotski plan`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlanRequestOptions {
    /// Utilization bound θ override (Eq. 5; default 0.75).
    #[serde(default)]
    pub theta: Option<f64>,
    /// Cost-model α override (Eq. 9; default 0).
    #[serde(default)]
    pub alpha: Option<f64>,
    /// Planner selection: `"astar"` (default) or `"dp"`.
    #[serde(default)]
    pub planner: Option<String>,
    /// Per-request deadline in milliseconds; the search is cooperatively
    /// cancelled once it expires. Defaults to the service-wide deadline.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Traffic-ensemble specification: plan so every checked state is safe
    /// under all K realized matrices (base forecast + EWMA/surge variants).
    /// Absent means single-matrix planning, exactly as before.
    #[serde(default)]
    pub ensemble: Option<EnsembleSpec>,
}

impl PlanRequestOptions {
    /// Digest of the *plan-affecting* options. `deadline_ms` is excluded:
    /// it bounds how long the service may search, never which plan a
    /// finished search returns, so requests differing only in deadline
    /// share a cache entry.
    pub fn digest(&self) -> u64 {
        let mut canonical = format!(
            "theta={:?};alpha={:?};planner={:?}",
            self.theta, self.alpha, self.planner
        );
        // Appended only when present, so pre-ensemble requests keep their
        // historical digests (and cache entries) unchanged.
        if let Some(ens) = &self.ensemble {
            canonical.push_str(&format!(
                ";ensemble=k{}@{};alphas={:?};surge={:?}",
                ens.k, ens.seed, ens.ewma_alphas, ens.surge_factor
            ));
        }
        fnv1a(canonical.as_bytes())
    }
}

/// Summary of one completed planning job, returned by job polling and in
/// the `X-Klotski-*` response headers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Migration instance name (topology + migration type).
    pub name: String,
    /// Hex content digest of the input NPD.
    pub npd_digest: String,
    /// Hex digest of the plan-affecting options.
    pub options_digest: String,
    /// Planner that produced the plan ("klotski-a*" / "klotski-dp").
    pub planner: String,
    /// Plan cost under the configured cost model.
    pub cost: f64,
    /// Number of phases in the plan.
    pub phases: usize,
    /// Number of block-level steps.
    pub steps: usize,
    /// Search states visited.
    pub states_visited: u64,
    /// Successor states generated (A\*: pushed unchecked unless a path at
    /// least as cheap to the same key is known).
    #[serde(default)]
    pub states_generated: u64,
    /// States rejected by the satisfiability check (A\*: when popped).
    #[serde(default)]
    pub states_pruned: u64,
    /// Candidates dropped as stale or non-improving duplicates.
    #[serde(default)]
    pub states_deduped: u64,
    /// Satisfiability queries issued.
    pub sat_checks: u64,
    /// Queries of this request's search served from the ESC cache —
    /// including verdicts the daemon's plan cache handed it from an
    /// earlier request for the same document under another name.
    #[serde(default)]
    pub cache_hits: u64,
    /// Queries of this request's search the ESC cache did not answer: each
    /// was evaluated — rejected by the space model before any routing, or
    /// routed and judged. A served miss whose every state an earlier
    /// request's search already judged reports 0.
    #[serde(default)]
    pub full_evaluations: u64,
    /// Destinations whose cached routing structure was reused unchanged.
    #[serde(default)]
    pub incremental_clean: u64,
    /// Destinations whose routing structure was patched or rebuilt.
    #[serde(default)]
    pub incremental_dirty: u64,
    /// Entries resident in the ESC cache when the search finished.
    #[serde(default)]
    pub esc_entries: u64,
    /// Estimated ESC cache footprint in bytes when the search finished.
    #[serde(default)]
    pub esc_bytes: u64,
    /// Wall-clock spent inside satisfiability checks, milliseconds.
    #[serde(default)]
    pub satcheck_ms: u64,
    /// Planning wall-clock, milliseconds.
    pub planning_ms: u64,
    /// Traffic-ensemble size K (0 when the request had no ensemble).
    #[serde(default)]
    pub ensemble_matrices: u64,
    /// Total per-matrix evaluations across all full evaluations.
    #[serde(default)]
    pub ensemble_matrix_checks: u64,
    /// Full evaluations short-circuited by a failing ensemble matrix.
    #[serde(default)]
    pub ensemble_short_circuits: u64,
    /// Per-matrix ensemble detail (label, checks, kills, exact sweeps, wall
    /// time), in matrix index order; empty for single-matrix requests.
    #[serde(default)]
    pub ensemble: Vec<EnsembleMatrixStat>,
    /// True when the response was served from the shared plan cache.
    #[serde(default)]
    pub cached: bool,
}

/// Lifecycle state of an asynchronous planning job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting in the bounded queue.
    Queued,
    /// A worker is planning it.
    Running,
    /// Finished; the result is available at `/v1/jobs/{id}/result`.
    Done,
    /// Planning failed (infeasible, invalid, or budget-exceeded).
    Failed,
}

/// `GET /v1/jobs/{id}` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatusResponse {
    /// Job identifier (decimal).
    pub id: String,
    /// Request kind: `"plan"` or `"audit"`.
    pub kind: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Failure message, present when `state == Failed`.
    #[serde(default)]
    pub error: Option<String>,
    /// Result summary, present when `state == Done`.
    #[serde(default)]
    pub summary: Option<PlanSummary>,
}

/// `202 Accepted` body for `?wait=0` submissions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptedResponse {
    /// Poll `GET /v1/jobs/{job}` for progress.
    pub job: String,
}

/// Error envelope for every non-2xx JSON response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable cause.
    pub error: String,
}

impl ErrorResponse {
    /// Builds an error envelope.
    pub fn new(error: impl Into<String>) -> Self {
        Self {
            error: error.into(),
        }
    }
}

/// `POST /v1/audit` response body: the plan summary plus the per-phase
/// safety audit the CLI prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditResponse {
    /// Plan summary.
    pub summary: PlanSummary,
    /// Per-phase safety timeline.
    pub audit: PlanAudit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::region_to_npd;
    use klotski_topology::presets::{self, PresetId};

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn npd_digest_is_format_insensitive() {
        let npd = region_to_npd(&presets::config(PresetId::A));
        let pretty = npd.to_json_pretty().unwrap();
        let reparsed = Npd::from_json(&pretty).unwrap();
        assert_eq!(npd_digest(&npd), npd_digest(&reparsed));
    }

    #[test]
    fn npd_digest_distinguishes_documents() {
        let a = region_to_npd(&presets::config(PresetId::A));
        let b = region_to_npd(&presets::config(PresetId::B));
        assert_ne!(npd_digest(&a), npd_digest(&b));
        let mut renamed = a.clone();
        renamed.name.push('!');
        assert_ne!(npd_digest(&a), npd_digest(&renamed));
    }

    #[test]
    fn options_digest_ignores_deadline_only() {
        let base = PlanRequestOptions::default();
        let with_deadline = PlanRequestOptions {
            deadline_ms: Some(5_000),
            ..base.clone()
        };
        assert_eq!(base.digest(), with_deadline.digest());
        // Options JSON from before the speed knobs left the wire (journal
        // admits, stored client requests) still parses, to the same key.
        let with_retired_knobs: PlanRequestOptions = serde_json::from_str(
            r#"{"theta":null,"alpha":null,"planner":null,"deadline_ms":null,
                "incremental":false,"esc_cache_cap":64,"ensemble":null}"#,
        )
        .unwrap();
        assert_eq!(with_retired_knobs, base);
        assert_eq!(base.digest(), with_retired_knobs.digest());
        let with_theta = PlanRequestOptions {
            theta: Some(0.8),
            ..base.clone()
        };
        assert_ne!(base.digest(), with_theta.digest());
        let with_planner = PlanRequestOptions {
            planner: Some("dp".into()),
            ..base
        };
        assert_ne!(
            PlanRequestOptions::default().digest(),
            with_planner.digest()
        );
    }

    #[test]
    fn options_digest_distinguishes_ensembles() {
        let base = PlanRequestOptions::default();
        let k4 = PlanRequestOptions {
            ensemble: Some(EnsembleSpec::with_k(4, 7)),
            ..base.clone()
        };
        assert_ne!(base.digest(), k4.digest());
        let k4_other_seed = PlanRequestOptions {
            ensemble: Some(EnsembleSpec::with_k(4, 8)),
            ..base
        };
        assert_ne!(
            k4.digest(),
            k4_other_seed.digest(),
            "the seed changes the realized matrices, so it must key the cache"
        );
    }

    #[test]
    fn job_status_roundtrips_through_json() {
        let status = JobStatusResponse {
            id: "17".into(),
            kind: "plan".into(),
            state: JobState::Done,
            error: None,
            summary: Some(PlanSummary {
                name: "preset-a/hgrid-v1v2".into(),
                npd_digest: digest_hex(0xdead_beef),
                options_digest: digest_hex(7),
                planner: "klotski-a*".into(),
                cost: 4.0,
                phases: 4,
                steps: 12,
                states_visited: 99,
                states_generated: 150,
                states_pruned: 30,
                states_deduped: 21,
                sat_checks: 200,
                cache_hits: 120,
                full_evaluations: 80,
                incremental_clean: 60,
                incremental_dirty: 20,
                esc_entries: 80,
                esc_bytes: 2_048,
                satcheck_ms: 6,
                planning_ms: 12,
                ensemble_matrices: 2,
                ensemble_matrix_checks: 130,
                ensemble_short_circuits: 25,
                ensemble: vec![EnsembleMatrixStat {
                    label: "base".into(),
                    checks: 80,
                    kills: 20,
                    swept: 80,
                    wall_ns: 5_000,
                }],
                cached: false,
            }),
        };
        let json = serde_json::to_string(&status).unwrap();
        let back: JobStatusResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
    }

    #[test]
    fn error_and_accepted_envelopes_serialize() {
        let err = serde_json::to_string(&ErrorResponse::new("queue full")).unwrap();
        assert!(err.contains("queue full"));
        let acc = serde_json::to_string(&AcceptedResponse { job: "3".into() }).unwrap();
        assert!(acc.contains("\"job\""));
    }
}
