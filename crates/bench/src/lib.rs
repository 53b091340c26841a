//! # klotski-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6). The `report` binary prints the same rows/series the
//! paper reports.
//!
//! Absolute numbers differ from the paper — the substrate here is a
//! synthetic simulator, not Meta's production fleet — but the *shape* of
//! every result (who wins, by what ballpark factor, where feasibility
//! crosses appear) is the reproduction target. `EXPERIMENTS.md` records
//! paper-vs-measured for each experiment.
//!
//! Only the paper's experiments live here. How fast the system itself runs
//! (check cost, ensembles, the daemon, controller runs) is measured by the
//! repository benchmark under `benchmark/`, not by this crate.
//!
//! Scale: topologies A–C build at paper scale; D and E shrink their fabric
//! unless `KLOTSKI_FULL_SCALE=1` (see `klotski_topology::presets`). The
//! planner-visible problem (blocks, action types, feasible region) is
//! identical at both scales.

pub mod experiments;
pub mod runner;
pub mod table;

pub use runner::{run_planner, spec_for, PlannerKind, RunResult};
