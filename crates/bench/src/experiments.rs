//! The evaluation experiments: one function per table/figure of §6.
//!
//! Every function renders the same rows/series its paper counterpart
//! reports and returns them as a string (the `report` binary prints them;
//! tests assert on their structure). `EXPERIMENTS.md` records the measured
//! outputs against the paper's.

use crate::runner::{run_planner, spec_for, spec_without_ob, PlannerKind, RunResult};
use crate::table::{ratio, Table};
use klotski_core::migration::{MigrationOptions, MigrationSpec};
use klotski_core::BlockClass;
use klotski_topology::presets::{self, PresetId};

/// Runs the comparison planners on one spec, w/o-OB handled separately.
fn run_matrix(spec: &MigrationSpec, kinds: &[PlannerKind]) -> Vec<RunResult> {
    kinds.iter().map(|&k| run_planner(k, spec, 0.0)).collect()
}

/// The reference runtime (Klotski-A\*) within a result set.
fn astar_time(results: &[RunResult]) -> std::time::Duration {
    results
        .iter()
        .find(|r| r.planner == PlannerKind::KlotskiAStar)
        .map(|r| r.time)
        .unwrap_or_default()
}

/// The optimal cost within a result set (min over successful planners).
fn optimal_cost(results: &[RunResult]) -> Option<f64> {
    results
        .iter()
        .filter_map(|r| r.cost)
        .min_by(|a, b| a.total_cmp(b))
}

/// Renders one planner-comparison table (normalized cost + time), shared by
/// Figures 8 and 9.
fn comparison_table(rows: &[(String, Vec<RunResult>)]) -> String {
    let mut cost = Table::new(
        ["topology"]
            .into_iter()
            .map(String::from)
            .chain(PlannerKind::COMPARISON.iter().map(|k| k.label().into()))
            .collect::<Vec<String>>(),
    );
    let mut time = Table::new(
        ["topology"]
            .into_iter()
            .map(String::from)
            .chain(PlannerKind::COMPARISON.iter().map(|k| k.label().into()))
            .collect::<Vec<String>>(),
    );
    for (name, results) in rows {
        let opt = optimal_cost(results);
        let base = astar_time(results);
        let mut cost_row = vec![name.clone()];
        let mut time_row = vec![name.clone()];
        for r in results {
            cost_row.push(match (r.cost, opt) {
                (Some(c), Some(o)) if o > 0.0 => format!("{:.2}", c / o),
                (Some(c), _) => format!("{c:.1}"),
                (None, _) => "✗".into(),
            });
            time_row.push(if r.ok() {
                ratio(r.time, base)
            } else {
                "✗".into()
            });
        }
        cost.row(cost_row);
        time.row(time_row);
    }
    format!(
        "(a) plan cost, normalized by the optimal cost\n{}\n(b) planning time, normalized by Klotski-A*\n{}",
        cost.render(),
        time.render()
    )
}

/// Figure 8: scalability — the four planners across topologies A–E under
/// the HGRID v1→v2 migration.
pub fn fig8() -> String {
    let mut rows = Vec::new();
    for id in PresetId::SCALABILITY {
        let spec = spec_for(id, &MigrationOptions::default());
        rows.push((id.to_string(), run_matrix(&spec, &PlannerKind::COMPARISON)));
    }
    format!(
        "== Figure 8: scalability over topologies A-E ==\n{}",
        comparison_table(&rows)
    )
}

/// Figure 9: generality — the four planners across migration types
/// (E, E-DMAG, E-SSW). MRC and Janus cross on the topology-changing DMAG.
pub fn fig9() -> String {
    let mut rows = Vec::new();
    for id in [PresetId::E, PresetId::EDmag, PresetId::ESsw] {
        let spec = spec_for(id, &MigrationOptions::default());
        rows.push((id.to_string(), run_matrix(&spec, &PlannerKind::COMPARISON)));
    }
    format!(
        "== Figure 9: generality over migration types ==\n{}",
        comparison_table(&rows)
    )
}

/// Figure 10: design ablations — Klotski-A\* against w/o OB, w/o A\*, and
/// w/o ESC over topologies A–E.
pub fn fig10() -> String {
    let opts = MigrationOptions::default();
    let mut cost = Table::new(
        ["topology"]
            .into_iter()
            .map(String::from)
            .chain(PlannerKind::ABLATION.iter().map(|k| k.label().into()))
            .collect::<Vec<String>>(),
    );
    let mut time = Table::new(
        ["topology"]
            .into_iter()
            .map(String::from)
            .chain(PlannerKind::ABLATION.iter().map(|k| k.label().into()))
            .collect::<Vec<String>>(),
    );
    for id in PresetId::SCALABILITY {
        let spec = spec_for(id, &opts);
        let mut results = Vec::new();
        for kind in PlannerKind::ABLATION {
            let r = if kind == PlannerKind::WithoutOb {
                match spec_without_ob(id, &opts) {
                    Ok(fine) => run_planner(kind, &fine, 0.0),
                    Err(_) => RunResult {
                        planner: kind,
                        cost: None,
                        time: Default::default(),
                    },
                }
            } else {
                run_planner(kind, &spec, 0.0)
            };
            results.push(r);
        }
        let opt = optimal_cost(&results);
        let base = astar_time(&results);
        cost.row(
            std::iter::once(id.to_string()).chain(results.iter().map(|r| match (r.cost, opt) {
                (Some(c), Some(o)) if o > 0.0 => format!("{:.2}", c / o),
                (Some(c), _) => format!("{c:.1}"),
                (None, _) => "✗".into(),
            })),
        );
        time.row(
            std::iter::once(id.to_string()).chain(results.iter().map(|r| {
                if r.ok() {
                    ratio(r.time, base)
                } else {
                    "✗".into()
                }
            })),
        );
    }
    format!(
        "== Figure 10: impact of Klotski design choices ==\n(a) plan cost, normalized\n{}\n(b) planning time, normalized by Klotski-A*\n{}",
        cost.render(),
        time.render()
    )
}

/// Figure 11: operation-block granularity sweep (0.25×–4× the default
/// policy) on topology E.
pub fn fig11() -> String {
    let mut t = Table::new([
        "# blocks", "blocks", "min cost", "A* time", "DP time", "DP/A*",
    ]);
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let opts = MigrationOptions {
            block_scale: scale,
            ..MigrationOptions::default()
        };
        let spec = spec_for(PresetId::E, &opts);
        let astar = run_planner(PlannerKind::KlotskiAStar, &spec, 0.0);
        let dp = run_planner(PlannerKind::KlotskiDp, &spec, 0.0);
        t.row([
            format!("{scale}x"),
            spec.num_blocks().to_string(),
            astar.cost_cell(),
            format!("{:.2}s", astar.time.as_secs_f64()),
            if dp.ok() {
                format!("{:.2}s", dp.time.as_secs_f64())
            } else {
                "✗".into()
            },
            if astar.ok() && dp.ok() {
                ratio(dp.time, astar.time)
            } else {
                "-".into()
            },
        ]);
    }
    format!(
        "== Figure 11: impact of operation blocks (topology E) ==\n{}",
        t.render()
    )
}

/// Figure 12: utilization-rate-bound sweep θ ∈ {55..95}% on topology E,
/// with the demand matrix held fixed.
pub fn fig12() -> String {
    let mut t = Table::new(["theta", "optimal cost", "A* time", "DP time", "DP/A*"]);
    for theta in [0.55, 0.65, 0.75, 0.85, 0.95] {
        let opts = MigrationOptions {
            theta,
            ..MigrationOptions::default()
        };
        let spec = spec_for(PresetId::E, &opts);
        let astar = run_planner(PlannerKind::KlotskiAStar, &spec, 0.0);
        let dp = run_planner(PlannerKind::KlotskiDp, &spec, 0.0);
        t.row([
            format!("{:.0}%", theta * 100.0),
            astar.cost_cell(),
            format!("{:.2}s", astar.time.as_secs_f64()),
            format!("{:.2}s", dp.time.as_secs_f64()),
            ratio(dp.time, astar.time),
        ]);
    }
    format!(
        "== Figure 12: impact of utilization rate bound (topology E) ==\n{}",
        t.render()
    )
}

/// Figure 13: cost-function sweep α ∈ [0, 1] on topology E.
pub fn fig13() -> String {
    let spec = spec_for(PresetId::E, &MigrationOptions::default());
    let mut t = Table::new(["alpha", "optimal cost", "A* time", "DP time", "DP/A*"]);
    for alpha in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let astar = run_planner(PlannerKind::KlotskiAStar, &spec, alpha);
        let dp = run_planner(PlannerKind::KlotskiDp, &spec, alpha);
        t.row([
            format!("{alpha}"),
            astar.cost_cell(),
            format!("{:.2}s", astar.time.as_secs_f64()),
            format!("{:.2}s", dp.time.as_secs_f64()),
            ratio(dp.time, astar.time),
        ]);
    }
    format!(
        "== Figure 13: impact of the cost function (topology E) ==\n{}",
        t.render()
    )
}

/// Physical-duration model for Table 1: days per switch-level operation by
/// block class (installs take real on-site work; circuit drains are
/// config pushes), plus fixed per-phase validation overhead.
fn duration_days(spec: &MigrationSpec, phases: usize) -> f64 {
    let per_op_days = |class: BlockClass| match class {
        BlockClass::FaGrid | BlockClass::Ssw => 0.25,
        BlockClass::Ma => 0.15,
        BlockClass::DirectCircuit => 0.02,
    };
    let work: f64 = spec
        .blocks
        .iter()
        .map(|b| {
            let class = spec.actions.kind(b.kind).class;
            b.action_weight() as f64 * per_op_days(class)
        })
        .sum();
    work + phases as f64 * 3.0
}

/// Table 1: migration statistics per DC for the three migration types.
pub fn table1() -> String {
    let mut t = Table::new([
        "migration",
        "switches",
        "circuits",
        "capacity",
        "duration",
        "paper",
    ]);
    let cases = [
        (
            PresetId::E,
            "HGRID",
            "320-352 sw, 13.7k-26.8k ckt, 1.3-6.3T, 4-9 months",
        ),
        (
            PresetId::ESsw,
            "SSW Forklift",
            "144-288 sw, 14.1k-40.3k ckt, 14-16T, 3-4 months",
        ),
        (
            PresetId::EDmag,
            "DMAG",
            "48-64 sw, 1.6k-5.6k ckt, 0.2-0.5T, 1-2 weeks",
        ),
    ];
    for (id, label, paper) in cases {
        let spec = spec_for(id, &MigrationOptions::default());
        // Operated switches and the circuits they touch.
        let switches: usize = spec.blocks.iter().map(|b| b.switches.len()).sum();
        let mut seen = vec![false; spec.topology.num_circuits()];
        let mut circuits = 0usize;
        let mut capacity_gbps = 0.0;
        for b in &spec.blocks {
            for &s in &b.switches {
                for &(c, _) in spec.topology.neighbors(s) {
                    if !seen[c.index()] {
                        seen[c.index()] = true;
                        circuits += 1;
                        capacity_gbps += spec.topology.circuit(c).capacity_gbps;
                    }
                }
            }
            for &c in &b.circuits {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    circuits += 1;
                    capacity_gbps += spec.topology.circuit(c).capacity_gbps;
                }
            }
        }
        let astar = run_planner(PlannerKind::KlotskiAStar, &spec, 0.0);
        let phases = astar.cost.map(|c| c as usize).unwrap_or(spec.num_blocks());
        let days = duration_days(&spec, phases);
        t.row([
            label.to_string(),
            switches.to_string(),
            circuits.to_string(),
            format!("{:.1}T", capacity_gbps / 1000.0),
            if days >= 30.0 {
                format!("{:.1} months", days / 30.0)
            } else {
                format!("{:.1} weeks", days / 7.0)
            },
            paper.to_string(),
        ]);
    }
    format!("== Table 1: migration statistics per DC ==\n{}", t.render())
}

/// Table 3: configurations of the evaluation topologies.
pub fn table3() -> String {
    let mut t = Table::new([
        "topology", "switches", "circuits", "actions", "blocks", "types",
    ]);
    for id in PresetId::ALL {
        let preset = presets::build_for_bench(id);
        let spec = spec_for(id, &MigrationOptions::default());
        // "Switches"/"circuits" in Table 3 describe the pre-migration
        // network: exclude not-yet-installed hardware.
        let absent = preset.handles.hgrid_v2_switches().len()
            + preset.handles.ssw_v2_switches().len()
            + preset
                .handles
                .ma
                .as_ref()
                .map(|m| m.all_mas().len())
                .unwrap_or(0);
        t.row([
            id.to_string(),
            (preset.topology.num_switches() - absent).to_string(),
            preset.topology.num_circuits().to_string(),
            spec.num_switch_actions().to_string(),
            spec.num_blocks().to_string(),
            spec.num_types().to_string(),
        ]);
    }
    let scale_note = if presets::full_scale_requested() {
        "full (paper) scale"
    } else {
        "bench scale for D/E (set KLOTSKI_FULL_SCALE=1 for paper scale)"
    };
    format!(
        "== Table 3: topology configurations ({scale_note}) ==\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_lists_all_presets() {
        let out = table3();
        for id in PresetId::ALL {
            assert!(out.contains(&id.to_string()), "missing {id}");
        }
    }

    #[test]
    fn fig13_alpha_zero_matches_default_cost() {
        let out = fig13();
        assert!(out.contains("alpha"));
        // First sweep point is alpha = 0.
        assert!(out.lines().any(|l| l.trim_start().starts_with('0')));
    }

    #[test]
    fn duration_model_orders_migration_types() {
        let hgrid = spec_for(PresetId::E, &MigrationOptions::default());
        let dmag = spec_for(PresetId::EDmag, &MigrationOptions::default());
        // HGRID swaps hundreds of switches; DMAG is mostly config pushes.
        assert!(duration_days(&hgrid, 4) > duration_days(&dmag, 5));
    }
}
