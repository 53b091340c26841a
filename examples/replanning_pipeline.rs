//! The §7 operational pipeline on the continuous controller: plan, then
//! let `klotski-controller` execute the migration canary-first while the
//! scripted world misbehaves — organic growth (§7.1), a mid-migration
//! east/west surge (§7.2), and a link failure that drives utilization over
//! the bound so the controller safe-pauses, replans incrementally from the
//! observed state, and resumes.
//!
//! ```text
//! cargo run --release --example replanning_pipeline
//! ```

use klotski::controller::{run_scenario, Scenario, ScenarioEvent};
use klotski::traffic::DemandClass;

fn main() {
    // --- Organic growth (§7.1): one controller step is about one day, and
    // traffic grows +0.3 %/day, the trend of the synthetic history the
    // ensemble's EWMA members are read from.
    let growth_per_step = 0.003;

    // --- Script the world: a +25% east/west surge over steps 1-3 and a
    // link failure after the first batch, under a tightened utilization
    // bound so the failure actually violates a constraint.
    let scenario = Scenario {
        name: "replanning-pipeline".to_string(),
        theta: Some(0.62),
        demand_growth_per_step: growth_per_step,
        events: vec![
            ScenarioEvent::surge(1, 4, 1.25, Some(DemandClass::RswToRsw)),
            ScenarioEvent::link_failure(1, None, None),
        ],
        ..Scenario::sample()
    };
    println!(
        "\nexecuting on preset {} with theta {:.2}, +{:.2}%/step organic growth, a +25% \
         east/west surge over steps 1-3, and a link failure after step 1\n",
        scenario.preset.to_uppercase(),
        scenario.theta.unwrap(),
        growth_per_step * 100.0
    );

    // --- Run the controller: canary batches, per-step shadow audits,
    // safe-pause on violation, incremental replanning, rollback as the
    // last resort.
    let report = run_scenario(&scenario, None).expect("controller run");
    println!(
        "initial plan: {} phases ({} states visited)",
        report.initial_phases, report.initial_stats.states_visited
    );
    for s in &report.steps {
        println!(
            "step {:>2}: {} x{}{} | util {:>5.1}% | drift {}c/{}s{}{}",
            s.step,
            s.action,
            s.blocks,
            if s.canary { " (canary)" } else { "" },
            s.max_utilization * 100.0,
            s.drift_circuits,
            s.drift_switches,
            if s.safe { "" } else { "  << UNSAFE" },
            if s.paused { "  << PAUSE" } else { "" },
        );
        if let Some(reason) = &s.pause_reason {
            println!("         pause: {reason}");
        }
    }
    for r in &report.replans {
        if r.ok {
            println!(
                "replan after step {}: {} phases in {:.1}ms ({} esc entries, {} incremental \
                 replays)",
                r.at_step,
                r.phases,
                r.latency_ms,
                r.stats.esc_entries,
                r.stats.incremental_clean + r.stats.incremental_dirty
            );
        } else {
            println!(
                "replan after step {} FAILED: {}",
                r.at_step,
                r.error.as_deref().unwrap_or("unknown")
            );
        }
    }
    if let Some(rb) = &report.rollback {
        println!(
            "rollback at step {} to step {:?} ({} snapshot(s) skipped, restored state {})",
            rb.at_step,
            rb.to_step,
            rb.snapshots_skipped,
            if rb.safe { "safe" } else { "STILL UNSAFE" }
        );
    }
    println!(
        "\ncompleted: {} | pauses: {} | replans: {} | {} | fingerprint {:016x}",
        report.completed,
        report.pauses(),
        report.replans.len(),
        report.abort_reason.as_deref().unwrap_or("no aborts"),
        report.fingerprint()
    );
}
