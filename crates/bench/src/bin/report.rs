//! Regenerates the paper's evaluation tables and figures.
//!
//! ```text
//! cargo run -p klotski-bench --release --bin report            # everything
//! cargo run -p klotski-bench --release --bin report -- fig8    # one experiment
//! cargo run -p klotski-bench --release --bin report -- fig11 fig12
//! ```
//!
//! Environment: `KLOTSKI_FULL_SCALE=1` builds D/E at full paper scale
//! (slow). Each planner run is capped at 120 s.
//!
//! System numbers (service throughput, incremental/ensemble check cost,
//! controller runs) are not experiments of this binary: the repository
//! benchmark under `benchmark/` measures them (see `benchmark/README.md`).

use klotski_bench::experiments;
use klotski_telemetry::{log_event, registry};

/// A named experiment: label plus the function rendering its output.
type Experiment = (&'static str, fn() -> String);

const EXPERIMENTS: [Experiment; 8] = [
    ("table1", experiments::table1),
    ("table3", experiments::table3),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
];

fn main() {
    // Progress goes to stderr as structured one-per-line JSON events, so
    // stdout stays pure experiment output (tables and figures).
    klotski_telemetry::install(std::sync::Arc::new(klotski_telemetry::StderrSink));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = if args.is_empty() || args[0] == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        let mut picked = Vec::new();
        for arg in &args {
            match EXPERIMENTS.iter().find(|(name, _)| name == arg) {
                Some(exp) => picked.push(exp),
                None => {
                    let available = EXPERIMENTS
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ");
                    // Plain stderr too: the event line is JSON for tools,
                    // this one is for the person who mistyped.
                    eprintln!("unknown experiment {arg:?}; available: {available}, all");
                    log_event!(
                        "report.unknown_experiment",
                        "name" = arg.as_str(),
                        "available" = available.as_str(),
                    );
                    std::process::exit(2);
                }
            }
        }
        picked
    };

    for (name, run) in selected {
        let start = std::time::Instant::now();
        // Snapshot the process-global metrics registry around each
        // experiment so its emitted delta is its own, not cumulative
        // across the binary's lifetime.
        let baseline = registry().snapshot();
        let output = run();
        println!("{output}");
        let moved = registry().counters_since(&baseline);
        let counters = moved
            .iter()
            .map(|(series, delta)| format!("{series}=+{delta}"))
            .collect::<Vec<_>>()
            .join(" ");
        log_event!(
            "report.experiment",
            "name" = *name,
            "secs" = start.elapsed().as_secs_f64(),
            "counters_moved" = moved.len() as u64,
            "counters" = counters.as_str(),
        );
    }
    klotski_telemetry::uninstall();
}
