//! The repository benchmark: four closed-loop workloads over the crates'
//! public functions. See `benchmark/README.md` for what each measures.
//!
//! ```text
//! klotski-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!                   [--setups N] [--bless]
//! ```
//! With `--workload` the run happens in this process and the last line of
//! stdout is the result object; without it every workload runs in a child
//! process of its own.

mod calib;
mod golden;
mod metrics;
mod plan;
mod serve;
mod staged;
mod stats;
mod storm;
mod trace;
mod walk;

use calib::{Calibrator, Timeline};
use metrics::{Report, END_TO_END, PER_LAYER};
use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["plan_single", "plan_ensemble", "serve_zipf", "run_storm"];

/// One run's settings.
pub struct Env {
    /// Generates the inputs; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer pass (`--trace 1`) instead of the end-to-end one.
    pub traced: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Rewrite the goldens instead of comparing with them.
    pub bless: bool,
    /// The `benchmark/` directory the harness was built from: goldens are
    /// read from it, `out/` is written under it.
    pub dir: PathBuf,
}

/// Fills the end-to-end metrics every workload shares from the timed phase,
/// and prints the uncalibrated readings next to them as `#` comment lines.
pub fn report_end_to_end(workload: &str, times: &Timeline, report: &mut Report) {
    let m = &mut report.metrics;
    m.set("op_ms_p10", times.calibrated(0.10));
    m.set("op_ms_p50", times.calibrated(0.50));
    m.set("op_ms_p90", times.calibrated(0.90));
    m.set("ops_per_s", times.calibrated_rate());
    m.set("peak_rss_mb", stats::peak_rss_mb());
    report.attempted = times.attempted();
    report.failed = times.failed;
    println!(
        "# {workload} uncalibrated: op_ms p10 {:.4} p50 {:.4} p90 {:.4}, {:.4} ops/s over {} ops, \
         slice {:.3} ms (nominal {})",
        times.raw(0.10),
        times.raw(0.50),
        times.raw(0.90),
        (times.attempted() - times.failed) as f64 / times.wall_s.max(1e-9),
        times.attempted(),
        times.slice_ms(),
        calib::NOMINAL_SLICE_MS,
    );
}

/// Closed loop on the calling thread: ops run back to back, a calibration
/// slice before each and after the last, until `seconds` have passed (at
/// least one op).
pub fn timed_ops(
    seconds: f64,
    calibrator: &mut Calibrator,
    mut op: impl FnMut() -> bool,
) -> Timeline {
    let mut times = Timeline::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || times.ms.is_empty() {
        times.calibrate(calibrator);
        times.time(&mut op);
    }
    times.calibrate(calibrator);
    times
}

/// Runs `setup` `env.setups` times, keeps the last context, and returns it
/// with the median set-up time in calibrated seconds. Each set-up is scaled
/// by the slices run right before and after it — three at each point, since
/// a set-up has no slices inside it to average over. Repeating makes
/// `setup_s` a median instead of one draw; earlier contexts are dropped
/// before the next set-up starts.
pub fn repeat_setup<T>(
    env: &Env,
    calibrator: &mut Calibrator,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut point = || median(&[calibrator.slice(), calibrator.slice(), calibrator.slice()]);
    let mut seconds = Vec::new();
    let mut ctx = None;
    let mut before = point();
    for _ in 0..env.setups.max(1) {
        drop(ctx.take());
        let t = Instant::now();
        ctx = Some(setup()?);
        let raw = t.elapsed().as_secs_f64();
        let after = point();
        seconds.push(raw * calib::NOMINAL_SLICE_MS / ((before + after) / 2.0));
        before = after;
    }
    Ok((ctx.expect("at least one set-up ran"), median(&seconds)))
}

/// Traced phase of the compute workloads: plain and staged ops alternate for
/// `seconds` (at least one pair), so both see the same machine; returns the
/// two timelines and the process CPU milliseconds per op.
pub fn alternate_ops(
    seconds: f64,
    calibrator: &mut Calibrator,
    mut plain_op: impl FnMut() -> bool,
    mut staged_op: impl FnMut() -> bool,
) -> (Timeline, Timeline, f64) {
    let (mut plain, mut staged) = (Timeline::default(), Timeline::default());
    let started = Instant::now();
    let cpu0 = stats::cpu_seconds();
    while started.elapsed().as_secs_f64() < seconds || staged.ms.is_empty() {
        plain.calibrate(calibrator);
        plain.time(&mut plain_op);
        staged.time(&mut staged_op);
    }
    let ops = (plain.ms.len() + staged.ms.len()) as f64;
    let cpu_ms_per_op = (stats::cpu_seconds() - cpu0) * 1e3 / ops;
    (plain, staged, cpu_ms_per_op)
}

/// `bench.*` metrics and op counts of a traced run's plain and traced ops.
/// Like every per-layer time they are uncalibrated; `bench.slice_ms` says how
/// fast the machine was. The tracing overhead is the difference of the two
/// low deciles.
pub fn report_traced(
    report: &mut Report,
    tr: &trace::Tracer,
    plain: &Timeline,
    traced: &Timeline,
    cpu_ms_per_op: f64,
) {
    let m = &mut report.metrics;
    m.set("bench.op_ms_p50", traced.raw(0.50));
    m.set("bench.op_ms_p90", traced.raw(0.90));
    m.set("bench.cpu_ms_per_op", cpu_ms_per_op);
    m.set("bench.slice_ms", plain.slice_ms());
    m.set("bench.unaccounted_pct", tr.unaccounted_pct("op"));
    let base = plain.raw(0.10);
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (traced.raw(0.10) - base) / base,
    );
    report.attempted = plain.attempted() + traced.attempted();
    report.failed = plain.failed + traced.failed;
}

/// Writes the run's spans to `out/trace-<workload>.jsonl`.
pub fn write_trace(env: &Env, workload: &str, tr: &trace::Tracer) -> Result<(), String> {
    let out = env.dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{workload}.jsonl"));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

struct Args {
    workload: Option<String>,
    env: Env,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        env: Env {
            seed: golden::GOLDEN_SEED,
            seconds: 20.0,
            traced: false,
            setups: 3,
            bless: false,
            dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.env.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.env.seconds = s;
            }
            "--trace" => {
                args.env.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => args.env.traced = true,
            "--setups" => {
                args.env.setups = value("a count")?
                    .parse()
                    .map_err(|e| format!("--setups: {e}"))?
            }
            "--bless" => args.env.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its metrics.
fn run_workload(workload: &str, env: &Env) -> bool {
    let mut calibrator = Calibrator::new();
    let outcome = match workload {
        "plan_single" => plan::run(env, &mut calibrator, false),
        "plan_ensemble" => plan::run(env, &mut calibrator, true),
        "serve_zipf" => serve::run(env, &mut calibrator),
        "run_storm" => storm::run(env, &mut calibrator),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let report = outcome.unwrap_or_else(|why| Report {
        errors: vec![why],
        ..Report::default()
    });
    for why in &report.errors {
        eprintln!("{workload}: INCORRECT: {why}");
    }
    let table = if env.traced { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        println!("{workload} {name} {} {unit}", report.metrics.get(name));
    }
    let line = report.result_line(table);
    let out = env.dir.join("out");
    let kind = if env.traced { "layers" } else { "results" };
    if std::fs::create_dir_all(&out).is_ok() {
        // Best effort: the result line below is the interface, the file a
        // convenience for reading a run afterwards.
        let _ = std::fs::write(out.join(format!("{kind}-{workload}.json")), &line);
    }
    println!("{line}");
    report.correct()
}

/// Runs every workload in a child process of its own, so that no workload
/// inherits another's heap, threads or registry state.
fn run_all(env: &Env) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &env.seed.to_string()])
            .args(["--seconds", &env.seconds.to_string()])
            .args(["--trace", if env.traced { "1" } else { "0" }])
            .args(["--setups", &env.setups.to_string()]);
        if env.bless {
            child.arg("--bless");
        }
        let ok = child.status().is_ok_and(|s| s.success());
        if !ok {
            eprintln!("{workload}: FAILED");
        }
        all_ok &= ok;
    }
    all_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("klotski-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(w) => run_workload(w, &args.env),
        None => run_all(&args.env),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
