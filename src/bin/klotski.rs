//! `klotski` — command-line migration planner.
//!
//! ```text
//! klotski export <preset> <out.json>        # write a region as NPD
//! klotski plan <npd.json> [-o out.json]     # plan the migration an NPD implies
//! klotski audit <preset>                    # plan + per-phase safety audit
//! klotski run --scenario <file>             # execute a scripted controller run
//! klotski trace <trace.jsonl>               # validate a recorded trace
//! klotski trace summarize <trace.jsonl>     # span-family latency table + run timeline
//! klotski serve [--addr A] [...]            # run the planning daemon
//! klotski presets                           # list the built-in topologies
//! ```
//!
//! `plan --trace <path>` records a hierarchical JSONL trace of the run
//! (spans and progress events, see `klotski::telemetry`); `plan --stats`
//! prints the search-introspection counters after the plan.
//!
//! The `plan` subcommand mirrors the §5 EDP-Lite pipeline: NPD in, ordered
//! phase list out (attached to the NPD document when `-o` is given). Both
//! `plan` and the `serve` daemon call the same
//! [`klotski::service::pipeline::plan_document`], so a served plan is
//! byte-identical to the file this CLI writes.

use klotski::core::migration::{MigrationBuilder, MigrationOptions};
use klotski::core::opex::OpexModel;
use klotski::core::planner::{AStarPlanner, Planner, SearchBudget};
use klotski::core::report::audit_plan;
use klotski::core::BlockClass;
use klotski::npd::api::PlanRequestOptions;
use klotski::npd::convert::region_to_npd;
use klotski::npd::Npd;
use klotski::service::pipeline::plan_document;
use klotski::service::{signal, Service, ServiceConfig};
use klotski::topology::presets::{self, PresetId};
use std::process::ExitCode;
use std::time::Duration;

/// The CLI's one way to stdout. A reader that went away (`klotski run … |
/// head`) is not a failure of this program: the first `EPIPE` ends the process
/// quietly with exit 0, where `println!` would panic (exit 101 and a
/// backtrace). As for any filter that `SIGPIPE` stops, what the subcommand
/// had still to do after that line (a `-o` file, say) is not done.
fn emit(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(line) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `println!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A fatal CLI error: message plus process exit code (1 = operation
/// failed, 2 = usage error). Every failure path funnels through this one
/// type so error reporting stays uniform.
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    fn failure(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }

    fn usage() -> Self {
        Self {
            message: "usage:\n  klotski presets\n  klotski export <preset> <out.json>\n  \
                 klotski plan <npd.json> [-o out.json] [--planner astar|dp] \
                 [--theta X] [--alpha X] [--trace out.jsonl] [--stats] \
                 [--ensemble K@SEED]\n  \
                 klotski audit <preset>\n  \
                 klotski run --scenario <file> [-o report.json] [--deadline-ms N] \
                 [--flight-dump DIR] [--trace out.jsonl]\n  \
                 klotski trace <trace.jsonl>\n  \
                 klotski trace summarize <trace.jsonl>\n  \
                 klotski serve [--addr HOST:PORT] [--workers N] [--queue-depth N] \
                 [--cache N] [--deadline-ms N] [--sse-max-subscribers N] \
                 [--state-dir DIR]"
                .into(),
            code: 2,
        }
    }
}

/// Replaces the dozen hand-rolled `Err(e) => { eprintln!(...); return
/// ExitCode::FAILURE }` branches: annotate any `Result` with context and
/// `?` it.
trait OrFail<T> {
    fn or_fail(self, what: impl std::fmt::Display) -> Result<T, CliError>;
}

impl<T, E: std::fmt::Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, what: impl std::fmt::Display) -> Result<T, CliError> {
        self.map_err(|e| CliError::failure(format!("{what}: {e}")))
    }
}

fn parse_preset(name: &str) -> Result<PresetId, CliError> {
    PresetId::ALL
        .into_iter()
        .find(|id| id.to_string().eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::failure(format!("unknown preset {name:?}")))
}

/// Pulls `--flag value` out of an argument list, parsing the value.
fn take_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(CliError::failure(format!("{flag} needs a value")));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    value
        .parse()
        .map(Some)
        .or_fail(format_args!("bad {flag} value {value:?}"))
}

/// Pulls a valueless `--switch` out of an argument list.
fn take_switch(args: &mut Vec<String>, switch: &str) -> bool {
    match args.iter().position(|a| a == switch) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message);
            ExitCode::from(e.code)
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("presets") => cmd_presets(),
        Some("export") if args.len() == 3 => cmd_export(&args[1], &args[2]),
        Some("plan") if args.len() >= 2 => {
            args.remove(0);
            cmd_plan(args)
        }
        Some("audit") if args.len() == 2 => cmd_audit(&args[1]),
        Some("run") => {
            args.remove(0);
            cmd_run(args)
        }
        Some("trace") if args.len() == 2 => cmd_trace(&args[1]),
        Some("trace") if args.len() == 3 && args[1] == "summarize" => cmd_trace_summarize(&args[2]),
        Some("serve") => {
            args.remove(0);
            cmd_serve(args)
        }
        _ => Err(CliError::usage()),
    }
}

fn cmd_presets() -> Result<(), CliError> {
    out!("built-in evaluation topologies (Table 3):");
    for id in PresetId::ALL {
        let p = presets::build_for_bench(id);
        out!(
            "  {:<7} {:>6} switches {:>7} circuits",
            id.to_string(),
            p.topology.num_switches(),
            p.topology.num_circuits()
        );
    }
    Ok(())
}

fn cmd_export(preset: &str, out: &str) -> Result<(), CliError> {
    let id = parse_preset(preset)?;
    let npd = region_to_npd(&presets::config(id));
    let json = npd.to_json_pretty().or_fail("serialization failed")?;
    std::fs::write(out, json).or_fail(format_args!("cannot write {out}"))?;
    out!("wrote {out} ({})", npd.name);
    Ok(())
}

fn cmd_plan(mut args: Vec<String>) -> Result<(), CliError> {
    // `--ensemble K@SEED`: plan so every checked state is safe under all K
    // realized traffic matrices. The seed is explicit and required, so runs
    // are byte-for-byte reproducible across machines.
    let ensemble = match take_flag::<String>(&mut args, "--ensemble")? {
        Some(spec) => Some(
            klotski::core::EnsembleSpec::parse(&spec)
                .or_fail(format_args!("bad --ensemble value {spec:?}"))?,
        ),
        None => None,
    };
    let options = PlanRequestOptions {
        theta: take_flag(&mut args, "--theta")?,
        alpha: take_flag(&mut args, "--alpha")?,
        planner: take_flag(&mut args, "--planner")?,
        deadline_ms: take_flag(&mut args, "--deadline-ms")?,
        ensemble,
    };
    let out = take_flag::<String>(&mut args, "-o")?;
    let trace = take_flag::<String>(&mut args, "--trace")?;
    let stats = take_switch(&mut args, "--stats");
    let [input] = args.as_slice() else {
        return Err(CliError::usage());
    };

    if let Some(path) = &trace {
        let sink = klotski::telemetry::FileSink::create(path)
            .or_fail(format_args!("cannot open trace file {path}"))?;
        klotski::telemetry::install(std::sync::Arc::new(sink));
    }

    let json = std::fs::read_to_string(input).or_fail(format_args!("cannot read {input}"))?;
    let npd = Npd::from_json(&json).or_fail("invalid NPD")?;
    let mut budget = SearchBudget::default();
    if let Some(ms) = options.deadline_ms {
        budget = budget.with_deadline(std::time::Instant::now() + Duration::from_millis(ms));
    }
    let result = {
        let _span = klotski::telemetry::span!("cli.plan", "input" = input.as_str());
        plan_document(&npd, &options, budget, None)
    };
    // Flush (and stop tracing) before reporting, so the trace file is
    // complete even when planning failed.
    if trace.is_some() {
        klotski::telemetry::uninstall();
    }
    let artifact = result.map_err(|e| CliError::failure(e.to_string()))?;

    let s = &artifact.summary;
    out!(
        "{}: cost {} ({} phases), {} states visited in {}ms",
        s.name,
        s.cost,
        s.phases,
        s.states_visited,
        s.planning_ms
    );
    for phase in &artifact.audit.phases {
        out!(
            "  phase {}: {} x{}",
            phase.index,
            phase.action,
            phase.blocks
        );
    }
    if stats {
        print_search_stats(s);
    }
    if let Some(path) = trace {
        out!("trace written to {path}");
    }
    if let Some(out) = out {
        std::fs::write(&out, &artifact.plan_json).or_fail(format_args!("cannot write {out}"))?;
        out!("phases attached to {out}");
    }
    Ok(())
}

/// The `--stats` search summary table.
fn print_search_stats(s: &klotski::npd::api::PlanSummary) {
    let hit_rate = if s.sat_checks == 0 {
        0.0
    } else {
        100.0 * s.cache_hits as f64 / s.sat_checks as f64
    };
    out!("search statistics ({}):", s.planner);
    out!("  states visited    {:>10}", s.states_visited);
    out!("  states generated  {:>10}", s.states_generated);
    out!("  states pruned     {:>10}", s.states_pruned);
    out!("  states deduped    {:>10}", s.states_deduped);
    out!("  sat checks        {:>10}", s.sat_checks);
    out!(
        "  esc cache hits    {:>10}  ({hit_rate:.1}% hit rate)",
        s.cache_hits
    );
    out!("  full evaluations  {:>10}", s.full_evaluations);
    let dests = s.incremental_clean + s.incremental_dirty;
    if dests > 0 {
        let incr_rate = 100.0 * s.incremental_clean as f64 / dests as f64;
        out!(
            "  incr clean dests  {:>10}  ({incr_rate:.1}% structure reused unchanged)",
            s.incremental_clean
        );
        out!("  incr dirty dests  {:>10}", s.incremental_dirty);
    }
    out!(
        "  esc cache size    {:>10}  (~{} KiB)",
        s.esc_entries,
        s.esc_bytes / 1024
    );
    out!("  satcheck time     {:>8}ms", s.satcheck_ms);
    out!(
        "  other search time {:>8}ms",
        s.planning_ms.saturating_sub(s.satcheck_ms)
    );
    out!("  total planning    {:>8}ms", s.planning_ms);
    if s.ensemble_matrices > 0 {
        out!(
            "  ensemble          {:>10}  matrices, {} matrix checks, {} short-circuits",
            s.ensemble_matrices,
            s.ensemble_matrix_checks,
            s.ensemble_short_circuits
        );
        for (k, m) in s.ensemble.iter().enumerate() {
            out!(
                "    [{k}] {:<22} {:>8} checks {:>7} kills {:>8} swept {:>8.1}ms",
                m.label,
                m.checks,
                m.kills,
                m.swept,
                m.wall_ns as f64 / 1e6
            );
        }
    }
}

fn cmd_trace(path: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path).or_fail(format_args!("cannot read {path}"))?;
    let summary = klotski::telemetry::validate_trace(&text)
        .map_err(|e| CliError::failure(format!("{path}: {e}")))?;
    out!(
        "trace ok: {} spans, {} events, {} roots",
        summary.spans,
        summary.events,
        summary.roots
    );
    Ok(())
}

/// `trace summarize`: per-span-family latency table plus a controller run
/// timeline, both derived from the same validated schema the `trace`
/// subcommand checks.
fn cmd_trace_summarize(path: &str) -> Result<(), CliError> {
    use klotski::telemetry::Record;

    let text = std::fs::read_to_string(path).or_fail(format_args!("cannot read {path}"))?;
    klotski::telemetry::validate_trace(&text)
        .map_err(|e| CliError::failure(format!("{path}: {e}")))?;
    let records: Vec<Record> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| klotski::telemetry::parse_line(l).expect("validated above"))
        .collect();

    // Self-time per span: its duration minus the duration of its direct
    // children (clamped: concurrent children can overlap the parent).
    let mut child_us: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in &records {
        if let Record::Span { parent, dur_us, .. } = r {
            if *parent != 0 {
                *child_us.entry(*parent).or_default() += dur_us;
            }
        }
    }
    let mut families: std::collections::BTreeMap<&str, Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut event_counts: std::collections::BTreeMap<&str, usize> =
        std::collections::BTreeMap::new();
    for r in &records {
        match r {
            Record::Span {
                name, id, dur_us, ..
            } => {
                let self_us = dur_us.saturating_sub(child_us.get(id).copied().unwrap_or(0));
                families.entry(name).or_default().push(self_us);
            }
            Record::Event { name, .. } => *event_counts.entry(name).or_default() += 1,
        }
    }

    out!("span families ({path}):");
    out!(
        "  {:<24} {:>6} {:>12} {:>12} {:>12}",
        "name",
        "count",
        "total self",
        "p50 self",
        "p99 self"
    );
    for (name, mut self_times) in families {
        self_times.sort_unstable();
        let total: u64 = self_times.iter().sum();
        out!(
            "  {:<24} {:>6} {:>10.3}ms {:>10.3}ms {:>10.3}ms",
            name,
            self_times.len(),
            total as f64 / 1000.0,
            quantile_us(&self_times, 0.50) as f64 / 1000.0,
            quantile_us(&self_times, 0.99) as f64 / 1000.0,
        );
    }
    if !event_counts.is_empty() {
        out!("events:");
        for (name, count) in event_counts {
            out!("  {name:<24} {count:>6}");
        }
    }

    // Ensemble breakdown: one `satcheck.ensemble` event per matrix, emitted
    // by planners that ran an ensemble checker.
    let ensemble_rows: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Event { name, fields, .. } if *name == "satcheck.ensemble" => Some(fields),
            _ => None,
        })
        .collect();
    if !ensemble_rows.is_empty() {
        out!("ensemble matrices:");
        out!(
            "  {:<8} {:<6} {:<22} {:>10} {:>8} {:>12}",
            "planner",
            "matrix",
            "label",
            "checks",
            "kills",
            "wall"
        );
        for fields in ensemble_rows {
            let text = |key: &str| {
                fields
                    .get(key)
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            };
            let num = |key: &str| fields.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
            out!(
                "  {:<8} {:<6} {:<22} {:>10} {:>8} {:>10.1}ms",
                text("planner"),
                num("matrix"),
                text("label"),
                num("checks"),
                num("kills"),
                num("wall_us") / 1000.0,
            );
        }
    }

    // Controller timeline: phase/rollback spans in wall order, with the
    // fields the engine attaches (step, action, outcome).
    let mut timeline: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span {
                name,
                start_us,
                fields,
                ..
            } if name.starts_with("controller.") => Some((start_us, name, fields)),
            _ => None,
        })
        .collect();
    if timeline.is_empty() {
        return Ok(());
    }
    timeline.sort_by_key(|(start, _, _)| **start);
    let epoch = *timeline[0].0;
    out!("controller timeline:");
    for (start, name, fields) in timeline {
        let mut detail = String::new();
        for key in ["step", "at_step", "action", "blocks", "canary", "outcome"] {
            if let Some(v) = fields.get(key) {
                let rendered = v
                    .as_str()
                    .map(str::to_string)
                    .or_else(|| v.as_f64().map(|n| format!("{n}")))
                    .or_else(|| v.as_bool().map(|b| b.to_string()))
                    .unwrap_or_default();
                detail.push_str(&format!("  {key}={rendered}"));
            }
        }
        out!(
            "  +{:>9.3}ms  {:<20}{detail}",
            (start - epoch) as f64 / 1000.0,
            name
        );
    }
    Ok(())
}

/// Nearest-rank quantile over a sorted slice (empty → 0).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn cmd_audit(preset: &str) -> Result<(), CliError> {
    let id = parse_preset(preset)?;
    let preset = presets::build_for_bench(id);
    let spec = MigrationBuilder::for_preset(&preset, &MigrationOptions::default())
        .or_fail("cannot build migration")?;
    let outcome = AStarPlanner::default()
        .plan(&spec)
        .or_fail("planning failed")?;
    emit(format_args!("{}", audit_plan(&spec, &outcome.plan)));
    let opex = OpexModel::default();
    let priced = opex.price(&spec, &outcome.plan);
    out!(
        "opex: {} phases x ${:.0}k setup + {:.0} crew-days = ${:.0}k total (~{:.0} working days)",
        priced.phases,
        opex.phase_setup_cost / 1000.0,
        priced.crew_days,
        priced.total_cost / 1000.0,
        priced.duration_days
    );
    out!(
        "recommended alpha for this workload: {:.3}",
        opex.recommended_alpha(BlockClass::FaGrid)
    );
    Ok(())
}

fn cmd_run(mut args: Vec<String>) -> Result<(), CliError> {
    let scenario_path = take_flag::<String>(&mut args, "--scenario")?
        .ok_or_else(|| CliError::failure("run needs --scenario <file>"))?;
    let out = take_flag::<String>(&mut args, "-o")?;
    let deadline_ms = take_flag::<u64>(&mut args, "--deadline-ms")?;
    let flight_dump = take_flag::<String>(&mut args, "--flight-dump")?;
    let trace = take_flag::<String>(&mut args, "--trace")?;
    if !args.is_empty() {
        return Err(CliError::usage());
    }

    let json = std::fs::read_to_string(&scenario_path)
        .or_fail(format_args!("cannot read {scenario_path}"))?;
    let scenario = klotski::controller::Scenario::from_json(&json)
        .or_fail(format_args!("invalid scenario {scenario_path}"))?;
    if let Some(path) = &trace {
        let sink = klotski::telemetry::FileSink::create(path)
            .or_fail(format_args!("cannot open trace file {path}"))?;
        klotski::telemetry::install(std::sync::Arc::new(sink));
    }
    let deadline = deadline_ms.map(|ms| std::time::Instant::now() + Duration::from_millis(ms));
    let result = klotski::controller::run_scenario(&scenario, deadline);
    if trace.is_some() {
        klotski::telemetry::uninstall();
    }
    let report = result.map_err(|e| CliError::failure(e.to_string()))?;

    out!(
        "{}: initial plan {} phases in {:.1}ms ({} states)",
        report.name,
        report.initial_phases,
        report.initial_latency_ms,
        report.initial_stats.states_visited
    );
    for s in &report.steps {
        let verdict = if s.paused {
            "PAUSE"
        } else if s.safe {
            "ok"
        } else {
            "UNSAFE"
        };
        let canary = if s.canary { " canary" } else { "" };
        let drift = if s.drift_circuits + s.drift_switches > 0 {
            format!("  drift {}c/{}s", s.drift_circuits, s.drift_switches)
        } else {
            String::new()
        };
        out!(
            "  step {:>3}  {} x{}{canary}  util {:.3}{drift}  {verdict}",
            s.step,
            s.action,
            s.blocks,
            s.max_utilization
        );
        if let Some(reason) = &s.pause_reason {
            out!("            reason: {reason}");
        }
    }
    for r in &report.replans {
        if r.ok {
            out!(
                "  replan after step {}: {} phases in {:.1}ms \
                 ({} states, {} esc hits, {} rescaled)",
                r.at_step,
                r.phases,
                r.latency_ms,
                r.stats.states_visited,
                r.stats.cache_hits,
                r.stats.rescaled
            );
        } else {
            out!(
                "  replan after step {} FAILED in {:.1}ms: {}",
                r.at_step,
                r.latency_ms,
                r.error.as_deref().unwrap_or("unknown")
            );
        }
    }
    if let Some(rb) = &report.rollback {
        let to = match rb.to_step {
            Some(s) => format!("step {s}"),
            None => "initial state".to_string(),
        };
        out!(
            "  rollback at step {} to {to} ({} snapshots skipped, {})",
            rb.at_step,
            rb.snapshots_skipped,
            if rb.safe { "audits safe" } else { "UNSAFE" }
        );
    }
    let outcome = if report.completed {
        "completed"
    } else if report.rolled_back {
        "rolled back"
    } else {
        "aborted"
    };
    out!(
        "{outcome}: {} steps, {} audits, {} pauses, {} replans  (fingerprint {:016x})",
        report.steps.len(),
        report.audit_stats.live_audits,
        report.pauses(),
        report.replans.len(),
        report.fingerprint()
    );
    if let Some(reason) = &report.abort_reason {
        out!("reason: {reason}");
    }
    if let Some(path) = &trace {
        out!("trace written to {path}");
    }
    if let Some(out) = out {
        let json = serde_json::to_string_pretty(&report).or_fail("serialization failed")?;
        std::fs::write(&out, json).or_fail(format_args!("cannot write {out}"))?;
        out!("report written to {out}");
    }
    if let Some(dir) = flight_dump {
        match &report.flight {
            Some(bundle) => {
                std::fs::create_dir_all(&dir).or_fail(format_args!("cannot create {dir}"))?;
                // Bundle names inherit migration names like "topo-A/hgrid",
                // so flatten path separators before using them as a file.
                let file =
                    format!("{}-{}.json", bundle.name, bundle.trigger).replace(['/', '\\'], "-");
                let path = format!("{dir}/{file}");
                std::fs::write(&path, bundle.to_json())
                    .or_fail(format_args!("cannot write {path}"))?;
                out!(
                    "flight bundle ({}, {} events) written to {path}",
                    bundle.trigger,
                    bundle.events.len()
                );
            }
            None => out!("no flight bundle: the run never paused, rolled back, or aborted"),
        }
    }
    if report.completed {
        Ok(())
    } else {
        Err(CliError::failure("migration did not complete"))
    }
}

fn cmd_serve(mut args: Vec<String>) -> Result<(), CliError> {
    let mut config = ServiceConfig::default();
    if let Some(addr) = take_flag::<String>(&mut args, "--addr")? {
        config.addr = addr;
    } else {
        config.addr = "127.0.0.1:8645".into();
    }
    if let Some(workers) = take_flag(&mut args, "--workers")? {
        config.workers = workers;
    }
    if let Some(depth) = take_flag(&mut args, "--queue-depth")? {
        config.queue_depth = depth;
    }
    // `--cache N`: plans kept, and with each its search's ESC verdicts, so N
    // bounds verdict reuse as well (0 turns both off).
    if let Some(cache) = take_flag(&mut args, "--cache")? {
        config.cache_capacity = cache;
    }
    if let Some(ms) = take_flag::<u64>(&mut args, "--deadline-ms")? {
        config.default_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(cap) = take_flag(&mut args, "--sse-max-subscribers")? {
        config.sse_max_subscribers = cap;
    }
    if let Some(dir) = take_flag::<String>(&mut args, "--state-dir")? {
        config.state_dir = Some(std::path::PathBuf::from(dir));
    }
    if !args.is_empty() {
        return Err(CliError::usage());
    }

    signal::install_handlers();
    let service = Service::start(config.clone()).or_fail("cannot start service")?;
    out!(
        "klotski-service listening on http://{} ({} workers, queue depth {})",
        service.local_addr(),
        config.workers,
        config.queue_depth
    );
    if let Some(dir) = &config.state_dir {
        out!("warm state: journal under {}", dir.display());
    }
    out!(
        "endpoints: POST /v1/plan  POST /v1/audit  POST /v1/run  GET /v1/jobs/{{id}}  GET /v1/jobs/{{id}}/events  GET /metrics  GET /healthz"
    );
    service.run_until_signalled();
    out!("drained; bye");
    Ok(())
}
