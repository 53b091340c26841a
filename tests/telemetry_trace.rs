//! End-to-end trace test: `klotski plan --trace --stats` through the real
//! binary produces a schema-valid JSONL trace with the expected span
//! hierarchy, and the `klotski trace` subcommand accepts it.

use klotski::telemetry::{parse_line, validate_trace, Record};
use std::process::Command;

fn klotski(args: &[&str], dir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_klotski"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn plan_trace_round_trips_through_the_validator() {
    let dir = std::env::temp_dir().join(format!("klotski-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let out = klotski(&["export", "A", "a.json"], &dir);
    assert!(out.status.success(), "{out:?}");

    let out = klotski(&["plan", "a.json", "--trace", "t.jsonl", "--stats"], &dir);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "search statistics",
        "states visited",
        "states pruned",
        "esc cache hits",
        "hit rate",
        "satcheck time",
        "total planning",
        "trace written to t.jsonl",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    let text = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
    let summary = validate_trace(&text).expect("trace validates");
    assert!(
        summary.spans >= 3,
        "cli -> pipeline -> planner: {summary:?}"
    );
    assert_eq!(summary.roots, 1, "single root span: {summary:?}");

    // The span chain must be cli.plan -> pipeline.plan -> astar.plan, and
    // the request's other stages sit beside the search under pipeline.plan.
    let mut spans = std::collections::HashMap::new();
    for line in text.lines() {
        if let Ok(Record::Span {
            name, id, parent, ..
        }) = parse_line(line)
        {
            spans.insert(name, (id, parent));
        }
    }
    let (cli_id, cli_parent) = spans["cli.plan"];
    let (pipe_id, pipe_parent) = spans["pipeline.plan"];
    let (_, astar_parent) = spans["astar.plan"];
    assert_eq!(cli_parent, 0);
    assert_eq!(pipe_parent, cli_id);
    assert_eq!(astar_parent, pipe_id);
    for stage in ["pipeline.build", "pipeline.validate", "pipeline.encode"] {
        assert_eq!(spans[stage].1, pipe_id, "{stage} under pipeline.plan");
    }

    // The trace subcommand agrees.
    let out = klotski(&["trace", "t.jsonl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("trace ok:"), "{stdout}");

    // And rejects a corrupted trace with a nonzero exit.
    std::fs::write(dir.join("bad.jsonl"), "not json\n").unwrap();
    let out = klotski(&["trace", "bad.jsonl"], &dir);
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

/// `klotski trace summarize t.jsonl | head -1`: the reader takes one line and
/// leaves. The trace is long enough (one timeline line per controller span)
/// that the CLI is still writing when the pipe closes; that is the end of a
/// quiet, successful run — not a "failed printing to stdout" panic.
#[test]
fn output_into_a_closed_pipe_ends_the_cli_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("klotski-epipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // ~2 MB of timeline, far past any pipe buffer.
    let trace: String = (1..=30_000)
        .map(|i| {
            format!(
                "{{\"type\":\"span\",\"name\":\"controller.phase\",\"id\":{i},\"parent\":0,\
                 \"thread\":\"main\",\"start_us\":{i},\"dur_us\":1,\
                 \"fields\":{{\"step\":{i},\"action\":\"drain-fa-grid-v1\",\"outcome\":\"advance\"}}}}\n"
            )
        })
        .collect();
    validate_trace(&trace).expect("the synthetic trace is schema-valid");
    std::fs::write(dir.join("long.jsonl"), trace).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_klotski"))
        .args(["trace", "summarize", "long.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("span families"), "{first}");
    drop(stdout); // the reader leaves
    let status = child.wait().unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(stderr, "");

    let _ = std::fs::remove_dir_all(&dir);
}
