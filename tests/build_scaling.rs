//! The stages before the search do work linear in the admitted document.
//!
//! A quadratic region build once let a document inside the NPD limits hold
//! a worker for minutes while every test stayed green. Here preset A's pods
//! are scaled ×1 000 and ×4 000 (about 15 000 and 60 000 switches), then its
//! RSWs per pod (about 9 000 and 36 000), and each stage a request runs
//! before its search — NPD decode, region build, CSR build and spec build —
//! is timed at both sizes, minimum of three runs.
//! At 4× the switches a linear stage takes about 4× as long and a quadratic
//! one 16×; each must stay under 8×. (The document describes the region by
//! counts, so its decode stays flat.) Ignored by default because only
//! optimised code times meaningfully. Run with:
//!
//! ```text
//! cargo test --release --test build_scaling -- --ignored
//! ```

use std::time::{Duration, Instant};

use klotski::core::migration::{MigrationBuilder, MigrationOptions};
use klotski::npd::convert::{npd_to_region, region_to_npd};
use klotski::npd::Npd;
use klotski::routing::CsrGraph;
use klotski::topology::presets::{self, Preset, PresetId};
use klotski::topology::region::build_region;

const STAGES: [&str; 4] = ["decode", "region build", "CSR build", "spec build"];

/// Preset A's exported document with its pods and its RSWs per pod
/// multiplied by `pods` and `rsws`.
fn document(pods: usize, rsws: usize) -> String {
    let mut cfg = presets::config(PresetId::A);
    for dc in &mut cfg.dcs {
        dc.pods *= pods;
        dc.rsws_per_pod *= rsws;
    }
    region_to_npd(&cfg).to_json_pretty().unwrap()
}

/// One pass over the stages, each timed; also returns the switch count.
fn stage_times(text: &str) -> ([Duration; 4], usize) {
    let start = Instant::now();
    let npd = Npd::from_json(text).unwrap();
    let decode = start.elapsed();

    let start = Instant::now();
    let config = npd_to_region(&npd).unwrap();
    let (topology, handles) = build_region(&config);
    let region = start.elapsed();

    let start = Instant::now();
    let csr = CsrGraph::build(&topology);
    let csr_build = start.elapsed();
    std::hint::black_box(csr);

    let switches = topology.num_switches();
    let preset = Preset {
        id: PresetId::A,
        config,
        topology,
        handles,
    };
    let start = Instant::now();
    let spec = MigrationBuilder::for_preset(&preset, &MigrationOptions::default()).unwrap();
    let spec_build = start.elapsed();
    std::hint::black_box(spec);

    ([decode, region, csr_build, spec_build], switches)
}

/// Each stage's minimum over three passes, and the switch count.
fn min_of_three(text: &str) -> ([Duration; 4], usize) {
    let (mut best, switches) = stage_times(text);
    for _ in 0..2 {
        let (times, _) = stage_times(text);
        for (b, t) in best.iter_mut().zip(times) {
            *b = (*b).min(t);
        }
    }
    (best, switches)
}

#[test]
#[ignore = "timing; run with --release -- --ignored"]
fn stages_before_the_search_scale_linearly() {
    for (axis, small, large) in [
        ("pods", document(1_000, 1), document(4_000, 1)),
        ("RSWs per pod", document(1, 1_000), document(1, 4_000)),
    ] {
        let (small, small_switches) = min_of_three(&small);
        let (large, large_switches) = min_of_three(&large);
        let growth = large_switches as f64 / small_switches as f64;
        assert!(
            (3.9..=4.0).contains(&growth),
            "{axis}: {small_switches} → {large_switches} switches"
        );
        for ((stage, s), l) in STAGES.iter().zip(small).zip(large) {
            let ratio = l.as_secs_f64() / s.as_secs_f64();
            eprintln!(
                "{axis}, {stage}: {s:?} at {small_switches} switches, \
                 {l:?} at {large_switches} ({ratio:.1}×)"
            );
            assert!(
                ratio < 8.0,
                "{axis}, {stage}: {s:?} → {l:?} ({ratio:.1}×) for {growth:.2}× the switches"
            );
        }
    }
}
