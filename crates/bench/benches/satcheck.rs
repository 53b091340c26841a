//! Satisfiability-checking microbenchmarks: the cost one ESC cache hit
//! avoids (§4.2), across cache modes.

use criterion::{criterion_group, criterion_main, Criterion};
use klotski_bench::runner::spec_for;
use klotski_core::migration::MigrationOptions;
use klotski_core::satcheck::{EscMode, SatChecker};
use klotski_core::CompactState;
use klotski_parallel::default_lanes;
use klotski_topology::presets::PresetId;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("satcheck");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(6));
    for id in [PresetId::B, PresetId::C, PresetId::E] {
        let spec = spec_for(id, &MigrationOptions::default());
        let v =
            CompactState::from_counts(spec.target_counts.counts().iter().map(|&c| c / 2).collect());
        let state = spec.state_for(&v);

        group.bench_function(format!("full-evaluation/{id}"), |b| {
            let mut checker = SatChecker::with_threads(&spec, EscMode::Off, 1);
            b.iter(|| checker.check(&spec, &v, &state, None))
        });
        group.bench_function(format!("full-evaluation-parallel/{id}"), |b| {
            let mut checker = SatChecker::with_threads(&spec, EscMode::Off, default_lanes());
            b.iter(|| checker.check(&spec, &v, &state, None))
        });
        group.bench_function(format!("compact-cache-hit/{id}"), |b| {
            let mut checker = SatChecker::new(&spec, EscMode::Compact);
            checker.check(&spec, &v, &state, None); // warm
            b.iter(|| checker.check(&spec, &v, &state, None))
        });
        group.bench_function(format!("fulltopo-cache-hit/{id}"), |b| {
            let mut checker = SatChecker::new(&spec, EscMode::FullTopology);
            checker.check(&spec, &v, &state, None); // warm
            b.iter(|| checker.check(&spec, &v, &state, None))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
