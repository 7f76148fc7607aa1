//! Criterion bench: the price of fault recovery on the session path.
//!
//! Times the full simulation two ways — resumable sessions with
//! `FaultPlan::none()`, and resumable sessions at a 10% uniform fault
//! rate. The difference prices the recovery machinery (retries, ledger
//! resumes, re-offered sessions).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_replication::{FaultPlan, FaultRates, Protocol, SimConfig, Simulation, SyncStrategy};
use histmerge_workload::generator::ScenarioParams;

fn config(fault: FaultPlan) -> SimConfig {
    SimConfig {
        n_mobiles: 4,
        duration: 300,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 150 },
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.4,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            hot_fraction: 0.08,
            hot_prob: 0.6,
            seed: 7,
            ..ScenarioParams::default()
        },
        fault,
        ..SimConfig::default()
    }
}

fn bench_fault_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_path");
    group.sample_size(10);

    let variants = [
        ("session-fault-free", FaultPlan::none()),
        ("session-10pct-faults", FaultPlan::seeded(7, FaultRates::uniform(0.1))),
    ];
    for (label, fault) in variants {
        group.bench_with_input(BenchmarkId::new("run", label), &fault, |b, &f| {
            b.iter(|| black_box(Simulation::new(config(f)).expect("valid sim config").run()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fault_path);
criterion_main!(benches);
