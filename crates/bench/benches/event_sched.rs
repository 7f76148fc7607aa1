//! Criterion bench: the event-driven scheduler on a fleet large enough
//! that a per-tick fleet traversal would dominate.
//!
//! The configuration is sparse on purpose — low generation rate, long
//! reconnect cadence — so most ticks have *no* due work. That is the
//! regime the scheduler targets: the event queue pays O(due events) per
//! tick, not O(fleet).

use criterion::{criterion_group, criterion_main, Criterion};

use histmerge_replication::{Protocol, SimConfig, Simulation, SyncStrategy};
use histmerge_workload::generator::ScenarioParams;

fn config() -> SimConfig {
    SimConfig {
        n_mobiles: 2_000,
        duration: 400,
        base_rate: 0.2,
        mobile_rate: 0.004,
        connect_every: 120,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::AdaptiveWindow { max_hb: 64 },
        workload: ScenarioParams { n_vars: 128, seed: 23, ..ScenarioParams::default() },
        base_capacity: 5_000.0,
        ..SimConfig::default()
    }
}

fn bench_event_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_sched");
    group.sample_size(10);
    group.bench_function("event_queue", |b| {
        b.iter(|| Simulation::new(config()).expect("valid config").run())
    });
    group.finish();
}

criterion_group!(benches, bench_event_sched);
criterion_main!(benches);
