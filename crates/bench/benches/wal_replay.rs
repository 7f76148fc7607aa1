//! Criterion bench: WAL append overhead and recovery replay speed.
//!
//! Three measurements around `replication::{wal, recovery}`:
//!
//! * `run/plain` vs `run/durable` — the full simulation with and without
//!   write-ahead logging, pricing the append path (frame + CRC + copy)
//!   that every durable transition pays;
//! * `recover/*` — a full `recover()` from the end-of-run log at two
//!   checkpoint intervals: genesis-only (replay the whole run) and a
//!   64-record interval (replay only the tail past the last snapshot).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_replication::{
    recover, DurabilityConfig, FaultPlan, Protocol, SimConfig, Simulation, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

fn config(durability: DurabilityConfig) -> SimConfig {
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
        fault: FaultPlan::none(),
        durability,
        ..SimConfig::default()
    }
}

fn bench_wal_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_replay");
    group.sample_size(10);

    let durable_cfgs = [
        ("genesis-ckpt", DurabilityConfig { enabled: true, checkpoint_every: 0 }),
        ("ckpt-64", DurabilityConfig { enabled: true, checkpoint_every: 64 }),
    ];

    // Sanity: logging is observation-only.
    let plain =
        Simulation::new(config(DurabilityConfig::default())).expect("valid sim config").run();
    let durable = Simulation::new(config(durable_cfgs[1].1)).expect("valid sim config").run();
    assert_eq!(plain.final_master, durable.final_master);
    assert_eq!(plain.metrics.normalized(), durable.metrics.normalized());

    // The simulation with and without the WAL append path.
    group.bench_with_input(BenchmarkId::new("run", "plain"), &(), |b, ()| {
        b.iter(|| {
            black_box(
                Simulation::new(config(DurabilityConfig::default()))
                    .expect("valid sim config")
                    .run(),
            )
        });
    });
    group.bench_with_input(BenchmarkId::new("run", "durable"), &(), |b, ()| {
        b.iter(|| {
            black_box(Simulation::new(config(durable_cfgs[1].1)).expect("valid sim config").run())
        });
    });

    // Recovery replay: whole-run tail vs checkpoint-bounded tail.
    for (label, durability) in durable_cfgs {
        let report = Simulation::new(config(durability)).expect("valid sim config").run();
        let artifacts = report.durable.expect("durability enabled");
        group.bench_with_input(BenchmarkId::new("recover", label), &artifacts, |b, d| {
            b.iter(|| black_box(recover(&d.arena, &d.storage).expect("recovers")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wal_replay);
criterion_main!(benches);
