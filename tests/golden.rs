//! Golden behaviour digests: a fixed list of simulation scenarios, each
//! hashed to one FNV-1a-64 digest of what the run *did*, compared against
//! the committed `tests/golden/digests.txt`.
//!
//! The digest covers a behaviour projection of the report: the final
//! master, the base commit-id order, every `SyncRecord` except its
//! wall-clock `sync_ns`, the cost totals, and the outcome counters
//! (saved, backed-out, reprocessed, syncs, merge failures, window misses,
//! speculative hits and retries, and the storm and fault blocks). Wall
//! time and mechanism counters (`sched`, `cohort`, `wal`) stay out, so
//! removing or renaming a mechanism counter cannot move a digest.
//!
//! The base commit-id order is read from a second, durability-enabled run
//! of the same scenario (only a durable run reports its commit log).
//! Durability is observation-only, so the test also asserts that the
//! durable run's projection equals the plain run's.
//!
//! Scenarios: every `session_differential` scenario, the
//! `cohort_differential` shapes (protocol x strategy x cohort
//! size, plus its session-path and mechanism-engagement shapes and its
//! fault row) at fixed seeds, the `fault_property` fault-matrix and
//! storm rows at their default debug seeds, and the `crash_recovery`
//! crash-matrix runs (window-start clean and faulted, per-disconnect) at
//! seeds 0-1. Every scenario pins its worker count, so the speculative
//! counters do not depend on the host's CPUs.
//!
//! The digests were recorded while the simulator still carried five
//! knobs whose arms had to produce identical output (a per-tick fleet
//! scan beside the event queue, merge-scratch reuse, a pre-wave cohort
//! pipeline, a hand-set lean base log, and an atomic reconnection
//! handshake beside the session protocol); every arm of every knob hashed
//! to the committed digest. With those arms gone, the committed bytes are
//! the oracle for the one remaining path.
//!
//! When a change is meant to alter behaviour, the failure message prints
//! the freshly computed file; review the listed scenarios and commit it.

use std::fmt::Write as _;

use histmerge::replication::{
    AdmissionConfig, ConnectivityModel, DurabilityConfig, FaultKind, FaultPlan, FaultRates,
    Parallelism, Protocol, RetryBackoff, SimConfig, SimReport, Simulation, SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

const COMMITTED: &str = include_str!("golden/digests.txt");

/// Worker threads pinned for every scenario.
const WORKERS: usize = 4;

/// FNV-1a over formatted text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The behaviour projection of a report, minus the base commit order.
fn projection(report: &SimReport) -> String {
    let m = &report.metrics;
    let mut out = String::new();
    out.push_str("master:");
    for (var, value) in report.final_master.iter() {
        write!(out, "{}={value},", var.index()).unwrap();
    }
    out.push_str("\nrecords:");
    for r in &m.records {
        write!(
            out,
            "{}/{}/{}/{}/{}/{}/{}/{};",
            r.tick,
            r.mobile,
            r.pending,
            r.hb_len,
            r.saved,
            r.backed_out,
            r.reprocessed,
            r.merge_failed
        )
        .unwrap();
    }
    let c = &m.cost;
    write!(
        out,
        "\ncost:{:016x}/{:016x}/{:016x}/{:016x}",
        c.comm.to_bits(),
        c.base_cpu.to_bits(),
        c.base_io.to_bits(),
        c.mobile_cpu.to_bits()
    )
    .unwrap();
    write!(
        out,
        "\ncounters:saved={} backed_out={} reprocessed={} syncs={} merge_failures={} \
         window_misses={} spec_hits={} spec_retries={}",
        m.saved,
        m.backed_out,
        m.reprocessed,
        m.syncs,
        m.merge_failures,
        m.window_misses,
        m.speculative_hits,
        m.speculative_retries
    )
    .unwrap();
    let s = &m.storm;
    write!(
        out,
        "\nstorm:{}/{}/{}/{}/{}/{}/{}",
        s.shed,
        s.deferred_drained,
        s.deferred_peak,
        s.defer_wait_ticks,
        s.defer_wait_max,
        s.backoff_reschedules,
        s.backoff_delay_ticks
    )
    .unwrap();
    let f = &m.fault;
    write!(
        out,
        "\nfault:{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
        f.dropped,
        f.duplicated,
        f.reordered,
        f.mid_merge_disconnects,
        f.base_crashes,
        f.retries,
        f.abandoned_sessions,
        f.ledger_resumes,
        f.duplicate_installs_suppressed,
        f.recovered_sessions,
        f.trimmed_txns,
        f.double_resolutions,
        f.ledger_gaps
    )
    .unwrap();
    out
}

fn run(config: SimConfig) -> SimReport {
    let report = Simulation::new(config).expect("valid sim config").run();
    let convergence = report.convergence.expect("golden runs check convergence");
    assert!(convergence.holds(), "convergence oracle failed: {convergence:?}");
    report
}

/// The digest of one scenario: the plain run's projection plus the base
/// commit-id order of the same scenario run with durability enabled.
fn digest(config: &SimConfig, label: &str) -> u64 {
    let plain = run(config.clone());
    let mut durable_config = config.clone();
    durable_config.durability = DurabilityConfig { enabled: true, checkpoint_every: 64 };
    let durable = run(durable_config);
    let projected = projection(&plain);
    assert_eq!(projected, projection(&durable), "{label}: durability changed the run");
    let log = &durable.durable.as_ref().expect("durability enabled").log;
    assert_eq!(log.len(), plain.base_commits, "{label}: commit counts differ");
    let mut fnv = Fnv::new();
    fnv.write_str(&projected).unwrap();
    fnv.write_str("\ncommits:").unwrap();
    for (txn, _) in log {
        write!(fnv, "{},", txn.index()).unwrap();
    }
    fnv.0
}

/// The `session_differential` scenario shape.
fn session_scenario(protocol: Protocol, seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: 4,
        duration: 400,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 50,
        protocol,
        strategy: SyncStrategy::WindowStart { window: 200 },
        workload: ScenarioParams {
            n_vars: 64,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.3,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        ..SimConfig::default()
    }
}

/// The `cohort_differential` shape: synchronized reconnects put the whole
/// fleet into one merge cohort.
fn cohort_scenario(
    protocol: Protocol,
    strategy: SyncStrategy,
    n_mobiles: usize,
    seed: u64,
    hot_prob: f64,
) -> SimConfig {
    SimConfig {
        n_mobiles,
        duration: 300,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 40,
        protocol,
        strategy,
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.15,
            hot_prob,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 200.0,
        synchronized_reconnects: true,
        ..SimConfig::default()
    }
}

/// The `fault_property` shape: a faulted session run.
fn fault_scenario(seed: u64, strategy: SyncStrategy, fault: FaultPlan) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 240,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy,
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.4,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        fault,
        ..SimConfig::default()
    }
}

/// The `crash_recovery` shape: the durable session run the crash-point
/// matrix tortures. Durability is left off here; [`digest`]'s twin run
/// turns it on with the matrix's checkpoint interval.
fn crash_scenario(seed: u64, strategy: SyncStrategy, fault: FaultPlan) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 120,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 30,
        protocol: Protocol::merging_default(),
        strategy,
        workload: ScenarioParams {
            n_vars: 32,
            commutative_fraction: 0.4,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.5,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        fault,
        ..SimConfig::default()
    }
}

fn protocols() -> [Protocol; 2] {
    [Protocol::Reprocessing, Protocol::merging_default()]
}

/// Every golden scenario, labelled, in file order.
fn scenarios() -> Vec<(String, SimConfig)> {
    let mut out: Vec<(String, SimConfig)> = Vec::new();

    // session_differential: every scenario under both sync paths.
    let mut session = Vec::new();
    for protocol in protocols() {
        session.push((format!("accounting/{}", protocol.name()), session_scenario(protocol, 5)));
    }
    session.push(("merging".to_string(), session_scenario(Protocol::merging_default(), 6)));
    for protocol in protocols() {
        session.push((format!("convergence/{}", protocol.name()), session_scenario(protocol, 7)));
    }
    for n_mobiles in [4usize, 8] {
        for protocol in protocols() {
            let mut c = session_scenario(protocol, 8);
            c.n_mobiles = n_mobiles;
            session.push((format!("scaleup/{}/x{n_mobiles}", protocol.name()), c));
        }
    }
    for strategy in [SyncStrategy::PerDisconnectSnapshot, SyncStrategy::WindowStart { window: 100 }]
    {
        let mut c = session_scenario(Protocol::merging_default(), 9);
        c.strategy = strategy;
        c.workload.hot_prob = 0.8;
        c.n_mobiles = 6;
        session.push((format!("tradeoff/{}", strategy.name()), c));
    }
    for (name, config) in session {
        out.push((format!("session-diff/{name}/session"), config));
    }

    // cohort_differential: protocol x strategy x cohort size.
    let strategies = [
        SyncStrategy::WindowStart { window: 120 },
        SyncStrategy::AdaptiveWindow { max_hb: 60 },
        SyncStrategy::PerDisconnectSnapshot,
    ];
    for protocol in protocols() {
        for (k, strategy) in strategies.into_iter().enumerate() {
            for n_mobiles in [2usize, 5, 9] {
                let seed = 300 + 10 * k as u64 + n_mobiles as u64;
                out.push((
                    format!("cohort/{}/{}/x{n_mobiles}", protocol.name(), strategy.name()),
                    cohort_scenario(protocol, strategy, n_mobiles, seed, 0.6),
                ));
            }
        }
    }
    for n_mobiles in [3usize, 7] {
        let c = cohort_scenario(
            Protocol::merging_default(),
            SyncStrategy::WindowStart { window: 120 },
            n_mobiles,
            400 + n_mobiles as u64,
            0.6,
        );
        out.push((format!("cohort/session/x{n_mobiles}"), c));
    }
    let hot = cohort_scenario(
        Protocol::merging_default(),
        SyncStrategy::WindowStart { window: 120 },
        8,
        42,
        0.9,
    );
    out.push(("cohort/engage-hot".to_string(), hot));
    let mut cold = cohort_scenario(
        Protocol::merging_default(),
        SyncStrategy::WindowStart { window: 120 },
        6,
        43,
        0.0,
    );
    cold.workload.n_vars = 512;
    cold.workload.hot_fraction = 0.0;
    out.push(("cohort/engage-cold".to_string(), cold));
    // The cohort fault row: every kind under bounded admission.
    const COHORT_RATES: [f64; 2] = [0.1, 0.25];
    for kind in FaultKind::ALL {
        for s in 0..4u64 {
            let rate = COHORT_RATES[(s as usize) % COHORT_RATES.len()];
            let mut c = cohort_scenario(
                Protocol::merging_default(),
                SyncStrategy::WindowStart { window: 120 },
                6,
                900 + s,
                0.6,
            );
            c.fault = FaultPlan::seeded(7000 + s, FaultRates::only(kind, rate));
            c.admission = AdmissionConfig::bounded(3);
            out.push((format!("cohort-faults/{}/seed{s}", kind.name()), c));
        }
    }

    // fault_property: the fault-matrix and storm rows.
    const RATES: [f64; 3] = [0.05, 0.15, 0.3];
    let fault_strategies =
        [SyncStrategy::WindowStart { window: 120 }, SyncStrategy::PerDisconnectSnapshot];
    for kind in FaultKind::ALL {
        for strategy in fault_strategies {
            for seed in 0..4u64 {
                let rate = RATES[(seed % RATES.len() as u64) as usize];
                let fault = FaultPlan::seeded(seed, FaultRates::only(kind, rate));
                out.push((
                    format!("fault-matrix/{}/{}/seed{seed}", kind.name(), strategy.name()),
                    fault_scenario(seed, strategy, fault),
                ));
            }
        }
    }
    for kind in FaultKind::ALL {
        for strategy in fault_strategies {
            for seed in 0..4u64 {
                let fault = FaultPlan::seeded(seed, FaultRates::only(kind, 0.1));
                let mut c = fault_scenario(seed, strategy, fault);
                c.connectivity = ConnectivityModel::OutageStorm {
                    start: 80,
                    outage_ticks: 24,
                    surge_ticks: 16,
                    fault_boost: 3.0,
                };
                c.admission = AdmissionConfig::bounded(2);
                c.session.backoff = RetryBackoff::enabled();
                out.push((format!("storm/{}/{}/seed{seed}", kind.name(), strategy.name()), c));
            }
        }
    }

    // crash_recovery: the crash-point matrix runs.
    for seed in 0..2u64 {
        let window = SyncStrategy::WindowStart { window: 80 };
        for (fault, kind) in [
            (FaultPlan::none(), "fault-free"),
            (FaultPlan::seeded(seed, FaultRates::uniform(0.15)), "faulted"),
        ] {
            out.push((
                format!("crash-matrix/window-start/{kind}/seed{seed}"),
                crash_scenario(seed, window, fault),
            ));
        }
    }
    for seed in 0..2u64 {
        out.push((
            format!("crash-matrix/per-disconnect/seed{seed}"),
            crash_scenario(seed, SyncStrategy::PerDisconnectSnapshot, FaultPlan::none()),
        ));
    }

    for (_, config) in &mut out {
        config.parallelism = Parallelism::Threads(WORKERS);
        config.check_convergence = true;
    }
    out
}

#[test]
fn every_scenario_matches_its_committed_digest() {
    let committed: Vec<(&str, &str)> = COMMITTED
        .lines()
        .map(|line| line.split_once(' ').expect("`<label> <digest>` lines"))
        .collect();
    let mut fresh = String::new();
    let mut mismatches = Vec::new();
    for (k, (label, config)) in scenarios().into_iter().enumerate() {
        let line = format!("{label} {:016x}", digest(&config, &label));
        writeln!(fresh, "{line}").unwrap();
        if committed.get(k).map(|(l, d)| format!("{l} {d}")) != Some(line.clone()) {
            mismatches.push(line);
        }
    }
    assert_eq!(
        committed.len(),
        fresh.lines().count(),
        "scenario list and committed digests differ in length; fresh file:\n{fresh}"
    );
    assert!(
        mismatches.is_empty(),
        "{} scenario digest(s) moved: {mismatches:#?}\nfresh file:\n{fresh}",
        mismatches.len()
    );
}
