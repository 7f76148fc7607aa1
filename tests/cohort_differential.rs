//! Tests of the cohort install pipeline: bounded wave re-speculation for
//! invalidated cohort remainders and the mask-disjoint conflict-free
//! merge fast path. Their outcomes are pinned by the committed digests of
//! `tests/golden.rs`. Here: a guard that both mechanisms actually engage
//! on the shapes they target, and a deterministic fault-matrix sweep
//! holding the convergence oracle over every fault kind under bounded
//! admission.

use histmerge::replication::{
    AdmissionConfig, FaultKind, FaultPlan, FaultRates, Parallelism, Protocol, SimConfig, SimReport,
    Simulation, SyncPath, SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

/// A cohort-heavy scenario: synchronized reconnects put the whole fleet
/// into one merge cohort, and a hot, conflict-prone workload makes
/// earlier installs invalidate later members' speculations — the regime
/// waves exist for.
fn config(n_mobiles: usize, seed: u64, hot_prob: f64) -> SimConfig {
    SimConfig {
        n_mobiles,
        duration: 300,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 120 },
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
        // Pin the worker count so the speculative phase engages on any
        // host; the outcome is parallelism-independent either way.
        parallelism: Parallelism::Threads(4),
        ..SimConfig::default()
    }
}

/// Runs `config` with the convergence oracle on and asserts it holds.
fn run_checked(mut config: SimConfig, label: &str) -> SimReport {
    config.check_convergence = true;
    let report = Simulation::new(config).expect("valid sim config").run();
    let convergence = report.convergence.expect("oracle requested");
    assert!(convergence.holds(), "{label}: convergence oracle failed: {convergence:?}");
    report
}

/// The mechanisms actually engage in the regimes they target:
/// a hot synchronized cohort drives wave rounds, and a cold disjoint
/// cohort drives fast-path merges. Guards against the pipeline silently
/// falling back to serial live merges everywhere.
#[test]
fn tuned_mechanisms_engage() {
    // Hot workload: earlier installs invalidate later speculations.
    let hot = config(8, 42, 0.9);
    let hot = run_checked(hot, "engage/hot");
    assert!(
        hot.metrics.speculative_retries > 0,
        "hot scenario produced no invalidations to wave over"
    );
    assert!(hot.metrics.cohort.wave_rounds > 0, "no wave ever ran");
    assert!(hot.metrics.cohort.edge_cache_appends > 0, "edge cache never appended");

    // Cold workload: wide keyspace, no hotspot — pending histories are
    // usually disjoint from the concurrent base slice.
    let mut cold = config(6, 43, 0.0);
    cold.workload.n_vars = 512;
    cold.workload.hot_fraction = 0.0;
    let cold = run_checked(cold, "engage/cold");
    assert!(cold.metrics.cohort.fastpath_merges > 0, "no merge ever took the fast path");
}

/// The fault-matrix row: every fault kind under bounded admission with
/// waves and the fast path engaged. The convergence oracle must hold for
/// every schedule, exactly as the plain fault matrix demands. `FAULT_SEEDS`
/// scales the schedules per cell (CI's fault-matrix job runs release with
/// a large matrix).
#[test]
fn seed_matrix_convergence_with_waves() {
    let seeds: u64 = std::env::var("FAULT_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4);
    const RATES: [f64; 2] = [0.1, 0.25];
    let kinds = [
        FaultKind::MessageLoss,
        FaultKind::MessageDuplication,
        FaultKind::MessageReorder,
        FaultKind::MidMergeDisconnect,
        FaultKind::BaseCrash,
    ];
    let mut schedules = 0usize;
    for kind in kinds {
        for s in 0..seeds {
            let rate = RATES[(s as usize) % RATES.len()];
            let mut cfg = config(6, 900 + s, 0.6);
            cfg.sync_path = SyncPath::Session;
            cfg.fault = FaultPlan::seeded(7000 + s, FaultRates::only(kind, rate));
            cfg.admission = AdmissionConfig::bounded(3);
            cfg.check_convergence = true;
            let report = Simulation::new(cfg).expect("valid sim config").run();
            let convergence = report.convergence.expect("oracle requested");
            assert!(
                convergence.holds(),
                "oracle failed for {kind:?} seed {s} rate {rate}: {convergence:?}"
            );
            schedules += 1;
        }
    }
    assert_eq!(schedules, kinds.len() * seeds as usize);
}
