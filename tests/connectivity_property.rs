//! Property-based tests of the structured connectivity layer
//! (`replication::connectivity`) and the storm-safe admission control it
//! feeds.
//!
//! Four families:
//!
//! 1. link traces are pure functions of `(model, seed, mobile, tick)` —
//!    re-instantiating a model replays the identical trace, and `next_up`
//!    really is the *next* up-tick (nothing up is skipped in between);
//! 2. `AlwaysOn` (and unbounded admission) is the identity at the
//!    simulation level: explicit defaults reproduce the implicit-default
//!    run byte-for-byte, for arbitrary workload seeds;
//! 3. under any outage storm, admission control keeps every merge cohort
//!    within its bound;
//! 4. the deferred queue always drains: every shed reconnect is
//!    eventually admitted (`shed == deferred_drained`) when the storm
//!    ends inside the horizon.

use proptest::prelude::*;

use histmerge::replication::{
    AdmissionConfig, ConnectivityModel, LinkTrace, Protocol, SimConfig, Simulation, SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

fn config(workload_seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 240,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 120 },
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.4,
            seed: workload_seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Re-instantiating a model from the same parameters replays the
    /// byte-identical trace — the phases are derived by hashing, never by
    /// drawing from shared RNG state.
    #[test]
    fn traces_are_deterministic_under_seed_reuse(
        seed in 0u64..10_000,
        period in 1u64..64,
        on_frac in 1u64..=64,
        mobile in 0usize..512,
        tick in 0u64..100_000,
    ) {
        let on_ticks = (on_frac % period).max(1);
        let a = ConnectivityModel::DutyCycle { period, on_ticks, seed };
        let b = ConnectivityModel::DutyCycle { period, on_ticks, seed };
        prop_assert_eq!(a.link_up(mobile, tick), b.link_up(mobile, tick));
        prop_assert_eq!(a.next_up(mobile, tick), b.next_up(mobile, tick));
        prop_assert_eq!(a.fault_scale(mobile, tick), b.fault_scale(mobile, tick));
        let h = ConnectivityModel::CellHandoff {
            interval: period.max(2),
            handoff_ticks: on_ticks.min(period.max(2)),
            fault_boost: 2.5,
            seed,
        };
        let h2 = h;
        prop_assert_eq!(h.fault_scale(mobile, tick), h2.fault_scale(mobile, tick));
    }

    /// `next_up` lands on an up-tick, never moves backwards, and skips
    /// nothing: every tick strictly between `from` and the answer is down.
    #[test]
    fn next_up_is_the_earliest_up_tick(
        seed in 0u64..10_000,
        period in 1u64..48,
        on_frac in 1u64..=48,
        mobile in 0usize..64,
        from in 0u64..10_000,
    ) {
        let on_ticks = (on_frac % period).max(1);
        let model = ConnectivityModel::DutyCycle { period, on_ticks, seed };
        let up = model.next_up(mobile, from);
        prop_assert!(up >= from);
        prop_assert!(up - from < period, "next_up overshot a full period");
        prop_assert!(model.link_up(mobile, up), "next_up landed on a down tick");
        for t in from..up {
            prop_assert!(!model.link_up(mobile, t), "next_up skipped up tick {t}");
        }
    }

    /// The outage window is exact and fleet-wide, and the fault boost is
    /// confined to the post-outage surge.
    #[test]
    fn outage_storm_window_is_exact(
        start in 0u64..5_000,
        outage in 1u64..200,
        surge in 1u64..200,
        mobile in 0usize..64,
        probe in 0u64..6_000,
    ) {
        let model = ConnectivityModel::OutageStorm {
            start,
            outage_ticks: outage,
            surge_ticks: surge,
            fault_boost: 3.0,
        };
        let down = probe >= start && probe < start + outage;
        prop_assert_eq!(model.link_up(mobile, probe), !down);
        if down {
            prop_assert_eq!(model.next_up(mobile, probe), start + outage);
        } else {
            prop_assert_eq!(model.next_up(mobile, probe), probe);
        }
        let surging = probe >= start + outage && probe < start + outage + surge;
        prop_assert_eq!(model.fault_scale(mobile, probe), if surging { 3.0 } else { 1.0 });
    }
}

proptest! {
    // Simulation-level properties run fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Spelling out the defaults (`AlwaysOn`, unbounded admission) is the
    /// identity for any workload seed: the connectivity layer adjusts
    /// schedules after the legacy cadence draws and never touches RNG
    /// state.
    #[test]
    fn explicit_always_on_reproduces_the_default_run(seed in 0u64..10_000) {
        let implicit = Simulation::new(config(seed)).expect("valid sim config").run();
        let mut explicit_cfg = config(seed);
        explicit_cfg.connectivity = ConnectivityModel::AlwaysOn;
        explicit_cfg.admission = AdmissionConfig::unbounded();
        let explicit = Simulation::new(explicit_cfg).expect("valid sim config").run();
        prop_assert_eq!(&implicit.final_master, &explicit.final_master);
        prop_assert_eq!(implicit.base_commits, explicit.base_commits);
        prop_assert_eq!(implicit.metrics.normalized(), explicit.metrics.normalized());
    }

    /// Whatever the storm geometry, no merge cohort ever exceeds the
    /// admission bound, and every shed reconnect is eventually admitted
    /// (the deferred queue drains to empty once the storm passes).
    #[test]
    fn storm_reconnects_respect_the_admission_bound(
        seed in 0u64..10_000,
        cap in 1usize..=3,
        start in 40u64..100,
        outage in 8u64..40,
    ) {
        let mut cfg = config(seed);
        cfg.synchronized_reconnects = true; // worst case: whole-fleet cohorts
        cfg.connectivity = ConnectivityModel::OutageStorm {
            start,
            outage_ticks: outage,
            surge_ticks: 10,
            fault_boost: 1.0,
        };
        cfg.admission = AdmissionConfig::bounded(cap);
        cfg.check_convergence = true;
        let report = Simulation::new(cfg).expect("valid sim config").run();
        prop_assert!(
            report.metrics.batch_sizes.iter().all(|&b| b <= cap),
            "cohort exceeded the admission bound {cap}: {:?}",
            report.metrics.batch_sizes
        );
        let storm = report.metrics.storm;
        // The storm ends by tick 140 and the horizon is 240: everything
        // shed must have been re-admitted.
        prop_assert_eq!(storm.shed, storm.deferred_drained, "deferred queue left residue");
        prop_assert_eq!(report.metrics.defer_waits.len() as u64, storm.deferred_drained);
        prop_assert!(report.convergence.expect("oracle requested").holds());
    }
}
