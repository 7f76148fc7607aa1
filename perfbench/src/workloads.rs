//! The benchmark's workloads, as `SimConfig`s built from a seed.
//!
//! Each config sets only workload-shape fields. Every mechanism knob
//! (`scheduler`, `reuse_merge_scratch`, `lean_base_log`, `compaction`,
//! `cohort`) stays at `SimConfig::default()`, so the benchmark measures the
//! configuration that ships and needs no edit when a knob flips or goes.
//! The one exception is `sync_path: SyncPath::Session` in `durable-storm`:
//! the legacy path cannot represent faults, so faults require it.

use histmerge_replication::{
    AdmissionConfig, ConnectivityModel, DurabilityConfig, FaultPlan, FaultRates, Parallelism,
    Protocol, RetryBackoff, SessionConfig, SimConfig, SyncPath, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

/// Worker threads for batched merges. Pinned (never `Auto`) so every
/// host runs the same worker count; at most the 2 cores of the reference
/// host.
pub const WORKERS: usize = 2;

/// The workload names, in report order.
pub const NAMES: [&str; 3] = ["cohort", "durable-storm", "soak"];

/// The E19/E23 random-mix shape shared by `cohort` and `soak`.
fn merge_mix(seed: u64) -> ScenarioParams {
    ScenarioParams {
        n_vars: 256,
        commutative_fraction: 0.7,
        guarded_fraction: 0.1,
        read_only_fraction: 0.1,
        hot_fraction: 0.05,
        hot_prob: 0.05,
        seed,
        ..ScenarioParams::default()
    }
}

/// Simulations per run of workload `name` (`None` for an unknown name).
/// A run simulates several independent members, each from its own seed
/// derived from the workload seed, so that seed-to-seed differences in
/// the inputs average out over more reconnections per run.
pub fn members(name: &str) -> Option<u64> {
    match name {
        "cohort" => Some(COHORT_MEMBERS),
        "durable-storm" => Some(STORM_MEMBERS),
        "soak" => Some(SOAK_MEMBERS),
        _ => None,
    }
}

const COHORT_MEMBERS: u64 = 4;
const STORM_MEMBERS: u64 = 4;
const SOAK_MEMBERS: u64 = 1;

/// The seed of member `j` of a run with workload seed `seed`
/// (splitmix64, so nearby workload seeds share no member seeds).
pub fn member_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed.wrapping_add(j.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The configurations of one run of workload `name` for `seed`, one per
/// member, or `None` for an unknown name.
pub fn configs(name: &str, seed: u64) -> Option<Vec<SimConfig>> {
    let n = members(name)?;
    Some((0..n).map(|j| config(name, member_seed(seed, j))).collect())
}

/// The configuration of one member of workload `name` (a known name).
fn config(name: &str, seed: u64) -> SimConfig {
    match name {
        // E23's shape: synchronized reconnects make every cadence tick
        // one fleet-sized merge cohort against one growing H_b.
        "cohort" => SimConfig {
            n_mobiles: 128,
            duration: 200,
            base_rate: 0.2,
            mobile_rate: 0.05,
            connect_every: 25,
            protocol: Protocol::merging_default(),
            strategy: SyncStrategy::WindowStart { window: 100 },
            workload: merge_mix(seed),
            base_capacity: 10_000.0,
            parallelism: Parallelism::Threads(WORKERS),
            synchronized_reconnects: true,
            ..SimConfig::default()
        },
        // E21's capped storm cell on the session path, with seeded faults
        // of every kind and the write-ahead log on.
        "durable-storm" => SimConfig {
            n_mobiles: 120,
            duration: 200,
            base_rate: 0.2,
            mobile_rate: 0.05,
            connect_every: 40,
            protocol: Protocol::merging_default(),
            strategy: SyncStrategy::WindowStart { window: 150 },
            workload: ScenarioParams {
                n_vars: 192,
                commutative_fraction: 0.7,
                guarded_fraction: 0.1,
                read_only_fraction: 0.1,
                hot_fraction: 0.05,
                hot_prob: 0.1,
                seed,
                ..ScenarioParams::default()
            },
            base_capacity: 10_000.0,
            parallelism: Parallelism::Threads(WORKERS),
            sync_path: SyncPath::Session,
            fault: FaultPlan::seeded(seed ^ 0xFA17_5EED, FaultRates::uniform(0.03)),
            // A retry budget deep enough that no session is abandoned at
            // these rates: every reconnection completes.
            session: SessionConfig { max_retries: 6, backoff: RetryBackoff::enabled() },
            durability: DurabilityConfig { enabled: true, ..DurabilityConfig::default() },
            connectivity: ConnectivityModel::OutageStorm {
                start: 100,
                outage_ticks: 30,
                surge_ticks: 40,
                fault_boost: 1.0,
            },
            admission: AdmissionConfig::bounded(8),
            ..SimConfig::default()
        },
        // Unsynchronized, jittered reconnects over a long horizon: live
        // state stays flat while the arena, base log and guards grow.
        "soak" => SimConfig {
            n_mobiles: 64,
            duration: 3200,
            base_rate: 0.2,
            mobile_rate: 0.05,
            connect_every: 25,
            protocol: Protocol::merging_default(),
            strategy: SyncStrategy::WindowStart { window: 100 },
            workload: merge_mix(seed),
            base_capacity: 10_000.0,
            parallelism: Parallelism::Threads(WORKERS),
            ..SimConfig::default()
        },
        _ => unreachable!("workload names are checked by members()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_replication::CohortConfig;

    #[test]
    fn every_workload_keeps_the_mechanism_knobs_at_default() {
        let default = SimConfig::default();
        for name in NAMES {
            let configs = configs(name, 7).unwrap();
            assert_eq!(configs.len() as u64, members(name).unwrap());
            let c = &configs[0];
            assert_eq!(c.scheduler, default.scheduler, "{name}");
            assert_eq!(c.reuse_merge_scratch, default.reuse_merge_scratch, "{name}");
            assert_eq!(c.lean_base_log, default.lean_base_log, "{name}");
            assert_eq!(format!("{:?}", c.compaction), format!("{:?}", default.compaction));
            assert_eq!(c.cohort, CohortConfig::default(), "{name}");
            assert_eq!(c.parallelism, Parallelism::Threads(WORKERS), "{name}");
            assert_eq!(c.workload.seed, member_seed(7, 0), "{name}");
            assert!(!c.check_convergence, "{name}");
        }
        assert!(configs("nope", 1).is_none());
    }
}
