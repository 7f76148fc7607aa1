//! E23 — the cohort install pipeline: killing the quadratic same-tick
//! install cost.
//!
//! E19's honest finding (and E21's storm corollary) was that under the
//! merging protocol a same-tick reconnect cohort pays quadratically for
//! its own installs: every member's install appends base transactions
//! that invalidate later members' speculative merges, and each
//! invalidated member re-pays a serial live merge against the grown
//! epoch history. PR 10 restructures that pipeline — incremental epoch
//! edge maintenance (the cache appends each install's suffix instead of
//! re-walking the epoch), bounded **wave re-speculation** (the still
//! pending stale remainder re-merges concurrently against a refreshed
//! snapshot), the **mask-disjoint fast path** (a pending history whose
//! footprint is disjoint from the whole concurrent base slice skips
//! precedence-graph construction wholesale), and **deferred witness
//! materialization** (the slow path stops paying a per-merge O(|H|²)
//! topological sort for a Theorem-1 witness history the install
//! pipeline never reads).
//!
//! Two tables:
//!
//! * `cohort` — E19's `merge_regime` sweep extended to cohort sizes
//!   64 / 256 / 1024, with the wave rounds and fast-path merges each
//!   cohort engaged.
//! * `herd` — E21's uncapped storm-herd cell (the o60 outage whose
//!   slid cohort approaches the whole fleet), re-run on the session path
//!   with retry backoff, to show the pipeline pays the herd's bill too.
//!
//! The golden digests (`tests/golden.rs`) pin that the pipeline changes
//! no outcome, so this bin measures it alone; the trajectory gate holds
//! each row to the committed baseline — a `merges_per_sec` floor plus
//! exact outcome and mechanism counters (`syncs`, `saved`, `save_ratio`,
//! `batch_max`, `wave_rounds`, `fastpath`, ...). The worker count is
//! pinned, so the mechanism counters do not depend on the host.
//!
//! `EXP_COHORT_SMOKE=1` drops the 1024-member row and shortens the herd
//! outage — CI's `bench-trajectory` job runs that mode on every PR and
//! gates on the emitted `BENCH_cohort.json` (see `bench_trajectory`).
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_cohort`

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_replication::{
    AdmissionConfig, ConnectivityModel, Parallelism, Protocol, RetryBackoff, SessionConfig,
    SimConfig, SimReport, Simulation, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

/// E19's `merge_config` with the worker count pinned: synchronized
/// reconnects turn every cadence tick into a fleet-sized batch, and the
/// window rollover at tick 100 forces a reprocessing share.
fn cohort_config(fleet: usize) -> SimConfig {
    SimConfig {
        n_mobiles: fleet,
        duration: 200,
        base_rate: 0.2,
        mobile_rate: 0.05,
        connect_every: 25,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 100 },
        workload: ScenarioParams {
            n_vars: 256,
            commutative_fraction: 0.7,
            guarded_fraction: 0.1,
            read_only_fraction: 0.1,
            hot_fraction: 0.05,
            hot_prob: 0.05,
            seed: 1906,
            ..ScenarioParams::default()
        },
        base_capacity: 10_000.0,
        // Pinned (not `Auto`) so the speculative phase engages with the
        // same worker count on any host, single-core CI included.
        parallelism: Parallelism::Threads(4),
        synchronized_reconnects: true,
        ..SimConfig::default()
    }
}

/// E21's uncapped storm cell, verbatim: a fleet-wide outage slides every
/// reconnect to the first up tick, and the herd merges uncapped.
fn herd_config(fleet: usize, outage: u64) -> SimConfig {
    SimConfig {
        n_mobiles: fleet,
        duration: 600,
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
            seed: 2108,
            ..ScenarioParams::default()
        },
        base_capacity: 10_000.0,
        session: SessionConfig { backoff: RetryBackoff::enabled(), ..SessionConfig::default() },
        connectivity: ConnectivityModel::OutageStorm {
            start: 100,
            outage_ticks: outage,
            surge_ticks: 40,
            fault_boost: 1.0,
        },
        admission: AdmissionConfig::unbounded(),
        check_convergence: true,
        ..SimConfig::default()
    }
}

/// Min-of-`reps` wall clock, the E18/E19/E21 discipline: deterministic
/// runs, identical reports, only the timing varies.
fn run(config: SimConfig, reps: usize) -> (SimReport, f64) {
    let mut best: Option<(SimReport, f64)> = None;
    for _ in 0..reps {
        let (report, ms) =
            timed(|| Simulation::new(config.clone()).expect("valid sim config").run());
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((report, ms));
        }
    }
    best.expect("at least one rep ran")
}

fn main() {
    let smoke = std::env::var_os("EXP_COHORT_SMOKE").is_some();
    let fleets: &[usize] = if smoke { &[64, 256] } else { &[64, 256, 1024] };
    let reps = if smoke { 1 } else { 2 };

    println!(
        "E23: the cohort install pipeline — waves + mask-disjoint fast path{}\n",
        if smoke { " (smoke mode: 1024 row skipped)" } else { "" }
    );

    let mut cohort = Table::new(&[
        "mobiles",
        "syncs",
        "saved",
        "save_ratio",
        "batch_max",
        "wave_rounds",
        "fastpath",
        "tuned_ms",
        "merges_per_sec",
    ]);
    for &fleet in fleets {
        // The 1024 row is over a minute of wall on its own; min-of-reps
        // matters at millisecond scale, not there.
        let row_reps = if fleet >= 1024 { 1 } else { reps };
        let (report, ms) = run(cohort_config(fleet), row_reps);
        eprintln!(
            "  [x{fleet}] {ms:.0} ms (pmerge {:.0} ms, retries {}, waves {})",
            report.metrics.parallel_merge_ns as f64 / 1e6,
            report.metrics.speculative_retries,
            report.metrics.cohort.wave_rounds,
        );
        let m = &report.metrics;
        assert!(m.saved > 0, "merging never engaged at {fleet} mobiles");
        assert!(
            m.cohort.wave_rounds > 0 || m.speculative_retries == 0,
            "x{fleet}: invalidations occurred but no wave ever ran"
        );
        cohort.row_owned(vec![
            fleet.to_string(),
            m.syncs.to_string(),
            m.saved.to_string(),
            fmt(m.save_ratio(), 3),
            m.batch_sizes.iter().max().copied().unwrap_or(0).to_string(),
            m.cohort.wave_rounds.to_string(),
            m.cohort.fastpath_merges.to_string(),
            fmt(ms, 0),
            fmt(m.syncs as f64 / (ms / 1e3), 1),
        ]);
    }
    cohort.print();

    println!("\nstorm herd (E21's uncapped cell):\n");
    let herd_outage: u64 = if smoke { 30 } else { 60 };
    let herd_fleet: usize = 300;
    let mut herd = Table::new(&[
        "scenario",
        "batch_max",
        "syncs",
        "commits",
        "saved",
        "tuned_ms",
        "merges_per_sec",
    ]);
    let (report, ms) = run(herd_config(herd_fleet, herd_outage), reps);
    eprintln!("  [o{herd_outage}-uncapped] {ms:.0} ms");
    let convergence = report.convergence.as_ref().expect("oracle requested");
    assert!(convergence.holds(), "herd: oracle failed: {convergence:?}");
    let m = &report.metrics;
    let batch_max = m.batch_sizes.iter().max().copied().unwrap_or(0);
    assert!(batch_max > 8, "no herd formed (batch_max {batch_max})");
    herd.row_owned(vec![
        format!("o{herd_outage}-uncapped"),
        batch_max.to_string(),
        m.syncs.to_string(),
        report.base_commits.to_string(),
        m.saved.to_string(),
        fmt(ms, 0),
        fmt(m.syncs as f64 / (ms / 1e3), 1),
    ]);
    herd.print();

    println!(
        "\nThe quadratic was never the conflict analysis — profiling the 256-member\n\
         cohort put four fifths of the install wall inside the Theorem-1 witness: a\n\
         per-merge O(|H_b ∪ H_m|²) topological sort producing a history nobody on\n\
         the install path ever reads. Deferring it (the witness stays available to\n\
         callers that ask) removes the dominant super-linear term; incremental edge\n\
         maintenance makes the epoch cache O(appended) per install, anchored\n\
         footprint unions make each staleness check O(words), wave re-speculation\n\
         turns the invalidated remainder's serial re-merges back into the parallel\n\
         phase, and the mask-disjoint fast path lets conflict-free members skip\n\
         graph construction entirely. None of it changes an outcome\n\
         (tests/golden.rs pins that)."
    );

    let json = artifact_json("exp_cohort", &[("cohort", &cohort), ("herd", &herd)]);
    println!("\nartifact: {}", write_artifact("BENCH_cohort", &json).display());
}
