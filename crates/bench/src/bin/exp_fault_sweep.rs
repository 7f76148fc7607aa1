//! E15 — fault-injected resumable sync sessions.
//!
//! Two sweeps over the session path:
//!
//! 1. a uniform fault-rate sweep (every kind at probability `p`): how much
//!    of merging's work saving survives as the transport and the base get
//!    less reliable, plus the recovery traffic (retries, ledger resumes,
//!    recovered sessions, abandons) that buys it;
//! 2. a per-kind sweep at a fixed rate: which fault class exercises which
//!    recovery mechanism.
//!
//! Every run is audited by the convergence oracle. The headline assertion
//! is the issue's acceptance bar: at a 10% uniform fault rate the mean
//! save ratio stays within 5% (relative) of the fault-free figure — the
//! session machinery spends retries and ledger lookups, not merge work.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_fault_sweep`

use histmerge_bench::{artifact_json, fmt, write_artifact, Table};
use histmerge_replication::{
    FaultKind, FaultPlan, FaultRates, Protocol, SimConfig, SimReport, Simulation, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

const SEEDS: u64 = 5;

fn config(seed: u64, fault: FaultPlan) -> SimConfig {
    SimConfig {
        n_mobiles: 6,
        duration: 600,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 60,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 150 },
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.4,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            hot_fraction: 0.08,
            hot_prob: 0.6,
            seed,
            ..ScenarioParams::default()
        },
        fault,
        check_convergence: true,
        ..SimConfig::default()
    }
}

fn run_checked(seed: u64, fault: FaultPlan, label: &str) -> SimReport {
    // Reject malformed sweep grids up front with the offending field
    // named, instead of silently never firing (negative) or panicking
    // deep inside the RNG (>1.0).
    fault.rates.validate().unwrap_or_else(|err| panic!("{label}: bad sweep cell: {err}"));
    let report = Simulation::new(config(seed, fault)).expect("valid sim config").run();
    let convergence = report.convergence.expect("oracle requested");
    assert!(convergence.holds(), "{label} seed {seed}: oracle failed: {convergence:?}");
    report
}

/// Mean save ratio, summed recovery counters, and summed base cost over
/// the seed set for one fault plan shape.
struct Cell {
    save_ratio: f64,
    saved: usize,
    reprocessed: usize,
    abandoned: usize,
    recovered: usize,
    retries: usize,
    ledger_resumes: usize,
    trimmed: usize,
    base_cost: f64,
}

fn sweep_cell(rates: FaultRates, label: &str) -> Cell {
    let mut cell = Cell {
        save_ratio: 0.0,
        saved: 0,
        reprocessed: 0,
        abandoned: 0,
        recovered: 0,
        retries: 0,
        ledger_resumes: 0,
        trimmed: 0,
        base_cost: 0.0,
    };
    for seed in 0..SEEDS {
        let report = run_checked(seed, FaultPlan::seeded(seed, rates), label);
        let m = &report.metrics;
        cell.save_ratio += m.save_ratio() / SEEDS as f64;
        cell.saved += m.saved;
        cell.reprocessed += m.reprocessed;
        cell.abandoned += m.fault.abandoned_sessions;
        cell.recovered += m.fault.recovered_sessions;
        cell.retries += m.fault.retries;
        cell.ledger_resumes += m.fault.ledger_resumes;
        cell.trimmed += m.fault.trimmed_txns;
        cell.base_cost += m.cost.base_cpu + m.cost.base_io;
    }
    cell
}

fn main() {
    println!("E15: fault-injected sync sessions (6 mobiles, 600 ticks, mean of {SEEDS} seeds)\n");

    // Part 1: uniform rate sweep.
    let mut rate_table = Table::new(&[
        "rate",
        "saveRatio",
        "saved",
        "reproc",
        "retries",
        "ledgerResume",
        "recovered",
        "abandoned",
        "baseCost",
    ]);
    let mut fault_free_ratio = 0.0;
    let mut ratio_at_10 = 0.0;
    for rate in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let cell = sweep_cell(FaultRates::uniform(rate), "uniform");
        if rate == 0.0 {
            fault_free_ratio = cell.save_ratio;
        }
        if rate == 0.1 {
            ratio_at_10 = cell.save_ratio;
        }
        rate_table.row_owned(vec![
            fmt(rate, 2),
            fmt(cell.save_ratio, 3),
            cell.saved.to_string(),
            cell.reprocessed.to_string(),
            cell.retries.to_string(),
            cell.ledger_resumes.to_string(),
            cell.recovered.to_string(),
            cell.abandoned.to_string(),
            fmt(cell.base_cost, 0),
        ]);
    }
    rate_table.print();

    // Part 2: one fault kind at a time, rate 0.15.
    let mut kind_table = Table::new(&[
        "kind",
        "saveRatio",
        "retries",
        "ledgerResume",
        "recovered",
        "trimmed",
        "abandoned",
    ]);
    for kind in FaultKind::ALL {
        let cell = sweep_cell(FaultRates::only(kind, 0.15), kind.name());
        kind_table.row_owned(vec![
            kind.name().to_string(),
            fmt(cell.save_ratio, 3),
            cell.retries.to_string(),
            cell.ledger_resumes.to_string(),
            cell.recovered.to_string(),
            cell.trimmed.to_string(),
            cell.abandoned.to_string(),
        ]);
    }
    println!("\nper-kind sweep at rate 0.15:\n");
    kind_table.print();

    // The acceptance bar: savings survive a 10% fault rate.
    let drift = (fault_free_ratio - ratio_at_10).abs() / fault_free_ratio.max(1e-9);
    println!(
        "\nsave ratio fault-free {} vs 10% faults {} (relative drift {})",
        fmt(fault_free_ratio, 3),
        fmt(ratio_at_10, 3),
        fmt(drift, 3)
    );
    assert!(
        drift <= 0.05,
        "save ratio drifted {drift:.3} (> 5%) at a 10% fault rate: \
         {fault_free_ratio:.3} -> {ratio_at_10:.3}"
    );
    println!("Merging's savings survive: recovery costs retries and ledger lookups, not merges.");

    let json = artifact_json(
        "exp_fault_sweep",
        &[("rate_sweep", &rate_table), ("kind_sweep", &kind_table)],
    );
    println!("\nartifact: {}", write_artifact("exp_fault_sweep", &json).display());
}
