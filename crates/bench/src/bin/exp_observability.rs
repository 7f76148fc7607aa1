//! E17 — tracer overhead and per-phase latency breakdown.
//!
//! Two questions about the flight-recorder instrumentation threaded
//! through the merge/session/WAL stack:
//!
//! 1. **What does tracing cost?** The same durable session run is timed
//!    under the no-op tracer (the default every production config
//!    carries), a bounded flight-recorder ring, and the unbounded JSONL
//!    sink. Two independent no-op batches bound the measurement noise —
//!    the "zero-overhead" claim is that the no-op path costs nothing
//!    beyond that noise, because `TracerHandle::emit` skips event
//!    construction entirely when the sink is disabled.
//! 2. **Where does a sync spend its time?** The span registry's
//!    per-phase histograms break one run down into merge-plan, install,
//!    re-execute, and WAL-append time, set against the Section 7.1 cost
//!    model's analytical decomposition of the same run.
//!
//! Every traced run is audited: `Metrics::normalized()` must be
//! byte-identical to the no-op run — instrumentation is observation-only.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_observability`

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use histmerge_bench::{artifact_json, fmt, write_artifact, Table};
use histmerge_obs::{FlightRecorder, JsonlSink, Phase, RegistrySnapshot, TracerHandle};
use histmerge_replication::{
    DurabilityConfig, FaultPlan, Protocol, SimConfig, SimReport, Simulation, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

fn reps() -> usize {
    std::env::var("E17_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

fn config(seed: u64, tracer: TracerHandle) -> SimConfig {
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
        fault: FaultPlan::none(),
        check_convergence: true,
        durability: DurabilityConfig { enabled: true, checkpoint_every: 128 },
        tracer,
        ..SimConfig::default()
    }
}

fn run_once(tracer: TracerHandle) -> (f64, SimReport) {
    let sim = Simulation::new(config(7, tracer)).expect("valid sim config");
    let started = Instant::now();
    let report = sim.run();
    (started.elapsed().as_secs_f64() * 1e3, report)
}

/// Median-of-N wall-clock milliseconds per mode, measured interleaved
/// (round-robin over the modes each round) plus each mode's last report
/// for the observation-only audit. Two defenses against a noisy host:
/// the starting mode rotates each round so allocator/cache state left by
/// the previous run — a systematic position effect — lands on every mode
/// equally often, and the median (not min or mean) absorbs both one-off
/// spikes and monotone drift such as the host settling slower after the
/// first runs. `E17_REPS` overrides the round count.
fn measure(modes: &[(&str, &dyn Fn() -> TracerHandle)]) -> Vec<(f64, SimReport)> {
    let n = modes.len();
    let mut samples: Vec<Vec<f64>> = modes.iter().map(|_| Vec::new()).collect();
    let mut last: Vec<Option<SimReport>> = modes.iter().map(|_| None).collect();
    for _ in 0..2 {
        run_once(TracerHandle::noop()); // warmup: page in code and allocator arenas
    }
    for round in 0..reps() {
        for k in 0..n {
            let i = (round + k) % n;
            let (ms, report) = run_once((modes[i].1)());
            samples[i].push(ms);
            last[i] = Some(report);
        }
    }
    samples
        .into_iter()
        .zip(last)
        .map(|(mut times, report)| {
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            (times[times.len() / 2], report.expect("at least one rep"))
        })
        .collect()
}

fn phase_row(snapshot: &RegistrySnapshot, phase: Phase) -> Vec<String> {
    let grand = snapshot.grand_total().max(1) as f64;
    match snapshot.phase(phase) {
        Some(p) => vec![
            phase.name().to_string(),
            p.count.to_string(),
            fmt(p.mean() / 1e3, 2),
            fmt(p.total as f64 / 1e6, 3),
            fmt(p.p99_bound as f64 / 1e3, 1),
            fmt(100.0 * p.total as f64 / grand, 1),
        ],
        None => vec![
            phase.name().to_string(),
            "0".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
    }
}

fn main() {
    println!("E17: tracer overhead and phase-latency breakdown (6 mobiles, 600 ticks)\n");

    // --- Overhead: noop (twice, to bound noise) vs ring vs JSONL. ---
    // Each jsonl rep gets a fresh sink (an accumulating buffer would grow
    // across reps and skew later rounds); the last handle feeds the phase
    // breakdown below.
    let jsonl_last: RefCell<Option<TracerHandle>> = RefCell::new(None);
    let make_ring = || FlightRecorder::handle(4096);
    let make_jsonl = || {
        let handle = TracerHandle::new(Arc::new(JsonlSink::new()));
        *jsonl_last.borrow_mut() = Some(handle.clone());
        handle
    };
    let modes: [(&str, &dyn Fn() -> TracerHandle); 4] = [
        ("noop", &TracerHandle::noop),
        ("noop (rerun)", &TracerHandle::noop),
        ("ring 4096", &make_ring),
        ("jsonl", &make_jsonl),
    ];
    let mut results = measure(&modes);
    let (jsonl_ms, jsonl_report) = results.pop().expect("four modes");
    let (ring_ms, ring_report) = results.pop().expect("four modes");
    let (noop_b_ms, _) = results.pop().expect("four modes");
    let (noop_a_ms, noop_report) = results.pop().expect("four modes");

    // Observation-only audit: every traced run equals the untraced run
    // byte-for-byte after stripping wall-clock fields.
    for (traced, label) in [(&ring_report, "ring"), (&jsonl_report, "jsonl")] {
        assert_eq!(
            noop_report.final_master, traced.final_master,
            "{label}: tracing changed the final master"
        );
        assert_eq!(
            noop_report.metrics.normalized(),
            traced.metrics.normalized(),
            "{label}: tracing perturbed the run"
        );
    }

    let overhead = |ms: f64| 100.0 * (ms - noop_a_ms) / noop_a_ms;
    let mut table = Table::new(&["tracer", "medianMs", "overheadPct"]);
    table.row_owned(vec!["noop".into(), fmt(noop_a_ms, 2), "0.0 (baseline)".into()]);
    table.row_owned(vec!["noop (rerun)".into(), fmt(noop_b_ms, 2), fmt(overhead(noop_b_ms), 1)]);
    table.row_owned(vec!["ring 4096".into(), fmt(ring_ms, 2), fmt(overhead(ring_ms), 1)]);
    table.row_owned(vec!["jsonl".into(), fmt(jsonl_ms, 2), fmt(overhead(jsonl_ms), 1)]);
    table.print();

    // The no-op path's cost is bounded by the spread between two
    // independent no-op batches — the measured number is the headline,
    // the assertion bound is deliberately lenient (5%) so a noisy CI
    // runner cannot flake the experiment.
    let noop_spread = overhead(noop_b_ms).abs();
    println!(
        "\nnoop overhead (batch-to-batch spread): {}% — the disabled tracer is \
         indistinguishable from measurement noise.",
        fmt(noop_spread, 2)
    );
    assert!(noop_spread < 5.0, "no-op tracer spread {noop_spread:.2}% exceeds the 5% noise bound");

    // --- Phase breakdown of the traced run vs the cost model. ---
    let jsonl_handle = jsonl_last.into_inner().expect("jsonl mode ran");
    let snapshot = jsonl_handle.snapshot().expect("jsonl sink keeps a registry");
    let mut phases = Table::new(&["phase", "count", "meanUs", "totalMs", "p99Us", "sharePct"]);
    for phase in [
        Phase::MergePlan,
        Phase::GraphBuild,
        Phase::Backout,
        Phase::Rewrite,
        Phase::Prune,
        Phase::Install,
        Phase::Reexecute,
        Phase::WalAppend,
        Phase::Checkpoint,
        Phase::Sync,
    ] {
        phases.row_owned(phase_row(&snapshot, phase));
    }
    println!();
    phases.print();

    // The acceptance floor: the four load-bearing phases all recorded.
    for phase in [Phase::MergePlan, Phase::Install, Phase::Reexecute, Phase::WalAppend] {
        let p = snapshot
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {} recorded no spans", phase.name()));
        assert!(p.count > 0, "phase {} recorded no spans", phase.name());
    }

    // Set the measured wall-clock shares against the Section 7.1 model's
    // analytical decomposition of the same run: the model charges work
    // units, the spans charge nanoseconds — the comparison is of shapes,
    // not units.
    let cost = &jsonl_report.metrics.cost;
    let model_total = cost.total().max(f64::MIN_POSITIVE);
    let mut model = Table::new(&["component", "workUnits", "sharePct"]);
    for (name, units) in [
        ("comm", cost.comm),
        ("base_cpu", cost.base_cpu),
        ("base_io", cost.base_io),
        ("mobile_cpu", cost.mobile_cpu),
    ] {
        model.row_owned(vec![name.into(), fmt(units, 1), fmt(100.0 * units / model_total, 1)]);
    }
    println!("\ncost-model decomposition of the same run (Section 7.1 units):");
    model.print();

    let json = artifact_json("exp_observability", &[("overhead", &table), ("phases", &phases)]);
    println!("\nartifact: {}", write_artifact("exp_observability", &json).display());
}
