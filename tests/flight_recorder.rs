//! Integration tests for the flight recorder on a live simulation: the
//! ring stays bounded under a long faulted run, and a forced oracle
//! failure ships the last events as valid JSONL before the panic
//! propagates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use histmerge::obs::{dump_on_failure, validate_json_line, FlightRecorder, TracerHandle};
use histmerge::replication::{
    FaultPlan, FaultRates, Protocol, SimConfig, Simulation, SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

fn traced_config(tracer: TracerHandle) -> SimConfig {
    SimConfig {
        n_mobiles: 4,
        duration: 400,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 150 },
        workload: ScenarioParams { n_vars: 64, seed: 11, ..ScenarioParams::default() },
        fault: FaultPlan::seeded(11, FaultRates::uniform(0.05)),
        check_convergence: true,
        tracer,
        ..SimConfig::default()
    }
}

#[test]
fn ring_stays_bounded_across_a_full_faulted_run() {
    let capacity = 128;
    let recorder = Arc::new(FlightRecorder::new(capacity));
    let tracer = TracerHandle::new(recorder.clone());
    let report = Simulation::new(traced_config(tracer.clone())).expect("valid sim config").run();
    assert!(report.metrics.syncs > 0, "the run synchronized");
    assert!(
        recorder.recorded() > capacity as u64,
        "a 400-tick faulted run must overflow a {capacity}-event ring \
         (recorded {})",
        recorder.recorded()
    );
    assert_eq!(recorder.len(), capacity, "the ring truncated to capacity");
    let dump = tracer.dump_jsonl().expect("the ring retains events");
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), capacity);
    for line in &lines {
        validate_json_line(line).unwrap_or_else(|e| panic!("invalid JSONL {line}: {e}"));
    }
    // The session protocol, the fault plan, and the merge pipeline all
    // left events somewhere in the stream's tail.
    assert!(dump.contains("\"type\":\"session_step\""), "no session steps in tail");
    // The registry aggregated spans beyond the ring's retention.
    let snapshot = tracer.snapshot().expect("the ring keeps a registry");
    assert!(!snapshot.phases.is_empty(), "no phases timed");
}

#[test]
fn forced_oracle_failure_dumps_the_tail_as_valid_jsonl() {
    let tracer = FlightRecorder::handle(64);
    let report = Simulation::new(traced_config(tracer.clone())).expect("valid sim config").run();
    let label = "forced-oracle-failure-it";
    let dir = std::env::var_os("FLIGHT_RECORDER_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/flight-recorder"));
    let path = dir.join(format!("{label}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        dump_on_failure(&tracer, label, || {
            // A deliberately impossible oracle, standing in for a failed
            // convergence report or a tripped crash-matrix assertion.
            assert_eq!(report.metrics.syncs, usize::MAX, "forced oracle failure");
        });
    }));
    assert!(outcome.is_err(), "the forced failure must still fail the test");
    let body = std::fs::read_to_string(&path)
        .expect("the failure dump was written before the panic propagated");
    assert!(!body.is_empty());
    for line in body.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("invalid JSONL {line}: {e}"));
    }
    let _ = std::fs::remove_file(&path);
}
