//! E18 — the hot-path data layout: interned footprint bitsets,
//! copy-on-write execution, and the one-pass closure table.
//!
//! Two tables on the E6 scaleup window volumes:
//!
//! * `kernels` — the merge hot path's kernels in isolation: copy-on-write
//!   execution of the tentative history, the log-free base replay,
//!   admission-time bitset conflict enumeration over every pair, one
//!   closure-table build serving the back-out weights and the affected
//!   set, and an overlay re-execution. `kernels_per_sec` is the
//!   throughput the trajectory gate holds; `conflicts` and `affected`
//!   are the kernels' answers on the fixed scenario, gated exactly. The
//!   answers themselves are pinned against the `VarSet` and forward-scan
//!   references by `tests/footprint_differential.rs`.
//! * `merges` — the full, unassisted `Merger::merge` protocol (graph
//!   build, back-out, rewrite, prune, the Theorem-1 witness) with fresh
//!   buffers per merge vs one reused [`MergeScratch`]. `merges_per_sec`
//!   is the fresh-buffer path's throughput.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_hotpath`

use std::collections::BTreeSet;
use std::hint::black_box;

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_core::merge::{MergeConfig, MergeScratch, Merger};
use histmerge_history::{
    run_to_final, AugmentedHistory, ClosureScratch, ClosureTable, SerialHistory, TxnArena,
};
use histmerge_txn::{DbState, Fix, OverlayState, TxnId};
use histmerge_workload::generator::{generate, ScenarioParams};

/// The merge hot path: copy-on-write augmented execution, the log-free
/// `run_to_final`, admission-time bitset conflicts, one closure-table
/// build serving weights and affected set, and an overlay re-execution.
/// Returns the conflicting pair count and the affected-set size.
fn kernel(
    arena: &TxnArena,
    hm: &SerialHistory,
    hb: &SerialHistory,
    s0: &DbState,
    bad: &BTreeSet<TxnId>,
    scratch: &mut ClosureScratch,
) -> (usize, usize) {
    let aug = AugmentedHistory::execute(arena, hm, s0).unwrap();
    black_box(run_to_final(arena, hb, s0).unwrap());
    let ids: Vec<TxnId> = hm.iter().chain(hb.iter()).collect();
    let mut conflicts = 0usize;
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            if arena.conflicts(ids[i], ids[j]) {
                conflicts += 1;
            }
        }
    }
    let table = ClosureTable::build_with_scratch(arena, hm, scratch);
    black_box(table.weights());
    let affected = table.affected_of(bad);
    let mut view = OverlayState::new(aug.final_state());
    for id in hm.iter().filter(|id| affected.contains(id)) {
        if let Ok(delta) = arena.get(id).execute_delta(&view, &Fix::empty()) {
            view.apply_writes(&delta.writes);
        }
    }
    black_box(view.materialize());
    (conflicts, affected.len())
}

fn main() {
    let scenario = |fleet: usize| {
        generate(&ScenarioParams {
            n_vars: 1024,
            n_tentative: 40 * fleet,
            n_base: 48,
            commutative_fraction: 0.7,
            guarded_fraction: 0.1,
            read_only_fraction: 0.1,
            hot_fraction: 0.05,
            hot_prob: 0.05,
            seed: 99,
            ..ScenarioParams::default()
        })
    };
    let fleets = [2usize, 4, 8, 16, 32];
    let reps = 3;

    println!("E18: hot-path data layout — bitsets + copy-on-write kernels and full merges\n");
    let mut kernels =
        Table::new(&["fleet", "hm", "hb", "new ms", "kernels_per_sec", "conflicts", "affected"]);
    let mut merges =
        Table::new(&["fleet", "merge ms", "merges_per_sec", "scratch ms", "saved", "equal"]);

    for &fleet in &fleets {
        let sc = scenario(fleet);
        let bad: BTreeSet<TxnId> = sc.hm.iter().step_by(5).collect();
        let mut closure_scratch = ClosureScratch::new();

        // Time the kernels; keep the fastest of `reps` runs.
        let mut kernel_ms = f64::INFINITY;
        let mut answers = (0, 0);
        for _ in 0..reps {
            let (out, ms) =
                timed(|| kernel(&sc.arena, &sc.hm, &sc.hb, &sc.s0, &bad, &mut closure_scratch));
            kernel_ms = kernel_ms.min(ms);
            answers = out;
        }
        let (conflicts, affected) = answers;
        kernels.row_owned(vec![
            fleet.to_string(),
            sc.hm.len().to_string(),
            sc.hb.len().to_string(),
            fmt(kernel_ms, 2),
            fmt(1e3 / kernel_ms, 1),
            conflicts.to_string(),
            affected.to_string(),
        ]);

        // The full protocol: fresh buffers per merge vs one reused scratch.
        let merger = Merger::new(MergeConfig::default());
        let mut scratch = MergeScratch::new();
        // Warm the scratch to its high-water mark before timing reuse.
        let _ = merger
            .merge_scratch(&sc.arena, &sc.hm, &sc.hb, &sc.s0, Default::default(), &mut scratch)
            .unwrap();
        let mut fresh_ms = f64::INFINITY;
        let mut reuse_ms = f64::INFINITY;
        let mut fresh = None;
        let mut reused = None;
        for _ in 0..reps {
            let (out, ms) = timed(|| merger.merge(&sc.arena, &sc.hm, &sc.hb, &sc.s0).unwrap());
            fresh_ms = fresh_ms.min(ms);
            fresh = Some(out);
            let (out, ms) = timed(|| {
                merger
                    .merge_scratch(
                        &sc.arena,
                        &sc.hm,
                        &sc.hb,
                        &sc.s0,
                        Default::default(),
                        &mut scratch,
                    )
                    .unwrap()
            });
            reuse_ms = reuse_ms.min(ms);
            reused = Some(out);
        }
        let (fresh, reused) = (fresh.unwrap(), reused.unwrap());
        let equal = fresh.new_master == reused.new_master
            && fresh.saved == reused.saved
            && fresh.backed_out == reused.backed_out
            && fresh.reexecuted == reused.reexecuted;
        assert!(equal, "fleet {fleet}: scratch reuse changed the merge outcome");
        merges.row_owned(vec![
            fleet.to_string(),
            fmt(fresh_ms, 2),
            fmt(1e3 / fresh_ms, 1),
            fmt(reuse_ms, 2),
            fresh.saved.len().to_string(),
            "yes".to_string(),
        ]);
    }

    kernels.print();
    println!();
    merges.print();
    println!(
        "\nThe kernels avoid cloning a 1024-item state per step, answer conflicts\n\
         with word-wise ANDs over admission-interned bitsets, and build the\n\
         reads-from closure once instead of once per weight query. The merges\n\
         table is the unassisted protocol end to end, Theorem-1 witness included."
    );
    let path = write_artifact(
        "BENCH_hotpath",
        &artifact_json("exp_hotpath", &[("kernels", &kernels), ("merges", &merges)]),
    );
    println!("\nartifact: {}", path.display());
}
