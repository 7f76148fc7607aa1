//! The histmerge benchmark: one named workload, one seed, end-to-end
//! metrics with tracing off or per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <cohort|durable-storm|soak> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A pass simulates each member of the workload once (see
//! `workloads::configs`). The top-level process only orchestrates. Every
//! simulation runs in a child process of this same binary
//! (`perfbench child <role> <workload> <seed> <arg> <member>`), one role
//! per process, so each child's `VmHWM` belongs to one workload and one role
//! alone:
//!
//! * `verify` — one untimed pass with the convergence oracle on;
//! * `timed` — one warm-up pass, then timed passes for `<arg>` seconds
//!   (tracing off), each timing its set-up and its runs apart and
//!   recording the host steal it saw;
//! * `rss` — member `<member>` alone at `1/<arg>` of the horizon, for peak
//!   RSS and its growth with run length;
//! * `traced` — one warm-up pass, then `<arg>` traced passes whose spans
//!   give the per-layer metrics.
//!
//! A child reports `= key value` lines on stdout; any other line is human
//! text, relayed to this process's stdout. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is nonzero when a correctness check fails.

mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use histmerge_obs::{Phase, TracerHandle};
use histmerge_replication::{SimConfig, SimReport, Simulation};

use spans::{Label, SpanSink, SpanTree};
use stats::{median, nearest_rank, p99_wait, quartiles, tail_percentile, undisturbed, TAIL_BEYOND};

/// The end-to-end metrics (`--trace 0`), as `(name, unit)`.
const END_TO_END: [(&str, &str); 8] = [
    ("syncs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("save_ratio", "ratio"),
    ("cost_units_per_sync", "units"),
    ("completed_frac", "ratio"),
    ("admit_ticks_p99", "ticks"),
    ("rss_growth", "ratio"),
];

/// The per-layer metrics (`--trace 1`), as `(name, unit)`, grouped by the
/// program module whose spans or counters they come from.
const PER_LAYER: [(&str, &str); 45] = [
    // replication::batch
    ("batch.parallel_merge_ms", "ms"),
    ("batch.spec_hits", "count"),
    ("batch.spec_retries", "count"),
    ("batch.spec_hit_ratio", "ratio"),
    ("batch.wave_rounds", "count"),
    ("batch.fastpath_merges", "count"),
    ("batch.max_cohort", "count"),
    // core::merge and history execution
    ("merge.count", "count"),
    ("merge.self_ms", "ms"),
    ("merge.child_share", "ratio"),
    ("merge.p50_us", "us"),
    ("merge.p99_us", "us"),
    ("exec.ms", "ms"),
    // history::precedence
    ("graph.ms", "ms"),
    ("graph.edges", "count"),
    ("graph.pairs", "count"),
    // history::backout and history::readsfrom
    ("backout.ms", "ms"),
    ("backout.bad", "count"),
    ("backout.affected", "count"),
    // core::rewrite and core::prune
    ("rewrite.ms", "ms"),
    ("rewrite.saved", "count"),
    ("prune.ms", "ms"),
    // replication::session and replication::base (the sync path)
    ("sync.count", "count"),
    ("sync.self_ms", "ms"),
    ("sync.p50_us", "us"),
    ("sync.p99_us", "us"),
    ("install.ms", "ms"),
    ("reexec.ms", "ms"),
    ("reexec.count", "count"),
    ("session.retries", "count"),
    ("session.resumes", "count"),
    // replication::connectivity (admission) and replication::sched
    ("admission.shed", "count"),
    ("admission.defer_peak", "count"),
    ("sched.ms", "ms"),
    ("sched.events_popped", "count"),
    // replication::wal and replication::recovery
    ("wal.append_ms", "ms"),
    ("wal.records", "count"),
    ("wal.bytes", "B"),
    ("wal.bytes_per_commit", "B"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoints", "count"),
    ("recovery.ms", "ms"),
    ("recovery.count", "count"),
    // the harness
    ("trace.overhead", "ratio"),
    ("trace.untraced_share", "ratio"),
];

/// Set-ups per timed pass. One set-up takes 20-400 us, and the first after
/// a run also pays page faults that vary from pass to pass (on the
/// reference host 90-250 us against a median of 60-110 us for cohort).
const SETUP_REPS: usize = 21;
/// Timed passes made even when they overrun `--seconds`, and kept even
/// when the host disturbed them.
const MIN_TIMED_PASSES: usize = 3;
/// A timed pass during which the host stole more than this share of its
/// wall time is left out of the timings (see `stats::undisturbed`).
const STEAL_SHARE: f64 = 0.04;
/// Traced passes; the per-layer metrics come from the one with the median
/// wall time.
const TRACED_PASSES: u64 = 3;
/// `rss_growth` compares the full horizon with this fraction of it.
const SHORT_HORIZON_DIV: u64 = 16;
/// The span coverage ROADMAP asks for; reported against, never gated on.
const COVERAGE_BAR: f64 = 0.95;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("child") {
        child(&args[1..])
    } else {
        parse_args(&args).and_then(orchestrate)
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed top-level arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <cohort|durable-storm|soak> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1906, seconds: 12, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if workloads::members(&parsed.workload).is_none() {
        let known = workloads::NAMES.join(", ");
        return Err(format!("unknown workload {:?} (known: {known})\n{USAGE}", parsed.workload));
    }
    Ok(parsed)
}

// ---------------------------------------------------------------------
// Children: one simulation role per process.
// ---------------------------------------------------------------------

/// FNV-1a over formatted text, so the digest streams the `Debug` output
/// instead of building one large string.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
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

/// What the members of one pass decided, summed: the correctness digest,
/// the deterministic end-to-end metrics and the per-layer counters the
/// program keeps in `Metrics`.
#[derive(Default)]
struct Totals {
    /// FNV-1a of each member's final master, commit count and normalized
    /// metrics, in member order: equal digests mean byte-identical
    /// logical outcomes.
    digest: Fnv,
    syncs: u64,
    /// Deferred reconnects still queued at the horizon.
    residue: u64,
    merge_failures: u64,
    abandoned: u64,
    saved: u64,
    resolved: u64,
    cost: f64,
    defer_waits: Vec<u64>,
    base_commits: u64,
    spec_hits: u64,
    spec_retries: u64,
    wave_rounds: u64,
    fastpath_merges: u64,
    max_cohort: u64,
    session_retries: u64,
    shed: u64,
    defer_peak: u64,
    events_popped: u64,
    wal_records: u64,
    wal_bytes: u64,
    wal_checkpoints: u64,
}

impl Totals {
    fn add(&mut self, report: &SimReport) {
        let m = &report.metrics;
        write!(
            self.digest,
            "{:?}|{}|{:?};",
            report.final_master,
            report.base_commits,
            m.normalized()
        )
        .expect("hashing never fails");
        self.syncs += m.syncs as u64;
        self.residue += m.storm.shed.saturating_sub(m.storm.deferred_drained);
        self.merge_failures += m.merge_failures as u64;
        self.abandoned += m.fault.abandoned_sessions as u64;
        self.saved += m.saved as u64;
        self.resolved += (m.saved + m.backed_out + m.reprocessed) as u64;
        self.cost += m.cost.total();
        self.defer_waits.extend_from_slice(&m.defer_waits);
        self.base_commits += report.base_commits as u64;
        self.spec_hits += m.speculative_hits as u64;
        self.spec_retries += m.speculative_retries as u64;
        self.wave_rounds += m.cohort.wave_rounds;
        self.fastpath_merges += m.cohort.fastpath_merges;
        self.max_cohort =
            self.max_cohort.max(m.batch_sizes.iter().max().copied().unwrap_or(0) as u64);
        self.session_retries += m.fault.retries as u64;
        self.shed += m.storm.shed;
        self.defer_peak = self.defer_peak.max(m.storm.deferred_peak);
        self.events_popped += m.sched.events_popped;
        self.wal_records += m.wal.records;
        self.wal_bytes += m.wal.bytes;
        self.wal_checkpoints += m.wal.checkpoints;
    }

    /// Syncs attempted: completed syncs plus reconnects still deferred at
    /// the horizon.
    fn attempted(&self) -> u64 {
        self.syncs + self.residue
    }

    /// Merge failures, abandoned sessions and never-drained deferrals.
    fn failed(&self) -> u64 {
        self.merge_failures + self.abandoned + self.residue
    }

    fn emit(&self) {
        emit("digest", format!("{:016x}", self.digest.0));
        emit("syncs", self.syncs);
        emit("attempted", self.attempted());
        emit("failed", self.failed());
        emit("save_ratio", ratio(self.saved as f64, self.resolved as f64));
        emit("cost_units_per_sync", ratio(self.cost, self.syncs as f64));
        // The serving tick counts: a reconnect admitted on arrival waited
        // 0 ticks and was served within 1.
        let waits = usize::try_from(self.syncs).expect("sync count fits usize");
        emit("admit_ticks_p99", p99_wait(&self.defer_waits, waits) + 1);
        emit("base_commits", self.base_commits);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn configs(workload: &str, seed: u64) -> Vec<SimConfig> {
    workloads::configs(workload, seed).expect("workload names are checked before children start")
}

fn new_sim(config: SimConfig) -> Simulation {
    Simulation::new(config).expect("benchmark workloads are valid configurations")
}

/// Time the hypervisor took from this machine's CPUs, in ms (the `steal`
/// column of `/proc/stat`, in 1/100 s; 0 where unavailable). Timed passes
/// the host slowed are left out, and the steal is printed beside the
/// timings so a run slowed throughout can be told apart.
fn host_steal_ms() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * 10)
}

/// `VmHWM` of this process in kB (0 where `/proc` is unavailable).
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn emit(key: &str, value: impl std::fmt::Display) {
    println!("= {key} {value}");
}

fn child(args: &[String]) -> Result<ExitCode, String> {
    let [role, workload, seed, arg, member] = args else {
        return Err("child needs <role> <workload> <seed> <arg> <member>".into());
    };
    let number = |text: &String| text.parse::<u64>().map_err(|_| format!("bad number {text:?}"));
    let (seed, arg, member) = (number(seed)?, number(arg)?, number(member)?);
    let members = workloads::members(workload).ok_or(format!("unknown workload {workload:?}"))?;
    if member >= members {
        return Err(format!("{workload} has {members} members, not {}", member + 1));
    }
    match role.as_str() {
        "verify" => child_verify(workload, seed),
        "timed" => child_timed(workload, seed, Duration::from_secs(arg)),
        "rss" => child_rss(workload, seed, arg.max(1), member as usize),
        "traced" => child_traced(workload, seed, arg.max(1) as usize),
        _ => return Err(format!("unknown child role {role:?}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn child_verify(workload: &str, seed: u64) {
    let mut totals = Totals::default();
    let mut holds = true;
    for mut config in configs(workload, seed) {
        config.check_convergence = true;
        let report = new_sim(config).run();
        holds &= report.convergence.expect("convergence was requested").holds();
        totals.add(&report);
    }
    emit("converged", u8::from(holds));
    totals.emit();
}

/// One untraced pass over the members: the wall time of setting every
/// member up (its config and `Simulation::new`; the median of
/// `SETUP_REPS` set-ups, of which the last is run), the summed wall time
/// of their `Simulation::run` calls, and their totals.
fn timed_pass(workload: &str, seed: u64) -> (f64, f64, Totals) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sims = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        sims = configs(workload, seed).into_iter().map(new_sim).collect();
        setups.push(started.elapsed().as_secs_f64());
    }
    let setup = median(&setups).expect("SETUP_REPS is positive");
    let mut wall = 0.0;
    let mut totals = Totals::default();
    for sim in std::hint::black_box(sims) {
        let started = Instant::now();
        let report = std::hint::black_box(sim.run());
        wall += started.elapsed().as_secs_f64();
        totals.add(&report);
    }
    (setup, wall, totals)
}

fn child_timed(workload: &str, seed: u64, seconds: Duration) {
    // Warm-up: one pass lets the allocator and caches settle before
    // timing.
    let (_, _, reference) = timed_pass(workload, seed);
    reference.emit();
    let started = Instant::now();
    let (mut setups, mut walls, mut steals) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    while walls.len() < MIN_TIMED_PASSES || started.elapsed() < seconds {
        let steal_before = host_steal_ms();
        let (setup, wall, totals) = timed_pass(workload, seed);
        steals.push(host_steal_ms().saturating_sub(steal_before));
        setups.push(setup);
        walls.push(wall);
        if totals.digest.0 != reference.digest.0 {
            mismatches += 1;
        }
    }
    let list = |values: &[f64]| values.iter().map(|v| format!("{v:.9}")).collect::<Vec<_>>();
    emit("runs", walls.len());
    emit("mismatches", mismatches);
    emit("walls_s", list(&walls).join(","));
    emit("setups_s", list(&setups).join(","));
    emit("steals_ms", steals.iter().map(u64::to_string).collect::<Vec<_>>().join(","));
}

/// One member simulation alone, at `1/div` of the horizon: this
/// process's peak RSS is that one simulation's.
fn child_rss(workload: &str, seed: u64, div: u64, member: usize) {
    let mut config = configs(workload, seed).swap_remove(member);
    config.duration = (config.duration / div).max(1);
    let report = new_sim(config).run();
    emit("vmhwm_kb", vmhwm_kb());
    emit("syncs", report.metrics.syncs);
}

/// One traced pass over the members: the per-layer metrics, the analysed
/// span tree and the summed wall time of the traced `Simulation::run`s.
struct Traced {
    wall_s: f64,
    digest: u64,
    tree: SpanTree,
    layers: Vec<(&'static str, f64)>,
    spans: usize,
}

fn traced_pass(workload: &str, seed: u64) -> Traced {
    let sink = Arc::new(SpanSink::new());
    let mut totals = Totals::default();
    for mut config in configs(workload, seed) {
        config.tracer = TracerHandle::new(sink.clone());
        let t0 = Instant::now();
        let sim = new_sim(config);
        let t1 = Instant::now();
        sink.root("new", t0, t1);
        let report = sim.run();
        sink.root("run", t1, Instant::now());
        totals.add(&report);
    }
    let (raw, counts) = sink.take();
    let tree = SpanTree::build(&raw);
    let t = &totals;

    let ms = |phase: Phase| tree.phase(phase).total_ns as f64 / 1e6;
    let count = |phase: Phase| tree.phase(phase).count as f64;
    let run = tree.get(Label::Root("run"));
    let plan = tree.phase(Phase::MergePlan);
    let sync = tree.phase(Phase::Sync);
    let us = |samples: &[u64], q: f64| nearest_rank(samples, q).unwrap_or(0) as f64 / 1e3;
    let tail_us = |samples: &[u64]| {
        tail_percentile(samples, 0.99, TAIL_BEYOND).map_or(0.0, |(_, v)| v as f64 / 1e3)
    };
    let layers = vec![
        ("batch.parallel_merge_ms", ms(Phase::ParallelMerge)),
        ("batch.spec_hits", t.spec_hits as f64),
        ("batch.spec_retries", t.spec_retries as f64),
        ("batch.spec_hit_ratio", ratio(t.spec_hits as f64, (t.spec_hits + t.spec_retries) as f64)),
        ("batch.wave_rounds", t.wave_rounds as f64),
        ("batch.fastpath_merges", t.fastpath_merges as f64),
        ("batch.max_cohort", t.max_cohort as f64),
        ("merge.count", plan.count as f64),
        ("merge.self_ms", plan.self_ns as f64 / 1e6),
        ("merge.child_share", ratio(plan.child_ns as f64, plan.total_ns as f64)),
        ("merge.p50_us", us(&plan.samples, 0.5)),
        ("merge.p99_us", tail_us(&plan.samples)),
        ("exec.ms", ms(Phase::Exec)),
        ("graph.ms", ms(Phase::GraphBuild)),
        ("graph.edges", counts.graph_edges as f64),
        ("graph.pairs", counts.graph_pairs as f64),
        ("backout.ms", ms(Phase::Backout)),
        ("backout.bad", counts.backout_bad as f64),
        ("backout.affected", counts.backout_affected as f64),
        ("rewrite.ms", ms(Phase::Rewrite)),
        ("rewrite.saved", counts.rewrite_saved as f64),
        ("prune.ms", ms(Phase::Prune)),
        ("sync.count", sync.count as f64),
        ("sync.self_ms", sync.self_ns as f64 / 1e6),
        ("sync.p50_us", us(&sync.samples, 0.5)),
        ("sync.p99_us", tail_us(&sync.samples)),
        ("install.ms", ms(Phase::Install)),
        ("reexec.ms", ms(Phase::Reexecute)),
        ("reexec.count", count(Phase::Reexecute)),
        ("session.retries", t.session_retries as f64),
        ("session.resumes", counts.session_resumes as f64),
        ("admission.shed", t.shed as f64),
        ("admission.defer_peak", t.defer_peak as f64),
        ("sched.ms", ms(Phase::Scheduler)),
        ("sched.events_popped", t.events_popped as f64),
        ("wal.append_ms", ms(Phase::WalAppend)),
        ("wal.records", t.wal_records as f64),
        ("wal.bytes", t.wal_bytes as f64),
        ("wal.bytes_per_commit", ratio(t.wal_bytes as f64, t.base_commits as f64)),
        ("wal.checkpoint_ms", ms(Phase::Checkpoint)),
        ("wal.checkpoints", t.wal_checkpoints as f64),
        ("recovery.ms", ms(Phase::Recovery)),
        ("recovery.count", count(Phase::Recovery)),
        ("trace.untraced_share", 1.0 - ratio(run.child_ns as f64, run.total_ns as f64)),
    ];
    Traced {
        wall_s: run.total_ns as f64 / 1e9,
        digest: totals.digest.0,
        tree,
        layers,
        spans: raw.len(),
    }
}

fn child_traced(workload: &str, seed: u64, passes: usize) {
    // Warm-up, untraced, as in the timed child.
    drop(timed_pass(workload, seed));
    let mut traced: Vec<Traced> = (0..passes).map(|_| traced_pass(workload, seed)).collect();
    let digests: Vec<u64> = traced.iter().map(|t| t.digest).collect();
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let chosen = &traced[traced.len() / 2];
    emit("digest", format!("{:016x}", chosen.digest));
    emit("mismatches", digests.iter().filter(|d| **d != chosen.digest).count());
    emit("traced_s", chosen.wall_s);
    for (name, value) in &chosen.layers {
        emit(&format!("layer.{name}"), value);
    }
    print!("{}", span_report(&chosen.tree, chosen.spans));
}

/// The human-readable span table of one traced run.
fn span_report(tree: &SpanTree, spans: usize) -> String {
    let run = tree.get(Label::Root("run"));
    let run_ns = run.total_ns.max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "span tree ({spans} spans; shares are of the traced Simulation::run wall, {:.1} ms)",
        run.total_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  {:<15} {:>8} {:>11} {:>11} {:>7} {:>10} {:>22}",
        "span", "count", "total_ms", "self_ms", "self%", "p50_us", "tail_us (pct, n)"
    );
    for (label, s) in &tree.labels {
        let p50 = nearest_rank(&s.samples, 0.5).unwrap_or(0) as f64 / 1e3;
        let tail = match tail_percentile(&s.samples, 0.99, TAIL_BEYOND) {
            Some((pct, v)) => format!("{:.1} (p{pct:.1}, n={})", v as f64 / 1e3, s.count),
            None => format!("- (n={} <= {TAIL_BEYOND})", s.count),
        };
        let _ = writeln!(
            out,
            "  {:<15} {:>8} {:>11.3} {:>11.3} {:>6.1}% {:>10.1} {:>22}",
            label.name(),
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / run_ns,
            p50,
            tail
        );
    }
    let covered = run.child_ns as f64 / run_ns;
    let _ = writeln!(
        out,
        "  coverage: named spans cover {:.1}% of Simulation::run (bar {:.0}%, not gated: {})",
        100.0 * covered,
        100.0 * COVERAGE_BAR,
        if covered >= COVERAGE_BAR { "met" } else { "below" }
    );
    let plan = tree.phase(Phase::MergePlan);
    if plan.count > 0 {
        let _ = writeln!(
            out,
            "  merge_plan: children cover {:.1}%; its unnamed remainder (self time, mostly the \
             Theorem-1 witness sort) is {:.3} ms",
            100.0 * plan.child_ns as f64 / plan.total_ns.max(1) as f64,
            plan.self_ns as f64 / 1e6
        );
    }
    let leaves: Vec<&str> = tree.leaves().iter().map(Label::name).collect();
    let _ = writeln!(
        out,
        "  leaves (no child span yet): {}; parallel_merge is a leaf because batch workers \
         carry the no-op tracer",
        leaves.join(", ")
    );
    if tree.orphans > 0 {
        let _ = writeln!(out, "  {} spans had no enclosing span", tree.orphans);
    }
    out
}

// ---------------------------------------------------------------------
// The orchestrator.
// ---------------------------------------------------------------------

/// A child's `= key value` reports.
struct Reports(BTreeMap<String, String>);

impl Reports {
    fn text(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("child did not report {key}"))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        let text = self.text(key)?;
        text.parse().map_err(|_| format!("child reported {key} = {text:?}"))
    }

    /// A comma-separated list report.
    fn list<T: std::str::FromStr>(&self, key: &str) -> Result<Vec<T>, String> {
        let text = self.text(key)?;
        text.split(',')
            .map(|v| v.parse().map_err(|_| format!("child reported {key} = {text:?}")))
            .collect()
    }
}

/// Runs one child role to completion, relaying its human text.
fn spawn(role: &str, args: &Args, arg: u64, member: u64) -> Result<Reports, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (seed, arg, member) = (args.seed.to_string(), arg.to_string(), member.to_string());
    let output = Command::new(exe)
        .args(["child", role, &args.workload, &seed, &arg, &member])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {role} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut reports = BTreeMap::new();
    for line in stdout.lines() {
        match line.strip_prefix("= ").and_then(|kv| kv.split_once(' ')) {
            Some((key, value)) => {
                reports.insert(key.to_string(), value.to_string());
            }
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("the {role} child failed ({})", output.status));
    }
    Ok(Reports(reports))
}

fn orchestrate(args: Args) -> Result<ExitCode, String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} worker threads, {} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut problems: Vec<String> = Vec::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut attempted = 1u64;
    let mut failed = 0u64;

    let outcome = (|| -> Result<(), String> {
        let verify = spawn("verify", &args, 0, 0)?;
        if verify.num("converged")? != 1.0 {
            problems.push("the convergence oracle failed on the verification run".into());
        }
        let digest = verify.text("digest")?.to_string();
        let timed = spawn("timed", &args, args.seconds, 0)?;
        if timed.text("digest")? != digest || timed.num("mismatches")? != 0.0 {
            problems.push("a timed run's digest differs from the verification run".into());
        }
        let runs = timed.num("runs")? as u64;
        attempted = (runs * verify.num("attempted")? as u64).max(1);
        failed = runs * verify.num("failed")? as u64;
        let walls = timed.list::<f64>("walls_s")?;
        let setups = timed.list::<f64>("setups_s")?;
        let steals = timed.list::<u64>("steals_ms")?;
        if walls.len() != steals.len() || setups.len() != steals.len() {
            return Err("the timed child reported lists of different lengths".into());
        }
        // Passes the host disturbed measure the host, not the program.
        let kept = undisturbed(&walls, &steals, STEAL_SHARE, MIN_TIMED_PASSES);
        let walls: Vec<f64> = kept.iter().map(|&i| walls[i]).collect();
        let setup_s = median(&kept.iter().map(|&i| setups[i]).collect::<Vec<_>>())
            .expect("at least one timed run");
        let syncs = verify.num("syncs")?;
        let rates: Vec<f64> = walls.iter().map(|w| syncs / w).collect();
        let [q1, rate, q3] = quartiles(&rates).expect("at least one timed run");
        let untraced = median(&walls).expect("at least one timed run");
        println!(
            "timed: {runs} passes of {syncs} syncs, {} kept (host steal per pass {} ms); \
             syncs_per_s median {rate:.1} (q1 {q1:.1}, q3 {q3:.1}); pass wall median {:.1} ms; \
             set-up median {:.1} us",
            kept.len(),
            timed.text("steals_ms")?,
            untraced * 1e3,
            setup_s * 1e6
        );
        println!(
            "outcome: digest {digest}, {} base commits, attempted {} failed {} per run",
            verify.text("base_commits")?,
            verify.text("attempted")?,
            verify.text("failed")?
        );

        if args.trace {
            let traced = spawn("traced", &args, TRACED_PASSES, 0)?;
            if traced.text("digest")? != digest || traced.num("mismatches")? != 0.0 {
                problems.push(
                    "the traced run's digest differs: tracing is not observation-only".into(),
                );
            }
            let overhead = traced.num("traced_s")? / untraced - 1.0;
            for (name, unit) in PER_LAYER {
                let value = match name {
                    "trace.overhead" => overhead,
                    _ => traced.num(&format!("layer.{name}"))?,
                };
                metrics.push((name, value, unit));
            }
        } else {
            // Each member's peak RSS from a process that ran only that
            // member, at the full horizon and at a fraction of it.
            let members = workloads::members(&args.workload).expect("checked workload");
            let (mut peak_kb, mut short_kb) = (0.0, 0.0);
            for member in 0..members {
                peak_kb += spawn("rss", &args, 1, member)?.num("vmhwm_kb")? / members as f64;
                let short = spawn("rss", &args, SHORT_HORIZON_DIV, member)?;
                short_kb += short.num("vmhwm_kb")? / members as f64;
            }
            if peak_kb <= 0.0 || short_kb <= 0.0 {
                problems.push("VmHWM is unavailable (no /proc/self/status)".into());
            }
            println!(
                "memory: VmHWM {:.1} MB at the full horizon, {:.1} MB at 1/{SHORT_HORIZON_DIV} \
                 of it (means over {members} member processes)",
                peak_kb / 1024.0,
                short_kb / 1024.0,
            );
            let attempted_per_run = verify.num("attempted")?;
            let values = [
                rate,
                setup_s,
                peak_kb / 1024.0,
                verify.num("save_ratio")?,
                verify.num("cost_units_per_sync")?,
                1.0 - verify.num("failed")? / attempted_per_run.max(1.0),
                verify.num("admit_ticks_p99")?,
                peak_kb / short_kb.max(1.0),
            ];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                metrics.push((name, value, unit));
            }
        }
        Ok(())
    })();
    if let Err(message) = outcome {
        problems.push(message);
    }

    let correct = problems.is_empty();
    for problem in &problems {
        println!("CORRECTNESS FAILURE: {problem}");
    }
    if !correct {
        failed = attempted;
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric this binary does not print"
        );
        for name in workloads::NAMES {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "workload {name}");
        }
    }

    #[test]
    fn args_parse_and_reject_unknown_workloads() {
        let args: Vec<String> =
            ["--workload", "soak", "--seed", "5", "--seconds", "3", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!((parsed.workload.as_str(), parsed.seed, parsed.seconds), ("soak", 5, 3));
        assert!(parsed.trace);
        let bad: Vec<String> = ["--workload", "nope"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err());
        let bad_trace: Vec<String> =
            ["--workload", "soak", "--trace", "2"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad_trace).is_err());
    }
}
