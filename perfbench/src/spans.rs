//! The traced run's sink: raw spans kept in memory, linked into a tree by
//! interval containment once the run ends.
//!
//! The program reports a span only when it closes, as
//! `TraceEvent::Span { phase, ns }`. The sink stamps it with the recording
//! thread and the instant it arrived (taken as the span's end, so its start
//! is `end - ns`). On one thread spans nest LIFO, so a span's children are
//! exactly the spans that closed on the same thread after it opened and
//! before it closed, and were not already claimed by a deeper span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use histmerge_obs::{Phase, SessionStepKind, TraceEvent, Tracer};

/// What a span timed: a program phase, or one of the benchmark's own
/// root spans around `Simulation::new` and `Simulation::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Label {
    /// A span the program emitted.
    Phase(Phase),
    /// A span the benchmark recorded around a call into the program.
    Root(&'static str),
}

impl Label {
    /// The label as printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Label::Phase(phase) => phase.name(),
            Label::Root(name) => name,
        }
    }
}

/// One closed span, in nanoseconds since the sink was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Small per-process number of the recording thread.
    pub thread: u32,
    /// What the span timed.
    pub label: Label,
    /// Start, as `end - duration`.
    pub start: u64,
    /// The instant the span was recorded.
    pub end: u64,
}

impl RawSpan {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Counts carried by the program's count-bearing trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Precedence-graph edges built.
    pub graph_edges: u64,
    /// Sum of |H_m| x |H_b| over graph builds.
    pub graph_pairs: u64,
    /// Back-out set sizes summed over `CycleBreak` events.
    pub backout_bad: u64,
    /// Affected-set sizes summed over `CycleBreak` events.
    pub backout_affected: u64,
    /// Transactions the rewrite kept, summed over `Rewrite` events.
    pub rewrite_saved: u64,
    /// Session resumptions (`SessionStep` with step `resume`).
    pub session_resumes: u64,
}

/// The benchmark's tracer: keeps every span raw (no bucketing) plus the
/// event counts, for analysis after the run.
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    state: Mutex<(Vec<RawSpan>, EventCounts)>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_no() -> u32 {
    THREAD_NO.with(|n| *n)
}

impl SpanSink {
    /// An empty sink whose clock starts now.
    pub fn new() -> SpanSink {
        SpanSink { origin: Instant::now(), state: Mutex::new((Vec::new(), EventCounts::default())) }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records one of the benchmark's own spans on the calling thread.
    pub fn root(&self, name: &'static str, start: Instant, end: Instant) {
        let span = RawSpan {
            thread: thread_no(),
            label: Label::Root(name),
            start: self.offset(start),
            end: self.offset(end),
        };
        self.state.lock().expect("span sink lock poisoned").0.push(span);
    }

    /// Takes the recorded spans (in record order) and counts.
    pub fn take(&self) -> (Vec<RawSpan>, EventCounts) {
        std::mem::take(&mut *self.state.lock().expect("span sink lock poisoned"))
    }
}

impl Tracer for SpanSink {
    fn record(&self, event: &TraceEvent) {
        let end = self.offset(Instant::now());
        let mut state = self.state.lock().expect("span sink lock poisoned");
        let (spans, counts) = &mut *state;
        match *event {
            TraceEvent::Span { phase, ns } => spans.push(RawSpan {
                thread: thread_no(),
                label: Label::Phase(phase),
                start: end.saturating_sub(ns),
                end,
            }),
            TraceEvent::GraphBuilt { hm_len, hb_len, edges } => {
                counts.graph_edges += edges as u64;
                counts.graph_pairs += (hm_len as u64) * (hb_len as u64);
            }
            TraceEvent::CycleBreak { backed_out, affected } => {
                counts.backout_bad += backed_out as u64;
                counts.backout_affected += affected as u64;
            }
            TraceEvent::Rewrite { saved, .. } => counts.rewrite_saved += saved as u64,
            TraceEvent::SessionStep { step: SessionStepKind::Resume, .. } => {
                counts.session_resumes += 1
            }
            _ => {}
        }
    }
}

/// The parent of each span (by index), found by containment on the
/// recording thread. `spans` must be in record order, which on one thread
/// is the order spans closed. A span waiting for its parent stays on its
/// thread's stack; when a span closes, every waiting span that ended after
/// it started lies inside it (LIFO nesting), so it adopts them.
pub fn link(spans: &[RawSpan]) -> Vec<Option<usize>> {
    let mut parent = vec![None; spans.len()];
    let mut waiting: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let stack = waiting.entry(span.thread).or_default();
        while let Some(&top) = stack.last() {
            if spans[top].end <= span.start {
                break;
            }
            parent[top] = Some(i);
            stack.pop();
        }
        stack.push(i);
    }
    parent
}

/// Per-label totals of a linked span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelStats {
    /// Spans with this label.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus the children's durations).
    pub self_ns: u64,
    /// Summed durations of the children of these spans.
    pub child_ns: u64,
    /// Every duration, ascending.
    pub samples: Vec<u64>,
}

/// The analysed tree of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Totals per label.
    pub labels: BTreeMap<Label, LabelStats>,
    /// Spans no recorded span contains (besides the roots themselves).
    pub orphans: u64,
}

impl SpanTree {
    /// Links `spans` (record order) and totals them per label.
    pub fn build(spans: &[RawSpan]) -> SpanTree {
        let parent = link(spans);
        let mut child_ns = vec![0u64; spans.len()];
        let mut orphans = 0;
        for (i, p) in parent.iter().enumerate() {
            match p {
                Some(p) => child_ns[*p] += spans[i].ns(),
                None if !matches!(spans[i].label, Label::Root(_)) => orphans += 1,
                None => {}
            }
        }
        let mut labels: BTreeMap<Label, LabelStats> = BTreeMap::new();
        for (span, children) in spans.iter().zip(&child_ns) {
            let stats = labels.entry(span.label).or_default();
            stats.count += 1;
            stats.total_ns += span.ns();
            stats.self_ns += span.ns().saturating_sub(*children);
            stats.child_ns += children;
            stats.samples.push(span.ns());
        }
        for stats in labels.values_mut() {
            stats.samples.sort_unstable();
        }
        SpanTree { labels, orphans }
    }

    /// The totals of one label (all zero when it never occurred).
    pub fn get(&self, label: Label) -> LabelStats {
        self.labels.get(&label).cloned().unwrap_or_default()
    }

    /// The totals of one program phase.
    pub fn phase(&self, phase: Phase) -> LabelStats {
        self.get(Label::Phase(phase))
    }

    /// Program phases that occurred but never had a child span: the phases
    /// whose time no finer span breaks down yet.
    pub fn leaves(&self) -> Vec<Label> {
        self.labels
            .iter()
            .filter(|(l, s)| matches!(l, Label::Phase(_)) && s.count > 0 && s.child_ns == 0)
            .map(|(l, _)| *l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: Label, start: u64, end: u64) -> RawSpan {
        RawSpan { thread: 0, label, start, end }
    }

    const RUN: Label = Label::Root("run");
    const SYNC: Label = Label::Phase(Phase::Sync);
    const PLAN: Label = Label::Phase(Phase::MergePlan);
    const GRAPH: Label = Label::Phase(Phase::GraphBuild);
    const PRUNE: Label = Label::Phase(Phase::Prune);
    const INSTALL: Label = Label::Phase(Phase::Install);
    const SCHED: Label = Label::Phase(Phase::Scheduler);

    /// run [0, 100]
    ///   scheduler [2, 5]
    ///   sync [10, 60]
    ///     merge_plan [12, 40]
    ///       graph_build [13, 20]
    ///       prune [20, 21]        (starts the instant graph_build ends)
    ///     install [41, 55]
    ///   sync [70, 90]
    ///     install [75, 80]
    /// Spans arrive in the order they close.
    fn nested() -> Vec<RawSpan> {
        vec![
            span(SCHED, 2, 5),
            span(GRAPH, 13, 20),
            span(PRUNE, 20, 21),
            span(PLAN, 12, 40),
            span(INSTALL, 41, 55),
            span(SYNC, 10, 60),
            span(INSTALL, 75, 80),
            span(SYNC, 70, 90),
            span(RUN, 0, 100),
        ]
    }

    #[test]
    fn link_finds_the_innermost_enclosing_span() {
        let parent = link(&nested());
        assert_eq!(
            parent,
            vec![Some(8), Some(3), Some(3), Some(5), Some(5), Some(8), Some(7), Some(8), None]
        );
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tree = SpanTree::build(&nested());
        assert_eq!(tree.orphans, 0);
        let run = tree.get(RUN);
        // Direct children: scheduler 3 + sync 50 + sync 20.
        assert_eq!((run.total_ns, run.child_ns, run.self_ns), (100, 73, 27));
        let sync = tree.get(SYNC);
        // 50 - (28 + 14) + 20 - 5
        assert_eq!((sync.count, sync.total_ns, sync.self_ns), (2, 70, 23));
        assert_eq!(sync.samples, vec![20, 50]);
        let plan = tree.get(PLAN);
        assert_eq!((plan.total_ns, plan.child_ns, plan.self_ns), (28, 8, 20));
        assert_eq!(tree.get(PRUNE).self_ns, 1);
        let install = tree.get(INSTALL);
        assert_eq!((install.count, install.total_ns, install.self_ns), (2, 19, 19));
        assert_eq!(tree.get(Label::Phase(Phase::Backout)), LabelStats::default());
        assert_eq!(tree.leaves(), vec![GRAPH, PRUNE, INSTALL, SCHED]);
    }

    #[test]
    fn threads_are_linked_separately() {
        let mut spans = nested();
        // A span on another thread inside run's interval is not its child.
        spans.insert(0, RawSpan { thread: 1, label: GRAPH, start: 30, end: 35 });
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.orphans, 1);
        assert_eq!(tree.get(RUN).child_ns, 73);
    }

    #[test]
    fn sink_stamps_spans_and_counts_events() {
        let sink = SpanSink::new();
        sink.record(&TraceEvent::GraphBuilt { hm_len: 3, hb_len: 4, edges: 5 });
        sink.record(&TraceEvent::GraphBuilt { hm_len: 2, hb_len: 2, edges: 1 });
        sink.record(&TraceEvent::CycleBreak { backed_out: 2, affected: 3 });
        sink.record(&TraceEvent::Rewrite { saved: 6, backed_out: 2 });
        sink.record(&TraceEvent::SessionStep {
            tick: 1,
            mobile: 0,
            seq: 0,
            step: SessionStepKind::Resume,
        });
        sink.record(&TraceEvent::Span { phase: Phase::Install, ns: 0 });
        let (spans, counts) = sink.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, Label::Phase(Phase::Install));
        assert_eq!(
            counts,
            EventCounts {
                graph_edges: 6,
                graph_pairs: 16,
                backout_bad: 2,
                backout_affected: 3,
                rewrite_saved: 6,
                session_resumes: 1,
            }
        );
    }
}
