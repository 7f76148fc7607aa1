//! Property-based tests (proptest) of the event-driven scheduler's
//! determinism contract (DESIGN.md §14):
//!
//! 1. the event queue is a *total order* — whatever order events are
//!    pushed in, they pop in `(time, kind, mobile)` order, with
//!    same-timestamp ties broken identically every run;
//! 2. RNG *domain separation* — the fault stream is forked away from the
//!    workload stream, so adding (inactive) fault events to a run never
//!    shifts a workload draw; and
//! 3. [`fork_rng`] forks are deterministic and mutually independent — how
//!    much one fork is consumed never changes a sibling fork's draws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use histmerge::replication::{
    fork_rng, Event, EventKind, EventQueue, FaultPlan, FaultRates, Protocol, SimConfig, Simulation,
    SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

fn arb_event() -> impl Strategy<Value = Event> {
    (0u64..24, prop::bool::ANY, 0usize..8).prop_map(|(time, generate, mobile)| Event {
        time,
        kind: if generate { EventKind::Generate } else { EventKind::Connect },
        mobile,
    })
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 160,
        base_rate: 0.3,
        mobile_rate: 0.17,
        connect_every: 30,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 80 },
        workload: ScenarioParams { n_vars: 48, seed, ..ScenarioParams::default() },
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Popping the queue tick by tick yields exactly the stable
    /// `(time, kind, mobile)` sort of the pushed events — ties on the
    /// same timestamp (including duplicate events) included — no matter
    /// what order they were pushed in.
    #[test]
    fn pops_are_the_sorted_push_set(events in prop::collection::vec(arb_event(), 0..48)) {
        let mut queue = EventQueue::new();
        for e in &events {
            queue.push(*e);
        }
        let mut popped = Vec::new();
        for tick in 0..24 {
            while let Some(e) = queue.pop_at(tick) {
                // pop_at never releases an event early.
                prop_assert!(e.time <= tick);
                popped.push(e);
            }
        }
        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.pushed(), events.len() as u64);
        prop_assert_eq!(queue.popped(), events.len() as u64);
        let mut expected = events;
        expected.sort();
        prop_assert_eq!(popped, expected);
    }

    /// Two identically-seeded queues fed the same events in *different*
    /// orders drain identically — the heap's internal layout never leaks
    /// into the pop sequence.
    #[test]
    fn push_order_is_invisible(
        events in prop::collection::vec(arb_event(), 1..32),
        rot in 0usize..32,
    ) {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let rot = rot % events.len();
        for e in &events {
            a.push(*e);
        }
        for e in events[rot..].iter().chain(&events[..rot]) {
            b.push(*e);
        }
        for tick in 0..24 {
            loop {
                let (x, y) = (a.pop_at(tick), b.pop_at(tick));
                prop_assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }

    /// Domain separation at simulation scope: attaching a seeded fault
    /// plan whose rates are all zero (so it draws from the *fault* RNG
    /// stream without ever firing) must not move a single workload,
    /// jitter, or scheduling draw — the run is byte-identical to the
    /// plan-free run.
    #[test]
    fn inactive_fault_stream_never_shifts_workload_draws(
        seed in 0u64..2000,
        fault_seed in 0u64..2000,
    ) {
        let mut clean = sim_config(seed);
        clean.fault = FaultPlan::none();
        let mut faulted = clean.clone();
        faulted.fault = FaultPlan::seeded(fault_seed, FaultRates::zero());
        let faulted = Simulation::new(faulted).expect("valid sim config").run();
        let clean = Simulation::new(clean).expect("valid sim config").run();
        prop_assert_eq!(&faulted.final_master, &clean.final_master);
        prop_assert_eq!(faulted.metrics.normalized(), clean.metrics.normalized());
        prop_assert_eq!(faulted.base_commits, clean.base_commits);
    }

    /// `fork_rng` forks are a pure function of the base stream's position:
    /// re-forking from an identically-seeded base reproduces the fork, and
    /// however deeply the first fork is consumed, the next fork off the
    /// base draws the same values.
    #[test]
    fn forks_are_deterministic_and_independent(
        seed in 0u64..5000,
        consumed in 0usize..64,
    ) {
        let mut base_a = StdRng::seed_from_u64(seed);
        let mut base_b = StdRng::seed_from_u64(seed);
        let mut fork_a1 = fork_rng(&mut base_a);
        let mut fork_b1 = fork_rng(&mut base_b);
        // Determinism: same base position, same fork stream.
        prop_assert_eq!(fork_a1.gen::<u64>(), fork_b1.gen::<u64>());
        // Independence: drain fork_a1 a variable amount, fork_b1 not at
        // all — the *next* forks still agree, and so does the base.
        for _ in 0..consumed {
            let _ = fork_a1.gen::<u64>();
        }
        let mut fork_a2 = fork_rng(&mut base_a);
        let mut fork_b2 = fork_rng(&mut base_b);
        for _ in 0..4 {
            prop_assert_eq!(fork_a2.gen::<u64>(), fork_b2.gen::<u64>());
        }
        prop_assert_eq!(base_a.gen::<u64>(), base_b.gen::<u64>());
    }
}
