//! `explore-paxos3`: exhaustive `ioa::check_invariant` sweep of
//! Paxos(Ω) at n = 3 with proposals (0, 1, 0), checking agreement and
//! validity on every reachable state.
//!
//! One request is one complete sweep; sweeps repeat until the time
//! budget is spent, and the run reports the median of each metric over
//! its sweeps. The sweep is exhaustive, so its input does not depend on
//! the seed, and the state count must repeat exactly. The latency of a
//! work item is the time to discover each successive block of [`BLOCK`]
//! distinct states, read at the invariant calls (one per distinct
//! state); a block smooths the per-state jitter of hashing and cloning
//! that would otherwise dominate the quantiles.
//!
//! Unlike the KV rounds, sweeps take the median, not the best: sweep
//! speed drifts within a run in both directions (one run went from 21k
//! to 36k states/s over seven sweeps), and reporting the fastest sweep
//! spread ten runs wider than the median did.
//!
//! The traced run pairs every sweep with a sweep of the same
//! composition behind [`Timed`], a pass-through automaton that times
//! each `enabled` and `step` call into it. It then simulates the same
//! system with `run_sim` under a `RandomFair` scheduler seeded from the
//! run seed and re-drives each simulation's loop through the public
//! `Scheduler::next_task`, `Composition::enabled` and `Composition::step`,
//! timing each call. The re-drive's schedule must equal `run_sim`'s byte
//! for byte, or its `ioa.next_task_ns` describes a different program and
//! is rejected.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use afd_algorithms::consensus::paxos_omega::{paxos_system, PaxosOmega, PaxosState};
use afd_core::afds::Omega;
use afd_core::{Action, Pi, StreamChecker};
use afd_system::{run_sim, ComponentState, ProcState, ProcessAutomaton, SimConfig, System};
use ioa::{check_invariant, ActionClass, Automaton, RandomFair, Scheduler, SweepOutcome, TaskId};

use crate::report::{digest, median, quantile, sub_seed, Tracer, ROOT};
use crate::{Outcome, RunCfg};

const PROPOSALS: [u64; 3] = [0, 1, 0];
/// Distinct reachable states of the n = 3 composition with
/// [`PROPOSALS`]: an exact count, so a sweep reaching any other number
/// explored a different state space.
const EXPECTED_STATES: usize = 133_744;
/// Budget well above the reachable space, so a complete sweep is a
/// check, not a truncation.
const MAX_STATES: usize = 1_000_000;
/// Warm-up sweep size inside each set-up.
const WARM_STATES: usize = 2_000;
const SETUPS: usize = 5;
/// Distinct states per latency sample.
const BLOCK: usize = 100;
/// Events per simulated schedule in the traced run.
const SIM_EVENTS: usize = 10_000;
/// Simulations (each re-driven) per traced run.
const SIMS: u64 = 20;

type Sys = System<ProcessAutomaton<PaxosOmega>>;
type State = Vec<ComponentState<ProcState<PaxosState>>>;

fn build() -> Sys {
    paxos_system(Pi::new(PROPOSALS.len()), &PROPOSALS, vec![])
}

/// Agreement (all decided values equal) and validity (every decided
/// value was proposed).
fn safe(s: &State) -> bool {
    let mut decided = s.iter().filter_map(|c| match c {
        ComponentState::Process(p) => p.inner.decided,
        _ => None,
    });
    let Some(first) = decided.next() else {
        return true;
    };
    PROPOSALS.contains(&first) && decided.all(|v| v == first)
}

/// Pass-through automaton timing each call into the inner one.
struct Timed<'a, M: Automaton> {
    inner: &'a M,
    enabled: Cell<(u64, u64)>,
    step: Cell<(u64, u64)>,
}

fn add(c: &Cell<(u64, u64)>, t0: Instant) {
    let (n, ns) = c.get();
    c.set((n + 1, ns + t0.elapsed().as_nanos() as u64));
}

impl<M: Automaton> Automaton for Timed<'_, M> {
    type Action = M::Action;
    type State = M::State;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_state(&self) -> M::State {
        self.inner.initial_state()
    }

    fn classify(&self, a: &M::Action) -> Option<ActionClass> {
        self.inner.classify(a)
    }

    fn task_count(&self) -> usize {
        self.inner.task_count()
    }

    fn enabled(&self, s: &M::State, t: TaskId) -> Option<M::Action> {
        let t0 = Instant::now();
        let r = self.inner.enabled(s, t);
        add(&self.enabled, t0);
        r
    }

    fn step(&self, s: &M::State, a: &M::Action) -> Option<M::State> {
        let t0 = Instant::now();
        let r = self.inner.step(s, a);
        add(&self.step, t0);
        r
    }
}

/// One sweep of `m`: (outcome, wall seconds, states, per-block ns).
fn sweep<M: Automaton<State = State>>(m: &M) -> (SweepOutcome<M>, f64, usize, Vec<u64>) {
    let blocks = RefCell::new(Vec::with_capacity(EXPECTED_STATES / BLOCK + 1));
    let calls = Cell::new(0usize);
    let t0 = Instant::now();
    let last = Cell::new(t0);
    let out = check_invariant(m, &[], MAX_STATES, |s: &State| {
        calls.set(calls.get() + 1);
        if calls.get().is_multiple_of(BLOCK) {
            let now = Instant::now();
            blocks
                .borrow_mut()
                .push(now.duration_since(last.replace(now)).as_nanos() as u64);
        }
        safe(s)
    });
    (
        out,
        t0.elapsed().as_secs_f64(),
        calls.get(),
        blocks.into_inner(),
    )
}

/// (states/s, p50 ms, p99 ms) of one sweep from its per-block times.
fn sweep_stats(states: usize, mut blocks: Vec<u64>, wall: f64) -> (f64, f64, f64) {
    blocks.sort_unstable();
    (
        states as f64 / wall.max(1e-9),
        quantile(&blocks, 0.50) as f64 / 1e6,
        quantile(&blocks, 0.99) as f64 / 1e6,
    )
}

fn medians(xs: &[(f64, f64, f64)]) -> (f64, f64, f64) {
    let col = |f: fn(&(f64, f64, f64)) -> f64| median(&xs.iter().map(f).collect::<Vec<_>>());
    (col(|x| x.0), col(|x| x.1), col(|x| x.2))
}

fn check<M: Automaton>(out: &SweepOutcome<M>) -> Result<usize, String> {
    match out {
        SweepOutcome::Holds { states, complete } => {
            if !complete {
                Err(format!("sweep truncated at {states} states"))
            } else if *states != EXPECTED_STATES {
                Err(format!(
                    "sweep reached {states} states, expected exactly {EXPECTED_STATES}"
                ))
            } else {
                Ok(*states)
            }
        }
        SweepOutcome::Violated(cex) => Err(format!(
            "agreement/validity violated after {} actions: {:?}",
            cex.path.len(),
            cex.path
        )),
    }
}

/// Per-call totals of the traced re-drive.
#[derive(Default)]
struct Calls {
    next_task_ns: u64,
    enabled_ns: u64,
    step_ns: u64,
    calls: u64,
}

/// The traced re-drive of `run_sim`'s loop (no faults, no stop
/// predicate): its schedule.
fn redrive(sys: &Sys, seed: u64, calls: &mut Calls, tr: &mut Tracer, parent: u32) -> Vec<Action> {
    let m = &sys.composition;
    let mut sched = RandomFair::new(seed);
    let mut state = m.initial_state();
    let mut schedule = Vec::with_capacity(SIM_EVENTS);
    for step in 0..SIM_EVENTS {
        let a0 = tr.now_ns();
        let Some(t) = sched.next_task(m, &state, step) else {
            break;
        };
        let a1 = tr.now_ns();
        let Some(a) = m.enabled(&state, t) else {
            break;
        };
        let a2 = tr.now_ns();
        let next = m.step(&state, &a).expect("an enabled action applies");
        let a3 = tr.now_ns();
        state = next;
        schedule.push(a);
        calls.next_task_ns += a1 - a0;
        calls.enabled_ns += a2 - a1;
        calls.step_ns += a3 - a2;
        calls.calls += 1;
        let ev = tr.record("sim.event", parent, a0, a3);
        if ev != ROOT {
            tr.record("ioa.next_task", ev, a0, a1);
            tr.record("ioa.enabled", ev, a1, a2);
            tr.record("ioa.step", ev, a2, a3);
        }
    }
    schedule
}

/// The traced run's simulator pass: [`SIMS`] `run_sim` schedules of the
/// swept system, each checked and re-driven; puts `ioa.next_task_ns` if
/// every re-drive reproduced its schedule.
fn simulate(sys: &Sys, cfg: &RunCfg, tr: &mut Tracer, out: &mut Outcome) {
    let pi = Pi::new(PROPOSALS.len());
    let mut calls = Calls::default();
    let mut digests = Vec::new();
    let mut identical = true;
    for k in 0..SIMS {
        let seed = sub_seed(cfg.seed, k);
        let sim = run_sim(
            sys,
            &mut RandomFair::new(seed),
            SimConfig::default().with_max_steps(SIM_EVENTS),
        );
        let schedule = sim.execution.actions;
        if sim.steps != SIM_EVENTS || schedule.len() != SIM_EVENTS {
            out.errors.push(format!(
                "simulation {k} (seed {seed}): ran {} steps ({} events), budget {SIM_EVENTS}",
                sim.steps,
                schedule.len()
            ));
        }
        if let Err(v) = Omega::stream(pi).check_all(&schedule) {
            out.errors.push(format!(
                "simulation {k} (seed {seed}): Ω conformance of the detector outputs: {v}"
            ));
        }
        digests.push(digest(&schedule));
        let span = tr.open("sim.request", ROOT);
        let rs = redrive(sys, seed, &mut calls, tr, span);
        tr.close(span);
        if rs != schedule {
            identical = false;
            out.errors.push(format!(
                "simulation {k} (seed {seed}): traced re-drive schedule differs from run_sim at index {}",
                ioa::seq::common_prefix_len(&rs, &schedule)
            ));
        }
    }
    println!(
        "simulator: {SIMS} run_sim schedules of {SIM_EVENTS} events under RandomFair, digest {:016x} (first {:016x})",
        digest(&digests),
        digests[0]
    );
    let per = |ns: u64| crate::report::mean(ns as f64, calls.calls as f64);
    if identical {
        out.metrics
            .put("ioa.next_task_ns", per(calls.next_task_ns), "ns");
        println!(
            "re-drive identical to run_sim on all {SIMS} schedules; ioa.next_task_ns = {:.1} (simulator loop: enabled {:.1}, step {:.1}; mean ns per call over {} events)",
            per(calls.next_task_ns),
            per(calls.enabled_ns),
            per(calls.step_ns),
            calls.calls
        );
    } else {
        println!("re-drive differs from run_sim: ioa.next_task_ns rejected");
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    println!(
        "settings: Paxos(Ω) n={} proposals {PROPOSALS:?}, exhaustive BFS (check_invariant, budget {MAX_STATES}), no crash inputs; input is seed-independent",
        PROPOSALS.len()
    );

    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = build();
        let warm = check_invariant(&s.composition, &[], WARM_STATES, safe);
        std::hint::black_box(warm.holds());
        setups.push(t0.elapsed().as_secs_f64());
        sys = Some(s);
    }
    let sys = sys.expect("at least one set-up");
    let setup_s = median(&setups);
    out.metrics.put("setup_s", setup_s, "s");

    let mut tr = Tracer::new();
    let timed = Timed {
        inner: &sys.composition,
        enabled: Cell::new((0, 0)),
        step: Cell::new((0, 0)),
    };
    // Per sweep: (states/s, p50 ms, p99 ms); the run reports medians.
    let mut per_sweep: Vec<(f64, f64, f64)> = Vec::new();
    let mut traced_sweeps: Vec<(f64, f64, f64)> = Vec::new();
    let mut counts = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let (res, w, n, b) = sweep(&sys.composition);
        out.attempted += 1;
        match check(&res) {
            Ok(n) => counts.push(n),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("sweep {k}: {e}"));
            }
        }
        per_sweep.push(sweep_stats(n, b, w));
        drop(res);
        if cfg.trace {
            let span = tr.open("explore.sweep", ROOT);
            let (res, w, n, b) = sweep(&timed);
            tr.close(span);
            if let Err(e) = check(&res) {
                out.errors.push(format!("traced sweep {k}: {e}"));
            }
            traced_sweeps.push(sweep_stats(n, b, w));
        }
        k += 1;
    }
    if counts.windows(2).any(|w| w[0] != w[1]) {
        out.errors
            .push(format!("state counts differ between sweeps: {counts:?}"));
    }
    let (throughput, p50, p99) = medians(&per_sweep);
    println!(
        "setup_s = {setup_s:.6} s (median of {SETUPS} builds + {WARM_STATES}-state warm-up sweeps)"
    );
    for (i, (t, a, b)) in per_sweep.iter().enumerate() {
        println!(
            "sweep {i}: {t:.1} states/s, {BLOCK}-state block latency p50 {a:.6} ms, p99 {b:.6} ms"
        );
    }
    println!(
        "states_per_s = {throughput:.1} states/s, {BLOCK}-state block latency p50 = {p50:.6} ms, p99 = {p99:.6} ms (medians over {} sweeps of {} states each, {} blocks per sweep; state counts {counts:?})",
        per_sweep.len(),
        counts.first().copied().unwrap_or(0),
        EXPECTED_STATES / BLOCK
    );
    out.metrics.put("throughput_per_s", throughput, "1/s");
    out.metrics.put("latency_p50_ms", p50, "ms");
    let rss = crate::report::peak_rss_mb();
    println!("peak_rss_mb = {rss:.1} MiB");
    out.metrics.put("peak_rss_mb", rss, "MiB");

    if cfg.trace {
        out.put_overhead((throughput, p50, p99), medians(&traced_sweeps));
        let (en, en_ns) = timed.enabled.get();
        let (st, st_ns) = timed.step.get();
        let per = |ns: u64, n: u64| crate::report::mean(ns as f64, n as f64);
        out.metrics.put("ioa.enabled_ns", per(en_ns, en), "ns");
        out.metrics.put("ioa.step_ns", per(st_ns, st), "ns");
        out.metrics.put(
            "ioa.states",
            counts.first().copied().unwrap_or(0) as f64,
            "count",
        );
        println!(
            "ioa.enabled_ns = {:.1} ({en} calls), ioa.step_ns = {:.1} ({st} calls), ioa.states = {:?}",
            per(en_ns, en),
            per(st_ns, st),
            counts.first()
        );
        simulate(&sys, cfg, &mut tr, &mut out);
        crate::finish_trace(cfg, &tr, &mut out);
    }
    out
}
