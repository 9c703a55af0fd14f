//! The threaded executor: a sharded, event-driven worker pool
//! (see [`crate::exec`]) multiplexing every component automaton of the
//! run, a crash injector, an adversarial link layer, and a watchdog
//! monitor.
//!
//! **Why a pool.** The previous engine spawned one OS thread per
//! component. At n = 16 that is ~270 threads (16 processes + 240
//! all-pairs channels + FD/env) each waking every 500 µs to find an
//! empty queue: `recv-wait` was 98.6% of busy time and throughput
//! collapsed ~100× from n = 8. Now W ≈ `available_parallelism` workers
//! pull ready components from per-shard queues and park on a condvar
//! when the system is quiet — there are no timed polls anywhere in the
//! engine (the crash injector blocks on a sink length-watch, see
//! [`EventSink::wait_len_at_least`], and the monitor on the sink's run
//! clock, see `EventSink::wait_clock`).
//!
//! **Activation model.** Each component owns an inbox (routed inputs)
//! and a body (automaton state plus per-channel adversary state). An
//! activation drains the inbox (applying `step`), then sweeps local
//! tasks: commit each enabled action through the shared [`EventSink`],
//! apply the local `step`, and route the action to the components that
//! classify it as an input. The commit-then-step-then-route order is
//! what makes the sink's log a legal schedule (see the linearization
//! convention in [`crate::sink`]). The pool guarantees at most one
//! activation per component at a time, so bodies need no contended
//! locking and per-channel adversary decisions stay a deterministic,
//! seeded stream.
//!
//! **Routing index.** `route()` no longer scans all O(n²) components
//! calling `classify` per committed action. Action classification is
//! payload-independent, so the fan-out set of an action is a function
//! of its variant and locations only: a `(kind, loc, loc)` key maps to
//! a cached `Arc<[u32]>` target list, built lazily (one classify scan
//! per distinct key, a handful per run) and hit lock-free-ish through
//! an `RwLock` read for every subsequent commit.
//!
//! **Adversarial links.** Channel components whose [`LinkProfile`] is
//! chaotic (or while partitions are scripted) run a fault-injecting
//! activation: each consumed arrival draws one [`ChannelChaos`]
//! decision — drop (consume silently), duplicate (commit the delivery
//! twice), or hold (release only after up to `reorder` later
//! arrivals). Scripted [`crate::Partition`]s *hold* (never drop) all
//! traffic crossing the cut; a cut channel with pending traffic goes
//! idle without voting for quiescence and registers in a deferred
//! registry keyed by the partition's heal step, so the first commit at
//! or past that step re-arms it (the registrant re-checks the log
//! length after registering, so a heal crossed mid-registration is not
//! lost) — healing resumes delivery in FIFO order per channel with no
//! cut-poll loop.
//!
//! **Pacing.** FD pacing, wire pacing and link delay/jitter are
//! deadlines, not sleeps: the activation that first finds a paced
//! action enabled stamps a ready time one interval ahead and arms a
//! timer on the run clock (`EventSink::arm_timer`), then hands its
//! worker back to the pool. The monitor re-enqueues the component when
//! the timer fires, and that activation commits one paced action — the
//! first enabled at or after a round-robin cursor over the component's
//! tasks. So a paced action commits no earlier than one interval after
//! it was found enabled, each component makes at most one paced commit
//! per interval, and paced tasks take turns. A component waiting on a
//! timer does not vote for quiescence. The wait is deliberate workload
//! pacing, not engine cost: it shows in no stage span, and each fired
//! timer's armed→fired time is recorded as the `pacing-delay` gauge.
//!
//! **Shutdown.** A stop — predicate, budget, or a contained panic —
//! signals the run clock the monitor waits on, so the run returns as
//! soon as its workers exit. The watchdog tick serves only the checks
//! below. Quiescence is detected structurally, not by a timing
//! heuristic: the run is idle when the commit count is stable across
//! two watchdog ticks, every live inbox is drained, and every live
//! component is parked. A run that is *not* quiescent but commits
//! nothing within the watchdog deadline is stopped with
//! [`StopReason::Watchdog`] and a [`RunDiagnostic`] instead of hanging.
//!
//! **Panic containment.** Activations run under `catch_unwind`. A
//! panicking process component becomes a `Crash` event at its location
//! (observable by observers, like any crash); a panicking
//! channel/env/FD component stops the run with
//! [`StopReason::Panicked`]. Either way the run terminates cleanly
//! with a diagnostic.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use afd_core::{Action, Loc};
use afd_system::{Component, ComponentKind, RunStats, System};
use ioa::{ActionClass, Automaton, TaskId};

use crate::chaos::{ChannelChaos, ChannelChaosStats, ChaosDecision, ChaosReport};
use crate::config::{ConfigError, CrashMode, LinkProfile, RuntimeConfig};
use crate::exec::{Directive, Pool};
use crate::rng::SplitMix64;
use crate::sink::{Commit, EventSink, SinkOptions, StopReason};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The composed state of one component (process-or-infrastructure
/// sum type), as stored in its cell.
type CState<P> = <Component<P> as Automaton>::State;

/// Diagnostic dump of a stalled or panicked run: what every component
/// was doing when the watchdog fired.
#[derive(Debug, Clone, Default)]
pub struct RunDiagnostic {
    /// Committed events at the time of the dump.
    pub committed: usize,
    /// Nanoseconds since the last commit.
    pub stalled_ns: u64,
    /// Components with undrained input queues: `(name, queued)`.
    pub backlog: Vec<(String, usize)>,
    /// Live components that were not parked (had or expected work).
    pub busy: Vec<String>,
    /// Locations crashed by that point.
    pub crashed: Vec<Loc>,
    /// Panic messages captured from contained panics.
    pub panics: Vec<String>,
}

impl std::fmt::Display for RunDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "run diagnostic: {} events committed, stalled {:.1} ms",
            self.committed,
            self.stalled_ns as f64 / 1e6
        )?;
        for (name, n) in &self.backlog {
            writeln!(f, "  backlog {n:>4}  {name}")?;
        }
        for name in &self.busy {
            writeln!(f, "  busy          {name}")?;
        }
        if !self.crashed.is_empty() {
            writeln!(f, "  crashed: {:?}", self.crashed)?;
        }
        for p in &self.panics {
            writeln!(f, "  panic: {p}")?;
        }
        Ok(())
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct RuntimeOutcome {
    /// The linearized event log (see [`crate::sink`] for the
    /// convention making this a legal schedule).
    pub schedule: Vec<Action>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// What the link adversary did, per channel.
    pub chaos: ChaosReport,
    /// Present when the run stalled ([`StopReason::Watchdog`]),
    /// panicked, or contained a process panic.
    pub diagnostic: Option<RunDiagnostic>,
}

impl RuntimeOutcome {
    /// Committed event count.
    #[must_use]
    pub fn events(&self) -> usize {
        self.schedule.len()
    }

    /// Aggregate statistics of the schedule.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats::of(&self.schedule)
    }

    /// Events satisfying `keep`.
    #[must_use]
    pub fn project<F: Fn(&Action) -> bool>(&self, keep: F) -> Vec<Action> {
        self.schedule.iter().filter(|a| keep(a)).copied().collect()
    }

    /// Commit throughput of the run.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.schedule.len() as f64 / secs
    }
}

/// Shared per-component instrumentation: inbox depths and parked flags
/// (the quiescence signal), completion flags, and contained-panic
/// notes. With the pool, `parked`/`backlog` are per-*component*
/// properties — a component is parked when its last activation found
/// nothing to do, regardless of which worker ran it.
struct Telemetry {
    /// Routed-but-unapplied inputs per component (exact: stored under
    /// the component's inbox lock by whoever changes the queue).
    backlog: Vec<AtomicUsize>,
    /// Component's last activation found nothing enabled and left no
    /// paced action waiting on a run timer (quiescence vote).
    parked: Vec<AtomicBool>,
    /// Component is permanently finished (its backlog no longer
    /// counts).
    done: Vec<AtomicBool>,
    /// Contained panic messages.
    panics: Mutex<Vec<String>>,
    /// Live backlog/busy snapshot taken by the monitor at the moment
    /// the watchdog fired (post-run everything is parked, so this
    /// cannot be reconstructed later).
    snapshot: Mutex<Option<RunDiagnostic>>,
}

impl Telemetry {
    fn new(n: usize) -> Self {
        Telemetry {
            backlog: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            parked: (0..n).map(|_| AtomicBool::new(false)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            panics: Mutex::new(Vec::new()),
            snapshot: Mutex::new(None),
        }
    }

    fn park(&self, idx: usize) {
        self.parked[idx].store(true, Ordering::SeqCst);
    }

    fn unpark(&self, idx: usize) {
        self.parked[idx].store(false, Ordering::SeqCst);
    }

    fn finish(&self, idx: usize) {
        self.parked[idx].store(true, Ordering::SeqCst);
        self.done[idx].store(true, Ordering::SeqCst);
    }

    /// All live components parked, with every live inbox drained?
    fn quiescent(&self) -> bool {
        for i in 0..self.parked.len() {
            if self.done[i].load(Ordering::SeqCst) {
                continue;
            }
            if !self.parked[i].load(Ordering::SeqCst) || self.backlog[i].load(Ordering::SeqCst) != 0
            {
                return false;
            }
        }
        true
    }

    fn note_panic(&self, msg: String) {
        lock(&self.panics).push(msg);
    }
}

/// Routed inputs pending for one component. `killed` implements the
/// `CrashMode::Kill` drop-queued-inputs rule: routing to a killed
/// inbox silently discards the message (the kill -9 semantics the old
/// engine got from dropping the mpsc receiver).
struct Inbox {
    q: VecDeque<Action>,
    killed: bool,
}

/// Per-channel adversary state, persisted across activations so the
/// seeded decision stream is identical to a dedicated-thread run.
struct ChaosState {
    chaos: ChannelChaos,
    jrng: SplitMix64,
    /// Held-back arrivals: `(action, release_at, duplicate)` —
    /// released once the arrival clock passes `release_at`, in
    /// insertion order.
    held: VecDeque<(Action, u64, bool)>,
    arrivals: u64,
    stats: ChannelChaosStats,
    /// The decision already drawn for the head arrival while its link
    /// delay runs on the run clock (drawn once per arrival, however
    /// many activations the delay spans).
    pending: Option<ChaosDecision>,
}

/// Per-component pacing clock. A paced action — an FD output, a
/// `WireSend`, a delayed channel delivery — commits no earlier than
/// one pacing interval after the activation that first found it
/// enabled: that activation stamps `ready_at` and arms a run timer,
/// and the component goes back to the pool instead of sleeping on a
/// worker. At most one paced commit happens per interval; `next_task`
/// is the round-robin cursor that gives every paced task its turn.
#[derive(Default)]
struct Pace {
    ready_at: Option<Instant>,
    next_task: usize,
}

impl Pace {
    /// May the paced action this activation found commit now? The
    /// first ask starts the interval (`interval` is drawn once per
    /// interval, so a jitter stream advances once per paced commit)
    /// and arms the run timer for component `idx`; a due ask consumes
    /// the deadline.
    fn due(&mut self, sink: &EventSink, idx: usize, interval: impl FnOnce() -> Duration) -> bool {
        let now = Instant::now();
        match self.ready_at {
            Some(at) if now >= at => {
                self.ready_at = None;
                true
            }
            Some(_) => false,
            None => {
                let at = now + interval();
                if at <= now {
                    return true;
                }
                self.ready_at = Some(at);
                sink.arm_timer(at, idx);
                false
            }
        }
    }

    /// Is a paced action waiting on its timer? Such a component has
    /// pending work and must not vote for quiescence.
    fn waiting(&self) -> bool {
        self.ready_at.is_some()
    }
}

/// The mutable half of a component. The pool guarantees one activation
/// at a time, so this mutex is uncontended — it exists to move the
/// state across worker threads, not to arbitrate.
struct Body<S> {
    state: S,
    rng: SplitMix64,
    chaos: Option<ChaosState>,
    pace: Pace,
}

struct Cell<P: Automaton<Action = Action>> {
    inbox: Mutex<Inbox>,
    body: Mutex<Body<CState<P>>>,
}

/// Cut channels waiting for a scripted partition to heal: `(heal
/// step, component)`. Re-armed by the first commit whose resulting
/// length reaches the heal step instead of polling the cut. A heal
/// crossed while a channel registers is caught by the registrant's
/// own re-check (see [`Engine::defer`]), so no timed backstop exists.
struct Deferred {
    entries: Mutex<Vec<(usize, u32)>>,
    /// Smallest registered heal step (`usize::MAX` when empty): the
    /// lock-free pre-check on the commit path.
    min: AtomicUsize,
}

impl Deferred {
    fn new() -> Self {
        Deferred {
            entries: Mutex::new(Vec::new()),
            min: AtomicUsize::new(usize::MAX),
        }
    }

    /// Register `comp` to be re-armed once the log reaches
    /// `threshold`. `usize::MAX` (an eternal cut) is not registered —
    /// the component stays un-parked, so the watchdog still fires.
    fn register(&self, threshold: usize, comp: usize) {
        if threshold == usize::MAX {
            return;
        }
        let mut g = lock(&self.entries);
        if let Some(e) = g.iter_mut().find(|e| e.1 == comp as u32) {
            e.0 = e.0.min(threshold);
        } else {
            g.push((threshold, comp as u32));
        }
        self.min.fetch_min(threshold, Ordering::SeqCst);
    }

    /// Re-arm every entry whose heal step has been reached.
    fn drain(&self, len: usize, pool: &Pool) {
        if self.min.load(Ordering::SeqCst) > len {
            return;
        }
        let mut g = lock(&self.entries);
        let mut new_min = usize::MAX;
        let mut i = 0;
        while i < g.len() {
            if g[i].0 <= len {
                let (_, c) = g.swap_remove(i);
                pool.enqueue(c as usize);
            } else {
                new_min = new_min.min(g[i].0);
                i += 1;
            }
        }
        self.min.store(new_min, Ordering::SeqCst);
    }
}

/// The first heal step of the partitions cutting `(from, to)` at
/// `step` (`usize::MAX` if the cut never heals).
fn heal_threshold(cfg: &RuntimeConfig, from: Loc, to: Loc, step: usize) -> usize {
    cfg.partitions
        .iter()
        .filter(|p| p.cuts(from, to, step))
        .map(|p| p.end)
        .min()
        .unwrap_or(usize::MAX)
}

/// The routing-index key of an action: variant tag plus the locations
/// that determine its fan-out set. Sound because every `classify`
/// implementation in the system is payload-independent — two actions
/// with the same key are inputs to exactly the same components.
fn route_key(a: &Action) -> (u8, u8, u8) {
    match *a {
        Action::Crash(l) => (0, l.0, 0),
        Action::Recover(l) => (1, l.0, 0),
        Action::Send { from, to, .. } => (2, from.0, to.0),
        Action::Receive { from, to, .. } => (3, from.0, to.0),
        Action::WireSend { from, to, .. } => (4, from.0, to.0),
        Action::WireRecv { from, to, .. } => (5, from.0, to.0),
        Action::Fd { at, .. } => (6, at.0, 0),
        Action::FdRenamed { at, .. } => (7, at.0, 0),
        Action::Propose { at, .. } => (8, at.0, 0),
        Action::Decide { at, .. } => (9, at.0, 0),
        Action::Elect { at, leader } => (10, at.0, leader.0),
        Action::Broadcast { at, .. } => (11, at.0, 0),
        Action::Deliver { at, origin, .. } => (12, at.0, origin.0),
        Action::ProposeK { at, .. } => (13, at.0, 0),
        Action::DecideK { at, .. } => (14, at.0, 0),
        Action::Vote { at, .. } => (15, at.0, 0),
        Action::Verdict { at, .. } => (16, at.0, 0),
        Action::Query { at } => (17, at.0, 0),
        Action::QueryReply { at, .. } => (18, at.0, 0),
        Action::Internal { at, .. } => (19, at.0, 0),
    }
}

/// The routing index: route key → indices of the components that
/// classify such actions as inputs (see [`route_key`]).
type RouteIndex = RwLock<HashMap<(u8, u8, u8), Arc<[u32]>>>;

/// Everything a worker needs to run any component: the composition,
/// per-component cells, the pool, the routing index, and the shared
/// sink/telemetry. Borrowed by every worker thread inside the run's
/// scope.
struct Engine<'a, P: Automaton<Action = Action>> {
    comps: &'a [Component<P>],
    kinds: &'a [ComponentKind],
    cells: Vec<Cell<P>>,
    profiles: Vec<LinkProfile>,
    tel: &'a Telemetry,
    sink: &'a EventSink,
    cfg: &'a RuntimeConfig,
    pool: Pool,
    router: RouteIndex,
    deferred: Deferred,
}

impl<'a, P> Engine<'a, P>
where
    P: Automaton<Action = Action>,
{
    fn new(
        comps: &'a [Component<P>],
        kinds: &'a [ComponentKind],
        tel: &'a Telemetry,
        sink: &'a EventSink,
        cfg: &'a RuntimeConfig,
        workers: usize,
    ) -> Self {
        let adversary = !cfg.partitions.is_empty();
        let mut cells = Vec::with_capacity(comps.len());
        let mut profiles = Vec::with_capacity(comps.len());
        for (idx, comp) in comps.iter().enumerate() {
            let profile = match kinds[idx] {
                ComponentKind::Channel(i, j) => cfg.links.profile(i, j),
                _ => LinkProfile::default(),
            };
            let seed = cfg.seed ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let chaos = match kinds[idx] {
                ComponentKind::Channel(i, j) if profile.is_chaotic() || adversary => {
                    Some(ChaosState {
                        chaos: ChannelChaos::new(cfg.seed, i, j, profile),
                        jrng: SplitMix64::new(seed),
                        held: VecDeque::new(),
                        arrivals: 0,
                        stats: ChannelChaosStats::default(),
                        pending: None,
                    })
                }
                _ => None,
            };
            cells.push(Cell {
                inbox: Mutex::new(Inbox {
                    q: VecDeque::new(),
                    killed: false,
                }),
                body: Mutex::new(Body {
                    state: comp.initial_state(),
                    rng: SplitMix64::new(seed),
                    chaos,
                    pace: Pace::default(),
                }),
            });
            profiles.push(profile);
        }
        Engine {
            comps,
            kinds,
            cells,
            profiles,
            tel,
            sink,
            cfg,
            pool: Pool::new(workers, comps.len()),
            router: RwLock::new(HashMap::new()),
            deferred: Deferred::new(),
        }
    }

    /// The cached fan-out set of `a` (all components classifying it as
    /// an input). A miss costs one classify scan; every later action
    /// with the same variant and locations hits the cache.
    fn targets(&self, a: &Action) -> Arc<[u32]> {
        let key = route_key(a);
        if let Some(t) = self
            .router
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(t);
        }
        let list: Arc<[u32]> = self
            .comps
            .iter()
            .enumerate()
            .filter(|(_, c)| c.classify(a) == Some(ActionClass::Input))
            .map(|(i, _)| i as u32)
            .collect();
        self.router
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&list));
        list
    }

    /// Deliver committed `a` to every component (except `from_idx`)
    /// that classifies it as an input: push to the inbox (keeping the
    /// backlog accounting exact, under the inbox lock), then mark the
    /// component ready. Killed inboxes drop the message on the floor —
    /// exactly the crash-stop semantics `CrashMode::Kill` asks for.
    fn route(&self, from_idx: usize, a: Action) {
        let _s = afd_prof::span(afd_prof::Stage::Route);
        let targets = self.targets(&a);
        for &t in targets.iter() {
            let t = t as usize;
            if t == from_idx {
                continue;
            }
            {
                let mut inbox = lock(&self.cells[t].inbox);
                if inbox.killed {
                    continue;
                }
                inbox.q.push_back(a);
                self.tel.backlog[t].store(inbox.q.len(), Ordering::SeqCst);
            }
            self.pool.enqueue(t);
        }
    }

    /// Permanently remove `idx` from the run: future routes to it are
    /// dropped, its backlog no longer counts against quiescence.
    fn kill_component(&self, idx: usize) {
        {
            let mut inbox = lock(&self.cells[idx].inbox);
            inbox.killed = true;
            inbox.q.clear();
        }
        self.tel.backlog[idx].store(0, Ordering::SeqCst);
        self.tel.finish(idx);
    }

    /// Re-arm any cut channel whose heal step the log has reached.
    /// Cheap (a fence and one load) when nothing is registered. The
    /// fence orders the caller's commit (the sink's length store)
    /// before the registry read, pairing with the one in
    /// [`Engine::defer`].
    fn drain_deferred(&self) {
        fence(Ordering::SeqCst);
        self.deferred.drain(self.sink.len(), &self.pool);
    }

    /// Park cut channel `idx` until the log reaches `threshold`, then
    /// re-check the length: either a concurrent committer's drain sees
    /// the registration, or this re-check sees its commit (the fences
    /// here and in [`Engine::drain_deferred`] forbid both missing), so
    /// a heal crossed mid-registration is never lost.
    fn defer(&self, threshold: usize, idx: usize) {
        self.deferred.register(threshold, idx);
        self.drain_deferred();
    }
}

/// Reusable per-worker buffers: the inbox drain swap target and the
/// commit-batch speculation buffers (kept out of the sweep so the
/// common single-action commit allocates nothing after warm-up).
struct Scratch<S> {
    drain: VecDeque<Action>,
    chain: Vec<Action>,
    states: Vec<S>,
}

impl<S> Default for Scratch<S> {
    fn default() -> Self {
        Scratch {
            drain: VecDeque::new(),
            chain: Vec::new(),
            states: Vec::new(),
        }
    }
}

/// One activation of component `idx`: drain the inbox, then sweep
/// local tasks (or run the channel adversary). Returns the scheduling
/// directive for the pool.
fn activate<P>(eng: &Engine<'_, P>, idx: usize, scratch: &mut Scratch<CState<P>>) -> Directive
where
    P: Automaton<Action = Action>,
{
    let sink = eng.sink;
    let cfg = eng.cfg;
    if sink.is_stopped() {
        eng.pool.shutdown();
        return Directive::Done;
    }
    let kind = eng.kinds[idx];
    if cfg.crash_mode == CrashMode::Kill {
        if let ComponentKind::Process(l) = kind {
            if sink.is_crashed(l) {
                // kill -9: retire the component, dropping queued inputs.
                eng.kill_component(idx);
                return Directive::Done;
            }
        }
    }
    let comp = &eng.comps[idx];
    let cell = &eng.cells[idx];
    // One tiled `step` span covers the whole activation — body/inbox
    // locks, input drain, enabled scans, chain speculation — paused
    // (never nested) around the commit/route regions, which carry
    // their own stages. Tiling instead of point spans is what
    // lets Table W's coverage gate account for the activation loop's
    // bookkeeping.
    let mut tile = afd_prof::span(afd_prof::Stage::Step);
    let mut body = lock(&cell.body);
    eng.tel.unpark(idx);
    {
        let mut inbox = lock(&cell.inbox);
        std::mem::swap(&mut inbox.q, &mut scratch.drain);
        eng.tel.backlog[idx].store(0, Ordering::SeqCst);
    }
    let Body {
        state,
        rng,
        chaos,
        pace,
    } = &mut *body;
    // Apply routed inputs (inputs are always enabled; a `None` step
    // would be a signature bug, tolerated as a no-op).
    for a in scratch.drain.drain(..) {
        if let Some(next) = comp.step(state, &a) {
            *state = next;
        }
    }
    if let Some(ch) = chaos {
        tile.done();
        return activate_chaos(eng, idx, comp, state, ch, pace);
    }
    // Sweep local tasks. Paced actions are skipped here and take their
    // round-robin turn after the sweep, one per pacing interval.
    let profile = eng.profiles[idx];
    let needs_pacing = |a: &Action| match kind {
        ComponentKind::Fd => !cfg.fd_pacing.is_zero(),
        ComponentKind::Channel(_, _) => !profile.is_zero(),
        ComponentKind::Process(_) => {
            matches!(a, Action::WireSend { .. }) && !cfg.wire_pacing.is_zero()
        }
        _ => false,
    };
    let tasks = comp.task_count();
    let mut progressed = false;
    let mut paced_enabled = false;
    for t in 0..tasks {
        if sink.is_stopped() {
            eng.pool.shutdown();
            return Directive::Done;
        }
        let Some(a) = comp.enabled(state, TaskId(t)) else {
            continue;
        };
        if needs_pacing(&a) {
            paced_enabled = true;
            continue;
        }
        // Speculate a chain of locally-controlled actions from this
        // task: each is enabled in the state its predecessors produce,
        // and nothing else can change that state (routed inputs wait
        // in the inbox until the next activation), so committing the
        // chain as one batch is a legal scheduling choice. The
        // accepted prefix — the sink can cut a batch short at the
        // budget — is applied and routed in order; the rest of the
        // speculation is discarded.
        let cap = cfg.commit_batch.max(1);
        scratch.chain.clear();
        scratch.states.clear();
        scratch.chain.push(a);
        if let Some(s1) = comp.step(state, &a) {
            scratch.states.push(s1);
            while scratch.chain.len() < cap {
                let cur = scratch.states.last().expect("one state per chained action");
                let Some(next_a) = comp.enabled(cur, TaskId(t)) else {
                    break;
                };
                if needs_pacing(&next_a) {
                    break;
                }
                let Some(next_s) = comp.step(cur, &next_a) else {
                    break;
                };
                scratch.chain.push(next_a);
                scratch.states.push(next_s);
            }
        }
        // The commit and route regions carry their own stages
        // (commit-wait/lock-hold inside the sink, route below); the
        // tile pauses so spans never nest.
        tile.done();
        let (n, status) = commit_chain(eng, idx, state, scratch);
        progressed |= n > 0;
        tile = afd_prof::span(afd_prof::Stage::Step);
        if status == Commit::Stopped {
            eng.pool.shutdown();
            return Directive::Done;
        }
    }
    if !paced_enabled {
        // Nothing paced is pending, so no interval is running: the
        // next paced action starts a fresh one.
        pace.ready_at = None;
    } else if pace.due(sink, idx, || match kind {
        ComponentKind::Fd => cfg.fd_pacing,
        ComponentKind::Channel(_, _) => {
            let jitter_ns = rng.below(u64::try_from(profile.jitter.as_nanos()).unwrap_or(u64::MAX));
            profile.delay + Duration::from_nanos(jitter_ns)
        }
        // Throttle stubborn retransmission (WireSend) so it cannot
        // flood the event budget.
        _ => cfg.wire_pacing,
    }) {
        // The interval has run: commit one paced action, the first
        // enabled at or after the round-robin cursor.
        let turn = (0..tasks)
            .map(|i| (pace.next_task + i) % tasks)
            .find_map(|t| {
                comp.enabled(state, TaskId(t))
                    .filter(|a| needs_pacing(a))
                    .map(|a| (t, a))
            });
        if let Some((t, a)) = turn {
            pace.next_task = t + 1;
            scratch.chain.clear();
            scratch.states.clear();
            scratch.chain.push(a);
            scratch.states.extend(comp.step(state, &a));
            tile.done();
            let (n, status) = commit_chain(eng, idx, state, scratch);
            progressed |= n > 0;
            tile = afd_prof::span(afd_prof::Stage::Step);
            if status == Commit::Stopped {
                eng.pool.shutdown();
                return Directive::Done;
            }
        }
    }
    let directive = settle(eng, idx, progressed, pace);
    tile.done();
    directive
}

/// Commit the speculated `scratch.chain` (post-states in
/// `scratch.states`), then apply and route the accepted prefix.
/// Returns the sink's `(accepted, status)`. `Suppressed` needs no
/// handling by the caller: our location is dead but the `Crash` input
/// hasn't reached us yet, and the routed `Crash` will re-enqueue this
/// component, whose step disables the task.
fn commit_chain<P>(
    eng: &Engine<'_, P>,
    idx: usize,
    state: &mut CState<P>,
    scratch: &mut Scratch<CState<P>>,
) -> (usize, Commit)
where
    P: Automaton<Action = Action>,
{
    let (n, status) = eng.sink.try_commit_batch(&scratch.chain);
    if n > 0 {
        scratch.states.truncate(n);
        if let Some(s) = scratch.states.pop() {
            *state = s;
        }
        for &committed in &scratch.chain[..n] {
            eng.route(idx, committed);
        }
    }
    (n, status)
}

/// The directive closing an activation. Progress requeues (and may
/// have reached a partition's heal step); otherwise the component
/// goes idle, voting for quiescence only when no paced action waits on
/// its run timer — the monitor re-enqueues it when the timer fires.
fn settle<P>(eng: &Engine<'_, P>, idx: usize, progressed: bool, pace: &Pace) -> Directive
where
    P: Automaton<Action = Action>,
{
    if progressed {
        eng.drain_deferred();
        Directive::Again
    } else {
        if !pace.waiting() {
            eng.tel.park(idx);
        }
        Directive::Idle
    }
}

/// The adversarial channel activation: like the task sweep for a
/// channel component, but every consumed arrival draws a chaos
/// decision (drop/dup/hold) and scripted partitions gate delivery.
fn activate_chaos<P>(
    eng: &Engine<'_, P>,
    idx: usize,
    comp: &Component<P>,
    state: &mut CState<P>,
    ch: &mut ChaosState,
    pace: &mut Pace,
) -> Directive
where
    P: Automaton<Action = Action>,
{
    let sink = eng.sink;
    let ComponentKind::Channel(from, to) = eng.kinds[idx] else {
        unreachable!("chaos state only attaches to channel components")
    };
    let profile = eng.profiles[idx];
    // One length read decides the cut and its heal step, so a cut
    // channel always registers a heal step past that length.
    let len = sink.len();
    let cut = eng.cfg.is_cut(from, to, len);
    let mut progressed = false;
    if !cut {
        // Release matured holds (never across an active cut). The
        // automaton already stepped past these messages when they were
        // consumed; only the commit + routing remain.
        while let Some(&(a, at, dup)) = ch.held.front() {
            if at > ch.arrivals {
                break;
            }
            ch.held.pop_front();
            match sink.try_commit(a) {
                Commit::Accepted => {
                    eng.route(idx, a);
                    if dup && sink.try_commit(a) == Commit::Accepted {
                        eng.route(idx, a);
                        ch.stats.duplicated += 1;
                    }
                    progressed = true;
                }
                Commit::Suppressed => {} // unreachable: deliveries are exempt
                Commit::Stopped => {
                    eng.pool.shutdown();
                    return Directive::Done;
                }
            }
        }
    }
    let head = comp.enabled(state, TaskId(0));
    if cut && (head.is_some() || !ch.held.is_empty()) {
        // Partition: hold everything (no consume, no deliver) so
        // healing resumes in FIFO order. The component stays un-parked
        // — a cut channel with pending traffic is not quiescent — and
        // is re-armed by the deferred registry once the heal step is
        // reached (an eternal cut registers nothing and the watchdog
        // eventually fires).
        eng.defer(heal_threshold(eng.cfg, from, to, len), idx);
        return Directive::Idle;
    }
    if let Some(a) = head {
        let d = if let Some(d) = ch.pending.take() {
            d
        } else {
            let decision_span = afd_prof::span(afd_prof::Stage::ChaosDecision);
            let d = ch.chaos.next();
            decision_span.done();
            ch.arrivals += 1;
            ch.stats.arrivals += 1;
            afd_prof::gauge_sampled(
                afd_prof::GaugeKind::ChannelBacklog,
                (eng.tel.backlog[idx].load(Ordering::SeqCst) + ch.held.len()) as u64,
                64,
            );
            d
        };
        if d.drop {
            // Consume without committing: the message vanishes.
            if let Some(next) = comp.step(state, &a) {
                *state = next;
            }
            ch.stats.dropped += 1;
            progressed = true;
        } else if d.hold > 0 {
            // Consume into the reorder buffer.
            if let Some(next) = comp.step(state, &a) {
                *state = next;
            }
            ch.held
                .push_back((a, ch.arrivals + u64::from(d.hold), d.dup));
            ch.stats.held += 1;
            progressed = true;
        } else if !profile.is_zero()
            && !pace.due(sink, idx, || {
                let jitter_ns = ch
                    .jrng
                    .below(u64::try_from(profile.jitter.as_nanos()).unwrap_or(u64::MAX));
                profile.delay + Duration::from_nanos(jitter_ns)
            })
        {
            // The link delay runs on the run clock; keep this head's
            // decision for the activation its timer triggers.
            ch.pending = Some(d);
        } else {
            match sink.try_commit(a) {
                Commit::Accepted => {
                    if let Some(next) = comp.step(state, &a) {
                        *state = next;
                    }
                    eng.route(idx, a);
                    if d.dup && sink.try_commit(a) == Commit::Accepted {
                        eng.route(idx, a);
                        ch.stats.duplicated += 1;
                    }
                    progressed = true;
                }
                Commit::Suppressed => {} // unreachable: deliveries are exempt
                Commit::Stopped => {
                    eng.pool.shutdown();
                    return Directive::Done;
                }
            }
        }
    } else if !ch.held.is_empty() {
        // The wire went quiet with messages still held: advance the
        // virtual arrival clock so the reorder buffer drains.
        ch.arrivals += 1;
        progressed = true;
    }
    settle(eng, idx, progressed, pace)
}

/// Contain a panic that escaped an activation of `idx`: the component
/// is retired; a process panic becomes a `Crash` at its location, any
/// other panic stops the run.
fn contain_panic<P>(
    eng: &Engine<'_, P>,
    idx: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> Directive
where
    P: Automaton<Action = Action>,
{
    let msg = panic_message(payload);
    eng.tel
        .note_panic(format!("{}: {}", eng.comps[idx].name(), msg));
    eng.kill_component(idx);
    if let ComponentKind::Process(l) = eng.kinds[idx] {
        // Contain the panic as a crash at this location: the rest of
        // the run proceeds under ordinary crash semantics, and the
        // crash is observable like any other.
        if !eng.sink.is_crashed(l) && eng.sink.try_commit(Action::Crash(l)) == Commit::Accepted {
            eng.route(idx, Action::Crash(l));
        }
    } else {
        eng.sink.stop(StopReason::Panicked);
        eng.pool.shutdown();
    }
    Directive::Done
}

/// The crash injector: owns the crash-automaton component, fires the
/// fault pattern's `(step, loc)` entries when the global event count
/// reaches each threshold, validating the adversary's script order
/// (entries the script rejects are dropped, mirroring the simulator).
/// Blocks on the sink's length watch between thresholds — no polling.
fn injector<P>(eng: &Engine<'_, P>, crash_idx: usize)
where
    P: Automaton<Action = Action>,
{
    let comp = &eng.comps[crash_idx];
    let sink = eng.sink;
    afd_prof::set_lane("injector");
    let mut state = comp.initial_state();
    let mut pending: VecDeque<(usize, Loc)> = eng.cfg.faults.crashes.iter().copied().collect();
    while let Some(&(when, loc)) = pending.front() {
        if sink.is_stopped() {
            return;
        }
        if sink.len() < when {
            // Waiting on a threshold is not pending work: if the rest
            // of the system quiesces first, the remaining entries are
            // unreachable and must not block the Idle verdict. The
            // watch wakes on the crossing or on any stop.
            eng.tel.park(crash_idx);
            let w = afd_prof::span(afd_prof::Stage::RecvWait);
            sink.wait_len_at_least(when);
            w.done();
            continue;
        }
        eng.tel.unpark(crash_idx);
        pending.pop_front();
        let a = Action::Crash(loc);
        let Some(next) = comp.step(&state, &a) else {
            continue; // script mismatch: drop, like `run_sim`
        };
        match sink.try_commit(a) {
            Commit::Accepted => {
                state = next;
                eng.route(crash_idx, a);
                eng.drain_deferred();
            }
            Commit::Suppressed => unreachable!("crash events are never suppressed"),
            Commit::Stopped => return,
        }
    }
}

/// The watchdog monitor and run clock. It blocks on the sink's clock
/// (`EventSink::wait_clock`) until the next watchdog tick, the
/// earliest armed pacing timer, or a stop — so a run that stops on its
/// predicate or budget ends as soon as its workers exit, not at the
/// next tick. A fired timer re-enqueues its component (and its
/// armed→fired time goes to the `pacing-delay` gauge). Each tick
/// declares quiescence (commit count stable across two ticks, all
/// inboxes drained, all components parked), stops stalls at the
/// deadline with a diagnostic, and enforces the wall-clock safety net.
/// Always shuts the pool down on the way out.
fn monitor<P>(eng: &Engine<'_, P>)
where
    P: Automaton<Action = Action>,
{
    let sink = eng.sink;
    let cfg = eng.cfg;
    afd_prof::set_lane("monitor");
    let deadline_ns = u64::try_from(cfg.watchdog_deadline.as_nanos()).unwrap_or(u64::MAX);
    let mut prev_len = usize::MAX;
    let mut stable_ticks = 0u32;
    let mut next_tick = Instant::now() + cfg.watchdog_tick;
    let mut fired = Vec::new();
    while !sink.is_stopped() {
        sink.wait_clock(next_tick, &mut fired);
        for (idx, armed) in fired.drain(..) {
            afd_prof::gauge(
                afd_prof::GaugeKind::PacingDelay,
                u64::try_from(armed.as_nanos()).unwrap_or(u64::MAX),
            );
            eng.pool.enqueue(idx);
        }
        let now = Instant::now();
        if sink.is_stopped() || now < next_tick {
            continue;
        }
        next_tick = now + cfg.watchdog_tick;
        if sink.elapsed() >= cfg.wall_timeout {
            sink.stop(StopReason::WallClock);
            break;
        }
        let len = sink.len();
        if len == prev_len {
            stable_ticks += 1;
        } else {
            stable_ticks = 0;
            prev_len = len;
        }
        if stable_ticks >= 2 && eng.tel.quiescent() {
            sink.stop(StopReason::Idle);
            break;
        }
        let stalled_ns = sink.ns_since_last_commit();
        if stalled_ns >= deadline_ns {
            // Snapshot who was busy/backlogged NOW — once the stop
            // propagates, everything parks and the evidence is gone.
            *lock(&eng.tel.snapshot) = Some(live_snapshot(eng.comps, eng.tel, len, stalled_ns));
            sink.stop(StopReason::Watchdog);
            break;
        }
    }
    afd_prof::flush_local();
    eng.pool.shutdown();
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Capture who is backlogged and who is busy right now. Crash and
/// panic context is filled in by the caller once the schedule exists.
fn live_snapshot<P>(
    comps: &[Component<P>],
    tel: &Telemetry,
    committed: usize,
    stalled_ns: u64,
) -> RunDiagnostic
where
    P: Automaton<Action = Action>,
{
    let mut d = RunDiagnostic {
        committed,
        stalled_ns,
        ..RunDiagnostic::default()
    };
    for (i, c) in comps.iter().enumerate() {
        let queued = tel.backlog[i].load(Ordering::SeqCst);
        let done = tel.done[i].load(Ordering::SeqCst);
        if queued > 0 && !done {
            d.backlog.push((c.name(), queued));
        }
        if !done && !tel.parked[i].load(Ordering::SeqCst) {
            d.busy.push(c.name());
        }
    }
    d
}

/// Execute `sys` on the sharded worker pool under `cfg`, validating
/// the configuration first.
///
/// W workers (see [`RuntimeConfig::with_workers`]; default
/// `available_parallelism`, clamped to the component count) multiplex
/// every component; the crash automaton is driven by a dedicated
/// injector thread and the watchdog by a monitor thread. Returns once
/// every thread has joined; the returned schedule is the sink's
/// linearized log. The verdict of a run never depends on the pool
/// size — it only selects which legal interleaving is explored.
///
/// # Errors
/// [`ConfigError`] if `cfg` is inconsistent with `sys.pi` — no thread
/// is spawned in that case.
pub fn try_run_threaded<P>(
    sys: &System<P>,
    cfg: &RuntimeConfig,
) -> Result<RuntimeOutcome, ConfigError>
where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    cfg.validate(sys.pi)?;
    let comps = sys.composition.components();
    let kinds = sys.component_kinds();
    let tel = Telemetry::new(comps.len());

    let sink = EventSink::with_options(SinkOptions {
        max_events: cfg.max_events,
        stop_check_interval: cfg.stop_check_interval,
        stop_when: cfg.stop_when.clone(),
        // The factory mints a fresh stateful predicate for this run.
        stop_stream: cfg.stop_when_stream.as_ref().map(|mint| mint()),
        observer: cfg.observer.clone(),
        pipeline: cfg.pipeline,
    });
    let workers = cfg
        .workers
        .unwrap_or_else(|| thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
        .min(comps.len().max(1))
        .max(1);
    let eng = Engine::new(comps, &kinds, &tel, &sink, cfg, workers);

    // Seed the ready queues: every component starts with one
    // activation (its initial task sweep). The crash automaton is
    // owned by the injector and never scheduled on the pool.
    let crash_idx = kinds.iter().position(|k| matches!(k, ComponentKind::Crash));
    for idx in 0..comps.len() {
        if Some(idx) == crash_idx {
            eng.pool.retire(idx);
            lock(&eng.cells[idx].inbox).killed = true;
        } else {
            eng.pool.enqueue(idx);
        }
    }

    thread::scope(|s| {
        for k in 0..eng.pool.workers() {
            let eng = &eng;
            s.spawn(move || {
                afd_prof::set_lane(&format!("worker-{k}"));
                let mut scratch: Scratch<CState<P>> = Scratch::default();
                eng.pool.run_worker(k, |i| {
                    match catch_unwind(AssertUnwindSafe(|| activate(eng, i, &mut scratch))) {
                        Ok(d) => d,
                        Err(p) => {
                            scratch.drain.clear();
                            scratch.chain.clear();
                            scratch.states.clear();
                            contain_panic(eng, i, p)
                        }
                    }
                });
                // Flush this thread's profiling buffer before the
                // scope observes completion: scoped-thread TLS
                // destructors run *after* the scope's completion
                // signal, so a Drop-based flush could race the
                // post-scope report harvest.
                afd_prof::flush_local();
            });
        }
        if let Some(crash_idx) = crash_idx {
            let eng = &eng;
            s.spawn(move || {
                let res = catch_unwind(AssertUnwindSafe(|| injector(eng, crash_idx)));
                afd_prof::flush_local();
                eng.tel.finish(crash_idx);
                if let Err(p) = res {
                    eng.tel
                        .note_panic(format!("injector: {}", panic_message(p)));
                    eng.sink.stop(StopReason::Panicked);
                    eng.pool.shutdown();
                }
            });
        }
        {
            let eng = &eng;
            s.spawn(move || monitor(eng));
        }
    });

    let elapsed = sink.elapsed();
    let stalled_ns = sink.ns_since_last_commit();
    let mut chaos = ChaosReport::default();
    for (idx, kind) in kinds.iter().enumerate() {
        if let ComponentKind::Channel(i, j) = kind {
            if let Some(ch) = &lock(&eng.cells[idx].body).chaos {
                if ch.stats != ChannelChaosStats::default() {
                    chaos.per_channel.insert((*i, *j), ch.stats);
                }
            }
        }
    }
    drop(eng);
    let (schedule, stop) = sink.into_log();
    let stop = stop.unwrap_or(StopReason::Idle);
    if let Some(obs) = &cfg.observer {
        obs.on_stop(schedule.len() as u64, stop.name());
    }
    let panics = lock(&tel.panics).clone();
    let mut diagnostic = lock(&tel.snapshot).take();
    if diagnostic.is_none() && (stop == StopReason::Panicked || !panics.is_empty()) {
        diagnostic = Some(live_snapshot(comps, &tel, schedule.len(), stalled_ns));
    }
    if let Some(d) = diagnostic.as_mut() {
        d.crashed = schedule
            .iter()
            .filter_map(|a| match a {
                Action::Crash(l) => Some(*l),
                _ => None,
            })
            .collect();
        d.panics = panics;
    }
    Ok(RuntimeOutcome {
        schedule,
        stop,
        elapsed,
        chaos,
        diagnostic,
    })
}

/// [`try_run_threaded`], panicking on a malformed configuration.
///
/// # Panics
/// Panics with the [`ConfigError`] if `cfg` fails validation.
#[must_use]
pub fn run_threaded<P>(sys: &System<P>, cfg: &RuntimeConfig) -> RuntimeOutcome
where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    match try_run_threaded(sys, cfg) {
        Ok(out) => out,
        Err(e) => panic!("invalid RuntimeConfig: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::automata::FdGen;
    use afd_core::Pi;
    use afd_system::{Env, LocalBehavior, ProcessAutomaton, SystemBuilder};

    /// Processes that only listen to their failure-detector module.
    #[derive(Debug, Clone)]
    struct Listen;

    impl LocalBehavior for Listen {
        type State = ();
        fn proto_name(&self) -> String {
            "listen".into()
        }
        fn init(&self, _i: Loc) {}
        fn is_input(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Fd { at, .. } if *at == i)
        }
        fn is_output(&self, _i: Loc, _a: &Action) -> bool {
            false
        }
        fn on_input(&self, _i: Loc, _s: &mut (), _a: &Action) {}
        fn output(&self, _i: Loc, _s: &()) -> Option<Action> {
            None
        }
        fn on_output(&self, _i: Loc, _s: &mut (), _a: &Action) {}
    }

    /// Ω over listening processes: every event is an FD output.
    fn fd_system(pi: Pi) -> System<ProcessAutomaton<Listen>> {
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, Listen))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_fd(FdGen::omega(pi))
            .with_env(Env::None)
            .build()
    }

    #[test]
    fn predicate_stop_returns_before_the_watchdog_tick() {
        let cfg = RuntimeConfig::default()
            .with_watchdog(Duration::from_secs(5), Duration::from_secs(30))
            .with_wall_timeout(Duration::from_secs(60))
            .stop_when_stream(|| {
                let mut seen = 0;
                Box::new(move |_: &Action| {
                    seen += 1;
                    seen >= 5
                })
            });
        let t0 = Instant::now();
        let out = run_threaded(&fd_system(Pi::new(3)), &cfg);
        assert_eq!(out.stop, StopReason::Predicate);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "returned after {:?}, not on the stop",
            t0.elapsed()
        );
    }

    #[test]
    fn fd_pacing_spaces_commits_and_takes_turns() {
        let pi = Pi::new(3);
        let pacing = Duration::from_millis(2);
        let rec = Arc::new(afd_obs::TraceRecorder::new());
        let cfg = RuntimeConfig::default()
            .with_fd_pacing(pacing)
            .with_max_events(30)
            .with_observer(rec.clone());
        let out = run_threaded(&fd_system(pi), &cfg);
        assert_eq!(out.stop, StopReason::MaxEvents);
        let trace = rec.snapshot();
        assert_eq!(trace.len(), 30);
        assert!(trace.iter().all(|ev| ev.action.is_fd_output()));
        let pacing_ns = u64::try_from(pacing.as_nanos()).unwrap();
        for w in trace.windows(2) {
            let gap = w[1].wall_ns.unwrap() - w[0].wall_ns.unwrap();
            assert!(gap >= pacing_ns, "FD commits {gap} ns apart");
        }
        // Round robin: every location gets its turn in order.
        let mut counts = vec![0usize; pi.len()];
        for ev in &trace {
            counts[ev.action.loc().index()] += 1;
        }
        let (lo, hi) = (counts.iter().min(), counts.iter().max());
        assert!(
            hi.unwrap() - lo.unwrap() <= 1,
            "per-location FD outputs {counts:?}"
        );
    }
}
