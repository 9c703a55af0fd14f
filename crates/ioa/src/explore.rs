//! Bounded reachability analysis: enumerate the state space of an
//! automaton (locally controlled steps plus a caller-supplied input
//! alphabet) and check invariants, returning a counterexample path on
//! violation.
//!
//! This is "model checking lite" for the framework's automata: the
//! state spaces of protocol components (channels, detectors, small
//! process automata) are often finite or finitely explorable, and an
//! exhaustive sweep catches corner cases randomized runs miss.
//!
//! # State store
//!
//! [`StateStore`] keeps each explored state exactly once, in a `Vec` in
//! discovery order, so a state's id is its index. Breadth-first search
//! assigns ids in visiting order, so a cursor over that `Vec` is the
//! FIFO frontier and no queue holds copies. Lookup goes through an
//! index from a 64-bit state hash to the newest id with that hash, and
//! a per-id chain links to the older ids sharing it.
//!
//! The store is exact: a hash match is only a candidate, and membership
//! is decided by full `==` against every state on the chain. Two
//! distinct states with equal hashes both get stored; nothing is
//! dropped on a collision (no hash compaction, no bitstate). The hash
//! is a deterministic Fx-style multiply-rotate function. It is not a
//! security boundary: states are generated by the automaton under
//! check, not supplied by an adversary, so crafted collisions are not a
//! threat, and a collision costs time, never correctness.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::automaton::{Automaton, TaskId};

/// Multiplier of the Fx hash (as in `rustc-hash`): odd, with its set
/// bits spread over the word.
const FX_K: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style hasher: fold each word in with a rotate, xor and multiply.
/// Deterministic across runs and cheap on the many small integer writes
/// a derived `Hash` makes.
#[derive(Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply moves entropy up; the rotate brings it back to
        // the low bits a hash table indexes by.
        self.hash.rotate_left(26)
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// End of a collision chain.
const NONE: usize = usize::MAX;

/// A set of states in discovery order with dense ids `0..len()`,
/// holding each state once (see the module docs for the layout).
#[derive(Debug)]
pub struct StateStore<S> {
    states: Vec<S>,
    /// State hash → newest id with that hash.
    heads: HashMap<u64, usize, FxBuild>,
    /// Per id: the next older id with the same hash, or [`NONE`].
    chain: Vec<usize>,
}

/// A miss in a [`StateStore`]: carries the probed state's hash so
/// [`StateStore::insert`] need not compute it again. Not `Copy`: one
/// miss admits one insert.
#[derive(Debug)]
pub struct Vacant(u64);

impl<S> Default for StateStore<S> {
    fn default() -> Self {
        StateStore {
            states: Vec::new(),
            heads: HashMap::default(),
            chain: Vec::new(),
        }
    }
}

impl<S: Eq + Hash> StateStore<S> {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff no state is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state with id `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    #[must_use]
    pub fn get(&self, id: usize) -> &S {
        &self.states[id]
    }

    /// The id of `s` if stored, else the [`Vacant`] to insert it with
    /// (as `slice::binary_search` returns the insertion point).
    ///
    /// # Errors
    /// `Err` is the miss, not a failure.
    pub fn find(&self, s: &S) -> Result<usize, Vacant> {
        let mut h = FxHasher::default();
        s.hash(&mut h);
        let hash = h.finish();
        let mut id = self.heads.get(&hash).copied().unwrap_or(NONE);
        while id != NONE {
            if self.states[id] == *s {
                return Ok(id);
            }
            id = self.chain[id];
        }
        Err(Vacant(hash))
    }

    /// Store `s`, for which [`find`](Self::find) returned `slot`, and
    /// return its id. `s` must still be absent: storing one state twice
    /// would break the one-copy, one-id guarantee.
    pub fn insert(&mut self, slot: Vacant, s: S) -> usize {
        debug_assert!(self.find(&s).is_err_and(|v| v.0 == slot.0));
        let id = self.states.len();
        self.chain
            .push(self.heads.insert(slot.0, id).unwrap_or(NONE));
        self.states.push(s);
        id
    }

    /// Store `s` unless present; its id and whether it was new.
    pub fn intern(&mut self, s: S) -> (usize, bool) {
        match self.find(&s) {
            Ok(id) => (id, false),
            Err(slot) => (self.insert(slot, s), true),
        }
    }
}

/// A counterexample: the action path from the initial state to a
/// violating state, plus the violating state itself.
#[derive(Debug, Clone)]
pub struct CounterExample<M: Automaton> {
    /// Actions leading to the violation, in order.
    pub path: Vec<M::Action>,
    /// The violating state.
    pub state: M::State,
}

/// Outcome of a bounded invariant sweep.
#[derive(Debug)]
pub enum SweepOutcome<M: Automaton> {
    /// The invariant holds on every reachable state explored; the flag
    /// says whether the whole reachable space fit in the budget.
    Holds {
        /// Distinct states visited.
        states: usize,
        /// True iff the frontier was exhausted within the budget.
        complete: bool,
    },
    /// The invariant fails; here is a shortest path to a violation.
    Violated(CounterExample<M>),
}

impl<M: Automaton> SweepOutcome<M> {
    /// True iff the invariant held on the explored region.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, SweepOutcome::Holds { .. })
    }

    /// The counterexample, if violated.
    #[must_use]
    pub fn counterexample(&self) -> Option<&CounterExample<M>> {
        match self {
            SweepOutcome::Violated(c) => Some(c),
            SweepOutcome::Holds { .. } => None,
        }
    }
}

/// Breadth-first sweep of `m`'s reachable states (so counterexamples
/// are shortest): successors are all enabled locally controlled actions
/// plus every applicable action from `inputs`. Checks `invariant` on
/// every state; stops at `max_states`.
pub fn check_invariant<M, F>(
    m: &M,
    inputs: &[M::Action],
    max_states: usize,
    invariant: F,
) -> SweepOutcome<M>
where
    M: Automaton,
    F: Fn(&M::State) -> bool,
{
    let s0 = m.initial_state();
    if !invariant(&s0) {
        return SweepOutcome::Violated(CounterExample {
            path: Vec::new(),
            state: s0,
        });
    }
    let mut store = StateStore::new();
    store.intern(s0);
    let mut parents: Vec<Option<(usize, M::Action)>> = vec![None];
    let mut successors: Vec<(M::Action, M::State)> = Vec::new();
    let mut complete = true;
    // Ids are assigned in BFS order, so the store is the queue.
    for id in 0.. {
        if id == store.len() {
            break;
        }
        let cur = store.get(id);
        for t in 0..m.task_count() {
            if let Some(a) = m.enabled(cur, TaskId(t)) {
                if let Some(next) = m.step(cur, &a) {
                    successors.push((a, next));
                }
            }
        }
        for a in inputs {
            if let Some(next) = m.step(cur, a) {
                successors.push((a.clone(), next));
            }
        }
        for (a, next) in successors.drain(..) {
            let Err(slot) = store.find(&next) else {
                continue;
            };
            if !invariant(&next) {
                // Reconstruct the path.
                let mut path = vec![a];
                let mut k = id;
                while let Some((p, ref pa)) = parents[k] {
                    path.push(pa.clone());
                    k = p;
                }
                path.reverse();
                return SweepOutcome::Violated(CounterExample { path, state: next });
            }
            if store.len() >= max_states {
                complete = false;
                continue;
            }
            store.insert(slot, next);
            parents.push(Some((id, a)));
        }
    }
    SweepOutcome::Holds {
        states: store.len(),
        complete,
    }
}

/// Count the distinct reachable states within `max_states` (a trivial
/// always-true invariant sweep).
pub fn reachable_states<M>(m: &M, inputs: &[M::Action], max_states: usize) -> (usize, bool)
where
    M: Automaton,
{
    match check_invariant(m, inputs, max_states, |_| true) {
        SweepOutcome::Holds { states, complete } => (states, complete),
        SweepOutcome::Violated(_) => unreachable!("trivial invariant cannot fail"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ActionClass;
    use std::hash::{Hash, Hasher};

    /// A bounded counter with a reset input.
    #[derive(Debug, Clone)]
    struct Counter {
        limit: u8,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        Inc,
        Reset,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u8;
        fn name(&self) -> String {
            "counter".into()
        }
        fn initial_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Inc => Some(ActionClass::Output),
                Act::Reset => Some(ActionClass::Input),
            }
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &u8, _t: TaskId) -> Option<Act> {
            (*s < self.limit).then_some(Act::Inc)
        }
        fn step(&self, s: &u8, a: &Act) -> Option<u8> {
            match a {
                Act::Inc => (*s < self.limit).then_some(s + 1),
                Act::Reset => Some(0),
            }
        }
    }

    #[test]
    fn invariant_holds_on_complete_space() {
        let m = Counter { limit: 5 };
        let out = check_invariant(&m, &[Act::Reset], 1000, |s| *s <= 5);
        assert!(out.holds());
        match out {
            SweepOutcome::Holds { states, complete } => {
                assert_eq!(states, 6, "0..=5");
                assert!(complete);
            }
            SweepOutcome::Violated(_) => panic!(),
        }
    }

    #[test]
    fn violation_yields_shortest_path() {
        let m = Counter { limit: 5 };
        let out = check_invariant(&m, &[Act::Reset], 1000, |s| *s < 3);
        let cex = out.counterexample().expect("violated");
        assert_eq!(cex.state, 3);
        assert_eq!(
            cex.path,
            vec![Act::Inc, Act::Inc, Act::Inc],
            "BFS finds the shortest"
        );
    }

    #[test]
    fn initial_state_violation() {
        let m = Counter { limit: 1 };
        let out = check_invariant(&m, &[], 10, |s| *s > 0);
        let cex = out.counterexample().unwrap();
        assert!(cex.path.is_empty());
        assert_eq!(cex.state, 0);
    }

    #[test]
    fn budget_marks_incomplete() {
        let m = Counter { limit: 200 };
        let (states, complete) = reachable_states(&m, &[], 10);
        assert_eq!(states, 10);
        assert!(!complete);
        let (states, complete) = reachable_states(&m, &[], 1000);
        assert_eq!(states, 201);
        assert!(complete);
    }

    /// A queue automaton mirroring the FIFO channel (so `ioa` stays
    /// dependency-free), bounded at three messages.
    #[derive(Debug, Clone)]
    struct Queue;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum QA {
        Send(u8),
        Recv(u8),
    }

    impl Automaton for Queue {
        type Action = QA;
        type State = Vec<u8>;
        fn name(&self) -> String {
            "queue".into()
        }
        fn initial_state(&self) -> Vec<u8> {
            vec![]
        }
        fn classify(&self, a: &QA) -> Option<ActionClass> {
            match a {
                QA::Send(_) => Some(ActionClass::Input),
                QA::Recv(_) => Some(ActionClass::Output),
            }
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &Vec<u8>, _t: TaskId) -> Option<QA> {
            s.first().map(|&m| QA::Recv(m))
        }
        fn step(&self, s: &Vec<u8>, a: &QA) -> Option<Vec<u8>> {
            match a {
                QA::Send(m) => {
                    if s.len() >= 3 {
                        return None; // bound the sweep
                    }
                    let mut n = s.clone();
                    n.push(*m);
                    Some(n)
                }
                QA::Recv(m) => {
                    if s.first() == Some(m) {
                        Some(s[1..].to_vec())
                    } else {
                        None
                    }
                }
            }
        }
    }

    const SENDS: [QA; 2] = [QA::Send(1), QA::Send(2)];

    #[test]
    fn channel_fifo_invariant_exhaustively() {
        // A real component: the FIFO channel over a tiny message
        // alphabet never reorders — its queue is always a subsequence
        // of the send history, which over this bounded sweep reduces
        // to: queue length ≤ number of explored sends (trivially) and
        // every state is reachable without panic.
        // (The channel state space is infinite; bound it.)
        let out = check_invariant(&Queue, &SENDS, 10_000, |s| s.len() <= 3);
        assert!(out.holds());
        match out {
            SweepOutcome::Holds { states, complete } => {
                // Queues over {1,2} of length ≤ 3: 1 + 2 + 4 + 8 = 15.
                assert_eq!(states, 15);
                assert!(complete);
            }
            SweepOutcome::Violated(_) => panic!(),
        }
    }

    /// A state whose hash ignores its contents, so every state of a
    /// sweep lands on one collision chain.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Collide<S>(S);

    impl<S> Hash for Collide<S> {
        fn hash<H: Hasher>(&self, _: &mut H) {}
    }

    /// `M` with its states wrapped in [`Collide`].
    struct Colliding<M>(M);

    impl<M: Automaton> Automaton for Colliding<M> {
        type Action = M::Action;
        type State = Collide<M::State>;
        fn name(&self) -> String {
            self.0.name()
        }
        fn initial_state(&self) -> Self::State {
            Collide(self.0.initial_state())
        }
        fn classify(&self, a: &M::Action) -> Option<ActionClass> {
            self.0.classify(a)
        }
        fn task_count(&self) -> usize {
            self.0.task_count()
        }
        fn enabled(&self, s: &Self::State, t: TaskId) -> Option<M::Action> {
            self.0.enabled(&s.0, t)
        }
        fn step(&self, s: &Self::State, a: &M::Action) -> Option<Self::State> {
            self.0.step(&s.0, a).map(Collide)
        }
    }

    #[test]
    fn colliding_hashes_keep_the_sweep_exact() {
        let m = Colliding(Queue);
        assert_eq!(reachable_states(&m, &SENDS, 10_000), (15, true));
        // Same shortest counterexample as the normally hashed sweep;
        // [1, 2] and [2, 1] both violate at depth 2, and BFS order
        // picks [1, 2].
        let bad = |s: &Vec<u8>| s.len() >= 2 && s.contains(&2);
        let plain = check_invariant(&Queue, &SENDS, 10_000, |s| !bad(s));
        let collide = check_invariant(&m, &SENDS, 10_000, |s| !bad(&s.0));
        let plain = plain.counterexample().unwrap();
        let collide = collide.counterexample().unwrap();
        assert_eq!(collide.path, plain.path);
        assert_eq!(collide.path, vec![QA::Send(1), QA::Send(2)]);
        assert_eq!(collide.state.0, plain.state);
    }

    #[test]
    fn budget_cut_stores_exactly_max_states() {
        for max in 1..15 {
            let out = check_invariant(&Queue, &SENDS, max, |_| true);
            assert!(
                matches!(out, SweepOutcome::Holds { states, complete: false } if states == max),
                "budget {max}: {out:?}"
            );
        }
        assert_eq!(reachable_states(&Queue, &SENDS, 15), (15, true));
    }

    #[test]
    fn store_interns_each_state_once() {
        let mut store = StateStore::new();
        assert!(store.is_empty());
        assert_eq!(store.intern(Collide(7u8)), (0, true));
        assert_eq!(store.intern(Collide(9)), (1, true));
        assert_eq!(store.intern(Collide(7)), (0, false));
        assert_eq!(store.find(&Collide(9)).ok(), Some(1));
        let slot = store.find(&Collide(3)).unwrap_err();
        assert_eq!(store.insert(slot, Collide(3)), 2);
        assert_eq!((store.len(), store.get(2)), (3, &Collide(3)));
    }
}
