//! Bounded exhaustive exploration of `R^{t_D}` — the §8.3 structural
//! propositions, checked on real (small) trees rather than sampled
//! branches.
//!
//! * Proposition 29: for each explored node `N`, `exe(N)` is a legal
//!   execution of the system and
//!   `exe(N)|_{Î∪O_D} · t_N = t_D` (the reconstruction invariant).
//! * Propositions 30–32: ⊥ edges preserve `exe`, non-⊥ edges extend it
//!   by one event, ancestors' `exe`s are prefixes.
//! * Theorem 41: two trees whose sequences share a prefix of length `x`
//!   agree on every node reachable while consuming fewer than `x` FD
//!   events.
//!
//! Exploration is BFS with node-count and depth budgets; states are
//! deduplicated by (config, FD-position), which is exactly the paper's
//! observation (Lemma 33) that equal tags imply equal subtrees.

use afd_core::Action;
use afd_system::LocalBehavior;
use ioa::StateStore;

use crate::explorer::{TaggedTree, TreeLabel};
use crate::fdseq::FdPos;

/// One explored node with its discovery metadata.
#[derive(Debug, Clone)]
pub struct ExploredNode {
    /// FD-sequence tag.
    pub pos: FdPos,
    /// BFS depth (non-⊥ edges from the root).
    pub depth: usize,
    /// Discovery path: `(label, action)` pairs from the root.
    pub path: Vec<(TreeLabel, Action)>,
}

/// Result of a bounded exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Explored nodes (deduplicated by (config, pos)).
    pub nodes: Vec<ExploredNode>,
    /// Number of ⊥-tagged edges encountered.
    pub bottom_edges: usize,
    /// Number of non-⊥ edges encountered (including duplicates into
    /// already-known nodes).
    pub live_edges: usize,
    /// True iff the frontier was exhausted within the budgets.
    pub complete: bool,
}

impl Exploration {
    /// Number of distinct explored nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff only the root was explored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The number of FD events consumed on each node's discovery path.
    #[must_use]
    pub fn fd_events_consumed(&self, k: usize) -> usize {
        self.nodes[k]
            .path
            .iter()
            .filter(|(l, _)| *l == TreeLabel::Fd)
            .count()
    }
}

/// Explore `R^{t_D}` breadth-first up to `max_nodes` distinct nodes and
/// `max_depth` non-⊥ edges.
#[must_use]
pub fn explore<B: LocalBehavior>(
    tree: &TaggedTree<'_, B>,
    max_nodes: usize,
    max_depth: usize,
) -> Exploration {
    let mut store = StateStore::new();
    let root = tree.root();
    let mut nodes = vec![ExploredNode {
        pos: root.pos,
        depth: 0,
        path: Vec::new(),
    }];
    store.intern(root);
    let labels = tree.labels();
    let mut children = Vec::with_capacity(labels.len());
    let mut bottom_edges = 0;
    let mut live_edges = 0;
    let mut complete = true;
    // Ids are assigned in BFS order, so the store is the queue.
    for id in 0.. {
        if id == store.len() {
            break;
        }
        let depth = nodes[id].depth;
        if depth >= max_depth {
            complete = false;
            continue;
        }
        let node = store.get(id);
        children.extend(labels.iter().map(|&label| (label, tree.child(node, label))));
        for (label, (tag, child)) in children.drain(..) {
            let Some(a) = tag else {
                bottom_edges += 1;
                continue;
            };
            live_edges += 1;
            let Err(slot) = store.find(&child) else {
                continue;
            };
            if nodes.len() >= max_nodes {
                complete = false;
                continue;
            }
            let mut path = nodes[id].path.clone();
            path.push((label, a));
            nodes.push(ExploredNode {
                pos: child.pos,
                depth: depth + 1,
                path,
            });
            store.insert(slot, child);
        }
    }
    Exploration {
        nodes,
        bottom_edges,
        live_edges,
        complete,
    }
}

/// Proposition 29's reconstruction invariant, checked for every
/// explored node: replaying the discovery path from the initial config
/// is legal, and the path's `Î ∪ O_D` projection equals the prefix of
/// `t_D` consumed by the FD edges.
///
/// # Errors
/// A description of the first violated node.
pub fn check_proposition_29<B: LocalBehavior>(
    tree: &TaggedTree<'_, B>,
    exploration: &Exploration,
) -> Result<(), String> {
    for (k, node) in exploration.nodes.iter().enumerate() {
        // Replay the path.
        let mut cur = tree.root();
        for (label, expected) in &node.path {
            let (tag, next) = tree.child(&cur, *label);
            if tag.as_ref() != Some(expected) {
                return Err(format!("node {k}: path action mismatch at {label}"));
            }
            cur = next;
        }
        if cur.pos != node.pos {
            return Err(format!("node {k}: FD tag mismatch after replay"));
        }
        // FD-projection of exe(N) equals the consumed prefix of t_D.
        let consumed: Vec<Action> = node
            .path
            .iter()
            .filter(|(l, _)| *l == TreeLabel::Fd)
            .map(|(_, a)| *a)
            .collect();
        let expected = tree.seq.window(consumed.len());
        if consumed != expected {
            return Err(format!("node {k}: exe(N)|FD ≠ consumed prefix of t_D"));
        }
    }
    Ok(())
}

/// Theorem 41 on explored prefixes: two trees over sequences sharing a
/// prefix of `x` events have identical explored node sets when
/// exploration is restricted to nodes that consumed fewer than `x` FD
/// events.
#[must_use]
pub fn check_theorem_41<B: LocalBehavior>(
    t1: &TaggedTree<'_, B>,
    t2: &TaggedTree<'_, B>,
    common_prefix_len: usize,
    max_nodes: usize,
) -> bool {
    let depth = common_prefix_len; // consuming < x FD events needs ≤ x depth
    let e1 = explore(t1, max_nodes, depth);
    let e2 = explore(t2, max_nodes, depth);
    let sig = |e: &Exploration| {
        let mut v: Vec<Vec<(TreeLabel, Action)>> = e
            .nodes
            .iter()
            .filter(|n| {
                n.path.iter().filter(|(l, _)| *l == TreeLabel::Fd).count() < common_prefix_len
            })
            .map(|n| n.path.clone())
            .collect();
        v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        v
    };
    sig(&e1) == sig(&e2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_algorithms::consensus::paxos_omega::PaxosOmega;
    use afd_core::{FdOutput, Loc, Pi};
    use afd_system::{Env, ProcessAutomaton, System, SystemBuilder};

    use crate::fdseq::FdSeq;

    fn small_seq(pi: Pi) -> FdSeq {
        FdSeq::new(
            vec![],
            pi.iter()
                .map(|i| Action::Fd {
                    at: i,
                    out: FdOutput::Leader(Loc(0)),
                })
                .collect(),
        )
    }

    fn tree_system(pi: Pi, seq: &FdSeq) -> System<ProcessAutomaton<PaxosOmega>> {
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
            .build()
    }

    #[test]
    fn exploration_finds_distinct_nodes_and_dedups() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 500, 6);
        assert!(e.len() > 10, "{} nodes", e.len());
        assert!(e.bottom_edges > 0, "channels start empty: ⊥ edges exist");
        assert!(e.live_edges >= e.len() - 1);
        assert!(!e.is_empty());
    }

    #[test]
    fn proposition_29_holds_on_explored_prefix() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 400, 5);
        check_proposition_29(&tree, &e).unwrap();
    }

    #[test]
    fn depth_budget_marks_incomplete() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 10_000, 2);
        assert!(!e.complete, "depth 2 cannot exhaust an infinite tree");
        let e2 = explore(&tree, 5, 10);
        assert!(!e2.complete, "node budget 5 is exceeded");
    }

    #[test]
    fn theorem_41_trees_agree_on_common_prefix() {
        let pi = Pi::new(2);
        // Two sequences sharing the first 2 events, diverging afterwards.
        let shared = vec![
            Action::Fd {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0)),
            },
            Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(0)),
            },
        ];
        let s1 = FdSeq::new(shared.clone(), vec![shared[0]]);
        let s2 = FdSeq::new(
            shared.clone(),
            vec![Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(1)),
            }],
        );
        let sys1 = tree_system(pi, &s1);
        let sys2 = tree_system(pi, &s2);
        let t1 = TaggedTree::new(&sys1, s1);
        let t2 = TaggedTree::new(&sys2, s2);
        assert!(check_theorem_41(&t1, &t2, 2, 4000));
    }

    #[test]
    fn fd_events_consumed_counts_fd_edges() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 200, 4);
        // The root consumed none; some node consumed at least one.
        assert_eq!(e.fd_events_consumed(0), 0);
        assert!((0..e.len()).any(|k| e.fd_events_consumed(k) > 0));
    }
}
