//! Random walks over the transaction flow model.
//!
//! Transaction enumeration ([`crate::enumerate_transactions`]) realizes
//! the paper's transaction-coverage criterion: each birth→death path is
//! exercised once. A *walk* is the complementary exploration mode behind
//! invariant fuzzing: a long, seeded random traversal of the TFM that
//! revisits nodes, interleaves lifecycles and — under the
//! [`WalkPolicy::LeastVisited`] policy — provably reaches every edge
//! reachable from a birth node within a bounded number of steps.
//!
//! The walker is deliberately free of any random-number dependency: every
//! choice among `n` alternatives is delegated to a caller-supplied
//! `pick(n) -> index` closure, so the driver crate can plug in its seeded
//! RNG while this crate stays dependency-free and the walk stays
//! byte-reproducible.

use crate::graph::{NodeId, NodeKind, Tfm};
use std::collections::{BTreeSet, VecDeque};

/// Edge-selection policy of a TFM walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WalkPolicy {
    /// Choose uniformly among the current node's successors.
    Uniform,
    /// Steer toward the nearest unvisited reachable edge (an unvisited
    /// outgoing edge is distance 0), breaking distance ties by fewest
    /// visits, then uniformly. On a validated model this guarantees
    /// every reachable edge is covered within
    /// [`coverage_step_bound`] steps: each step either traverses a new
    /// edge or strictly shrinks the distance to one, and a shortest
    /// edge-path never revisits a node, so a new edge falls within
    /// `nodes + 1` steps of any position that can reach one.
    #[default]
    LeastVisited,
}

impl WalkPolicy {
    /// The keyword used in configs and reports.
    pub fn keyword(&self) -> &'static str {
        match self {
            WalkPolicy::Uniform => "uniform",
            WalkPolicy::LeastVisited => "least-visited",
        }
    }

    /// Parses a keyword; `None` for anything unrecognized.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "uniform" => WalkPolicy::Uniform,
            "least-visited" => WalkPolicy::LeastVisited,
            _ => return None,
        })
    }
}

/// A resumable random walk over one TFM, tracking per-edge visit counts.
///
/// The walker holds no reference to the graph; every step borrows it
/// afresh, so one walker can be embedded in engines that also consult the
/// graph between steps. Positions: [`EdgeWalker::restart`] places the
/// walker on a birth node, [`EdgeWalker::step`] moves along one outgoing
/// edge, returning `None` at a dead end (death nodes, or a malformed
/// node without successors), after which the caller restarts.
///
/// # Examples
///
/// ```
/// use concat_tfm::{EdgeWalker, NodeKind, Tfm, WalkPolicy};
///
/// let mut tfm = Tfm::new("C");
/// let b = tfm.add_node("b", NodeKind::Birth, ["m1"]);
/// let t = tfm.add_node("t", NodeKind::Task, ["m2"]);
/// let d = tfm.add_node("d", NodeKind::Death, ["m3"]);
/// tfm.add_edge(b, t);
/// tfm.add_edge(t, t);
/// tfm.add_edge(t, d);
///
/// let mut pick = |n: usize| 0; // deterministic "random" source
/// let mut walker = EdgeWalker::new(WalkPolicy::LeastVisited);
/// let start = walker.restart(&tfm, &mut pick);
/// assert_eq!(start, b);
/// let mut steps = 0;
/// while walker.step(&tfm, &mut pick).is_some() {
///     steps += 1;
///     if steps > 16 { break; }
/// }
/// let (visited, reachable) = walker.coverage(&tfm);
/// assert_eq!(reachable, 3);
/// assert!(visited >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct EdgeWalker {
    policy: WalkPolicy,
    position: Option<NodeId>,
    /// Visit count per edge index (parallel to `Tfm::edges`).
    visits: Vec<u64>,
    steps: u64,
    /// Per node, the edges still to traverse before an unvisited one can
    /// be taken ([`nearest_unvisited`]). Only a first visit of an edge
    /// moves it, so it is recomputed only then, while `fresh` is false.
    nearest: Vec<usize>,
    /// The breadth-first queue of that recomputation, kept for its
    /// capacity.
    queue: VecDeque<NodeId>,
    fresh: bool,
}

impl EdgeWalker {
    /// Creates a walker with no position; call [`EdgeWalker::restart`].
    pub fn new(policy: WalkPolicy) -> Self {
        EdgeWalker {
            policy,
            position: None,
            visits: Vec::new(),
            steps: 0,
            nearest: Vec::new(),
            queue: VecDeque::new(),
            fresh: false,
        }
    }

    /// The walker's policy.
    pub fn policy(&self) -> WalkPolicy {
        self.policy
    }

    /// Current node, if the walker has been started.
    pub fn position(&self) -> Option<NodeId> {
        self.position
    }

    /// Total steps taken across all restarts.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Places the walker on a birth node chosen by `pick` (uniformly over
    /// the birth nodes) and returns it. Visit counts are retained across
    /// restarts — a restart models a fresh object lifecycle, not a fresh
    /// exploration.
    ///
    /// # Panics
    ///
    /// Panics when the model has no birth node (a validation error every
    /// caller should have rejected via [`Tfm::validate`]).
    pub fn restart(&mut self, tfm: &Tfm, pick: &mut dyn FnMut(usize) -> usize) -> NodeId {
        let births = || {
            tfm.nodes()
                .filter(|(_, node)| node.kind == NodeKind::Birth)
                .map(|(id, _)| id)
        };
        let count = births().count();
        assert!(count > 0, "walked model must have a birth node");
        let chosen = births()
            .nth(bounded(pick, count))
            .expect("bounded() stays below the birth count");
        self.position = Some(chosen);
        chosen
    }

    /// Moves along one outgoing edge of the current position, chosen by
    /// the policy, and returns the new node. Returns `None` when the
    /// current node has no successors (death node or dead end) — the
    /// position is then cleared and the caller is expected to restart.
    ///
    /// # Panics
    ///
    /// Panics when called before [`EdgeWalker::restart`].
    pub fn step(&mut self, tfm: &Tfm, pick: &mut dyn FnMut(usize) -> usize) -> Option<NodeId> {
        let here = self.position.expect("step() requires a started walker");
        if tfm.edge_count() > self.visits.len() {
            self.visits.resize(tfm.edge_count(), 0);
            self.fresh = false;
        }
        // Every outgoing edge, in insertion order (the same order
        // `successors` reports).
        let outgoing = tfm.out_edges(here);
        if outgoing.is_empty() {
            self.position = None;
            return None;
        }
        let edge_index = match self.policy {
            WalkPolicy::Uniform => outgoing[bounded(pick, outgoing.len())],
            WalkPolicy::LeastVisited => {
                // Rank by distance to the nearest unvisited edge first:
                // plain per-node least-visited balances its way into an
                // exponential number of restarts on caterpillar-shaped
                // graphs, so the coverage bound needs the global pull.
                if !self.fresh || self.nearest.len() != tfm.node_count() {
                    nearest_unvisited(tfm, &self.visits, &mut self.nearest, &mut self.queue);
                    self.fresh = true;
                }
                let dist = |i: usize| match self.visits[i] {
                    0 => 0,
                    _ => self.nearest[tfm.edges()[i].to.index()].saturating_add(1),
                };
                let near = outgoing.iter().map(|&i| dist(i)).min().unwrap();
                let min = outgoing
                    .iter()
                    .filter(|&&i| dist(i) == near)
                    .map(|&i| self.visits[i])
                    .min()
                    .unwrap_or(0);
                let ties = || {
                    outgoing
                        .iter()
                        .copied()
                        .filter(|&i| dist(i) == near && self.visits[i] == min)
                };
                let k = bounded(pick, ties().count());
                ties().nth(k).expect("bounded() stays below the tie count")
            }
        };
        self.visits[edge_index] += 1;
        if self.visits[edge_index] == 1 {
            self.fresh = false;
        }
        self.steps += 1;
        let next = tfm.edges()[edge_index].to;
        self.position = Some(next);
        Some(next)
    }

    /// Number of distinct edges visited so far.
    pub fn visited_edges(&self) -> usize {
        self.visits.iter().filter(|&&v| v > 0).count()
    }

    /// `(visited, reachable)` edge counts: how many of the edges reachable
    /// from any birth node this walker has traversed.
    pub fn coverage(&self, tfm: &Tfm) -> (usize, usize) {
        (self.visited_edges(), reachable_edges(tfm).len())
    }
}

/// `pick` constrained to the valid range: a policy choice among `n`
/// alternatives must return an index below `n`, whatever the closure does.
fn bounded(pick: &mut dyn FnMut(usize) -> usize, n: usize) -> usize {
    debug_assert!(n > 0);
    pick(n).min(n - 1)
}

/// Per node, the number of edges a walk from it must traverse before it
/// can take an unvisited edge: 0 when the node has an unvisited outgoing
/// edge, `usize::MAX` when no unvisited edge is reachable. One
/// multi-source breadth-first search backwards along the edges, from
/// the sources of the unvisited edges. A visited edge `e` is then
/// `nearest[e.to] + 1` edges from an unvisited one (saturating), and an
/// unvisited edge 0. Refills `nearest`; `queue` is scratch space,
/// empty on return.
fn nearest_unvisited(
    tfm: &Tfm,
    visits: &[u64],
    nearest: &mut Vec<usize>,
    queue: &mut VecDeque<NodeId>,
) {
    let edges = tfm.edges();
    nearest.clear();
    nearest.resize(tfm.node_count(), usize::MAX);
    queue.clear();
    for (i, e) in edges.iter().enumerate() {
        if visits.get(i).copied().unwrap_or(0) == 0 && nearest[e.from.index()] != 0 {
            nearest[e.from.index()] = 0;
            queue.push_back(e.from);
        }
    }
    while let Some(node) = queue.pop_front() {
        let through = nearest[node.index()] + 1;
        for &i in tfm.in_edges(node) {
            let from = edges[i].from;
            if nearest[from.index()] == usize::MAX {
                nearest[from.index()] = through;
                queue.push_back(from);
            }
        }
    }
}

/// Indices (into [`Tfm::edges`]) of every edge reachable from a birth
/// node — the denominator of walk edge coverage. Unreachable islands are
/// excluded: no walk can ever traverse them, and
/// [`Tfm::validate`] flags them separately.
pub fn reachable_edges(tfm: &Tfm) -> BTreeSet<usize> {
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    let mut frontier: Vec<NodeId> = tfm.birth_nodes();
    let mut seen: BTreeSet<usize> = frontier.iter().map(|n| n.index()).collect();
    while let Some(node) = frontier.pop() {
        for &i in tfm.out_edges(node) {
            reached.insert(i);
            let to = tfm.edges()[i].to;
            if seen.insert(to.index()) {
                frontier.push(to);
            }
        }
    }
    reached
}

/// An upper bound on the steps (restarts included) a
/// [`WalkPolicy::LeastVisited`] walker needs to traverse every reachable
/// edge of a validated model, restarting at dead ends. The policy steers
/// toward the nearest unvisited edge along a shortest edge-path, which
/// never revisits a node — so every `nodes + 1` steps cover at least one
/// new edge while any remains reachable, and at most `edges` new edges
/// are ever needed.
pub fn coverage_step_bound(tfm: &Tfm) -> u64 {
    let e = reachable_edges(tfm).len() as u64;
    let n = tfm.node_count() as u64;
    (e + 1) * (n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// b → t1 → d, with a t1→t2→t1 side loop and a parallel t1→d path.
    fn looped() -> Tfm {
        let mut tfm = Tfm::new("C");
        let b = tfm.add_node("b", NodeKind::Birth, ["m1"]);
        let t1 = tfm.add_node("t1", NodeKind::Task, ["m2"]);
        let t2 = tfm.add_node("t2", NodeKind::Task, ["m3"]);
        let d = tfm.add_node("d", NodeKind::Death, ["m4"]);
        tfm.add_edge(b, t1);
        tfm.add_edge(t1, t2);
        tfm.add_edge(t2, t1);
        tfm.add_edge(t1, d);
        tfm
    }

    /// A counter-based deterministic pick source.
    fn counter_pick() -> impl FnMut(usize) -> usize {
        let mut c = 0usize;
        move |n: usize| {
            c = c.wrapping_add(1);
            c % n
        }
    }

    #[test]
    fn least_visited_covers_all_edges_within_bound() {
        let tfm = looped();
        let mut pick = counter_pick();
        let mut walker = EdgeWalker::new(WalkPolicy::LeastVisited);
        walker.restart(&tfm, &mut pick);
        let bound = coverage_step_bound(&tfm);
        for _ in 0..bound {
            let (visited, reachable) = walker.coverage(&tfm);
            if visited == reachable {
                return;
            }
            if walker.step(&tfm, &mut pick).is_none() {
                walker.restart(&tfm, &mut pick);
            }
        }
        let (visited, reachable) = walker.coverage(&tfm);
        assert_eq!(visited, reachable, "walker failed to cover in bound");
    }

    #[test]
    fn uniform_walks_stay_on_edges() {
        let tfm = looped();
        let mut pick = counter_pick();
        let mut walker = EdgeWalker::new(WalkPolicy::Uniform);
        let mut here = walker.restart(&tfm, &mut pick);
        for _ in 0..64 {
            match walker.step(&tfm, &mut pick) {
                Some(next) => {
                    assert!(
                        tfm.successors(here).contains(&next),
                        "walk left the edge relation"
                    );
                    here = next;
                }
                None => here = walker.restart(&tfm, &mut pick),
            }
        }
        assert!(walker.steps() > 0);
    }

    #[test]
    fn reachable_excludes_islands() {
        let mut tfm = looped();
        // An island edge between two unreachable task nodes.
        let x = tfm.add_node("x", NodeKind::Task, ["m5"]);
        let y = tfm.add_node("y", NodeKind::Task, ["m6"]);
        tfm.add_edge(x, y);
        assert_eq!(reachable_edges(&tfm).len(), 4);
    }

    #[test]
    fn visit_counts_survive_restart() {
        let tfm = looped();
        let mut pick = counter_pick();
        let mut walker = EdgeWalker::new(WalkPolicy::LeastVisited);
        walker.restart(&tfm, &mut pick);
        while walker.step(&tfm, &mut pick).is_some() {}
        let before = walker.visited_edges();
        walker.restart(&tfm, &mut pick);
        assert_eq!(walker.visited_edges(), before);
    }

    /// The distance definition itself, as the walker computed it per
    /// step before the breadth-first search: per edge, relaxation to a
    /// fixpoint over every pair of edges.
    fn fixpoint_edge_distances(tfm: &Tfm, visits: &[u64]) -> Vec<usize> {
        let edges = tfm.edges();
        let mut dist: Vec<usize> = (0..edges.len())
            .map(|i| match visits.get(i).copied().unwrap_or(0) {
                0 => 0,
                _ => usize::MAX,
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..edges.len() {
                let through = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.from == edges[i].to)
                    .map(|(j, _)| dist[j])
                    .min()
                    .unwrap_or(usize::MAX)
                    .saturating_add(1);
                if through < dist[i] {
                    dist[i] = through;
                    changed = true;
                }
            }
        }
        dist
    }

    /// A seeded `pick(n)` source (xorshift64*: the crate has no RNG
    /// dependency).
    fn seeded_pick(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed | 1;
        move |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }
    }

    /// A random model of any shape: cycles, self-loops, islands, dead
    /// ends, and sometimes no birth node.
    fn random_model(next: &mut dyn FnMut(usize) -> usize) -> Tfm {
        let kinds = [NodeKind::Birth, NodeKind::Task, NodeKind::Death];
        let mut tfm = Tfm::new("C");
        let nodes: Vec<NodeId> = (0..1 + next(12))
            .map(|i| tfm.add_node(format!("n{i}"), kinds[next(3)], ["m"]))
            .collect();
        for _ in 0..next(3 * nodes.len() + 1) {
            tfm.add_edge(nodes[next(nodes.len())], nodes[next(nodes.len())]);
        }
        tfm
    }

    #[test]
    fn breadth_first_distances_equal_the_fixpoint_on_random_models() {
        let mut next = seeded_pick(0x9E37_79B9_7F4A_7C15);
        for case in 0..500 {
            let tfm = random_model(&mut next);
            let visits: Vec<u64> = (0..tfm.edge_count())
                .map(|_| [0, 0, 1, 3][next(4)])
                .collect();
            let mut nearest = Vec::new();
            nearest_unvisited(&tfm, &visits, &mut nearest, &mut VecDeque::new());
            let bfs: Vec<usize> = tfm
                .edges()
                .iter()
                .zip(&visits)
                .map(|(e, &v)| match v {
                    0 => 0,
                    _ => nearest[e.to.index()].saturating_add(1),
                })
                .collect();
            assert_eq!(
                bfs,
                fixpoint_edge_distances(&tfm, &visits),
                "case {case}: {tfm:?} visits {visits:?}"
            );
        }
    }

    #[test]
    fn cached_distances_walk_like_per_step_fixpoints() {
        let mut next = seeded_pick(0xD1B5_4A32_D192_ED03);
        for case in 0..200 {
            let tfm = random_model(&mut next);
            if tfm.birth_nodes().is_empty() {
                continue;
            }
            let seed = next(1 << 30) as u64;
            let (mut pick, mut oracle_pick) = (seeded_pick(seed), seeded_pick(seed));
            let mut walker = EdgeWalker::new(WalkPolicy::LeastVisited);
            let mut visits = vec![0u64; tfm.edge_count()];
            let births = tfm.birth_nodes();
            let mut here = walker.restart(&tfm, &mut pick);
            assert_eq!(here, births[bounded(&mut oracle_pick, births.len())]);
            for step in 0..60 {
                // The pre-cache policy: fixpoint distances every step.
                let outgoing = tfm.out_edges(here);
                let expected = (!outgoing.is_empty()).then(|| {
                    let dist = fixpoint_edge_distances(&tfm, &visits);
                    let key = |i: usize| (dist[i], visits[i]);
                    let best = outgoing.iter().map(|&i| key(i)).min().unwrap();
                    let ties: Vec<usize> = outgoing
                        .iter()
                        .copied()
                        .filter(|&i| key(i) == best)
                        .collect();
                    ties[bounded(&mut oracle_pick, ties.len())]
                });
                let got = walker.step(&tfm, &mut pick);
                assert_eq!(
                    got,
                    expected.map(|i| tfm.edges()[i].to),
                    "case {case} step {step}"
                );
                match expected {
                    Some(i) => {
                        visits[i] += 1;
                        here = tfm.edges()[i].to;
                    }
                    None => {
                        here = walker.restart(&tfm, &mut pick);
                        assert_eq!(here, births[bounded(&mut oracle_pick, births.len())]);
                    }
                }
            }
        }
    }

    #[test]
    fn out_and_in_edges_list_the_edge_relation() {
        let tfm = looped();
        for (id, _) in tfm.nodes() {
            for &i in tfm.out_edges(id) {
                assert_eq!(tfm.edges()[i].from, id);
            }
            for &i in tfm.in_edges(id) {
                assert_eq!(tfm.edges()[i].to, id);
            }
        }
        let listed: usize = tfm.nodes().map(|(id, _)| tfm.out_edges(id).len()).sum();
        assert_eq!(listed, tfm.edge_count());
    }

    #[test]
    fn policy_keywords_round_trip() {
        for p in [WalkPolicy::Uniform, WalkPolicy::LeastVisited] {
            assert_eq!(WalkPolicy::from_keyword(p.keyword()), Some(p));
        }
        assert_eq!(WalkPolicy::from_keyword("hamiltonian"), None);
    }
}
