//! The transaction flow model (TFM) graph.
//!
//! Beizer's transaction flow model, adapted by Siegel to class-level unit
//! testing (paper §3.2): a directed graph whose nodes are public features of
//! the class and whose paths from a *birth* node (a constructor) to a *death*
//! node (the destructor) are the allowable transactions of an object.
//!
//! A node may group several *alternative* methods (Figure 3 of the paper
//! lists `Node(n1, ..., [m1, m2])` where `m1`/`m2` are the two constructors):
//! any one of them realizes the node when a transaction is executed.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// Index of a node within its [`Tfm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of the node in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0 + 1)
    }
}

/// Role a node plays in the life cycle of the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Object creation: the node's methods are constructors.
    Birth,
    /// An intermediate processing task.
    Task,
    /// Object destruction: transactions end here.
    Death,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Birth => "birth",
            NodeKind::Task => "task",
            NodeKind::Death => "death",
        };
        f.write_str(s)
    }
}

/// A node of the TFM: a public feature (or set of alternative methods).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Stable label used in specs and DOT output (e.g. `"n3"` or `"update"`).
    pub label: String,
    /// Life-cycle role.
    pub kind: NodeKind,
    /// Alternative methods realizing this node. Must be non-empty.
    pub methods: Vec<String>,
}

/// A directed edge: "task A is immediately followed by task B".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
}

/// Errors detected while building or validating a TFM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TfmError {
    /// A node was declared with an empty method list.
    EmptyNode {
        /// Label of the offending node.
        label: String,
    },
    /// Two nodes share the same label.
    DuplicateLabel {
        /// The non-unique label.
        label: String,
    },
    /// An edge references a node id that does not exist.
    UnknownNode {
        /// The out-of-range id.
        id: usize,
    },
    /// The model has no birth node: no transaction can start.
    NoBirth,
    /// The model has no death node: no transaction can finish.
    NoDeath,
    /// A node can never appear in any transaction.
    Unreachable {
        /// Label of the unreachable node.
        label: String,
    },
    /// A node cannot reach any death node, so transactions entering it
    /// never terminate.
    DeadEnd {
        /// Label of the dead-end node.
        label: String,
    },
    /// A birth node has an incoming edge (objects cannot be re-born).
    EdgeIntoBirth {
        /// Label of the birth node.
        label: String,
    },
    /// A death node has an outgoing edge (objects cannot act after death).
    EdgeFromDeath {
        /// Label of the death node.
        label: String,
    },
}

impl fmt::Display for TfmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TfmError::EmptyNode { label } => write!(f, "node {label} has no methods"),
            TfmError::DuplicateLabel { label } => write!(f, "duplicate node label {label}"),
            TfmError::UnknownNode { id } => write!(f, "edge references unknown node index {id}"),
            TfmError::NoBirth => f.write_str("model has no birth node"),
            TfmError::NoDeath => f.write_str("model has no death node"),
            TfmError::Unreachable { label } => {
                write!(f, "node {label} is unreachable from every birth node")
            }
            TfmError::DeadEnd { label } => {
                write!(f, "node {label} cannot reach any death node")
            }
            TfmError::EdgeIntoBirth { label } => {
                write!(f, "birth node {label} has an incoming edge")
            }
            TfmError::EdgeFromDeath { label } => {
                write!(f, "death node {label} has an outgoing edge")
            }
        }
    }
}

impl std::error::Error for TfmError {}

/// A transaction flow model: the test model of the paper's t-spec.
///
/// # Examples
///
/// ```
/// use concat_tfm::{NodeKind, Tfm};
///
/// let mut tfm = Tfm::new("Product");
/// let birth = tfm.add_node("create", NodeKind::Birth, ["Product"]);
/// let show = tfm.add_node("show", NodeKind::Task, ["ShowAttributes"]);
/// let death = tfm.add_node("destroy", NodeKind::Death, ["~Product"]);
/// tfm.add_edge(birth, show);
/// tfm.add_edge(show, death);
/// assert!(tfm.validate().is_empty());
/// ```
#[derive(Clone)]
pub struct Tfm {
    class_name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Per-node edge lists, built from `edges` on first use and dropped
    /// by every change to the model: derived data, left out of equality
    /// and `Debug`.
    adjacency: OnceLock<Adjacency>,
}

impl PartialEq for Tfm {
    fn eq(&self, other: &Self) -> bool {
        (&self.class_name, &self.nodes, &self.edges)
            == (&other.class_name, &other.nodes, &other.edges)
    }
}

impl fmt::Debug for Tfm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tfm")
            .field("class_name", &self.class_name)
            .field("nodes", &self.nodes)
            .field("edges", &self.edges)
            .finish()
    }
}

/// Per node, the indices of the edges leaving it and entering it, in
/// insertion order.
#[derive(Clone)]
struct Adjacency {
    out: Vec<Vec<usize>>,
    into: Vec<Vec<usize>>,
}

impl Adjacency {
    fn new(edges: &[Edge]) -> Self {
        let nodes = edges.iter().map(|e| e.from.0.max(e.to.0) + 1).max();
        let mut adjacency = Adjacency {
            out: vec![Vec::new(); nodes.unwrap_or(0)],
            into: vec![Vec::new(); nodes.unwrap_or(0)],
        };
        for (i, e) in edges.iter().enumerate() {
            adjacency.out[e.from.0].push(i);
            adjacency.into[e.to.0].push(i);
        }
        adjacency
    }
}

impl Tfm {
    /// Creates an empty model for `class_name`.
    pub fn new(class_name: impl Into<String>) -> Self {
        Tfm {
            class_name: class_name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            adjacency: OnceLock::new(),
        }
    }

    /// The class this model describes.
    pub fn class_name(&self) -> &str {
        &self.class_name
    }

    /// Adds a node and returns its id.
    pub fn add_node<I, S>(&mut self, label: impl Into<String>, kind: NodeKind, methods: I) -> NodeId
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let node = Node {
            label: label.into(),
            kind,
            methods: methods.into_iter().map(Into::into).collect(),
        };
        self.nodes.push(node);
        self.adjacency.take();
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a directed edge between two existing nodes. Parallel edges are
    /// collapsed (adding the same edge twice is a no-op).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        let e = Edge { from, to };
        if !self.edges.contains(&e) {
            self.edges.push(e);
            self.adjacency.take();
        }
    }

    /// The nodes, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// The edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes (the paper reports "16 nodes").
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (the paper reports "43 links").
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Finds a node id by label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.label == label).map(NodeId)
    }

    /// Ids of all birth nodes.
    pub fn birth_nodes(&self) -> Vec<NodeId> {
        self.ids_of_kind(NodeKind::Birth)
    }

    /// Ids of all death nodes.
    pub fn death_nodes(&self) -> Vec<NodeId> {
        self.ids_of_kind(NodeKind::Death)
    }

    fn ids_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == kind)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Indices into [`Tfm::edges`] of the edges leaving `id`, in
    /// insertion order.
    pub fn out_edges(&self, id: NodeId) -> &[usize] {
        self.adjacency().out.get(id.0).map_or(&[], Vec::as_slice)
    }

    /// Indices into [`Tfm::edges`] of the edges entering `id`, in
    /// insertion order.
    pub fn in_edges(&self, id: NodeId) -> &[usize] {
        self.adjacency().into.get(id.0).map_or(&[], Vec::as_slice)
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| Adjacency::new(&self.edges))
    }

    /// Successors of `id`, in edge insertion order.
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        let edges = self.out_edges(id).iter();
        edges.map(|&i| self.edges[i].to).collect()
    }

    /// Predecessors of `id`, in edge insertion order.
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        let edges = self.in_edges(id).iter();
        edges.map(|&i| self.edges[i].from).collect()
    }

    /// Every method name referenced by any node, sorted and deduplicated.
    pub fn referenced_methods(&self) -> Vec<&str> {
        let set: BTreeSet<&str> = self
            .nodes
            .iter()
            .flat_map(|n| n.methods.iter().map(String::as_str))
            .collect();
        set.into_iter().collect()
    }

    /// Validates the model, returning every problem found (empty = valid).
    ///
    /// Checks: non-empty nodes, unique labels, birth/death presence, no
    /// edges into birth or out of death, reachability from birth, and
    /// co-reachability of death.
    pub fn validate(&self) -> Vec<TfmError> {
        let mut errors = Vec::new();
        let mut seen = BTreeSet::new();
        for node in &self.nodes {
            if node.methods.is_empty() {
                errors.push(TfmError::EmptyNode {
                    label: node.label.clone(),
                });
            }
            if !seen.insert(node.label.as_str()) {
                errors.push(TfmError::DuplicateLabel {
                    label: node.label.clone(),
                });
            }
        }
        let births = self.birth_nodes();
        let deaths = self.death_nodes();
        if births.is_empty() {
            errors.push(TfmError::NoBirth);
        }
        if deaths.is_empty() {
            errors.push(TfmError::NoDeath);
        }
        for e in &self.edges {
            if self
                .nodes
                .get(e.to.0)
                .is_some_and(|n| n.kind == NodeKind::Birth)
            {
                errors.push(TfmError::EdgeIntoBirth {
                    label: self.nodes[e.to.0].label.clone(),
                });
            }
            if self
                .nodes
                .get(e.from.0)
                .is_some_and(|n| n.kind == NodeKind::Death)
            {
                errors.push(TfmError::EdgeFromDeath {
                    label: self.nodes[e.from.0].label.clone(),
                });
            }
        }
        // Forward reachability from birth nodes.
        let reachable = self.closure(&births, |id| self.successors(id));
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind != NodeKind::Birth && !reachable.contains(&NodeId(i)) {
                errors.push(TfmError::Unreachable {
                    label: node.label.clone(),
                });
            }
        }
        // Backward reachability from death nodes.
        let coreachable = self.closure(&deaths, |id| self.predecessors(id));
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind != NodeKind::Death && !coreachable.contains(&NodeId(i)) {
                errors.push(TfmError::DeadEnd {
                    label: node.label.clone(),
                });
            }
        }
        errors
    }

    fn closure<F>(&self, seeds: &[NodeId], next: F) -> BTreeSet<NodeId>
    where
        F: Fn(NodeId) -> Vec<NodeId>,
    {
        let mut seen: BTreeSet<NodeId> = seeds.iter().copied().collect();
        let mut stack: Vec<NodeId> = seeds.to_vec();
        while let Some(id) = stack.pop() {
            for succ in next(id) {
                if seen.insert(succ) {
                    stack.push(succ);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> Tfm {
        let mut t = Tfm::new("C");
        let a = t.add_node("a", NodeKind::Birth, ["New"]);
        let b = t.add_node("b", NodeKind::Task, ["Work"]);
        let c = t.add_node("c", NodeKind::Death, ["Drop"]);
        t.add_edge(a, b);
        t.add_edge(b, c);
        t
    }

    #[test]
    fn counts_and_lookup() {
        let t = linear();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.class_name(), "C");
        let b = t.node_by_label("b").unwrap();
        assert_eq!(t.node(b).methods, vec!["Work".to_owned()]);
        assert!(t.node_by_label("zzz").is_none());
    }

    #[test]
    fn valid_linear_model_has_no_errors() {
        assert!(linear().validate().is_empty());
    }

    #[test]
    fn successors_and_predecessors() {
        let t = linear();
        let a = t.node_by_label("a").unwrap();
        let b = t.node_by_label("b").unwrap();
        let c = t.node_by_label("c").unwrap();
        assert_eq!(t.successors(a), vec![b]);
        assert_eq!(t.predecessors(c), vec![b]);
        assert!(t.predecessors(a).is_empty());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut t = linear();
        let a = t.node_by_label("a").unwrap();
        let b = t.node_by_label("b").unwrap();
        t.add_edge(a, b);
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn missing_birth_and_death_detected() {
        let mut t = Tfm::new("C");
        t.add_node("only", NodeKind::Task, ["M"]);
        let errs = t.validate();
        assert!(errs.contains(&TfmError::NoBirth));
        assert!(errs.contains(&TfmError::NoDeath));
    }

    #[test]
    fn unreachable_and_dead_end_detected() {
        let mut t = linear();
        t.add_node("island", NodeKind::Task, ["M"]);
        let errs = t.validate();
        assert!(errs.contains(&TfmError::Unreachable {
            label: "island".into()
        }));
        assert!(errs.contains(&TfmError::DeadEnd {
            label: "island".into()
        }));
    }

    #[test]
    fn empty_node_detected() {
        let mut t = linear();
        t.add_node("hollow", NodeKind::Task, Vec::<String>::new());
        let errs = t.validate();
        assert!(errs
            .iter()
            .any(|e| matches!(e, TfmError::EmptyNode { label } if label == "hollow")));
    }

    #[test]
    fn duplicate_label_detected() {
        let mut t = linear();
        t.add_node("a", NodeKind::Task, ["M"]);
        let errs = t.validate();
        assert!(errs
            .iter()
            .any(|e| matches!(e, TfmError::DuplicateLabel { label } if label == "a")));
    }

    #[test]
    fn edges_violating_lifecycle_detected() {
        let mut t = linear();
        let a = t.node_by_label("a").unwrap();
        let b = t.node_by_label("b").unwrap();
        let c = t.node_by_label("c").unwrap();
        t.add_edge(b, a);
        t.add_edge(c, b);
        let errs = t.validate();
        assert!(errs.contains(&TfmError::EdgeIntoBirth { label: "a".into() }));
        assert!(errs.contains(&TfmError::EdgeFromDeath { label: "c".into() }));
    }

    #[test]
    fn referenced_methods_sorted_unique() {
        let mut t = linear();
        t.add_node("b2", NodeKind::Task, ["Work", "Another"]);
        assert_eq!(
            t.referenced_methods(),
            vec!["Another", "Drop", "New", "Work"]
        );
    }

    #[test]
    fn error_display_nonempty() {
        let errs = vec![
            TfmError::EmptyNode { label: "x".into() },
            TfmError::NoBirth,
            TfmError::DeadEnd { label: "x".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
