//! The MCTS search tree.
//!
//! Nodes are states of the configuration-search MDP (§5.1): each node's
//! state is an index configuration; each outgoing edge is an action (the
//! next index to add). Nodes keep visit counts `N(s)` and per-action
//! statistics `n(s,a)`, `Q̂(s,a)` — the running average of episode rewards.

use ixtune_common::{IndexId, IndexSet};
use serde::{Deserialize, Serialize};

/// Running statistics for one action at one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionStats {
    /// `n(s, a)`: times the action was taken from this node.
    pub n: u32,
    /// `Q̂(s, a)`: average episode reward after taking the action.
    pub q: f64,
}

/// One node of the search tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// The configuration this state represents.
    pub config: IndexSet,
    /// Whether an episode has already evaluated this node (controls
    /// expansion versus rollout in Algorithm 3's `SampleConfiguration`).
    pub visited: bool,
    /// `N(s)`: number of episodes that passed through this node.
    pub n_visits: u32,
    /// Expanded children as (action, node index), sorted by action.
    pub children: Vec<(IndexId, usize)>,
    /// Statistics for actions taken at least once, sorted by action, so
    /// selection merges them with its ascending action walk in one pass.
    pub actions: Vec<(IndexId, ActionStats)>,
}

impl Node {
    fn new(config: IndexSet) -> Self {
        Self {
            config,
            visited: false,
            n_visits: 0,
            children: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// The child reached by action `a`, if expanded.
    pub(crate) fn child(&self, a: IndexId) -> Option<usize> {
        self.children
            .binary_search_by_key(&a, |&(b, _)| b)
            .ok()
            .map(|i| self.children[i].1)
    }

    fn stats(&self, a: IndexId) -> Option<&ActionStats> {
        self.actions
            .binary_search_by_key(&a, |&(b, _)| b)
            .ok()
            .map(|i| &self.actions[i].1)
    }

    /// `Q̂(s, a)` if the action has been taken, else `None`.
    pub fn q_value(&self, a: IndexId) -> Option<f64> {
        self.stats(a).map(|s| s.q)
    }

    /// `n(s, a)`.
    pub fn action_visits(&self, a: IndexId) -> u32 {
        self.stats(a).map_or(0, |s| s.n)
    }

    /// Depth of the state in the tree = configuration size.
    pub fn depth(&self) -> usize {
        self.config.len()
    }
}

/// Arena-allocated search tree rooted at the empty configuration.
#[derive(Clone, Debug)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Create a tree whose root is the empty configuration over `universe`.
    pub fn new(universe: usize) -> Self {
        Self {
            nodes: vec![Node::new(IndexSet::empty(universe))],
        }
    }

    pub const ROOT: usize = 0;

    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `GetOrCreateNextState` of Algorithm 3: the child of `node` reached by
    /// `action`, created (expansion) if absent.
    pub fn get_or_create_child(&mut self, node: usize, action: IndexId) -> usize {
        let at = match self.nodes[node]
            .children
            .binary_search_by_key(&action, |&(a, _)| a)
        {
            Ok(i) => return self.nodes[node].children[i].1,
            Err(at) => at,
        };
        let config = self.nodes[node].config.with(action);
        let child = self.nodes.len();
        self.nodes.push(Node::new(config));
        self.nodes[node].children.insert(at, (action, child));
        child
    }

    /// Back up an episode reward along `path` (pairs of node index and the
    /// action taken there) plus the terminal node reached.
    pub fn update_path(&mut self, path: &[(usize, IndexId)], terminal: usize, reward: f64) {
        for &(node, action) in path {
            let n = &mut self.nodes[node];
            n.n_visits += 1;
            let i = match n.actions.binary_search_by_key(&action, |&(a, _)| a) {
                Ok(i) => i,
                Err(at) => {
                    n.actions.insert(at, (action, ActionStats::default()));
                    at
                }
            };
            let stats = &mut n.actions[i].1;
            stats.n += 1;
            stats.q += (reward - stats.q) / stats.n as f64;
        }
        let t = &mut self.nodes[terminal];
        t.n_visits += 1;
        t.visited = true;
    }

    /// Iterate all node configurations (used by Best-Configuration-Explored).
    pub fn configs(&self) -> impl Iterator<Item = &IndexSet> {
        self.nodes.iter().map(|n| &n.config)
    }

    /// Serializable image for checkpoint/resume. Nodes are captured in
    /// arena order, children/actions as the node keeps them: sorted by
    /// action. A node's
    /// configuration is not stored: it is its parent's plus the action on
    /// the link between them, so [`from_snapshot`](Self::from_snapshot)
    /// rebuilds it. Restoring reproduces the arena *indices* exactly, so a
    /// resumed search that expands the same actions assigns the same node
    /// numbers as the uninterrupted run.
    pub fn snapshot(&self) -> TreeSnapshot {
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeSnapshot {
                visited: n.visited,
                n_visits: n.n_visits,
                children: n.children.clone(),
                actions: n.actions.clone(),
            })
            .collect();
        TreeSnapshot { nodes }
    }

    /// Rebuild a tree over `universe` candidates from a
    /// [`snapshot`](Self::snapshot), preserving the arena node numbering.
    /// Every node but the root must be the child of exactly one earlier
    /// node, through an action inside the universe and outside that
    /// parent's configuration; configurations are rebuilt from those
    /// links in arena order. Action statistics must name distinct
    /// candidates of the universe in ascending order, as the node keeps
    /// them. Anything else is an error, so every restored tree is finite,
    /// its depths equal its configuration sizes, and its lists are sorted.
    pub fn from_snapshot(s: &TreeSnapshot, universe: usize) -> Result<Tree, String> {
        let len = s.nodes.len();
        if len == 0 {
            return Err("tree snapshot has no root".to_string());
        }
        let mut parent: Vec<Option<(usize, IndexId)>> = vec![None; len];
        for (i, n) in s.nodes.iter().enumerate() {
            let mut prev: Option<IndexId> = None;
            for &(a, c) in &n.children {
                if a.index() >= universe || prev.is_some_and(|p| p >= a) {
                    return Err(format!(
                        "node {i} links through action {a} (not a distinct candidate of {universe})"
                    ));
                }
                prev = Some(a);
                if c >= len {
                    return Err(format!("node {i} links to out-of-range child {c}"));
                }
                if c <= i {
                    return Err(format!("node {i} links back to earlier node {c}"));
                }
                if parent[c].replace((i, a)).is_some() {
                    return Err(format!("node {c} has two parents"));
                }
            }
            if let Some(&(a, _)) = n.actions.iter().find(|(a, _)| a.index() >= universe) {
                return Err(format!(
                    "node {i} has statistics for action {a} outside {universe} candidates"
                ));
            }
            if let Some(w) = n.actions.windows(2).find(|w| w[0].0 >= w[1].0) {
                return Err(format!(
                    "node {i} lists statistics for action {} after action {} (repeated or unsorted)",
                    w[1].0, w[0].0
                ));
            }
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(len);
        for (i, n) in s.nodes.iter().enumerate() {
            let config = match parent[i] {
                None if i == Tree::ROOT => IndexSet::empty(universe),
                None => return Err(format!("node {i} has no parent")),
                Some((p, a)) => {
                    let base = &nodes[p].config;
                    if base.contains(a) {
                        return Err(format!(
                            "node {p} links through action {a} already in its configuration"
                        ));
                    }
                    base.with(a)
                }
            };
            nodes.push(Node {
                config,
                visited: n.visited,
                n_visits: n.n_visits,
                children: n.children.clone(),
                actions: n.actions.clone(),
            });
        }
        Ok(Tree { nodes })
    }
}

/// On-disk image of a [`Tree`] (see [`Tree::snapshot`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TreeSnapshot {
    nodes: Vec<NodeSnapshot>,
}

impl TreeSnapshot {
    /// Number of nodes in the snapshotted arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct NodeSnapshot {
    visited: bool,
    n_visits: u32,
    children: Vec<(IndexId, usize)>,
    actions: Vec<(IndexId, ActionStats)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> IndexId {
        IndexId::new(i)
    }

    #[test]
    fn root_is_empty_config() {
        let t = Tree::new(8);
        assert_eq!(t.len(), 1);
        assert!(t.node(Tree::ROOT).config.is_empty());
        assert!(!t.node(Tree::ROOT).visited);
    }

    #[test]
    fn child_creation_is_idempotent() {
        let mut t = Tree::new(8);
        let a = t.get_or_create_child(Tree::ROOT, id(3));
        let b = t.get_or_create_child(Tree::ROOT, id(3));
        assert_eq!(a, b);
        assert_eq!(t.len(), 2);
        assert!(t.node(a).config.contains(id(3)));
        assert_eq!(t.node(a).depth(), 1);
    }

    #[test]
    fn update_path_averages_rewards() {
        let mut t = Tree::new(8);
        let c1 = t.get_or_create_child(Tree::ROOT, id(0));
        t.update_path(&[(Tree::ROOT, id(0))], c1, 0.4);
        t.update_path(&[(Tree::ROOT, id(0))], c1, 0.8);
        let root = t.node(Tree::ROOT);
        assert_eq!(root.n_visits, 2);
        assert_eq!(root.action_visits(id(0)), 2);
        assert!((root.q_value(id(0)).unwrap() - 0.6).abs() < 1e-12);
        assert!(t.node(c1).visited);
        assert_eq!(t.node(c1).n_visits, 2);
    }

    #[test]
    fn deeper_paths_update_every_edge() {
        let mut t = Tree::new(8);
        let c1 = t.get_or_create_child(Tree::ROOT, id(0));
        let c2 = t.get_or_create_child(c1, id(1));
        t.update_path(&[(Tree::ROOT, id(0)), (c1, id(1))], c2, 1.0);
        assert_eq!(t.node(Tree::ROOT).action_visits(id(0)), 1);
        assert_eq!(t.node(c1).action_visits(id(1)), 1);
        assert_eq!(t.node(c2).n_visits, 1);
        assert_eq!(t.node(c2).config.len(), 2);
    }

    #[test]
    fn snapshot_roundtrip_preserves_arena_and_stats() {
        let mut t = Tree::new(8);
        let c1 = t.get_or_create_child(Tree::ROOT, id(0));
        let c2 = t.get_or_create_child(c1, id(3));
        let c3 = t.get_or_create_child(Tree::ROOT, id(5));
        t.update_path(&[(Tree::ROOT, id(0)), (c1, id(3))], c2, 0.7);
        t.update_path(&[(Tree::ROOT, id(5))], c3, 0.3);

        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TreeSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap, "snapshot survives JSON");
        let r = Tree::from_snapshot(&back, 8).unwrap();

        assert_eq!(r.len(), t.len());
        for i in 0..t.len() {
            let (a, b) = (t.node(i), r.node(i));
            assert_eq!(a.config, b.config, "node {i}");
            assert_eq!(a.visited, b.visited);
            assert_eq!(a.n_visits, b.n_visits);
            assert_eq!(a.children, b.children);
            assert_eq!(a.actions.len(), b.actions.len());
            for ((act, st), (ract, rs)) in a.actions.iter().zip(&b.actions) {
                assert_eq!(act, ract);
                assert_eq!(st.n, rs.n);
                assert_eq!(st.q.to_bits(), rs.q.to_bits());
            }
        }
    }

    #[test]
    fn from_snapshot_rejects_dangling_children() {
        let mut t = Tree::new(4);
        t.get_or_create_child(Tree::ROOT, id(1));
        let mut snap = t.snapshot();
        assert!(Tree::from_snapshot(&snap, 4).is_ok());
        assert!(
            Tree::from_snapshot(&snap, 1).is_err(),
            "action 1 lies outside a 1-candidate universe"
        );
        snap.nodes[0].children[0].1 = 99;
        assert!(Tree::from_snapshot(&snap, 4).is_err());
        snap.nodes.clear();
        assert!(Tree::from_snapshot(&snap, 4).is_err());
    }

    /// A chain root -{1}-> a -{2}-> b, snapshotted.
    fn chain() -> TreeSnapshot {
        let mut t = Tree::new(4);
        let a = t.get_or_create_child(Tree::ROOT, id(1));
        t.get_or_create_child(a, id(2));
        t.snapshot()
    }

    #[test]
    fn from_snapshot_rejects_links_back_to_earlier_nodes() {
        // The root linking to itself would make selection walk forever.
        let mut snap = chain();
        snap.nodes[0].children[0].1 = 0;
        assert!(Tree::from_snapshot(&snap, 4).is_err());
        // So would a deeper node linking back up the chain.
        let mut snap = chain();
        snap.nodes[2].children.push((id(3), 1));
        assert!(Tree::from_snapshot(&snap, 4).is_err());
    }

    #[test]
    fn from_snapshot_rejects_a_node_with_two_parents() {
        let mut snap = chain();
        snap.nodes[0].children.push((id(2), 2));
        assert!(Tree::from_snapshot(&snap, 4).is_err());
        // Two actions of one node reaching the same child count twice too.
        let mut snap = chain();
        snap.nodes[1].children.push((id(3), 2));
        assert!(Tree::from_snapshot(&snap, 4).is_err());
    }

    #[test]
    fn from_snapshot_rejects_orphans_and_impossible_actions() {
        // Node 2 loses its only in-link.
        let mut snap = chain();
        snap.nodes[1].children.clear();
        assert!(Tree::from_snapshot(&snap, 4).is_err());
        // Node 1 (configuration {1}) may not extend itself by index 1.
        let mut snap = chain();
        snap.nodes[1].children[0].0 = id(1);
        assert!(Tree::from_snapshot(&snap, 4).is_err());
        // Action statistics must name candidates of the universe.
        let mut snap = chain();
        snap.nodes[0].actions.push((id(9), ActionStats::default()));
        assert!(Tree::from_snapshot(&snap, 4).is_err());
    }

    /// A root with statistics for actions 1 and 2, snapshotted.
    fn two_actions() -> TreeSnapshot {
        let mut t = Tree::new(4);
        for a in [2, 1] {
            let c = t.get_or_create_child(Tree::ROOT, id(a));
            t.update_path(&[(Tree::ROOT, id(a))], c, 0.5);
        }
        t.snapshot()
    }

    #[test]
    fn lists_stay_sorted_by_action() {
        let snap = two_actions();
        let root = &snap.nodes[0];
        assert_eq!(root.children, vec![(id(1), 2), (id(2), 1)]);
        assert_eq!(
            root.actions.iter().map(|&(a, _)| a).collect::<Vec<_>>(),
            vec![id(1), id(2)]
        );
        let t = Tree::from_snapshot(&snap, 4).unwrap();
        assert_eq!(t.node(Tree::ROOT).child(id(2)), Some(1));
        assert_eq!(t.node(Tree::ROOT).child(id(3)), None);
    }

    #[test]
    fn from_snapshot_rejects_repeated_action_statistics() {
        let mut snap = two_actions();
        assert!(Tree::from_snapshot(&snap, 4).is_ok());
        let first = snap.nodes[0].actions[0];
        snap.nodes[0].actions.insert(1, first);
        assert!(Tree::from_snapshot(&snap, 4).is_err());
    }

    #[test]
    fn from_snapshot_rejects_unsorted_action_statistics() {
        let mut snap = two_actions();
        snap.nodes[0].actions.reverse();
        assert!(Tree::from_snapshot(&snap, 4).is_err());
    }

    #[test]
    fn unvisited_action_has_no_q() {
        let t = Tree::new(4);
        assert_eq!(t.node(Tree::ROOT).q_value(id(2)), None);
        assert_eq!(t.node(Tree::ROOT).action_visits(id(2)), 0);
    }
}
