//! `Detect-Name-Collision` (Protocol 7): stable collision detection in
//! sublinear time.
//!
//! Whenever two collecting agents meet they first cross-examine each other:
//! each agent takes every still-checkable path in its history tree that ends
//! with the partner's name and asks the partner to produce consistent
//! evidence (`Check-Path-Consistency`, Protocol 8). A genuine agent always
//! can (Lemma 5.4, safety); an impostor that merely shares the name almost
//! never can, because the sync values along the path were drawn from a range
//! of size `Smax = Θ(n²)` in interactions the impostor never took part in
//! (Lemma 5.6, fast detection). If the cross-examination fails, a collision is
//! reported and the caller triggers `Propagate-Reset`.
//!
//! If no collision is found, the two agents exchange knowledge: each absorbs
//! the other's tree (truncated to depth `H − 1`) under a freshly generated
//! shared sync value, and all edge timers age by one interaction. Both trees
//! are updated in place; the outcome says whether either one changed.

use rand::{Rng, RngCore};

use crate::name::Name;
use crate::params::SublinearParams;
use crate::sublinear::history_tree::HistoryTree;

/// The outcome of running `Detect-Name-Collision` between two collecting
/// agents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollisionCheck {
    /// A name collision (or inconsistent history) was detected; the caller
    /// must trigger a reset. The trees are left untouched.
    CollisionDetected,
    /// No collision detected; both trees have been updated with the new shared
    /// sync value and aged by one interaction.
    Consistent {
        /// Whether either tree differs from what it was before the call.
        changed: bool,
    },
}

impl CollisionCheck {
    /// Whether a collision was detected.
    pub fn is_collision(self) -> bool {
        matches!(self, CollisionCheck::CollisionDetected)
    }
}

/// Runs `Detect-Name-Collision` (Protocol 7) for the interacting pair
/// `(a, b)`, mutating their trees when the check passes.
pub fn detect_name_collision(
    a_name: &Name,
    a_tree: &mut HistoryTree,
    b_name: &Name,
    b_tree: &mut HistoryTree,
    params: &SublinearParams,
    rng: &mut dyn RngCore,
) -> CollisionCheck {
    // Two agents carrying the same name is a collision by definition; this is
    // the direct (H = 0) detection rule and is what makes the configuration
    // with both duplicates meeting each other detectable at any depth.
    if a_name == b_name {
        return CollisionCheck::CollisionDetected;
    }

    // Cross-examination (lines 1–4): every checkable path about the partner
    // must be verifiable by the partner.
    for (i_tree, j_tree, j_name) in [(&*a_tree, &*b_tree, b_name), (&*b_tree, &*a_tree, a_name)] {
        for path in i_tree.checkable_paths_to(j_name) {
            if !j_tree.check_reverse_consistency(&path) {
                return CollisionCheck::CollisionDetected;
            }
        }
    }

    // Line 5: generate the shared sync value for this interaction.
    let sync = rng.gen_range(1..=params.s_max);

    if params.h == 0 {
        // Lines 6–12 store nothing at depth 0; lines 13–14 age every
        // remembered edge by one interaction.
        let a_changed = a_tree.decrement_timers();
        let b_changed = b_tree.decrement_timers();
        return CollisionCheck::Consistent { changed: a_changed || b_changed };
    }

    // Lines 6–12: exchange knowledge. Both partners' trees are truncated
    // before either is mutated, so each update sees the other's
    // pre-interaction tree.
    let a_view = a_tree.truncated(params.h - 1);
    let b_view = b_tree.truncated(params.h - 1);
    let a_changed = exchange(a_tree, b_view, sync, params.t_h);
    let b_changed = exchange(b_tree, a_view, sync, params.t_h);
    CollisionCheck::Consistent { changed: a_changed || b_changed }
}

/// Hangs the truncated `partner` view under a new `sync` edge of `tree`,
/// then ages every edge (lines 7–14); returns whether `tree` changed.
///
/// The tree's newest root edge afterwards leads to the partner under `sync`,
/// so the tree can only come out unchanged if that edge was already its
/// newest. Only then, about once in `Smax` interactions, is the tree copied
/// to compare.
fn exchange(tree: &mut HistoryTree, partner: HistoryTree, sync: u32, timer: u32) -> bool {
    let before = tree.last_edge_is(partner.root_name(), sync).then(|| tree.clone());
    tree.hang(partner, sync, timer);
    tree.decrement_timers();
    before.is_none_or(|before| before != *tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn name(i: u64) -> Name {
        Name::from_bits(&(0..10).map(|b| (i >> b) & 1 == 1).collect::<Vec<_>>())
    }

    fn params(h: u32) -> SublinearParams {
        SublinearParams::recommended(32, h)
    }

    /// Simulates a scripted sequence of pairwise meetings through the real
    /// detection routine, returning the trees.
    fn run_script(
        names: &[Name],
        meetings: &[(usize, usize)],
        params: &SublinearParams,
        seed: u64,
    ) -> (Vec<HistoryTree>, bool) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut trees: Vec<HistoryTree> =
            names.iter().map(|n| HistoryTree::singleton(*n)).collect();
        let mut any_collision = false;
        for &(x, y) in meetings {
            assert_ne!(x, y);
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            let (left, right) = trees.split_at_mut(hi);
            let (tx, ty) = (&mut left[lo], &mut right[0]);
            let outcome = detect_name_collision(&names[x], tx, &names[y], ty, params, &mut rng);
            any_collision |= outcome.is_collision();
        }
        (trees, any_collision)
    }

    #[test]
    fn identical_names_collide_immediately() {
        let p = params(2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let shared = name(5);
        let mut ta = HistoryTree::singleton(shared);
        let mut tb = HistoryTree::singleton(shared);
        let outcome = detect_name_collision(&shared, &mut ta, &shared, &mut tb, &p, &mut rng);
        assert!(outcome.is_collision());
        // Trees are untouched on detection.
        assert_eq!(ta.node_count(), 1);
        assert_eq!(tb.node_count(), 1);
    }

    #[test]
    fn honest_chains_never_raise_false_alarms() {
        // A long scripted sequence of meetings among agents with unique names
        // must never report a collision (safety after a clean start,
        // Lemma 5.4).
        let names: Vec<Name> = (0..6).map(name).collect();
        let meetings = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (0, 5),
            (2, 5),
            (1, 4),
            (0, 3),
            (3, 5),
            (0, 1),
            (1, 2),
            (0, 2),
            (4, 0),
            (5, 1),
        ];
        for h in [1u32, 2, 3, 5] {
            let (_, collision) = run_script(&names, &meetings, &params(h), 7 + h as u64);
            assert!(!collision, "false collision at depth H = {h}");
        }
    }

    #[test]
    fn random_meetings_never_raise_false_alarms() {
        // Lemma 5.4 on trees that have absorbed real history: 8·n uniformly
        // random meetings among n = 32 distinctly named agents.
        let n = 32;
        let names: Vec<Name> = (0..n as u64).map(name).collect();
        for seed in [7u64, 11] {
            let mut pick = ChaCha8Rng::seed_from_u64(seed ^ 0xBEEF);
            let meetings: Vec<(usize, usize)> = (0..8 * n)
                .map(|_| {
                    let a = pick.gen_range(0..n);
                    let b = pick.gen_range(0..n - 1);
                    (a, if b >= a { b + 1 } else { b })
                })
                .collect();
            for h in [1u32, 2, 3] {
                let (_, collision) = run_script(&names, &meetings, &params(h), seed);
                assert!(!collision, "false collision at depth H = {h}, seed {seed}");
            }
        }
    }

    #[test]
    fn impostor_is_caught_through_an_intermediary() {
        // Agents: a (0), intermediary b (1), impostor a' (2) sharing a's name.
        // a meets b, then b meets the impostor: with overwhelming probability
        // the impostor cannot produce the sync value a and b generated.
        let a = name(1);
        let b = name(2);
        let names = [a, b, a];
        let p = params(2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut trees: Vec<HistoryTree> =
            names.iter().map(|n| HistoryTree::singleton(*n)).collect();
        let (first, rest) = trees.split_at_mut(1);
        let outcome =
            detect_name_collision(&names[0], &mut first[0], &names[1], &mut rest[0], &p, &mut rng);
        assert!(!outcome.is_collision());
        let (left, right) = trees.split_at_mut(2);
        let outcome =
            detect_name_collision(&names[1], &mut left[1], &names[2], &mut right[0], &p, &mut rng);
        assert!(outcome.is_collision(), "the impostor should fail cross-examination");
    }

    #[test]
    fn impostor_is_caught_through_a_two_hop_chain_at_depth_two() {
        // a(0) — b(1) — c(2) — a'(3): with H = 2, c's tree remembers the
        // chain c -> b -> a, so when c meets the impostor a' the impostor must
        // fabricate either the b-c sync or the a-b sync.
        let a = name(1);
        let names = vec![a, name(2), name(3), a];
        let p = params(2);
        let (_, collision) = run_script(&names, &[(0, 1), (1, 2), (2, 3)], &p, 11);
        assert!(collision);
    }

    #[test]
    fn depth_one_trees_cannot_see_past_one_intermediary() {
        // Same chain as above but with H = 1: c only remembers "I met b", not
        // what b knew about a, so meeting the impostor raises no alarm yet.
        let a = name(1);
        let names = vec![a, name(2), name(3), a];
        let p = params(1);
        let (_, collision) = run_script(&names, &[(0, 1), (1, 2), (2, 3)], &p, 11);
        assert!(!collision, "H = 1 should not detect a collision across two intermediaries");
    }

    #[test]
    fn expired_timers_silence_stale_accusations() {
        // b learns about a, then b's knowledge expires (T_H interactions
        // pass); when b later meets the impostor, the expired path is not
        // checkable, so no collision is reported — exactly the mechanism that
        // protects against fabricated initial trees (Lemma 5.5).
        let a = name(1);
        let b = name(2);
        let names = [a, b, a];
        let p = params(1).with_t_h(3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut trees: Vec<HistoryTree> =
            names.iter().map(|n| HistoryTree::singleton(*n)).collect();
        {
            let (first, rest) = trees.split_at_mut(1);
            let outcome = detect_name_collision(
                &names[0],
                &mut first[0],
                &names[1],
                &mut rest[0],
                &p,
                &mut rng,
            );
            assert!(!outcome.is_collision());
        }
        // Age b's tree past the timer.
        for _ in 0..5 {
            trees[1].decrement_timers();
        }
        let (left, right) = trees.split_at_mut(2);
        let outcome =
            detect_name_collision(&names[1], &mut left[1], &names[2], &mut right[0], &p, &mut rng);
        assert!(!outcome.is_collision());
    }

    #[test]
    fn consistent_interactions_update_both_trees() {
        let p = params(2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (a, b) = (name(1), name(2));
        let mut ta = HistoryTree::singleton(a);
        let mut tb = HistoryTree::singleton(b);
        let outcome = detect_name_collision(&a, &mut ta, &b, &mut tb, &p, &mut rng);
        assert!(!outcome.is_collision());
        assert_eq!(ta.node_count(), 2);
        assert_eq!(tb.node_count(), 2);
        assert_eq!(ta.root().edges[0].sync, tb.root().edges[0].sync);
    }
}
