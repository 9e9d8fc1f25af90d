//! State-relabeling symmetries of a protocol's transition function.
//!
//! Many population protocols are invariant under a group of permutations of
//! their state space: relabeling every agent's state through the permutation
//! and then interacting gives the same result as interacting and then
//! relabeling. The ranking protocols are the motivating examples — the
//! `n`-state silent protocol commutes with rotating every rank by one, and
//! the optimal silent protocol commutes with swapping the `children ∈ {1, 2}`
//! bookkeeping of any *leaf* rank (a rank that never recruits again).
//!
//! When a protocol declares such a group through
//! [`EnumerableProtocol::state_symmetry`](crate::EnumerableProtocol::state_symmetry),
//! the model checker in [`crate::mcheck`] works on the *quotient* of the
//! configuration space: every configuration is replaced by the
//! lexicographically smallest member of its orbit, so the working set shrinks
//! by up to the group order. Because the uniform pair scheduler is itself
//! symmetric under any state relabeling, the quotient chain is an exact
//! lumping of the full chain — verdicts and expected silence times are
//! identical, which the checker's test suites assert bit-for-bit at small
//! `n`.
//!
//! Declared symmetries are *checked*, not trusted: [`crate::ModelChecker`]
//! verifies that every generator of the declared group commutes with the
//! transition function and the null predicate over all state pairs, and
//! [`crate::check_convergence`] additionally probes the correctness oracle
//! for orbit-invariance on every state it classifies. An unsound declaration
//! is rejected with [`crate::MCheckError::UnsoundSymmetry`] instead of
//! silently producing a wrong proof.

/// A group of state-index permutations under which a protocol's transition
/// function, null predicate, and correctness oracle are invariant.
///
/// The variants describe the group abstractly; [`StateSymmetry::generators`]
/// expands them into explicit permutations for validation, and
/// [`StateSymmetry::canonicalize`] maps a configuration's count vector to the
/// lexicographically smallest count vector in its orbit.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum StateSymmetry {
    /// No symmetry beyond the identity. This is the default for every
    /// [`EnumerableProtocol`](crate::EnumerableProtocol); the quotient
    /// machinery degenerates to the plain reachable closure.
    #[default]
    Identity,
    /// The cyclic group Z/k acting by rotating state indices:
    /// `i ↦ (i + 1) mod k` generates it. A configuration's orbit is the set
    /// of rotations of its count vector.
    CyclicRotation,
    /// A product of symmetric groups, each permuting one disjoint block of
    /// state indices. Counts within a block are interchangeable; indices
    /// outside every block are fixed. Blocks of size < 2 are allowed and
    /// contribute nothing.
    SymmetricBlocks(Vec<Vec<usize>>),
}

impl StateSymmetry {
    /// Whether the group is trivial (acts as the identity on every
    /// configuration), in which case quotienting is a no-op.
    pub fn is_identity(&self) -> bool {
        match self {
            StateSymmetry::Identity => true,
            StateSymmetry::CyclicRotation => false,
            StateSymmetry::SymmetricBlocks(blocks) => blocks.iter().all(|b| b.len() < 2),
        }
    }

    /// The order of the group acting on a `k`-state protocol, saturating at
    /// `u128::MAX`.
    pub fn order(&self, k: usize) -> u128 {
        match self {
            StateSymmetry::Identity => 1,
            StateSymmetry::CyclicRotation => k.max(1) as u128,
            StateSymmetry::SymmetricBlocks(blocks) => {
                let mut order: u128 = 1;
                for block in blocks {
                    for m in 2..=block.len() as u128 {
                        order = order.saturating_mul(m);
                    }
                }
                order
            }
        }
    }

    /// Validates the declaration's shape against a `k`-state space: block
    /// indices must be in range and pairwise disjoint. Returns a description
    /// of the first problem found.
    pub fn validate_shape(&self, k: usize) -> Result<(), String> {
        if let StateSymmetry::SymmetricBlocks(blocks) = self {
            let mut seen = vec![false; k];
            for block in blocks {
                for &i in block {
                    if i >= k {
                        return Err(format!(
                            "symmetry block index {i} is out of range for {k} states"
                        ));
                    }
                    if seen[i] {
                        return Err(format!("state index {i} appears in two symmetry blocks"));
                    }
                    seen[i] = true;
                }
            }
        }
        Ok(())
    }

    /// Generating permutations of the group, each as a full image table
    /// (`perm[i]` is the image of state `i`). The identity generates nothing.
    pub fn generators(&self, k: usize) -> Vec<Vec<usize>> {
        match self {
            StateSymmetry::Identity => Vec::new(),
            StateSymmetry::CyclicRotation => {
                vec![(0..k).map(|i| (i + 1) % k.max(1)).collect()]
            }
            StateSymmetry::SymmetricBlocks(blocks) => {
                let mut gens = Vec::new();
                for block in blocks {
                    for w in block.windows(2) {
                        let mut perm: Vec<usize> = (0..k).collect();
                        perm.swap(w[0], w[1]);
                        gens.push(perm);
                    }
                }
                gens
            }
        }
    }

    /// Rewrites `counts` in place to the canonical (lexicographically
    /// smallest) representative of its orbit.
    pub fn canonicalize(&self, counts: &mut [u32]) {
        match self {
            StateSymmetry::Identity => {}
            StateSymmetry::CyclicRotation => {
                let best = min_rotation(counts);
                if best != 0 {
                    counts.rotate_left(best);
                }
            }
            StateSymmetry::SymmetricBlocks(blocks) => {
                let mut scratch: Vec<u32> = Vec::new();
                for block in blocks {
                    if block.len() < 2 {
                        continue;
                    }
                    scratch.clear();
                    scratch.extend(block.iter().map(|&i| counts[i]));
                    scratch.sort_unstable();
                    for (&i, &c) in block.iter().zip(scratch.iter()) {
                        counts[i] = c;
                    }
                }
            }
        }
    }

    /// Whether `counts` already is its orbit's canonical representative.
    pub fn is_canonical(&self, counts: &[u32]) -> bool {
        match self {
            StateSymmetry::Identity => true,
            StateSymmetry::CyclicRotation => min_rotation(counts) == 0,
            StateSymmetry::SymmetricBlocks(blocks) => {
                blocks.iter().all(|block| block.windows(2).all(|w| counts[w[0]] <= counts[w[1]]))
            }
        }
    }
}

/// Index of the lexicographically smallest rotation of `v` (Booth-style
/// naive scan — `k` is small, so the O(k²) comparison is fine).
fn min_rotation(v: &[u32]) -> usize {
    let k = v.len();
    let mut best = 0;
    for s in 1..k {
        for i in 0..k {
            let a = v[(best + i) % k];
            let b = v[(s + i) % k];
            match b.cmp(&a) {
                std::cmp::Ordering::Less => {
                    best = s;
                    break;
                }
                std::cmp::Ordering::Greater => break,
                std::cmp::Ordering::Equal => {}
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_a_noop() {
        let sym = StateSymmetry::Identity;
        assert!(sym.is_identity());
        assert_eq!(sym.order(7), 1);
        assert!(sym.generators(7).is_empty());
        let mut counts = [3, 1, 2];
        sym.canonicalize(&mut counts);
        assert_eq!(counts, [3, 1, 2]);
        assert!(sym.is_canonical(&counts));
    }

    #[test]
    fn cyclic_rotation_picks_the_smallest_rotation() {
        let sym = StateSymmetry::CyclicRotation;
        assert!(!sym.is_identity());
        assert_eq!(sym.order(5), 5);
        let mut counts = [2, 0, 1, 0];
        sym.canonicalize(&mut counts);
        assert_eq!(counts, [0, 1, 0, 2]);
        assert!(sym.is_canonical(&counts));
        assert!(!sym.is_canonical(&[2, 0, 1, 0]));
        // All rotations canonicalize to the same representative.
        for s in 0..4 {
            let mut rotated = [2u32, 0, 1, 0];
            rotated.rotate_left(s);
            sym.canonicalize(&mut rotated);
            assert_eq!(rotated, [0, 1, 0, 2]);
        }
    }

    #[test]
    fn cyclic_generator_is_rotation_by_one() {
        let gens = StateSymmetry::CyclicRotation.generators(4);
        assert_eq!(gens, vec![vec![1, 2, 3, 0]]);
    }

    #[test]
    fn symmetric_blocks_sort_each_block() {
        let sym = StateSymmetry::SymmetricBlocks(vec![vec![1, 2], vec![4, 5]]);
        assert!(!sym.is_identity());
        assert_eq!(sym.order(6), 4);
        let mut counts = [9, 5, 3, 7, 2, 8];
        sym.canonicalize(&mut counts);
        assert_eq!(counts, [9, 3, 5, 7, 2, 8]);
        assert!(sym.is_canonical(&counts));
        // Two generators: one adjacent transposition per block.
        let gens = sym.generators(6);
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0], vec![0, 2, 1, 3, 4, 5]);
        assert_eq!(gens[1], vec![0, 1, 2, 3, 5, 4]);
    }

    #[test]
    fn small_blocks_are_trivial() {
        let sym = StateSymmetry::SymmetricBlocks(vec![vec![0], vec![]]);
        assert!(sym.is_identity());
        assert_eq!(sym.order(3), 1);
        assert!(sym.generators(3).is_empty());
    }

    #[test]
    fn shape_validation_rejects_bad_blocks() {
        let out_of_range = StateSymmetry::SymmetricBlocks(vec![vec![0, 9]]);
        assert!(out_of_range.validate_shape(3).is_err());
        let overlapping = StateSymmetry::SymmetricBlocks(vec![vec![0, 1], vec![1, 2]]);
        assert!(overlapping.validate_shape(3).is_err());
        let fine = StateSymmetry::SymmetricBlocks(vec![vec![0, 1], vec![2]]);
        assert!(fine.validate_shape(3).is_ok());
    }

    #[test]
    fn canonical_representative_is_orbit_minimum_under_blocks() {
        let sym = StateSymmetry::SymmetricBlocks(vec![vec![0, 1, 2]]);
        assert_eq!(sym.order(3), 6);
        let mut counts = [4, 1, 3];
        sym.canonicalize(&mut counts);
        assert_eq!(counts, [1, 3, 4]);
    }
}
