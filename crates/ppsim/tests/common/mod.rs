//! The max-spreading protocol shared by the ppsim integration tests.

use ppsim::prelude::*;
use rand::RngCore;

/// Spreads the largest state value: non-null on unequal pairs, silent
/// exactly when every agent agrees. Corrupting states materially changes the
/// active-pair structure, a good stress for the incremental row repair.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub n: usize,
}

impl Protocol for Spread {
    type State = u8;
    fn population_size(&self) -> usize {
        self.n
    }
    fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
        let m = (*a).max(*b);
        (m, m)
    }
    fn is_null(&self, a: &u8, b: &u8) -> bool {
        a == b
    }
    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG: batch-count applies m-fold bundles
    }
}

impl EnumerableProtocol for Spread {
    fn num_states(&self) -> usize {
        5
    }
    fn state_index(&self, s: &u8) -> usize {
        *s as usize
    }
    fn state_from_index(&self, i: usize) -> u8 {
        i as u8
    }
    fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
        Some((0..5).filter(|&j| j != i).collect())
    }
}
