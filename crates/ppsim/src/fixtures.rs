//! The unit tests' shared protocol: fratricide on two dense states.

use rand::RngCore;

use crate::batched::EnumerableProtocol;
use crate::config::Configuration;
use crate::mcheck::CorrectnessOracle;
use crate::protocol::Protocol;

/// (L, L) -> (L, F) with dense indices {L: 0, F: 1}. Only leaders interact
/// non-null, and only with each other, which the declared partners say; a
/// configuration is correct once at most one leader is left.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frat {
    pub(crate) n: usize,
}

impl Protocol for Frat {
    type State = u8;
    fn population_size(&self) -> usize {
        self.n
    }
    fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
        if *a == 0 && *b == 0 {
            (0, 1)
        } else {
            (*a, *b)
        }
    }
    fn is_null(&self, a: &u8, b: &u8) -> bool {
        !(*a == 0 && *b == 0)
    }
}

impl EnumerableProtocol for Frat {
    fn num_states(&self) -> usize {
        2
    }
    fn state_index(&self, s: &u8) -> usize {
        *s as usize
    }
    fn state_from_index(&self, i: usize) -> u8 {
        i as u8
    }
    fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
        Some(if i == 0 { vec![0] } else { vec![] })
    }
}

impl CorrectnessOracle for Frat {
    fn is_correct(&self, config: &Configuration<u8>) -> bool {
        leaders(config) <= 1
    }
}

/// The number of leaders (state 0) in `config`.
pub(crate) fn leaders(config: &Configuration<u8>) -> usize {
    config.count_matching(|&s| s == 0)
}
