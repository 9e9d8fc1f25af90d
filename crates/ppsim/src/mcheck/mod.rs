//! Exact configuration-space model checking: *prove* (not sample) the
//! paper's self-stabilization claims at small `n`, and solve for **exact**
//! expected silence times.
//!
//! The simulation engines establish the repo's claims statistically; this
//! module establishes them **exhaustively**. For an [`EnumerableProtocol`]
//! with `|S|` states and population size `n`, the configuration space is the
//! finite multiset lattice of count vectors summing to `n` — exactly
//! `C(n + |S| − 1, |S| − 1)` configurations — and the uniformly random
//! scheduler induces a Markov chain on it whose transition probabilities are
//! small rationals: the ordered state pair `(i, j)` fires with probability
//! `c_i · (c_j − [i = j]) / (n(n−1))`. On this chain the paper's universally
//! quantified theorems are *decidable*:
//!
//! * **Self-stabilization** ([`check_convergence`] on
//!   [`ConvergenceSource::Lattice`]): walk the full lattice, classify every
//!   configuration as silent (no non-null ordered pair) and/or correct
//!   (per-protocol [`CorrectnessOracle`]), and run a backward reachability
//!   pass from the correct silent configurations over the exact predecessor
//!   relation. Silent configurations are absorbing by construction, so if
//!   **every** configuration can reach a correct silent one and **silent ⟺
//!   correct**, the chain is absorbed into a correct configuration with
//!   probability 1 from every initial configuration — which is precisely the
//!   self-stabilization property, machine-checked over *all*
//!   `C(n + |S| − 1, |S| − 1)` configurations instead of a few hundred
//!   sampled trajectories. With [`MCheckOptions::use_symmetry`] the same
//!   pass runs on the quotient by the protocol's validated
//!   [`StateSymmetry`]: only canonical orbit representatives are classified
//!   and every predecessor is canonicalized before it is indexed, so the
//!   unquotiented check is exactly the identity-group case.
//! * **Seeded convergence** ([`check_convergence`] on
//!   [`ConvergenceSource::Closure`]): the same verdict restricted to the
//!   reachable closure of some seed configurations — the fallback past the
//!   lattice guards, proving every configuration *reachable from the seeds*
//!   convergent rather than every configuration outright.
//! * **Exact expected silence times** ([`expected_silence_time_exact`]):
//!   explore the reachable closure of an initial configuration (a sparse,
//!   hash-indexed subset of the lattice — usually far smaller) and solve the
//!   absorbing-chain linear system `E[c] = n(n−1)/A(c) + Σ_m (w_m/A(c))·
//!   E[succ_m(c)]` by Gauss–Seidel iteration in silence-distance order. The
//!   `n(n−1)/A(c)` term marginalizes the geometrically distributed null runs
//!   exactly, the same identity the batched engine samples from. The result
//!   cross-validates both the simulators and the closed forms of
//!   `analysis::theory` — e.g. the `(n−1)·C(n,2)` worst-case bound of
//!   Theorem 2.4 is reproduced to machine precision.
//! * **Fault closure** ([`check_fault_plan_closure`]): the exhaustive
//!   version of the fault-injection recovery claim — after an arbitrary
//!   `k`-agent corruption of **any** reachable configuration, the perturbed
//!   configuration still lies in the verified-convergent set.
//!
//! Construction also cross-checks the protocol's own contracts, which makes
//! the checker the first component able to *falsify* a protocol or engine
//! bug deterministically: an unsound [`Protocol::is_null`] claim is checked
//! **exhaustively** over all `|S|²` ordered pairs and rejected
//! ([`MCheckError::UnsoundNull`]), a transition observed to consult its RNG
//! is rejected ([`MCheckError::RandomizedTransition`] — a finite probe over
//! four RNG streams, so a sufficiently contrived randomized transition
//! could evade it; the synthetic-coin construction of Section 6 is the
//! principled derandomization for protocols that genuinely need
//! randomness), and failed verifications come with counterexample
//! configurations and [`Trace`]s ([`ConvergenceReport::counterexample_trace`]).
//!
//! Dense vs sparse indexing: the lattice source uses **dense indexing** (the
//! combinatorial number system over the multiset lattice, one bit per
//! configuration) guarded by [`MCheckOptions::max_configurations`] and
//! [`MCheckOptions::max_resident_bytes`]; reachable-set workloads (expected
//! times, the closure source for state spaces whose full lattice exceeds the
//! guards) use the **sparse hash-indexed** exploration of
//! [`explore_reachable`]. `ARCHITECTURE.md` draws the decision tree between
//! exhaustive verification and the simulation engines.
//!
//! # Example
//!
//! ```
//! use ppsim::mcheck::{
//!     check_convergence, expected_silence_time_exact, ConvergenceSource, MCheckOptions,
//! };
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// (L, L) -> (L, F): converges to at most one leader from anywhere.
//! #[derive(Clone, Copy)]
//! struct Frat {
//!     n: usize,
//! }
//! impl Protocol for Frat {
//!     type State = u8;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
//!         if *a == 0 && *b == 0 {
//!             (0, 1)
//!         } else {
//!             (*a, *b)
//!         }
//!     }
//!     fn is_null(&self, a: &u8, b: &u8) -> bool {
//!         !(*a == 0 && *b == 0)
//!     }
//! }
//! impl EnumerableProtocol for Frat {
//!     fn num_states(&self) -> usize {
//!         2
//!     }
//!     fn state_index(&self, s: &u8) -> usize {
//!         *s as usize
//!     }
//!     fn state_from_index(&self, i: usize) -> u8 {
//!         i as u8
//!     }
//! }
//! impl CorrectnessOracle for Frat {
//!     fn is_correct(&self, config: &Configuration<u8>) -> bool {
//!         config.iter().filter(|&&s| s == 0).count() <= 1
//!     }
//! }
//!
//! // Prove convergence over all C(5 + 1, 1) = 6 configurations…
//! let report =
//!     check_convergence(Frat { n: 5 }, ConvergenceSource::Lattice, &MCheckOptions::default())
//!         .unwrap();
//! assert!(report.verified());
//! // …and solve the absorbing chain exactly: E = (n − 1)² interactions from
//! // all leaders (the closed form of Lemma 4.2's proof).
//! let all_leaders = Configuration::uniform(0u8, 5);
//! let exact =
//!     expected_silence_time_exact(Frat { n: 5 }, &all_leaders, &MCheckOptions::default()).unwrap();
//! assert!((exact.expected_interactions - 16.0).abs() < 1e-9);
//! ```

mod store;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::batched::EnumerableProtocol;
use crate::config::Configuration;
use crate::faults::{CorruptionTarget, FaultPlan};
use crate::protocol::Protocol;
use crate::scheduler::{IndexRates, InteractionScheduler};
use crate::symmetry::StateSymmetry;
use crate::telemetry::{Counter, CounterBlock, TelemetrySink};
use crate::time::Interactions;
use crate::trace::Trace;

use store::{hash_counts, ConfigStore, EdgeStore, HashIndex};

/// The per-protocol definition of a **correct** configuration — the target
/// predicate the exhaustive verification proves every configuration reaches.
///
/// For the paper's ranking protocols this is "every rank held exactly once";
/// for the foundational processes it is the process's own completion
/// predicate (consensus for the epidemic, full participation for the coupon
/// collector, at most one leader for fratricide — the latter deliberately
/// *not* "exactly one": fratricide cannot create leaders, which is the
/// non-self-stabilization observation the checker demonstrates when handed a
/// stricter oracle; see Observation 2.6 and this module's tests).
pub trait CorrectnessOracle: Protocol {
    /// Whether the configuration is correct for this protocol's problem.
    fn is_correct(&self, config: &Configuration<Self::State>) -> bool;
}

/// Tuning knobs and capacity guards for the model checker.
#[derive(Clone, PartialEq, Debug)]
pub struct MCheckOptions {
    /// Lattice time guard: [`check_convergence`] on
    /// [`ConvergenceSource::Lattice`] refuses lattices of more than this many
    /// configurations, times the symmetry group's order when
    /// [`MCheckOptions::use_symmetry`] quotients (only orbit representatives
    /// are classified, but the odometer still walks every configuration).
    /// Past it, use [`ConvergenceSource::Closure`].
    pub max_configurations: u64,
    /// Sparse-exploration capacity guard: reachable-closure workloads refuse
    /// to grow beyond this many configurations (orbit representatives when
    /// the symmetry quotient is active).
    pub max_reachable: usize,
    /// Relative convergence tolerance of the Gauss–Seidel solve.
    pub tolerance: f64,
    /// Sweep budget of the Gauss–Seidel solve.
    pub max_sweeps: usize,
    /// Whether to quotient the configuration space by the protocol's
    /// declared [`StateSymmetry`] (validated, never trusted): the lattice
    /// source then classifies only canonical orbit representatives, and
    /// reachable closures store only representatives. Only the uniform
    /// scheduler is quotiented — pair rates can break a state symmetry, so
    /// weighted explorations always run unquotiented.
    pub use_symmetry: bool,
    /// Resident-memory bound in bytes. The lattice source refuses
    /// ([`MCheckError::SpaceTooLarge`]) a lattice whose one-bit-per-
    /// configuration convergent set would exceed it; reachable-closure
    /// workloads spill their successor-edge store to a self-deleting temp
    /// file past it, and the distance/solve passes stream from disk.
    pub max_resident_bytes: usize,
    /// Directory for spill files; `None` uses [`std::env::temp_dir`].
    pub spill_dir: Option<PathBuf>,
}

impl Default for MCheckOptions {
    fn default() -> Self {
        MCheckOptions {
            max_configurations: 32_000_000,
            max_reachable: 4_000_000,
            tolerance: 1e-12,
            max_sweeps: 20_000,
            use_symmetry: true,
            max_resident_bytes: 2 << 30,
            spill_dir: None,
        }
    }
}

/// Why the model checker could not produce a verdict.
#[derive(Clone, PartialEq, Debug)]
pub enum MCheckError {
    /// The full lattice exceeds the lattice guard: the time guard
    /// [`MCheckOptions::max_configurations`] (times the group order on the
    /// quotient) or the memory guard of one bit per configuration within
    /// [`MCheckOptions::max_resident_bytes`], whichever is smaller.
    SpaceTooLarge {
        /// Exact lattice size `C(n + |S| − 1, |S| − 1)`.
        configurations: u128,
        /// The guard that tripped, in configurations.
        limit: u64,
    },
    /// The reachable closure exceeds [`MCheckOptions::max_reachable`].
    ReachableTooLarge {
        /// The configured guard.
        limit: usize,
    },
    /// The transition on a state pair was observed to depend on its RNG
    /// (differently seeded probe evaluations disagreed); the checker
    /// requires a deterministic transition relation. The probe is finite —
    /// four RNG streams per pair — so it catches any ordinary use of the
    /// generator but is not a proof of determinism; the paper's Section 6
    /// synthetic-coin construction is the standard derandomization.
    RandomizedTransition {
        /// Initiator state index.
        i: usize,
        /// Responder state index.
        j: usize,
    },
    /// [`Protocol::is_null`] claims a pair is null but the transition
    /// changes it — an unsoundness that would also corrupt every engine's
    /// silence detection. This is the checker catching a protocol bug.
    UnsoundNull {
        /// Initiator state index.
        i: usize,
        /// Responder state index.
        j: usize,
    },
    /// A state reachable from the requested initial configuration cannot
    /// reach silence, so the expected silence time is infinite.
    NonConvergent,
    /// The Gauss–Seidel solve did not meet the tolerance within the sweep
    /// budget.
    NotConverged {
        /// Residual (maximum relative update) after the final sweep.
        residual: f64,
    },
    /// The requested scheduler distinguishes individual agents (e.g. a
    /// graph-restricted topology), but the model checker works on count
    /// vectors, which erase agent identities. Use the exact per-agent
    /// engine for such schedulers.
    SchedulerNeedsIdentities {
        /// The scheduler's display label.
        scheduler: String,
    },
    /// Every pair rate of the weighted scheduler is zero: the interaction
    /// measure is empty and no pair can ever be scheduled.
    ZeroRateScheduler,
    /// The protocol's declared [`StateSymmetry`] is not an automorphism
    /// group of its transition structure (or its correctness oracle): some
    /// generator fails to commute with the transition function, the null
    /// predicate, or the oracle, or the declaration itself is malformed.
    /// Quotienting under such a group would prove statements about the wrong
    /// chain, so the checker refuses.
    UnsoundSymmetry {
        /// What failed, with the offending generator and state pair.
        detail: String,
    },
    /// An I/O error in the spill store backing an over-budget
    /// reachable-closure workload (temp-file creation, write, or read).
    SpillIo {
        /// The underlying I/O error.
        detail: String,
    },
}

impl MCheckError {
    fn from_spill(e: std::io::Error) -> Self {
        MCheckError::SpillIo { detail: e.to_string() }
    }
}

impl fmt::Display for MCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MCheckError::SpaceTooLarge { configurations, limit } => write!(
                f,
                "configuration lattice holds {configurations} configurations, over the guard of \
                 {limit}; use the sparse reachable-set entry points"
            ),
            MCheckError::ReachableTooLarge { limit } => {
                write!(f, "reachable closure exceeds the guard of {limit} configurations")
            }
            MCheckError::RandomizedTransition { i, j } => write!(
                f,
                "transition on state pair ({i}, {j}) is randomized; the model checker needs a \
                 deterministic transition relation (cf. the synthetic-coin construction)"
            ),
            MCheckError::UnsoundNull { i, j } => write!(
                f,
                "is_null claims state pair ({i}, {j}) is null but the transition changes it; \
                 silence detection is unsound for this protocol"
            ),
            MCheckError::NonConvergent => {
                write!(
                    f,
                    "a reachable configuration cannot reach silence; expected time is infinite"
                )
            }
            MCheckError::NotConverged { residual } => {
                write!(f, "linear solve stalled at residual {residual:e}")
            }
            MCheckError::SchedulerNeedsIdentities { scheduler } => write!(
                f,
                "the {scheduler} scheduler distinguishes individual agents, but the model checker \
                 works on count vectors; use the exact per-agent engine"
            ),
            MCheckError::ZeroRateScheduler => {
                write!(f, "every pair rate is zero; the scheduler can never select a pair")
            }
            MCheckError::UnsoundSymmetry { detail } => {
                write!(f, "declared state symmetry is not an automorphism group: {detail}")
            }
            MCheckError::SpillIo { detail } => {
                write!(f, "spill store I/O failed: {detail}")
            }
        }
    }
}

impl std::error::Error for MCheckError {}

/// The exact lattice size `C(n + k − 1, k − 1)` of multisets of size `n`
/// over `k` states, or `None` on overflow of `u128`.
pub fn lattice_size(n: usize, num_states: usize) -> Option<u128> {
    binomial_u128(n as u128 + num_states as u128 - 1, num_states as u128 - 1)
}

fn binomial_u128(n: u128, k: u128) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i)?;
        acc /= i + 1;
    }
    Some(acc)
}

/// Dense canonical indexing of the multiset lattice: count vectors of length
/// `k` summing to `n`, ranked lexicographically (ascending in `c_0`, then
/// `c_1`, …) via the combinatorial number system. Encode and decode are
/// `O(n + k)`.
struct Lattice {
    n: usize,
    k: usize,
    /// `combos[s][m]` = number of count vectors of length `m` summing to `s`
    /// = `C(s + m − 1, m − 1)`, for `s ≤ n`, `m ≤ k`.
    combos: Vec<Vec<u64>>,
    size: u64,
}

impl Lattice {
    fn new(n: usize, k: usize, limit: u64) -> Result<Self, MCheckError> {
        let size = lattice_size(n, k).unwrap_or(u128::MAX);
        if size > limit as u128 {
            return Err(MCheckError::SpaceTooLarge { configurations: size, limit });
        }
        let mut combos = vec![vec![0u64; k + 1]; n + 1];
        combos[0].fill(1); // the empty sum
        for s in 1..=n {
            for m in 1..=k {
                // Stars and bars: the first coordinate is 0 (sum s over the
                // other m − 1) or ≥ 1 (sum s − 1 over all m).
                combos[s][m] = combos[s - 1][m].saturating_add(combos[s][m - 1]);
            }
        }
        Ok(Lattice { n, k, combos, size: size as u64 })
    }

    /// Rank of a count vector in the lexicographic enumeration.
    fn index_of(&self, counts: &[u32]) -> u64 {
        debug_assert_eq!(counts.len(), self.k);
        let mut idx = 0u64;
        let mut rem = self.n;
        for (i, &c) in counts.iter().enumerate().take(self.k - 1) {
            for v in 0..c as usize {
                idx += self.combos[rem - v][self.k - 1 - i];
            }
            rem -= c as usize;
        }
        idx
    }

    /// Inverse of [`Lattice::index_of`], writing into `out`.
    fn counts_of(&self, mut idx: u64, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.k);
        let mut rem = self.n;
        let k = self.k;
        for (i, slot) in out.iter_mut().enumerate().take(k - 1) {
            let mut v = 0usize;
            loop {
                let block = self.combos[rem - v][k - 1 - i];
                if idx < block {
                    break;
                }
                idx -= block;
                v += 1;
            }
            *slot = v as u32;
            rem -= v;
        }
        out[k - 1] = rem as u32;
    }

    /// First count vector in rank order: `(0, …, 0, n)`.
    fn first(&self, out: &mut [u32]) {
        out.fill(0);
        out[self.k - 1] = self.n as u32;
    }

    /// Advances `counts` to its rank-order successor; returns `false` past
    /// the last vector `(n, 0, …, 0)`. Amortized O(1) over a full sweep, so
    /// enumerating the lattice costs no per-configuration decode.
    fn advance(&self, counts: &mut [u32]) -> bool {
        // Find the largest p ≤ k − 2 with a positive suffix sum after it,
        // increment c_p and push the rest of that suffix to the tail.
        let mut suffix = counts[self.k - 1];
        for p in (0..self.k - 1).rev() {
            if suffix > 0 {
                counts[p] += 1;
                for c in counts[p + 1..].iter_mut() {
                    *c = 0;
                }
                counts[self.k - 1] = suffix - 1;
                return true;
            }
            suffix += counts[p];
        }
        false
    }
}

/// A fixed-size bitset over dense configuration indices.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(len: u64) -> Self {
        BitSet { words: vec![0u64; (len as usize).div_ceil(64)] }
    }

    fn set(&mut self, i: u64) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    fn get(&self, i: u64) -> bool {
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// The exact transition structure of an [`EnumerableProtocol`] over its
/// enumerated state space: the deterministic move of every non-null ordered
/// state pair and the reverse move index used by the backward reachability
/// pass. Shared by every entry point of this module.
pub struct ModelChecker<P: EnumerableProtocol> {
    protocol: P,
    n: usize,
    k: usize,
    decoded: Vec<P::State>,
    /// `moves[i * k + j]`: the state pair the ordered pair `(i, j)` moves
    /// to, `None` when the pair is null.
    moves: Vec<Option<(u32, u32)>>,
    /// Source pairs grouped by their target pair, for predecessor walks.
    moves_by_target: HashMap<(u32, u32), Vec<(u32, u32)>>,
    /// The protocol's declared state symmetry, validated against the
    /// transition structure in [`ModelChecker::new`].
    symmetry: StateSymmetry,
}

impl<P: EnumerableProtocol> ModelChecker<P> {
    /// Builds the transition structure, validating [`Protocol::is_null`]
    /// soundness exhaustively (every ordered pair) and probing every pair's
    /// transition for RNG dependence.
    ///
    /// # Errors
    ///
    /// [`MCheckError::RandomizedTransition`] if differently seeded probe
    /// evaluations of a pair transition disagree (see the variant docs for
    /// the probe's limits); [`MCheckError::UnsoundNull`] if a pair claimed
    /// null is changed by its transition;
    /// [`MCheckError::UnsoundSymmetry`] if the protocol's declared
    /// [`StateSymmetry`] is malformed or some generator fails to commute
    /// with the transition function or the null predicate over any state
    /// pair (checked exhaustively — `k²` pairs per generator).
    pub fn new(protocol: P) -> Result<Self, MCheckError> {
        let n = protocol.population_size();
        let k = protocol.num_states();
        let decoded: Vec<P::State> = (0..k).map(|i| protocol.state_from_index(i)).collect();
        let mut moves = vec![None; k * k];
        let mut moves_by_target: HashMap<(u32, u32), Vec<(u32, u32)>> = HashMap::new();
        for i in 0..k {
            for j in 0..k {
                let (a, b) = (&decoded[i], &decoded[j]);
                // Determinism probe: a deterministic transition ignores the
                // RNG, so its output is identical under any stream; probing
                // with all-zero and all-one bit streams plus two ChaCha
                // streams catches any dependence on the usual draw shapes
                // (bits, bounded ints, floats).
                let out1 = {
                    let mut rng = rand::rngs::mock::StepRng::new(0, 0);
                    protocol.transition(a, b, &mut rng)
                };
                let mut disagrees = {
                    let mut rng = rand::rngs::mock::StepRng::new(u64::MAX, 0);
                    protocol.transition(a, b, &mut rng) != out1
                };
                for seed in [7u64, 99] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    disagrees |= protocol.transition(a, b, &mut rng) != out1;
                }
                if disagrees {
                    return Err(MCheckError::RandomizedTransition { i, j });
                }
                if protocol.is_null(a, b) {
                    if out1 != (a.clone(), b.clone()) {
                        return Err(MCheckError::UnsoundNull { i, j });
                    }
                } else {
                    let i2 = protocol.state_index(&out1.0) as u32;
                    let j2 = protocol.state_index(&out1.1) as u32;
                    moves[i * k + j] = Some((i2, j2));
                    moves_by_target.entry((i2, j2)).or_default().push((i as u32, j as u32));
                }
            }
        }
        let symmetry = protocol.state_symmetry();
        symmetry.validate_shape(k).map_err(|detail| MCheckError::UnsoundSymmetry { detail })?;
        // One comparison per pair covers both equivariances: σ·δ(i, j) =
        // δ(σ·i, σ·j), where a null pair's move and its image are `None`.
        for (g, perm) in symmetry.generators(k).iter().enumerate() {
            for i in 0..k {
                for j in 0..k {
                    let image = moves[i * k + j]
                        .map(|(i2, j2)| (perm[i2 as usize] as u32, perm[j2 as usize] as u32));
                    if moves[perm[i] * k + perm[j]] != image {
                        return Err(MCheckError::UnsoundSymmetry {
                            detail: format!(
                                "generator {g} does not commute with the transition or the null \
                                 predicate on state pair ({i}, {j}): σ·δ(i, j) ≠ δ(σ·i, σ·j)"
                            ),
                        });
                    }
                }
            }
        }
        Ok(ModelChecker { protocol, n, k, decoded, moves, moves_by_target, symmetry })
    }

    /// The count vector of a per-agent configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size differs from the population size.
    fn counts_of_configuration(&self, config: &Configuration<P::State>) -> Vec<u32> {
        assert_eq!(config.len(), self.n, "configuration size must match the population");
        let mut counts = vec![0u32; self.k];
        for s in config.iter() {
            counts[self.protocol.state_index(s)] += 1;
        }
        counts
    }

    /// Materializes the canonical per-agent configuration of a count vector.
    fn configuration_of_counts(&self, counts: &[u32]) -> Configuration<P::State> {
        let mut states = Vec::with_capacity(self.n);
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                states.push(self.decoded[i].clone());
            }
        }
        Configuration::from_states(states)
    }

    /// Whether a count vector is silent: no ordered pair of two agents is
    /// non-null.
    fn is_silent(&self, counts: &[u32]) -> bool {
        let present = present_states(counts);
        present.iter().all(|&i| {
            present.iter().all(|&j| {
                self.moves[i as usize * self.k + j as usize].is_none()
                    || (i == j && counts[i as usize] < 2)
            })
        })
    }

    /// The oracle's verdict on `counts`, checked to be the same on its image
    /// under every generator in `gens` — the orbit-invariance a sound
    /// quotient proof needs (transition equivariance is already validated in
    /// [`ModelChecker::new`]; the oracle can only be probed on the
    /// configurations the caller actually classifies). With no generators
    /// this is one oracle call. `image` is `k`-length scratch.
    fn is_correct_invariantly(
        &self,
        counts: &[u32],
        gens: &[Vec<usize>],
        image: &mut [u32],
    ) -> Result<bool, MCheckError>
    where
        P: CorrectnessOracle,
    {
        let verdict = self.protocol.is_correct(&self.configuration_of_counts(counts));
        for (g, perm) in gens.iter().enumerate() {
            for (i, &c) in counts.iter().enumerate() {
                image[perm[i]] = c;
            }
            if self.protocol.is_correct(&self.configuration_of_counts(image)) != verdict {
                return Err(MCheckError::UnsoundSymmetry {
                    detail: format!(
                        "correctness oracle is not orbit-invariant under generator {g}"
                    ),
                });
            }
        }
        Ok(verdict)
    }

    /// Calls `f(i, j, weight, successor_counts)` for every distinct successor
    /// of `counts` under one non-null interaction of the ordered state pair
    /// `(i, j)`, with `weight` the number of ordered agent pairs mapping to
    /// it (weights sum to the active-pair count). `scratch` must have length
    /// `k`.
    fn for_each_successor(
        &self,
        counts: &[u32],
        scratch: &mut [u32],
        mut f: impl FnMut(u32, u32, u64, &[u32]),
    ) {
        let present = present_states(counts);
        for &i in &present {
            let ci = counts[i as usize] as u64;
            for &j in &present {
                let w = ci * (counts[j as usize] as u64 - u64::from(i == j));
                if w == 0 {
                    continue;
                }
                if let Some((i2, j2)) = self.moves[i as usize * self.k + j as usize] {
                    scratch.copy_from_slice(counts);
                    scratch[i as usize] -= 1;
                    scratch[j as usize] -= 1;
                    scratch[i2 as usize] += 1;
                    scratch[j2 as usize] += 1;
                    f(i, j, w, scratch);
                }
            }
        }
    }
}

fn present_states(counts: &[u32]) -> Vec<u32> {
    counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, _)| i as u32).collect()
}

/// What [`check_convergence`] proves convergence over.
#[derive(Clone, Copy, Debug)]
pub enum ConvergenceSource<'a, S> {
    /// Every configuration of the full lattice — the self-stabilization
    /// theorem itself ("from any initial configuration").
    Lattice,
    /// Every configuration reachable from these seeds — the fallback past
    /// the lattice guards.
    Closure(&'a [Configuration<S>]),
}

/// The verdict of [`check_convergence`], with enough structure retained to
/// build counterexample traces.
///
/// On the lattice source the verdict is about **every** configuration; on
/// the symmetry quotient it is computed on orbit representatives, but
/// because the quotient chain is an exact lumping of the full chain (the
/// group is validated to commute with the transition structure, and the
/// oracle is probed for orbit-invariance on every classified state), the
/// statement is the same — only the working set shrinks. The per-state
/// counts (`states`, `silent`, …) count what was classified: lattice
/// configurations, orbit representatives, or closure states.
pub struct ConvergenceReport<P: EnumerableProtocol> {
    checker: ModelChecker<P>,
    /// The symmetry the states were canonicalized by (the identity when
    /// unquotiented).
    symmetry: StateSymmetry,
    /// On the lattice source, the lattice and its convergent set: one bit
    /// per rank, of which only canonical ranks are ever set.
    lattice: Option<(Lattice, BitSet)>,
    /// Configurations the verdict covers: the full lattice size
    /// `C(n + k − 1, k − 1)` on the lattice source; on a closure, the
    /// closure's size (in orbit representatives when `group_order > 1`).
    pub configurations: u128,
    /// States classified: lattice configurations, orbit representatives, or
    /// closure states.
    pub states: u64,
    /// Order of the symmetry group the states were quotiented by (1 when
    /// unquotiented).
    pub group_order: u128,
    /// Silent states (silence is orbit-invariant by null-equivariance).
    pub silent: u64,
    /// Correct states (per the protocol's [`CorrectnessOracle`]).
    pub correct: u64,
    /// Silent states that are **not** correct (0 when verified).
    pub silent_incorrect: u64,
    /// Correct states that are **not** silent (0 when verified).
    pub correct_nonsilent: u64,
    /// States that cannot reach a correct silent state (0 when verified).
    pub non_convergent: u64,
    /// A silent-but-incorrect witness, if any.
    pub silent_incorrect_witness: Option<Configuration<P::State>>,
    /// A correct-but-non-silent witness, if any.
    pub correct_nonsilent_witness: Option<Configuration<P::State>>,
    /// A non-convergent witness, if any.
    pub non_convergent_witness: Option<Configuration<P::State>>,
    /// The checker's slice of the unified counter registry: states expanded
    /// (frontier pops of the backward pass on the lattice, of the closure
    /// exploration otherwise) and successor-store spill bytes.
    pub counters: CounterBlock,
}

impl<P: EnumerableProtocol> ConvergenceReport<P> {
    /// Whether convergence is proved: silent ⟺ correct, and every state
    /// reaches a correct silent state (hence, silent configurations being
    /// absorbing, is absorbed into one with probability 1).
    pub fn verified(&self) -> bool {
        self.silent_incorrect == 0 && self.correct_nonsilent == 0 && self.non_convergent == 0
    }

    /// Whether the lattice proof marks the orbit of `counts` convergent
    /// (`counts` is canonicalized in place).
    fn lattice_convergent(&self, counts: &mut [u32]) -> bool {
        let (lattice, convergent) =
            self.lattice.as_ref().expect("membership queries need the lattice source");
        self.symmetry.canonicalize(counts);
        convergent.get(lattice.index_of(counts))
    }

    /// A counterexample [`Trace`] for a failed verification: a path of
    /// concrete configurations, one non-null interaction apart, ending in
    /// the witness's orbit (the non-convergent witness first, then the
    /// silent-incorrect, then the correct-non-silent one), from the farthest
    /// lattice configuration that reaches the witness along a shortest path.
    /// For an isolated witness, and on a closure report (which keeps no
    /// predecessor structure), the trace is the witness alone. `None` when
    /// the verification succeeded.
    pub fn counterexample_trace(&self) -> Option<Trace<P::State>> {
        let witness = self
            .non_convergent_witness
            .as_ref()
            .or(self.silent_incorrect_witness.as_ref())
            .or(self.correct_nonsilent_witness.as_ref())?;
        let target = self.checker.counts_of_configuration(witness);
        let path = match &self.lattice {
            Some((lattice, _)) => self.lattice_path_into(lattice, &target),
            None => vec![target],
        };
        // Lift the representative path forward: equivariance guarantees
        // that every concrete member of a representative's orbit has a
        // successor in the next representative's orbit.
        let mut concrete = path[0].clone();
        let mut scratch = vec![0u32; self.checker.k];
        let mut canon = vec![0u32; self.checker.k];
        let mut trace = Trace::new();
        trace.snapshot(Interactions::new(0), self.checker.configuration_of_counts(&concrete));
        for (step, next) in path.iter().enumerate().skip(1) {
            let mut lifted = None;
            self.checker.for_each_successor(&concrete, &mut scratch, |_, _, _, succ| {
                canon.copy_from_slice(succ);
                self.symmetry.canonicalize(&mut canon);
                if lifted.is_none() && canon == *next {
                    lifted = Some(succ.to_vec());
                }
            });
            concrete = lifted.expect("an equivariant quotient edge lifts to a concrete one");
            let config = self.checker.configuration_of_counts(&concrete);
            trace.snapshot(Interactions::new(step as u64), config);
        }
        let steps = path.len() - 1;
        trace.record(
            Interactions::new(steps as u64),
            "counterexample",
            format!("path of {steps} non-null transitions into the witness configuration"),
        );
        Some(trace)
    }

    /// A shortest representative path into `target` from the farthest
    /// lattice state that reaches it: a backward BFS over canonicalized
    /// predecessors, unwound forward.
    fn lattice_path_into(&self, lattice: &Lattice, target: &[u32]) -> Vec<Vec<u32>> {
        let target_idx = lattice.index_of(target);
        let mut parent: HashMap<u64, u64> = HashMap::from([(target_idx, target_idx)]);
        let mut queue = VecDeque::from([target_idx]);
        let mut farthest = target_idx;
        let mut counts = vec![0u32; self.checker.k];
        let mut scratch = vec![0u32; self.checker.k];
        while let Some(idx) = queue.pop_front() {
            lattice.counts_of(idx, &mut counts);
            farthest = idx;
            for_each_predecessor(&self.checker, &counts, &mut scratch, |pred| {
                self.symmetry.canonicalize(pred);
                let pidx = lattice.index_of(pred);
                if let Entry::Vacant(e) = parent.entry(pidx) {
                    e.insert(idx);
                    queue.push_back(pidx);
                }
            });
        }
        let mut path = Vec::new();
        let mut at = farthest;
        loop {
            lattice.counts_of(at, &mut counts);
            path.push(counts.clone());
            if at == target_idx {
                return path;
            }
            at = parent[&at];
        }
    }
}

/// Enumerates the predecessors of `counts` under one non-null interaction,
/// calling `f` with each predecessor's count vector (in `scratch`, which the
/// callback may rewrite; possibly repeatedly for one predecessor).
fn for_each_predecessor<P: EnumerableProtocol>(
    checker: &ModelChecker<P>,
    counts: &[u32],
    scratch: &mut [u32],
    mut f: impl FnMut(&mut [u32]),
) {
    // A predecessor fires some move (i, j) → (i2, j2) with both targets
    // present here, so only present target pairs need their source lists
    // scanned: pred = counts + e_i + e_j − e_{i2} − e_{j2}.
    let present = present_states(counts);
    for &a in &present {
        for &b in &present {
            if a == b && counts[a as usize] < 2 {
                continue;
            }
            let Some(sources) = checker.moves_by_target.get(&(a, b)) else { continue };
            for &(i, j) in sources {
                scratch.copy_from_slice(counts);
                scratch[a as usize] -= 1;
                scratch[b as usize] -= 1;
                scratch[i as usize] += 1;
                scratch[j as usize] += 1;
                f(scratch);
            }
        }
    }
}

/// The classification counts and first witnesses (as count vectors) shared
/// by both sources.
#[derive(Default)]
struct Tally {
    states: u64,
    silent: u64,
    correct: u64,
    silent_incorrect: u64,
    correct_nonsilent: u64,
    non_convergent: u64,
    silent_incorrect_witness: Option<Vec<u32>>,
    correct_nonsilent_witness: Option<Vec<u32>>,
    non_convergent_witness: Option<Vec<u32>>,
}

impl Tally {
    /// Counts one classified state; returns whether it is a correct silent
    /// target of the backward pass.
    fn record(&mut self, counts: &[u32], silent: bool, correct: bool) -> bool {
        self.states += 1;
        self.silent += u64::from(silent);
        self.correct += u64::from(correct);
        match (silent, correct) {
            (true, false) => {
                self.silent_incorrect += 1;
                self.silent_incorrect_witness.get_or_insert_with(|| counts.to_vec());
            }
            (false, true) => {
                self.correct_nonsilent += 1;
                self.correct_nonsilent_witness.get_or_insert_with(|| counts.to_vec());
            }
            _ => {}
        }
        silent && correct
    }

    fn into_report<P: EnumerableProtocol>(
        self,
        checker: ModelChecker<P>,
        symmetry: StateSymmetry,
        lattice: Option<(Lattice, BitSet)>,
        configurations: u128,
        counters: CounterBlock,
    ) -> ConvergenceReport<P> {
        let config = |w: Option<Vec<u32>>| w.map(|c| checker.configuration_of_counts(&c));
        ConvergenceReport {
            silent_incorrect_witness: config(self.silent_incorrect_witness),
            correct_nonsilent_witness: config(self.correct_nonsilent_witness),
            non_convergent_witness: config(self.non_convergent_witness),
            configurations,
            states: self.states,
            group_order: symmetry.order(checker.k),
            silent: self.silent,
            correct: self.correct,
            silent_incorrect: self.silent_incorrect,
            correct_nonsilent: self.correct_nonsilent,
            non_convergent: self.non_convergent,
            counters,
            checker,
            symmetry,
            lattice,
        }
    }
}

/// Proves convergence over `source`: classifies every state as silent
/// and/or correct, checks silent ⟺ correct, and proves by backward
/// reachability from the correct silent states that every state can reach
/// one (equivalently, is absorbed into one with probability 1).
///
/// * [`ConvergenceSource::Lattice`] walks the full lattice once by odometer,
///   classifies its canonical ranks (every rank when unquotiented), and runs
///   one backward BFS over the exact predecessor relation, canonicalizing
///   each predecessor before indexing it. Lumpability makes the canonical
///   predecessors of a representative exactly its predecessor orbits.
/// * [`ConvergenceSource::Closure`] explores the seeds' reachable closure
///   ([`explore_reachable`]) and runs the backward pass over its stored
///   successor edges.
///
/// [`MCheckOptions::use_symmetry`] quotients both by the protocol's
/// validated [`StateSymmetry`].
///
/// # Errors
///
/// [`MCheckError::SpaceTooLarge`] when the lattice exceeds its guards (fall
/// back to the closure source), [`MCheckError::UnsoundSymmetry`] if the
/// oracle is not orbit-invariant on a classified state, plus the errors of
/// [`ModelChecker::new`] and, for closures, [`explore_reachable`].
pub fn check_convergence<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    source: ConvergenceSource<'_, P::State>,
    options: &MCheckOptions,
) -> Result<ConvergenceReport<P>, MCheckError> {
    match source {
        ConvergenceSource::Lattice => check_lattice(ModelChecker::new(protocol)?, options),
        ConvergenceSource::Closure(seeds) => {
            check_closure(explore_reachable(protocol, seeds, options)?)
        }
    }
}

fn check_lattice<P: EnumerableProtocol + CorrectnessOracle>(
    checker: ModelChecker<P>,
    options: &MCheckOptions,
) -> Result<ConvergenceReport<P>, MCheckError> {
    let k = checker.k;
    let symmetry =
        if options.use_symmetry { checker.symmetry.clone() } else { StateSymmetry::Identity };
    // Time guard: the odometer touches every lattice point once (amortized
    // O(1) plus an is-canonical test), so a group raises it by its order —
    // only representatives are classified. Memory guard: the convergent set
    // holds one bit per lattice point.
    let time = (options.max_configurations as u128).saturating_mul(symmetry.order(k));
    let memory = (options.max_resident_bytes / 8) as u128 * 64;
    let lattice = Lattice::new(checker.n, k, time.min(memory).min(u64::MAX as u128) as u64)?;
    let gens = symmetry.generators(k);

    // Pass 1: classify every canonical rank in odometer order (no
    // per-configuration decode), seeding the backward pass with the correct
    // silent ones.
    let mut tally = Tally::default();
    let mut convergent = BitSet::new(lattice.size);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut counts = vec![0u32; k];
    let mut image = vec![0u32; k];
    lattice.first(&mut counts);
    let mut rank = 0u64;
    loop {
        if symmetry.is_canonical(&counts) {
            let silent = checker.is_silent(&counts);
            let correct = checker.is_correct_invariantly(&counts, &gens, &mut image)?;
            if tally.record(&counts, silent, correct) {
                convergent.set(rank);
                queue.push_back(rank);
            }
        }
        rank += 1;
        if !lattice.advance(&mut counts) {
            break;
        }
    }

    // Pass 2: backward reachability from the correct silent states.
    let mut scratch = vec![0u32; k];
    let mut frontier_pops = 0u64;
    while let Some(c) = queue.pop_front() {
        frontier_pops += 1;
        lattice.counts_of(c, &mut counts);
        for_each_predecessor(&checker, &counts, &mut scratch, |pred| {
            symmetry.canonicalize(pred);
            let p = lattice.index_of(pred);
            if !convergent.get(p) {
                convergent.set(p);
                queue.push_back(p);
            }
        });
    }
    tally.non_convergent = tally.states - convergent.count();
    if tally.non_convergent > 0 {
        lattice.first(&mut counts);
        let mut rank = 0u64;
        while convergent.get(rank) || !symmetry.is_canonical(&counts) {
            rank += 1;
            lattice.advance(&mut counts);
        }
        tally.non_convergent_witness = Some(counts);
    }
    let mut counters = CounterBlock::default();
    counters.set(Counter::McheckFrontierPops, frontier_pops);
    let configurations = lattice_size(checker.n, k).unwrap_or(u128::MAX);
    Ok(tally.into_report(checker, symmetry, Some((lattice, convergent)), configurations, counters))
}

fn check_closure<P: EnumerableProtocol + CorrectnessOracle>(
    space: ReachableSpace<P>,
) -> Result<ConvergenceReport<P>, MCheckError> {
    let k = space.checker.k;
    let symmetry =
        if space.quotient { space.checker.symmetry.clone() } else { StateSymmetry::Identity };
    let gens = symmetry.generators(k);
    let mut image = vec![0u32; k];
    let mut tally = Tally::default();
    let mut targets = Vec::with_capacity(space.len());
    let mut result = Ok(());
    space.store.for_each(|s, counts| {
        let silent = space.active[s as usize] == 0;
        match space.checker.is_correct_invariantly(counts, &gens, &mut image) {
            Ok(correct) => targets.push(tally.record(counts, silent, correct)),
            Err(e) => result = Err(e),
        }
    });
    result?;
    let dist = space.distance_to(|s| targets[s])?;
    tally.non_convergent = dist.iter().filter(|&&d| d == u32::MAX).count() as u64;
    if let Some(s) = dist.iter().position(|&d| d == u32::MAX) {
        let mut counts = vec![0u32; k];
        space.store.get(s as u32, &mut counts);
        tally.non_convergent_witness = Some(counts);
    }
    let counters = space.counters();
    let configurations = u128::from(tally.states);
    Ok(tally.into_report(space.checker, symmetry, None, configurations, counters))
}

/// The compressed reachable closure of a seed set — the checker's default
/// substrate. Count vectors live in a delta/varint `ConfigStore`, successor
/// lists in a spillable `EdgeStore`, and when the protocol declares a
/// nontrivial (validated) [`StateSymmetry`] and the scheduler is uniform,
/// the states are canonical orbit representatives of the symmetry quotient,
/// so the working set is proportional to reachable *orbits*.
pub struct ReachableSpace<P: EnumerableProtocol> {
    checker: ModelChecker<P>,
    /// Count vectors in discovery (BFS) order, delta/varint compressed.
    store: ConfigStore,
    /// CSR successor lists: per state, `(target, weight)` with weights
    /// summing to the state's active pair weight (rate-weighted under a
    /// weighted scheduler); spills to disk past the resident budget.
    succ: EdgeStore,
    /// Active pair weight per state (0 ⟺ silent under the scheduler).
    active: Vec<u64>,
    /// Total pair weight `W(c)` per state under a weighted scheduler;
    /// `None` under the uniform scheduler, where it is the constant
    /// `n(n−1)`.
    totals: Option<Vec<u64>>,
    /// Whether states are canonical orbit representatives of the declared
    /// symmetry's quotient (uniform scheduler + nontrivial validated group).
    quotient: bool,
}

impl<P: EnumerableProtocol> ReachableSpace<P> {
    /// Number of reachable states (orbit representatives when quotiented).
    fn len(&self) -> usize {
        self.active.len()
    }

    /// The closure's slice of the unified counter registry:
    /// [`Counter::McheckFrontierPops`] (states expanded during construction:
    /// every state, once) and [`Counter::McheckSpillBytes`] (spill-file
    /// bytes, zero while resident).
    pub fn counters(&self) -> CounterBlock {
        let mut block = CounterBlock::default();
        block.set(Counter::McheckFrontierPops, self.len() as u64);
        block.set(Counter::McheckSpillBytes, self.succ.spilled_bytes());
        block
    }

    /// Total pair weight of a state: the numerator of the expected null-run
    /// marginalization — `n(n−1)` under the uniform scheduler, `W(c)` under
    /// a weighted one.
    fn total_weight_of(&self, state: usize) -> f64 {
        match &self.totals {
            Some(totals) => totals[state] as f64,
            None => {
                let n = self.checker.n as f64;
                n * (n - 1.0)
            }
        }
    }

    /// BFS distances along the arrow of time from every state to the
    /// nearest state marked by `source` (distance 0), `u32::MAX` for states
    /// that cannot reach one. The closure verdict marks the correct silent
    /// states; the solver marks every silent state.
    ///
    /// Resident stores build the reverse adjacency by counting sort and run
    /// one multi-source reverse BFS; spilled stores cannot afford the reverse
    /// edge array, so they run sequential relaxation scans to a fixpoint (at
    /// most `max-distance + 1` passes over the edge file).
    fn distance_to(&self, source: impl Fn(usize) -> bool) -> Result<Vec<u32>, MCheckError> {
        let states = self.len();
        let mut dist: Vec<u32> =
            (0..states).map(|s| if source(s) { 0 } else { u32::MAX }).collect();
        if self.succ.is_spilled() {
            loop {
                let mut changed = false;
                self.succ
                    .for_each_state(|s, edges| {
                        let best = edges.iter().map(|&(t, _)| dist[t as usize]).min();
                        if let Some(best) = best.filter(|&d| d != u32::MAX) {
                            if best + 1 < dist[s as usize] {
                                dist[s as usize] = best + 1;
                                changed = true;
                            }
                        }
                    })
                    .map_err(MCheckError::from_spill)?;
                if !changed {
                    return Ok(dist);
                }
            }
        }
        // Reverse adjacency by counting sort over the forward edges.
        let edge_count = self.succ.edge_count() as usize;
        let mut indegree = vec![0u32; states + 1];
        self.succ
            .for_each_state(|_, edges| {
                for &(t, _) in edges {
                    indegree[t as usize + 1] += 1;
                }
            })
            .map_err(MCheckError::from_spill)?;
        for i in 0..states {
            indegree[i + 1] += indegree[i];
        }
        let mut rev = vec![0u32; edge_count];
        let mut cursor = indegree.clone();
        self.succ
            .for_each_state(|s, edges| {
                for &(t, _) in edges {
                    rev[cursor[t as usize] as usize] = s;
                    cursor[t as usize] += 1;
                }
            })
            .map_err(MCheckError::from_spill)?;
        let mut queue: VecDeque<u32> =
            (0..states as u32).filter(|&s| dist[s as usize] == 0).collect();
        while let Some(t) = queue.pop_front() {
            let d = dist[t as usize] + 1;
            for &s in &rev[indegree[t as usize] as usize..indegree[t as usize + 1] as usize] {
                if dist[s as usize] == u32::MAX {
                    dist[s as usize] = d;
                    queue.push_back(s);
                }
            }
        }
        Ok(dist)
    }
}

/// Explores the reachable closure of `seeds` breadth-first, recording the
/// exact successor structure (distinct successors with their ordered-pair
/// weights) of every reachable configuration.
///
/// # Errors
///
/// [`MCheckError::ReachableTooLarge`] past [`MCheckOptions::max_reachable`],
/// plus the construction errors of [`ModelChecker::new`].
pub fn explore_reachable<P: EnumerableProtocol>(
    protocol: P,
    seeds: &[Configuration<P::State>],
    options: &MCheckOptions,
) -> Result<ReachableSpace<P>, MCheckError> {
    explore_reachable_with_rates(protocol, seeds, None, options)
}

/// The rate-aware body of [`explore_reachable`]: with `rates` the ordered
/// state pair `(i, j)` carries weight `rate(i, j) · c_i · (c_j − [i = j])`
/// instead of the uniform agent-pair count, rate-0 pairs drop out of the
/// active measure (and the reachable relation — they fire with probability
/// 0), and the per-state total weight `W(c)` is recorded for the solve.
fn explore_reachable_with_rates<P: EnumerableProtocol>(
    protocol: P,
    seeds: &[Configuration<P::State>],
    rates: Option<IndexRates>,
    options: &MCheckOptions,
) -> Result<ReachableSpace<P>, MCheckError> {
    let checker = ModelChecker::new(protocol)?;
    let k = checker.k;
    let total_pairs = checker.n as u64 * (checker.n as u64 - 1);
    // Quotient only the uniform chain: pair rates are indexed by raw state,
    // so a weighted measure need not be orbit-invariant even when the
    // transition structure is.
    let quotient = options.use_symmetry && rates.is_none() && !checker.symmetry.is_identity();
    let mut store = ConfigStore::new(k);
    let mut index = HashIndex::new();
    let mut succ = EdgeStore::new(options.max_resident_bytes, options.spill_dir.clone());
    let mut active: Vec<u64> = Vec::new();
    let mut totals: Option<Vec<u64>> = rates.as_ref().map(|_| Vec::new());
    let mut cmp = vec![0u32; k];

    // States are numbered in discovery order, so the BFS frontier is every
    // id past the last expanded one.
    let intern = |counts: &[u32],
                  store: &mut ConfigStore,
                  index: &mut HashIndex,
                  cmp: &mut [u32]|
     -> Result<u32, MCheckError> {
        let hash = hash_counts(counts);
        let found = index.lookup(hash, |id| {
            store.get(id, cmp);
            cmp[..] == counts[..]
        });
        if let Some(id) = found {
            return Ok(id);
        }
        if store.len() >= options.max_reachable {
            return Err(MCheckError::ReachableTooLarge { limit: options.max_reachable });
        }
        let id = store.push(counts);
        index.insert(hash, id);
        Ok(id)
    };

    for seed in seeds {
        let mut counts = checker.counts_of_configuration(seed);
        if quotient {
            checker.symmetry.canonicalize(&mut counts);
        }
        intern(&counts, &mut store, &mut index, &mut cmp)?;
    }
    let mut scratch = vec![0u32; k];
    let mut canon = vec![0u32; k];
    let mut counts = vec![0u32; k];
    let mut counts64 = vec![0u64; k];
    let mut local: Vec<(u32, u64)> = Vec::new();
    let mut id = 0u32;
    while (id as usize) < store.len() {
        store.get(id, &mut counts);
        local.clear();
        let mut error = None;
        checker.for_each_successor(&counts, &mut scratch, |i, j, w, succ_counts| {
            if error.is_some() {
                return;
            }
            let w = match &rates {
                None => w,
                Some(r) => match r.rate(i as usize, j as usize).checked_mul(w) {
                    Some(0) => return, // rate-0 pair: never scheduled
                    Some(w) => w,
                    None => panic!("weighted pair term overflows u64; scale the rates down"),
                },
            };
            // Lump the successor onto its orbit representative: weights of
            // orbit-equivalent successors accumulate on one target, which is
            // exactly the lumped (quotient) chain's transition weight.
            let target: &[u32] = if quotient {
                canon.copy_from_slice(succ_counts);
                checker.symmetry.canonicalize(&mut canon);
                &canon
            } else {
                succ_counts
            };
            match intern(target, &mut store, &mut index, &mut cmp) {
                Ok(t) => match local.iter_mut().find(|(s, _)| *s == t) {
                    Some((_, acc)) => *acc += w,
                    None => local.push((t, w)),
                },
                Err(e) => error = Some(e),
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        let a: u64 = local.iter().map(|&(_, w)| w).sum();
        active.push(a);
        if let (Some(totals), Some(r)) = (totals.as_mut(), rates.as_ref()) {
            for (dst, &c) in counts64.iter_mut().zip(counts.iter()) {
                *dst = c as u64;
            }
            let w = r.total_weight(&counts64, total_pairs);
            debug_assert!(a <= w, "active pair weight is bounded by the total measure");
            totals.push(w);
        }
        succ.push_state(&local).map_err(MCheckError::from_spill)?;
        id += 1;
    }
    succ.seal().map_err(MCheckError::from_spill)?;
    Ok(ReachableSpace { checker, store, succ, active, totals, quotient })
}

/// The exact expected silence time of an initial configuration, solved from
/// the absorbing-chain linear system on its reachable closure.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExactSilenceTime {
    /// Expected number of interactions until silence.
    pub expected_interactions: f64,
    /// Expected parallel time until silence (`interactions / n`).
    pub expected_parallel: f64,
    /// Size of the reachable closure the system was solved on (orbit
    /// representatives when the symmetry quotient was active).
    pub states: usize,
    /// Gauss–Seidel sweeps used.
    pub sweeps: usize,
    /// Final residual (maximum relative update of the last sweep).
    pub residual: f64,
    /// Whether the closure was built on the symmetry quotient.
    pub quotient: bool,
    /// Whether the successor store spilled to disk and the solve streamed
    /// its sweeps from the distance-ordered edge file.
    pub spilled: bool,
    /// The checker's slice of the unified counter registry:
    /// frontier pops, spill bytes, and Gauss–Seidel sweeps.
    pub counters: CounterBlock,
}

/// Solves for the **exact** expected number of interactions until silence
/// from `init`: explores the reachable closure, verifies every reachable
/// configuration can reach silence (else the expectation is infinite), and
/// solves `E[c] = n(n−1)/A(c) + Σ_m (w_m/A(c))·E[succ_m(c)]` by Gauss–Seidel
/// iteration in silence-distance order (exact in one sweep on cycle-free
/// chains such as Theorem 2.4's worst-case path; geometrically convergent in
/// general).
///
/// # Errors
///
/// [`MCheckError::NonConvergent`] when some reachable configuration cannot
/// reach silence, [`MCheckError::NotConverged`] when the sweep budget is
/// exhausted, plus the errors of [`explore_reachable`].
pub fn expected_silence_time_exact<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    options: &MCheckOptions,
) -> Result<ExactSilenceTime, MCheckError> {
    let mut sink = TelemetrySink::default();
    expected_silence_time_probed(protocol, init, options, &mut sink)
}

/// [`expected_silence_time_exact`] with an attached [`TelemetrySink`]:
/// records spans around the closure exploration (`closure.explore`), the
/// distance-ordered spill copy (`spill.order`), and each Gauss–Seidel sweep
/// (`solver.sweep`). With a [`TelemetrySink::Noop`] sink it is exactly
/// [`expected_silence_time_exact`].
pub fn expected_silence_time_probed<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    options: &MCheckOptions,
    sink: &mut TelemetrySink,
) -> Result<ExactSilenceTime, MCheckError> {
    sink.span_begin("closure.explore");
    let space = explore_reachable(protocol, std::slice::from_ref(init), options);
    sink.span_end("closure.explore");
    solve_silence_time(&space?, options, sink)
}

/// Solves for the **exact** expected number of scheduler draws until
/// silence from `init` under an explicit [`InteractionScheduler`]. The
/// uniform scheduler reduces to [`expected_silence_time_exact`]; a weighted
/// scheduler generalizes the linear system to
/// `E[c] = W(c)/A(c) + Σ_m (w_m·rate_m/A(c))·E[succ_m(c)]` with `W(c)` the
/// total pair measure and `A(c)` the rate-weighted active measure —
/// silence (and hence the expectation) is **scheduler-relative**: rate-0
/// pairs neither delay silence nor contribute transitions.
///
/// # Errors
///
/// [`MCheckError::SchedulerNeedsIdentities`] for graph-restricted
/// schedulers (the count-vector chain erases agent identities),
/// [`MCheckError::ZeroRateScheduler`] when every pair rate is zero,
/// [`MCheckError::RandomizedTransition`] for randomized transitions (as
/// for every checker entry point), plus the errors of
/// [`expected_silence_time_exact`].
pub fn expected_silence_time_scheduled<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    scheduler: &InteractionScheduler<P::State>,
    options: &MCheckOptions,
) -> Result<ExactSilenceTime, MCheckError> {
    let rates = match scheduler {
        InteractionScheduler::Uniform => None,
        InteractionScheduler::WeightedPairs(rates) => {
            if rates.max_rate() == 0 {
                return Err(MCheckError::ZeroRateScheduler);
            }
            Some(IndexRates::resolve(rates, |s| protocol.state_index(s)))
        }
        InteractionScheduler::GraphRestricted(_) => {
            return Err(MCheckError::SchedulerNeedsIdentities { scheduler: scheduler.label() });
        }
    };
    let space = explore_reachable_with_rates(protocol, std::slice::from_ref(init), rates, options)?;
    solve_silence_time(&space, options, &mut TelemetrySink::default())
}

/// The shared Gauss–Seidel solve over an explored closure; see
/// [`expected_silence_time_exact`] for the system and the sweep order.
fn solve_silence_time<P: EnumerableProtocol>(
    space: &ReachableSpace<P>,
    options: &MCheckOptions,
    sink: &mut TelemetrySink,
) -> Result<ExactSilenceTime, MCheckError> {
    let n = space.checker.n as f64;
    let dist = space.distance_to(|s| space.active[s] == 0)?;
    if dist.contains(&u32::MAX) {
        return Err(MCheckError::NonConvergent);
    }
    // Gauss–Seidel in increasing distance-to-silence order: states whose
    // successors are (mostly) closer to absorption are updated after them,
    // so value information flows backward from the absorbing states. A
    // spilled store materializes one distance-ordered copy of the edge file
    // so every sweep is a single sequential scan.
    let mut order: Vec<u32> = (0..space.len() as u32).collect();
    order.sort_by_key(|&s| dist[s as usize]);
    sink.span_begin("spill.order");
    let sweeper = space.succ.ordered(&order).map_err(MCheckError::from_spill);
    sink.span_end("spill.order");
    let sweeper = sweeper?;
    let mut e = vec![0.0f64; space.len()];
    let mut residual = f64::INFINITY;
    let mut sweeps = 0usize;
    while sweeps < options.max_sweeps {
        sweeps += 1;
        sink.span_begin("solver.sweep");
        let mut sweep_residual = 0.0f64;
        sweeper
            .sweep(|s, edges| {
                let a = space.active[s as usize];
                if a == 0 {
                    return;
                }
                let mut acc = space.total_weight_of(s as usize) / a as f64;
                let mut self_weight = 0u64;
                for &(t, w) in edges {
                    if t == s {
                        self_weight += w;
                    } else {
                        acc += w as f64 / a as f64 * e[t as usize];
                    }
                }
                let value = acc / (1.0 - self_weight as f64 / a as f64);
                let delta = (value - e[s as usize]).abs() / value.abs().max(1.0);
                sweep_residual = sweep_residual.max(delta);
                e[s as usize] = value;
            })
            .map_err(MCheckError::from_spill)?;
        sink.span_end("solver.sweep");
        residual = sweep_residual;
        if residual <= options.tolerance {
            break;
        }
    }
    if residual > options.tolerance {
        return Err(MCheckError::NotConverged { residual });
    }
    let mut counters = space.counters();
    counters.set(Counter::McheckGsSweeps, sweeps as u64);
    let start = e[0]; // seeds are interned first; a single seed is state 0.
    Ok(ExactSilenceTime {
        expected_interactions: start,
        expected_parallel: start / n,
        states: space.len(),
        sweeps,
        residual,
        quotient: space.quotient,
        spilled: space.succ.is_spilled(),
        counters,
    })
}

/// The verdict of an exhaustive fault-closure check: see
/// [`check_fault_plan_closure`].
#[derive(Clone, PartialEq, Debug)]
pub struct FaultClosureReport<S> {
    /// Whether the underlying full-space verification succeeded (the
    /// convergent set is only meaningful when it did).
    pub base_verified: bool,
    /// Configurations reachable from the seeds whose corruptions were
    /// enumerated.
    pub reachable: usize,
    /// Perturbed configurations checked (victim multiset × target multiset
    /// per reachable configuration).
    pub perturbations: u64,
    /// Perturbed configurations **outside** the verified-convergent set.
    ///
    /// When the base verification proved the *whole* lattice convergent
    /// this is 0 by implication — the burst enumeration then serves as a
    /// consistency check on the corruption model (every enumerated burst
    /// outcome is a well-formed lattice configuration) rather than new
    /// information. The count is load-bearing exactly when the convergent
    /// set is a strict subset: then it answers whether corruption can push
    /// a convergent configuration out of it (see the strict-oracle test,
    /// where a two-agent burst escapes into the leaderless trap).
    pub violations: u64,
    /// A perturbed non-convergent witness, if any.
    pub witness: Option<Configuration<S>>,
}

impl<S> FaultClosureReport<S> {
    /// Whether the closure holds: the base verification succeeded and no
    /// corruption leads outside the convergent set.
    pub fn verified(&self) -> bool {
        self.base_verified && self.violations == 0
    }
}

/// Exhaustive version of the fault-recovery claim (`ppsim::faults`): for
/// **every** configuration reachable from `seeds` and **every** possible
/// burst of the plan — every multiset of `k = burst_size` victims drawn
/// from the configuration, forced into every combination of target states
/// the plan's [`CorruptionTarget`] can produce (`Fixed` targets exactly;
/// `Random` targets over-approximated by the whole state space, which only
/// strengthens the check) — the perturbed configuration still lies in the
/// full-space verified-convergent set.
///
/// For a protocol whose full lattice verifies, closure is implied (every
/// configuration is convergent) and the enumeration acts as a consistency
/// check; for a protocol with a *strict* convergent subset the violation
/// count is genuine information — bursts can escape the set, and the
/// report names the first escaping configuration.
///
/// The full-space verdict comes from [`check_convergence`] on the lattice
/// source — on the symmetry quotient when [`MCheckOptions::use_symmetry`]
/// asks for it, in which case only the membership query canonicalizes.
///
/// # Errors
///
/// The errors of [`check_convergence`] on [`ConvergenceSource::Lattice`]
/// (this check needs the full-space verdict for membership queries).
pub fn check_fault_plan_closure<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    plan: &FaultPlan<P::State>,
    seeds: &[Configuration<P::State>],
    options: &MCheckOptions,
) -> Result<FaultClosureReport<P::State>, MCheckError> {
    let report = check_convergence(protocol, ConvergenceSource::Lattice, options)?;
    let checker = &report.checker;
    let burst = plan.burst_size().min(checker.n);
    // Per-state multiplicity caps of the burst's target multiset.
    let mut target_caps = vec![0u32; checker.k];
    match plan.target() {
        CorruptionTarget::Fixed(s) => target_caps[checker.protocol.state_index(s)] = burst as u32,
        CorruptionTarget::Random(_) => target_caps.fill(burst as u32),
    }

    // Forward BFS over concrete configurations from the seeds, whatever the
    // symmetry: a `Fixed` target is not orbit-invariant, so the bursts must
    // be enumerated on concrete configurations, never on representatives.
    let mut reachable: Vec<Vec<u32>> = Vec::new();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    for seed in seeds {
        let counts = checker.counts_of_configuration(seed);
        if seen.insert(counts.clone()) {
            reachable.push(counts);
        }
    }
    let mut scratch = vec![0u32; checker.k];
    let mut next = 0;
    while next < reachable.len() {
        let counts = reachable[next].clone();
        checker.for_each_successor(&counts, &mut scratch, |_, _, _, succ| {
            if seen.insert(succ.to_vec()) {
                reachable.push(succ.to_vec());
            }
        });
        next += 1;
    }

    // Enumerate every burst outcome of every reachable configuration: each
    // victim multiset leaves its states, then each target multiset joins.
    let mut perturbations = 0u64;
    let mut violations = 0u64;
    let mut witness = None;
    let mut canon = vec![0u32; checker.k];
    for counts in &reachable {
        let mut corrupted = counts.clone();
        let mut victim_caps = counts.clone();
        for_each_multiset(&mut victim_caps, burst, 0, &mut corrupted, -1, &mut |survivors| {
            for_each_multiset(&mut target_caps, burst, 0, survivors, 1, &mut |outcome| {
                perturbations += 1;
                canon.copy_from_slice(outcome);
                if !report.lattice_convergent(&mut canon) {
                    violations += 1;
                    witness.get_or_insert_with(|| checker.configuration_of_counts(outcome));
                }
            });
        });
    }
    Ok(FaultClosureReport {
        base_verified: report.verified(),
        reachable: reachable.len(),
        perturbations,
        violations,
        witness,
    })
}

/// Calls `f` once per multiset of `size` states holding at most `caps[s]`
/// copies of each state `s` (states `≥ from` only, so every multiset comes
/// once, in nondecreasing order), with `counts` shifted in place by `delta`
/// per chosen copy.
fn for_each_multiset(
    caps: &mut [u32],
    size: usize,
    from: usize,
    counts: &mut [u32],
    delta: i32,
    f: &mut impl FnMut(&mut [u32]),
) {
    if size == 0 {
        return f(counts);
    }
    for s in from..caps.len() {
        if caps[s] > 0 {
            caps[s] -= 1;
            counts[s] = counts[s].wrapping_add_signed(delta);
            for_each_multiset(caps, size - 1, s, counts, delta, f);
            counts[s] = counts[s].wrapping_add_signed(-delta);
            caps[s] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::Frat;
    use crate::scheduler::PairRates;
    use rand::RngCore;

    /// Fratricide judged by the *strict* unique-leader oracle — provably not
    /// self-stabilizing (it cannot create leaders, Observation 2.6); used to
    /// demonstrate falsification.
    #[derive(Clone, Copy, Debug)]
    struct FratStrict {
        n: usize,
    }

    impl Protocol for FratStrict {
        type State = u8;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u8, b: &u8, rng: &mut dyn RngCore) -> (u8, u8) {
            Frat { n: self.n }.transition(a, b, rng)
        }
        fn is_null(&self, a: &u8, b: &u8) -> bool {
            Frat { n: self.n }.is_null(a, b)
        }
    }

    impl EnumerableProtocol for FratStrict {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: &u8) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u8 {
            i as u8
        }
    }

    impl CorrectnessOracle for FratStrict {
        fn is_correct(&self, config: &Configuration<u8>) -> bool {
            config.iter().filter(|&&s| s == 0).count() == 1
        }
    }

    #[test]
    fn lattice_roundtrip_and_enumeration_order_agree() {
        for (n, k) in [(1usize, 1usize), (4, 3), (6, 4), (3, 7)] {
            let lattice = Lattice::new(n, k, u64::MAX >> 1).unwrap();
            let mut counts = vec![0u32; k];
            lattice.first(&mut counts);
            let mut idx = 0u64;
            let mut decoded = vec![0u32; k];
            loop {
                assert_eq!(lattice.index_of(&counts), idx, "rank of {counts:?}");
                lattice.counts_of(idx, &mut decoded);
                assert_eq!(decoded, counts, "unrank of {idx}");
                assert_eq!(counts.iter().sum::<u32>() as usize, n);
                idx += 1;
                if !lattice.advance(&mut counts) {
                    break;
                }
            }
            assert_eq!(idx, lattice.size, "enumeration covers the lattice exactly once");
            assert_eq!(idx as u128, lattice_size(n, k).unwrap());
        }
    }

    #[test]
    fn lattice_capacity_guard_fires() {
        match Lattice::new(100, 50, 1000) {
            Err(MCheckError::SpaceTooLarge { configurations, limit: 1000 }) => {
                assert!(configurations > 1000);
            }
            other => panic!("expected SpaceTooLarge, got {:?}", other.map(|l| l.size)),
        }
    }

    #[test]
    fn fratricide_self_stabilizes_to_at_most_one_leader() {
        let report =
            check_convergence(Frat { n: 6 }, ConvergenceSource::Lattice, &MCheckOptions::default())
                .unwrap();
        assert!(report.verified());
        assert_eq!(report.configurations, 7);
        // Silent ⟺ at most one leader: 2 of the 7 configurations.
        assert_eq!(report.silent, 2);
        assert_eq!(report.correct, 2);
        assert!(report.counterexample_trace().is_none());
    }

    #[test]
    fn strict_leader_oracle_is_falsified_with_a_witness() {
        let report = check_convergence(
            FratStrict { n: 5 },
            ConvergenceSource::Lattice,
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(!report.verified());
        // The all-followers configuration is silent but leaderless, and
        // nothing can reach a leader from it.
        assert_eq!(report.silent_incorrect, 1);
        assert_eq!(report.non_convergent, 1);
        let witness = report.non_convergent_witness.as_ref().unwrap();
        assert!(witness.iter().all(|&s| s == 1));
        let trace = report.counterexample_trace().unwrap();
        assert!(!trace.is_empty());
        let (_, last) = trace.last_snapshot().unwrap();
        assert!(last.iter().all(|&s| s == 1), "the trace ends at the witness");
    }

    #[test]
    fn expected_time_matches_the_fratricide_closed_form() {
        // E[interactions] from all leaders = (n − 1)² (proof of Lemma 4.2).
        for n in [2usize, 3, 5, 8, 13] {
            let init = Configuration::uniform(0u8, n);
            let exact =
                expected_silence_time_exact(Frat { n }, &init, &MCheckOptions::default()).unwrap();
            let expected = ((n - 1) * (n - 1)) as f64;
            assert!(
                (exact.expected_interactions - expected).abs() < 1e-9 * expected.max(1.0),
                "n = {n}: {} vs {expected}",
                exact.expected_interactions
            );
            assert_eq!(exact.states, n); // leader counts n, n−1, …, 1
        }
    }

    #[test]
    fn expected_time_from_a_silent_configuration_is_zero() {
        let init = Configuration::uniform(1u8, 6);
        let exact =
            expected_silence_time_exact(Frat { n: 6 }, &init, &MCheckOptions::default()).unwrap();
        assert_eq!(exact.expected_interactions, 0.0);
        assert_eq!(exact.states, 1);
    }

    #[test]
    fn seeded_convergence_check_agrees_with_the_full_space() {
        let seeds = [Configuration::uniform(0u8, 6), Configuration::uniform(1u8, 6)];
        let options = MCheckOptions::default();
        let report =
            check_convergence(Frat { n: 6 }, ConvergenceSource::Closure(&seeds), &options).unwrap();
        assert!(report.verified());
        assert!(report.states >= 2);
        assert!(report.counterexample_trace().is_none());
        let strict =
            check_convergence(FratStrict { n: 6 }, ConvergenceSource::Closure(&seeds), &options)
                .unwrap();
        assert!(!strict.verified());
        assert_eq!(strict.silent_incorrect, 1);
        // A closure trace is the witness alone: the leaderless trap.
        let trace = strict.counterexample_trace().unwrap();
        assert_eq!(trace.snapshots().len(), 1);
        let (_, last) = trace.last_snapshot().unwrap();
        assert!(last.iter().all(|&s| s == 1));
    }

    #[test]
    fn fault_closure_holds_for_a_verified_protocol() {
        let plan = FaultPlan::one_shot(100, 2, CorruptionTarget::Fixed(0u8));
        let seeds = [Configuration::uniform(1u8, 5)];
        let report =
            check_fault_plan_closure(Frat { n: 5 }, &plan, &seeds, &MCheckOptions::default())
                .unwrap();
        assert!(report.verified());
        assert!(report.perturbations > 0);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn fault_closure_detects_escapes_from_a_strict_convergent_set() {
        // Under the strict unique-leader oracle the convergent set is the
        // configurations with ≥ 1 leader; every configuration reachable
        // from all-leaders is in it, but a burst following every leader of
        // the two-leader configuration escapes into the leaderless trap —
        // the violation count is real information here, not an implication
        // of the base verdict.
        let plan = FaultPlan::one_shot(100, 2, CorruptionTarget::Fixed(1u8));
        let seeds = [Configuration::uniform(0u8, 5)];
        let report =
            check_fault_plan_closure(FratStrict { n: 5 }, &plan, &seeds, &MCheckOptions::default())
                .unwrap();
        assert!(!report.base_verified, "the strict oracle refutes the full lattice");
        assert!(report.violations > 0, "corrupting both remaining leaders escapes the set");
        let witness = report.witness.as_ref().unwrap();
        assert!(witness.iter().all(|&s| s == 1), "the escape lands in all-followers");
    }

    #[test]
    fn randomized_transitions_are_rejected() {
        #[derive(Clone, Copy)]
        struct Coin;
        impl Protocol for Coin {
            type State = u8;
            fn population_size(&self) -> usize {
                3
            }
            fn transition(&self, _a: &u8, _b: &u8, rng: &mut dyn RngCore) -> (u8, u8) {
                ((rng.next_u32() & 1) as u8, 0)
            }
        }
        impl EnumerableProtocol for Coin {
            fn num_states(&self) -> usize {
                2
            }
            fn state_index(&self, s: &u8) -> usize {
                *s as usize
            }
            fn state_from_index(&self, i: usize) -> u8 {
                i as u8
            }
        }
        assert!(matches!(
            ModelChecker::new(Coin).err(),
            Some(MCheckError::RandomizedTransition { .. })
        ));
    }

    #[test]
    fn unsound_null_claims_are_rejected() {
        #[derive(Clone, Copy)]
        struct Liar;
        impl Protocol for Liar {
            type State = u8;
            fn population_size(&self) -> usize {
                3
            }
            fn transition(&self, _a: &u8, _b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
                (1, 1)
            }
            fn is_null(&self, _a: &u8, _b: &u8) -> bool {
                true // claims null while the transition rewrites states
            }
        }
        impl EnumerableProtocol for Liar {
            fn num_states(&self) -> usize {
                2
            }
            fn state_index(&self, s: &u8) -> usize {
                *s as usize
            }
            fn state_from_index(&self, i: usize) -> u8 {
                i as u8
            }
        }
        assert!(matches!(ModelChecker::new(Liar).err(), Some(MCheckError::UnsoundNull { .. })));
    }

    #[test]
    fn reachable_guard_fires() {
        let tight = MCheckOptions { max_reachable: 2, ..MCheckOptions::default() };
        let init = Configuration::uniform(0u8, 10);
        assert!(matches!(
            expected_silence_time_exact(Frat { n: 10 }, &init, &tight),
            Err(MCheckError::ReachableTooLarge { limit: 2 })
        ));
    }

    #[test]
    fn errors_display_meaningfully() {
        let messages = [
            MCheckError::SpaceTooLarge { configurations: 10, limit: 5 }.to_string(),
            MCheckError::ReachableTooLarge { limit: 5 }.to_string(),
            MCheckError::RandomizedTransition { i: 1, j: 2 }.to_string(),
            MCheckError::UnsoundNull { i: 1, j: 2 }.to_string(),
            MCheckError::NonConvergent.to_string(),
            MCheckError::NotConverged { residual: 0.5 }.to_string(),
            MCheckError::SchedulerNeedsIdentities { scheduler: "ring graph".to_owned() }
                .to_string(),
            MCheckError::ZeroRateScheduler.to_string(),
            MCheckError::UnsoundSymmetry { detail: "generator 0 on pair (1, 2)".to_owned() }
                .to_string(),
            MCheckError::SpillIo { detail: "disk full".to_owned() }.to_string(),
        ];
        for m in messages {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn scheduled_uniform_matches_the_exact_solver() {
        for n in [2usize, 4, 7] {
            let init = Configuration::uniform(0u8, n);
            let options = MCheckOptions::default();
            let exact = expected_silence_time_exact(Frat { n }, &init, &options).unwrap();
            let scheduled = expected_silence_time_scheduled(
                Frat { n },
                &init,
                &InteractionScheduler::Uniform,
                &options,
            )
            .unwrap();
            assert_eq!(exact, scheduled);
        }
    }

    #[test]
    fn uniformly_scaled_rates_leave_the_expected_time_unchanged() {
        // A constant rate r rescales both the total measure W and the active
        // measure A by r, so every E[c] is invariant.
        let init = Configuration::uniform(0u8, 6);
        let options = MCheckOptions::default();
        let uniform = expected_silence_time_exact(Frat { n: 6 }, &init, &options).unwrap();
        let scaled = expected_silence_time_scheduled(
            Frat { n: 6 },
            &init,
            &InteractionScheduler::WeightedPairs(PairRates::new(7)),
            &options,
        )
        .unwrap();
        assert!((scaled.expected_interactions - uniform.expected_interactions).abs() < 1e-9);
        assert_eq!(scaled.states, uniform.states);
    }

    #[test]
    fn weighted_rates_reshape_the_expected_time() {
        // Fratricide at n = 3 with (L, L) at rate 2 over default 1. From
        // two leaders: W = 6 + (2−1)·2·1 = 8, A = 2·2·1 = 4, E = 2. From
        // three leaders: W = 6 + 1·3·2 = 12 = A, so E = 1 + 2 = 3 — versus
        // (n−1)² = 4 under the uniform scheduler.
        let init = Configuration::uniform(0u8, 3);
        let rates = PairRates::new(1).with_rate(0u8, 0u8, 2);
        let weighted = expected_silence_time_scheduled(
            Frat { n: 3 },
            &init,
            &InteractionScheduler::WeightedPairs(rates),
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(
            (weighted.expected_interactions - 3.0).abs() < 1e-9,
            "got {}",
            weighted.expected_interactions
        );
    }

    #[test]
    fn rate_zero_pairs_make_silence_scheduler_relative() {
        // With the one non-null pair (L, L) at rate 0, no transition can
        // ever fire: every configuration is silent under the scheduler and
        // the rate-0 edge is not even explored.
        let init = Configuration::uniform(0u8, 5);
        let rates = PairRates::new(1).with_rate(0u8, 0u8, 0);
        let weighted = expected_silence_time_scheduled(
            Frat { n: 5 },
            &init,
            &InteractionScheduler::WeightedPairs(rates),
            &MCheckOptions::default(),
        )
        .unwrap();
        assert_eq!(weighted.expected_interactions, 0.0);
        assert_eq!(weighted.states, 1);
    }

    #[test]
    fn graph_schedulers_are_rejected_by_the_model_checker() {
        let init = Configuration::uniform(0u8, 4);
        let err = expected_silence_time_scheduled(
            Frat { n: 4 },
            &init,
            &InteractionScheduler::GraphRestricted(crate::scheduler::Topology::Ring),
            &MCheckOptions::default(),
        )
        .unwrap_err();
        match err {
            MCheckError::SchedulerNeedsIdentities { scheduler } => {
                assert!(scheduler.contains("ring"), "label names the topology: {scheduler}");
            }
            other => panic!("expected SchedulerNeedsIdentities, got {other:?}"),
        }
    }

    #[test]
    fn zero_rate_schedulers_are_rejected_by_the_model_checker() {
        let init = Configuration::uniform(0u8, 4);
        let err = expected_silence_time_scheduled(
            Frat { n: 4 },
            &init,
            &InteractionScheduler::WeightedPairs(PairRates::new(0)),
            &MCheckOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, MCheckError::ZeroRateScheduler);
    }

    #[test]
    fn randomized_transitions_are_rejected_for_scheduled_solves() {
        #[derive(Clone, Copy)]
        struct Coin;
        impl Protocol for Coin {
            type State = u8;
            fn population_size(&self) -> usize {
                3
            }
            fn transition(&self, _a: &u8, _b: &u8, rng: &mut dyn RngCore) -> (u8, u8) {
                ((rng.next_u32() & 1) as u8, 0)
            }
        }
        impl EnumerableProtocol for Coin {
            fn num_states(&self) -> usize {
                2
            }
            fn state_index(&self, s: &u8) -> usize {
                *s as usize
            }
            fn state_from_index(&self, i: usize) -> u8 {
                i as u8
            }
        }
        let init = Configuration::uniform(0u8, 3);
        let err = expected_silence_time_scheduled(
            Coin,
            &init,
            &InteractionScheduler::WeightedPairs(PairRates::new(2)),
            &MCheckOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MCheckError::RandomizedTransition { .. }));
    }
}
