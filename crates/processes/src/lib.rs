//! # processes — foundational stochastic processes of the paper
//!
//! The analysis of *Time-Optimal Self-Stabilizing Leader Election in
//! Population Protocols* (PODC 2021) rests on a small set of stochastic
//! processes, each analysed in Section 2.1 or inside the protocol proofs:
//!
//! | Module | Paper object |
//! |---|---|
//! | [`epidemic`] | two-way epidemic (Lemma 2.7, Corollary 2.8) |
//! | [`roll_call`] | roll-call process (Lemma 2.9) |
//! | [`bounded_epidemic`] | level-bounded epidemic and the times `τ_k` (Lemmas 2.10, 2.11) |
//! | [`fratricide`] | slow leader election `L,L → L,F` (Observation 2.6, Lemma 4.2) |
//! | [`coupon`] | pairwise coupon collector (first step of Lemma 2.9's lower bound) |
//! | [`binary_tree_assignment`] | leader-driven binary-tree ranking (Lemma 4.1, Figure 1) |
//! | [`synthetic_coin`] | time-multiplexed synthetic coin (Section 6) |
//!
//! Each module provides
//!
//! * a **specialized simulation** that samples exactly the same Markov chain
//!   as the full agent-level model but tracks only the sufficient statistics,
//!   so experiments can sweep large `n` cheaply, and
//! * where it is instructive, an agent-level [`ppsim::Protocol`]
//!   implementation used in tests to cross-validate the specialized
//!   simulation against the general simulator. The enumerable ones
//!   (epidemic, fratricide, coupon) run on the batched engine's static
//!   backends; [`RollCall`], whose roster states cannot be enumerated up
//!   front, opts into the dynamically interned backend via
//!   [`ppsim::InternableProtocol`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary_tree_assignment;
pub mod bounded_epidemic;
pub mod coupon;
pub mod epidemic;
pub mod fratricide;
pub mod roll_call;
pub mod synthetic_coin;

pub use binary_tree_assignment::{
    binary_tree_layout, AssignmentState, BinaryTreeAssignment, TreeSlot,
};
pub use bounded_epidemic::{simulate_bounded_epidemic, BoundedEpidemicOutcome};
pub use coupon::{simulate_pairwise_coupon_collector, Coupon, CouponState};
pub use epidemic::{simulate_epidemic_interactions, Epidemic, EpidemicState};
pub use fratricide::{
    simulate_fratricide_interactions, Fratricide, FratricideAsElection, LeaderState,
};
pub use roll_call::{simulate_roll_call_interactions, RollCall, Roster};
pub use synthetic_coin::{
    simulate_coin_harvest, CoinHarvestOutcome, CoinRole, SyntheticCoin, SyntheticCoinState,
};
