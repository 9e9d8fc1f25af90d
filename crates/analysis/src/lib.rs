//! # analysis — statistics, theory predictions, fitting and table rendering
//!
//! Support crate for the experiment harness reproducing *Time-Optimal
//! Self-Stabilizing Leader Election in Population Protocols* (PODC 2021).
//!
//! * [`harmonic`](mod@harmonic) — harmonic numbers and related elementary
//!   functions that appear throughout the paper's time bounds.
//! * [`theory`] — closed-form predictions for every process and protocol the
//!   paper analyses (epidemic, roll call, bounded epidemic, fratricide,
//!   binary-tree ranking, and the Table 1 rows), and the epidemic tail bound
//!   of Corollary 2.8, used as the "paper" column in the experiment outputs.
//! * [`stats`] — descriptive statistics over trial results.
//! * [`fit`] — least-squares fits (linear, power-law, `c·n·ln n` models) used
//!   to verify growth exponents empirically.
//! * [`table`] — plain-text / markdown table rendering for experiment output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod harmonic;
pub mod stats;
pub mod table;
pub mod theory;

pub use fit::{
    fit_linear, fit_power_law, fit_proportional, LinearFit, PowerLawFit, ProportionalFit,
};
pub use harmonic::{harmonic, harmonic_partial, ln};
pub use stats::{chi_square_critical_999, t_quantile_975, Summary};
pub use table::Table;
