//! Closed-form predictions from the paper, used as the "paper" column when
//! experiments print paper-vs-measured comparisons.
//!
//! All functions return **parallel time** unless the name says interactions.

use crate::harmonic::harmonic;

/// Exact expected number of interactions for the two-way epidemic to infect
/// the whole population starting from a single infected agent (Lemma 2.7):
/// `E[T_n] = (n − 1)·H_{n−1}`.
pub fn epidemic_expected_interactions(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    (n as f64 - 1.0) * harmonic(n - 1)
}

/// Expected epidemic completion in parallel time, `≈ ln n`.
pub fn epidemic_expected_time(n: usize) -> f64 {
    epidemic_expected_interactions(n) / n as f64
}

/// The epidemic tail bound of Corollary 2.8: `P[T_n > 3·n·ln n] < 1/n²`.
pub fn epidemic_three_n_ln_n_tail(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    1.0 / (n as f64 * n as f64)
}

/// Asymptotic expected parallel time of the roll-call process (Lemma 2.9):
/// `E[R_n]/n ~ 1.5·ln n`.
pub fn roll_call_expected_time(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    1.5 * (n as f64).ln()
}

/// Upper bound on the expected parallel time `τ_k` of the bounded epidemic
/// with path length `k = O(1)` (Lemma 2.10): `E[τ_k] <= k·n^{1/k}`.
pub fn bounded_epidemic_time_bound(n: usize, k: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    assert!(k >= 1, "path length must be at least 1");
    k as f64 * (n as f64).powf(1.0 / k as f64)
}

/// Upper bound on `τ_k` for `k = 3·log₂ n` (Lemma 2.11): `3·ln n`.
pub fn bounded_epidemic_log_time_bound(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    3.0 * (n as f64).ln()
}

/// Exact expected number of interactions for the fratricide process
/// `L,L → L,F` starting from all leaders (proof of Lemma 4.2):
/// `Σ_{i=2}^{n} n(n−1)/(i(i−1)) = n(n−1)(1 − 1/n) = (n−1)²`.
pub fn fratricide_expected_interactions(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    (n as f64 - 1.0) * (n as f64 - 1.0)
}

/// Expected parallel time of fratricide leader election, `≈ n`.
pub fn fratricide_expected_time(n: usize) -> f64 {
    fratricide_expected_interactions(n) / n as f64
}

/// Exact expected number of interactions from the worst-case initial
/// configuration of `Silent-n-state-SSR` (Theorem 2.4's lower-bound
/// construction): `(n − 1)·C(n,2)`.
pub fn silent_n_state_worst_case_interactions(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    let nf = n as f64;
    (nf - 1.0) * nf * (nf - 1.0) / 2.0
}

/// Expected parallel time of `Silent-n-state-SSR` from the worst-case initial
/// configuration, `(n−1)²/2 = Θ(n²)`.
pub fn silent_n_state_worst_case_time(n: usize) -> f64 {
    silent_n_state_worst_case_interactions(n) / n as f64
}

/// Expected parallel time upper bound shape for the coupon-collector step of
/// the roll-call analysis: every agent interacts at least once after
/// `~ (1/2)·n·ln n` interactions, i.e. `(1/2)·ln n` parallel time.
pub fn coupon_collector_all_agents_time(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    0.5 * (n as f64).ln()
}

/// The Table 1 expected-time shape for `Sublinear-Time-SSR` with constant `H`:
/// `Θ(H·n^{1/(H+1)})`.
pub fn sublinear_expected_time_shape(n: usize, h: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    (h.max(1)) as f64 * (n as f64).powf(1.0 / (h as f64 + 1.0))
}

/// The per-bit expected slowdown of the synthetic-coin construction
/// (Section 6): an agent needing a random bit waits an expected 4 interactions
/// for an `Alg`/`Flip` meeting, so harvesting `b` bits takes about `4·b` of
/// that agent's interactions.
pub fn synthetic_coin_expected_interactions_per_bit() -> f64 {
    4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epidemic_small_cases_match_hand_computation() {
        // n = 2: a single interaction is always enough; (n−1)·H_{n−1} = 1.
        assert!((epidemic_expected_interactions(2) - 1.0).abs() < 1e-12);
        // n = 3: 2·(1 + 1/2) = 3.
        assert!((epidemic_expected_interactions(3) - 3.0).abs() < 1e-12);
        assert!(epidemic_expected_time(1000) > 0.9 * 1000f64.ln());
    }

    #[test]
    fn roll_call_is_1_5_times_epidemic_asymptotically() {
        let n = 100_000;
        let ratio = roll_call_expected_time(n) / epidemic_expected_time(n);
        assert!((ratio - 1.5).abs() < 0.1);
    }

    #[test]
    fn bounded_epidemic_bounds_decrease_with_k() {
        let n = 10_000;
        assert!(bounded_epidemic_time_bound(n, 1) > bounded_epidemic_time_bound(n, 2));
        assert!(bounded_epidemic_time_bound(n, 2) > bounded_epidemic_time_bound(n, 4));
        // τ_1 bound is n itself.
        assert_eq!(bounded_epidemic_time_bound(n, 1), n as f64);
        // For k = 2 the bound is 2√n.
        assert!((bounded_epidemic_time_bound(n, 2) - 200.0).abs() < 1e-9);
        assert!(bounded_epidemic_log_time_bound(n) < bounded_epidemic_time_bound(n, 4));
    }

    #[test]
    fn fratricide_matches_closed_form() {
        // n = 2: exactly one interaction needed (the two leaders must meet,
        // success probability 1), so expected interactions = 1.
        assert_eq!(fratricide_expected_interactions(2), 1.0);
        // n = 3: Σ_{i=2}^{3} 3·2/(i(i−1)) = 6/2 + 6/6 = 4 = (3−1)².
        assert_eq!(fratricide_expected_interactions(3), 4.0);
        assert!((fratricide_expected_time(1000) - 998.001).abs() < 1e-9);
    }

    #[test]
    fn silent_n_state_worst_case_is_cubic_interactions() {
        assert_eq!(silent_n_state_worst_case_interactions(2), 1.0);
        let n = 100;
        let expected = 99.0 * 100.0 * 99.0 / 2.0;
        assert_eq!(silent_n_state_worst_case_interactions(n), expected);
        assert!((silent_n_state_worst_case_time(n) - expected / 100.0).abs() < 1e-9);
    }

    #[test]
    fn sublinear_time_shapes() {
        let n = 4096;
        // H = 1: 1·n^{1/2} = 64.
        assert!((sublinear_expected_time_shape(n, 1) - 64.0).abs() < 1e-9);
        // H = 0 corresponds to direct collision detection, shape n.
        assert!((sublinear_expected_time_shape(n, 0) - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn corollary_bounds_match_formulas() {
        assert_eq!(epidemic_three_n_ln_n_tail(10), 0.01);
    }

    #[test]
    fn synthetic_coin_constant() {
        assert_eq!(synthetic_coin_expected_interactions_per_bit(), 4.0);
    }
}
