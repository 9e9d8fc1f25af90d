//! Large-deviation bounds used in the paper's proofs.
//!
//! * Janson's bounds for sums of independent geometric random variables
//!   (Theorems 2.1 and 3.1 of S. Janson, *Tail bounds for sums of geometric
//!   and exponential variables*, 2018), used in Theorem 2.4 and
//!   Observation 2.6 of the paper.
//! * The epidemic upper-tail bound of Lemma 2.7 / Corollary 2.8.
//!
//! These are exposed so tests and experiments can check that empirical
//! exceedance frequencies never violate the proven bounds.

/// Upper-tail bound for a sum `S` of independent geometric random variables
/// with minimum success probability `p_min`: for `lambda >= 1`,
/// `P[S >= lambda * E[S]] <= exp(-p_min * E[S] * (lambda - 1 - ln lambda))`.
///
/// # Panics
///
/// Panics if `lambda < 1`, `p_min` is not in `(0, 1]`, or `mean <= 0`.
pub fn geometric_sum_upper_tail(mean: f64, p_min: f64, lambda: f64) -> f64 {
    assert!(lambda >= 1.0, "upper tail requires lambda >= 1");
    assert!(p_min > 0.0 && p_min <= 1.0, "p_min must be in (0, 1]");
    assert!(mean > 0.0, "mean must be positive");
    (-p_min * mean * (lambda - 1.0 - lambda.ln())).exp().min(1.0)
}

/// Lower-tail bound for a sum `S` of independent geometric random variables
/// with common minimum success probability `p`: for `0 < lambda <= 1`,
/// `P[S <= lambda * E[S]] <= exp(-p * E[S] * (lambda - 1 - ln lambda))`.
///
/// This is the bound used in the paper's Theorem 2.4 to show the `Ω(n²)` time
/// lower bound for `Silent-n-state-SSR` holds with probability
/// `1 − exp(−Θ(n))`.
///
/// # Panics
///
/// Panics if `lambda` is not in `(0, 1]`, `p` is not in `(0, 1]`, or
/// `mean <= 0`.
pub fn geometric_sum_lower_tail(mean: f64, p: f64, lambda: f64) -> f64 {
    assert!(lambda > 0.0 && lambda <= 1.0, "lower tail requires 0 < lambda <= 1");
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    assert!(mean > 0.0, "mean must be positive");
    (-p * mean * (lambda - 1.0 - lambda.ln())).exp().min(1.0)
}

/// The epidemic upper-tail bound of Lemma 2.7: for `n >= 8` and `delta >= 0`,
/// `P[T_n > (1 + delta)·E[T_n]] <= 2.5·ln(n)·n^(−2·delta)`.
///
/// # Panics
///
/// Panics if `n < 8` or `delta < 0`.
pub fn epidemic_upper_tail(n: usize, delta: f64) -> f64 {
    assert!(n >= 8, "Lemma 2.7's bound is stated for n >= 8");
    assert!(delta >= 0.0, "delta must be non-negative");
    (2.5 * (n as f64).ln() * (n as f64).powf(-2.0 * delta)).min(1.0)
}

/// The simplified epidemic bound of Corollary 2.8:
/// `P[T_n > 3·n·ln n] < 1/n²`.
pub fn epidemic_three_n_ln_n_tail(n: usize) -> f64 {
    assert!(n >= 2, "population must have at least two agents");
    1.0 / (n as f64 * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_tail_decreases_in_lambda() {
        let mean = 1000.0;
        let p = 0.01;
        let b1 = geometric_sum_upper_tail(mean, p, 1.5);
        let b2 = geometric_sum_upper_tail(mean, p, 2.0);
        let b3 = geometric_sum_upper_tail(mean, p, 3.0);
        assert!(b1 > b2 && b2 > b3);
        assert!(b3 > 0.0 && b1 <= 1.0);
    }

    #[test]
    fn upper_tail_at_lambda_one_is_trivial() {
        assert_eq!(geometric_sum_upper_tail(100.0, 0.5, 1.0), 1.0);
    }

    #[test]
    fn lower_tail_decreases_as_lambda_shrinks() {
        let mean = 1000.0;
        let p = 0.01;
        let b_half = geometric_sum_lower_tail(mean, p, 0.5);
        let b_tenth = geometric_sum_lower_tail(mean, p, 0.1);
        assert!(b_tenth < b_half);
        assert!(b_half < 1.0);
    }

    #[test]
    #[should_panic(expected = "lambda >= 1")]
    fn upper_tail_rejects_small_lambda() {
        let _ = geometric_sum_upper_tail(10.0, 0.1, 0.5);
    }

    #[test]
    #[should_panic(expected = "0 < lambda <= 1")]
    fn lower_tail_rejects_large_lambda() {
        let _ = geometric_sum_lower_tail(10.0, 0.1, 2.0);
    }

    #[test]
    fn epidemic_tail_shrinks_with_n_and_delta() {
        assert!(epidemic_upper_tail(100, 1.0) < epidemic_upper_tail(100, 0.5));
        assert!(epidemic_upper_tail(1000, 1.0) < epidemic_upper_tail(100, 1.0));
        assert_eq!(epidemic_upper_tail(8, 0.0), 1.0);
    }

    #[test]
    fn corollary_bounds_match_formulas() {
        assert_eq!(epidemic_three_n_ln_n_tail(10), 0.01);
    }
}
