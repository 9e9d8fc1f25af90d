//! Parameter selection for the protocols.
//!
//! The paper fixes `Rmax = 60·ln n` (matching the constant of the propagating
//! variable analysis it reuses) and requires `Dmax = Ω(log n + Rmax)` for
//! `Propagate-Reset`, `Dmax = Θ(n)` and `Emax = Θ(n)` for
//! `Optimal-Silent-SSR`, and `Smax = Θ(n²)`, `T_H = Θ(τ_{H+1})` for
//! `Sublinear-Time-SSR`. Constants do not affect the asymptotic results but
//! they matter a lot for finite-`n` simulations, so every constant here is a
//! field that experiments can override (and the ablation benches do), with
//! `recommended(n)` constructors that pick values giving the paper's
//! behaviour at simulable sizes.

/// Parameters of the `Propagate-Reset` subprotocol (Protocol 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResetParams {
    /// Maximum value of `resetcount`; a freshly triggered agent starts here.
    /// The paper uses `60·ln n`; any `Ω(log n)` value with a constant that
    /// safely exceeds the epidemic path depth (`≈ e·ln n`) works.
    pub r_max: u32,
    /// Maximum value of `delaytimer`; dormant agents count this down before
    /// awakening. Must be `Ω(log n + Rmax)`; `Optimal-Silent-SSR` sets it to
    /// `Θ(n)` so the dormant phase lasts long enough for its slow leader
    /// election.
    pub d_max: u32,
}

impl ResetParams {
    /// Parameters for a logarithmic-length dormancy, as used by
    /// `Sublinear-Time-SSR` (`Dmax = Θ(log n)`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn logarithmic(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        let ln_n = (n as f64).ln();
        let r_max = (8.0 * ln_n).ceil() as u32 + 4;
        ResetParams { r_max, d_max: 2 * r_max + (8.0 * ln_n).ceil() as u32 + 8 }
    }

    /// Parameters for a linear-length dormancy, as used by
    /// `Optimal-Silent-SSR` (`Dmax = Θ(n)`), with the given multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `d_max_multiplier == 0`.
    pub fn linear(n: usize, d_max_multiplier: u32) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        assert!(d_max_multiplier >= 1, "the Dmax multiplier must be positive");
        let ln_n = (n as f64).ln();
        let r_max = (8.0 * ln_n).ceil() as u32 + 4;
        let d_max = (d_max_multiplier as u64 * n as u64).max(2 * r_max as u64 + 8) as u32;
        ResetParams { r_max, d_max }
    }
}

/// Parameters of `Optimal-Silent-SSR` (Protocol 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptimalSilentParams {
    /// Population size `n` (the protocol is strongly nonuniform; it hardcodes
    /// `n`).
    pub n: usize,
    /// `Propagate-Reset` parameters with `Dmax = Θ(n)`.
    pub reset: ResetParams,
    /// Initial `errorcount` of an unsettled agent (`Emax = Θ(n)`): if an agent
    /// stays unsettled for this many of its own interactions it triggers a
    /// reset.
    pub e_max: u32,
}

impl OptimalSilentParams {
    /// Recommended parameters: `Dmax = 4n`, `Emax = 20n`.
    ///
    /// The `Dmax` multiplier trades dormancy length against the probability
    /// that the slow leader election finishes before awakening (Lemma 4.2);
    /// the `Emax` multiplier trades error-detection latency against the
    /// probability of a false alarm during a legitimate ranking phase. Both
    /// are ablated by the `exp_reset` experiment.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn recommended(n: usize) -> Self {
        Self::with_multipliers(n, 4, 20)
    }

    /// Parameters with explicit `Dmax = d_mult·n` and `Emax = e_mult·n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or either multiplier is zero.
    pub fn with_multipliers(n: usize, d_mult: u32, e_mult: u32) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        assert!(e_mult >= 1, "the Emax multiplier must be positive");
        OptimalSilentParams {
            n,
            reset: ResetParams::linear(n, d_mult),
            e_max: (e_mult as u64 * n as u64) as u32,
        }
    }

    /// Deliberately **tiny** timers for exhaustive model checking
    /// (`ppsim::mcheck`): the state count is `3n + (Emax + 1) +
    /// 2·(Rmax + 1)·(Dmax + 1)`, and the full configuration lattice
    /// `C(n + |S| − 1, |S| − 1)` must stay enumerable, so every counter is
    /// cut to the smallest value that keeps the protocol *correct* (timer
    /// sizes only shift the constants of the paper's expected-time theorems,
    /// never the self-stabilization argument, which is exactly what the
    /// checker verifies): `Rmax = 2` still lets one triggered agent's reset
    /// wave cover a population of `n ≤ 6` along a chain of draggings,
    /// `Dmax = 3` leaves dormant leader candidates two fratricide meetings
    /// before awakening, and `Emax = 1` forces an unsettled agent to be
    /// recruited on its first interaction or trigger a reset.
    ///
    /// The recommended `Θ(n)` timers make stabilization *fast*; these make
    /// the correctness question *decidable* at small `n`. Use
    /// [`OptimalSilentParams::recommended`] for simulations.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn mcheck(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        OptimalSilentParams { n, reset: ResetParams { r_max: 2, d_max: 3 }, e_max: 1 }
    }
}

/// Parameters of `Sublinear-Time-SSR` (Protocol 5) and its
/// `Detect-Name-Collision` subroutine (Protocol 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SublinearParams {
    /// Population size `n`.
    pub n: usize,
    /// Length of agent names in bits; the paper uses `3·log₂ n` so that `n`
    /// random names collide with probability only `O(1/n)`.
    pub name_bits: u32,
    /// History-tree depth `H`. `H = 0` is direct collision detection
    /// (linear time); constant `H ≥ 1` gives `Θ(H·n^{1/(H+1)})` time;
    /// `H = Θ(log n)` gives `Θ(log n)` time.
    pub h: u32,
    /// Edge-timer initial value `T_H = Θ(τ_{H+1})`: how many of an agent's own
    /// interactions a remembered edge stays *checkable* (expired edges are
    /// still usable as verification evidence).
    pub t_h: u32,
    /// Size of the sync-value space (`Smax = Θ(n²)`), so two independent sync
    /// values collide with probability `O(1/n²)`.
    pub s_max: u32,
    /// `Propagate-Reset` parameters with `Dmax = Θ(log n)`, chosen large
    /// enough for a dormant agent to draw all `name_bits` fresh random bits.
    pub reset: ResetParams,
}

impl SublinearParams {
    /// Recommended parameters for history depth `h`.
    ///
    /// `T_H` is set to `6·(H+1)·n^{1/(H+1)}` for constant `H` — a safety
    /// factor above the `τ_{H+1}` bound of Lemma 2.10 — and to `12·ln n` once
    /// `H ≥ log₂ n` (Lemma 2.11).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn recommended(n: usize, h: u32) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        let name_bits = (3.0 * (n as f64).log2()).ceil() as u32;
        let log2_n = (n as f64).log2();
        let t_h = if (h as f64) >= log2_n {
            (12.0 * (n as f64).ln()).ceil() as u32
        } else {
            (6.0 * (h as f64 + 1.0) * (n as f64).powf(1.0 / (h as f64 + 1.0))).ceil() as u32
        };
        let base = ResetParams::logarithmic(n);
        let reset = ResetParams {
            r_max: base.r_max,
            // Dormancy must cover name regeneration: one bit per interaction.
            d_max: base.d_max.max(2 * base.r_max + 2 * name_bits + 8),
        };
        SublinearParams {
            n,
            name_bits,
            h,
            t_h: t_h.max(4),
            s_max: (n as u64 * n as u64).min(u32::MAX as u64) as u32,
            reset,
        }
    }

    /// Recommended parameters for the time-optimal variant `H = ⌈log₂ n⌉`.
    pub fn recommended_logarithmic(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        let h = (n as f64).log2().ceil() as u32;
        Self::recommended(n, h)
    }

    /// Overrides the edge-timer value `T_H` (used by the ablation benches).
    pub fn with_t_h(mut self, t_h: u32) -> Self {
        self.t_h = t_h.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logarithmic_reset_params_grow_slowly() {
        let small = ResetParams::logarithmic(16);
        let large = ResetParams::logarithmic(4096);
        assert!(large.r_max > small.r_max);
        assert!(large.r_max < 100, "Rmax should stay logarithmic, got {}", large.r_max);
        assert!(small.d_max >= 2 * small.r_max);
    }

    #[test]
    fn linear_reset_params_scale_with_n() {
        let p = ResetParams::linear(256, 4);
        assert_eq!(p.d_max, 1024);
        assert!(p.r_max < 60);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn linear_zero_multiplier_rejected() {
        let _ = ResetParams::linear(16, 0);
    }

    #[test]
    fn optimal_silent_recommended_values() {
        let p = OptimalSilentParams::recommended(128);
        assert_eq!(p.n, 128);
        assert_eq!(p.reset.d_max, 4 * 128);
        assert_eq!(p.e_max, 20 * 128);
    }

    #[test]
    fn sublinear_name_length_is_three_log_n() {
        let p = SublinearParams::recommended(64, 1);
        assert_eq!(p.name_bits, 18);
        assert_eq!(p.s_max, 64 * 64);
    }

    #[test]
    fn sublinear_timer_decreases_with_depth_then_hits_log_regime() {
        let n = 1024;
        let t1 = SublinearParams::recommended(n, 1).t_h;
        let t2 = SublinearParams::recommended(n, 2).t_h;
        let t3 = SublinearParams::recommended(n, 3).t_h;
        let tlog = SublinearParams::recommended_logarithmic(n).t_h;
        assert!(t1 > t2 && t2 > t3, "T_H should shrink with H: {t1}, {t2}, {t3}");
        assert!(tlog < t2, "log-regime timer {tlog} should be below the H=2 timer {t2}");
    }

    #[test]
    fn sublinear_dormancy_covers_name_regeneration() {
        for n in [8usize, 64, 512] {
            let p = SublinearParams::recommended(n, 2);
            assert!(p.reset.d_max > p.name_bits, "Dmax must exceed the name length");
        }
    }

    #[test]
    fn with_t_h_overrides_and_clamps() {
        let p = SublinearParams::recommended(64, 1).with_t_h(0);
        assert_eq!(p.t_h, 1);
        let p = SublinearParams::recommended(64, 1).with_t_h(99);
        assert_eq!(p.t_h, 99);
    }
}
