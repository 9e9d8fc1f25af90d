//! Experiment M: exhaustive model checking — the paper's universally
//! quantified claims *proved* (not sampled) at small `n`, and exact expected
//! silence times cross-validating the closed forms and the simulators.
//!
//! Six sweeps, all **asserted**, not just printed:
//!
//! * **Dense verification** — `ppsim::mcheck::check_convergence` on the
//!   lattice source, unquotiented (`use_symmetry: false`), classifies every
//!   configuration of the full `C(n + |S| − 1, |S| − 1)` lattice and proves, for `Silent-n-state-SSR` (n ≤ 8), `Optimal-Silent-SSR`
//!   with the tiny `mcheck` timers (n ≤ 6, a 14-million-configuration
//!   lattice), the epidemic, the coupon collector and fratricide (n ≤ 64):
//!   every configuration reaches a correct silent configuration, and
//!   silent ⟺ correct — the self-stabilization theorem, decided
//!   exhaustively.
//! * **Quotient verification** — the same `check_convergence` pass with the
//!   default `use_symmetry: true` pushes the full-lattice proof past the
//!   dense wall by classifying only canonical orbit representatives of each
//!   protocol's declared state symmetry: `Silent-n-state-SSR` to n = 12 (a 1 352 078-configuration
//!   lattice proved from 112 720 Z/12-orbits), plus the
//!   `Optimal-Silent-SSR` n = 5 cross-check of a non-cyclic (block-swap)
//!   group against the dense sweep's verdict on the same lattice.
//! * **Closure convergence** — past *both* lattice guards
//!   (`Optimal-Silent-SSR` at n = 8 has a ~1.65 × 10⁹-configuration
//!   lattice), `check_convergence` on the closure source proves every
//!   configuration reachable from the adversarial starts convergent on the
//!   compressed, quotiented closure.
//! * **Exact expected silence times** — the absorbing-chain solve reproduces
//!   `(n − 1)·C(n, 2)` for `Silent-n-state-SSR`'s worst case (Theorem 2.4,
//!   up to the n = 12 flagship on the quotient), `(n − 1)·H_{n−1}` for the
//!   single-source epidemic (Lemma 2.7) and `(n − 1)²` for fratricide
//!   (Lemma 4.2) to `1e−9` relative error — once *through the spill store*
//!   with a zero resident-edge budget — and agrees with 200-trial
//!   exact-engine means within the repo's standard `1.5·t·SE` allowance
//!   where no closed form exists (coupon, `Optimal-Silent-SSR`).
//! * **Fault closure** — every possible corruption burst of the protocols'
//!   fault plans, applied to every configuration reachable from their
//!   standard starts, lands inside the verified-convergent set: the
//!   exhaustive version of `exp_faults`' recovery claim.
//! * **Falsification** — fratricide judged by the strict unique-leader
//!   oracle is *refuted* with the leaderless configuration as witness
//!   (Observation 2.6), demonstrating the checker rejects wrong claims
//!   rather than rubber-stamping protocols.
//!
//! Writes `BENCH_mc.json` into the current directory, including two
//! same-machine throughput rows (`engine: "speedup"` — configurations
//! exhaustively verified per exact-engine interaction simulated, one for
//! the dense checker and one for the n = 12 quotient flagship, which drop
//! when the checker regresses) that the nightly perf gate compares against
//! the committed baseline.
//!
//! ```text
//! cargo run --release -p bench --bin exp_mcheck [-- --quick]
//! ```

use analysis::theory::{
    epidemic_expected_interactions, fratricide_expected_interactions,
    silent_n_state_worst_case_interactions,
};
use analysis::{t_quantile_975, Summary, Table};
use bench::perf::{write_bench, Json};
use ppsim::mcheck::{
    check_convergence, check_fault_plan_closure, expected_silence_time_exact, lattice_size,
    ConvergenceReport, ConvergenceSource, MCheckOptions,
};
use ppsim::prelude::*;
use processes::{Coupon, Epidemic, Fratricide, FratricideAsElection, LeaderState};
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        println!("(quick mode: reduced n sweep)\n");
    }
    let options = MCheckOptions::default();
    // The dense sweep, the fault closures and the falsification demo
    // classify every configuration, so the verify rows and the gate row
    // built from them time the unquotiented pass.
    let dense = MCheckOptions { use_symmetry: false, ..options.clone() };
    let mut rows = Vec::new();

    verify_sweep(quick, &dense, &mut rows);
    quotient_sweep(quick, &options, &mut rows);
    closure_sweep(quick, &options, &mut rows);
    exact_time_sweep(quick, &options, &mut rows);
    fault_closure_sweep(&dense, &mut rows);
    falsification_demo(&dense);
    let cost_ratio = cost_ratio_cell(&rows);
    let quotient_ratio = quotient_ratio_cell(&rows);
    for (workload, n, speedup) in [
        ("mcheck-verify-OptimalSilentSsr", 5u32, cost_ratio),
        ("mcheck-quotient-SilentNStateSsr", 12, quotient_ratio),
    ] {
        rows.push(Json::object([
            ("workload", workload.into()),
            ("n", n.into()),
            ("engine", "speedup".into()),
            ("speedup", speedup.into()),
        ]));
    }
    let fields = [
        ("schema", Json::from("exp_mcheck/v1")),
        (
            "verified",
            "every configuration of the full lattice reaches a correct silent configuration, \
             and silent <=> correct"
                .into(),
        ),
        ("quick", quick.into()),
    ];
    write_bench("BENCH_mc.json", &fields, &rows);
    println!(
        "\nall verifications proved, all exact times matched their closed form or simulation, \
         all fault closures held, and the strict-oracle falsification produced its witness"
    );
}

/// Proves self-stabilization over the full lattice, per protocol × n.
fn verify_sweep(quick: bool, options: &MCheckOptions, rows: &mut Vec<Json>) {
    println!("== exhaustive verification: every configuration reaches a correct silent one ==\n");
    let mut table =
        Table::new(vec!["protocol", "n", "|S|", "configurations", "silent", "verified", "wall"]);

    let ssr_ns: &[usize] = if quick { &[2, 3, 4, 5, 6] } else { &[2, 3, 4, 5, 6, 7, 8] };
    for &n in ssr_ns {
        let protocol = SilentNStateSsr::new(n);
        run_verify_cell("SilentNStateSsr", n, protocol, options, rows, &mut table);
    }
    let opt_ns: &[usize] = if quick { &[2, 3, 4, 5] } else { &[2, 3, 4, 5, 6] };
    for &n in opt_ns {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        run_verify_cell("OptimalSilentSsr", n, protocol, options, rows, &mut table);
    }
    let process_ns: &[usize] = if quick { &[2, 3, 4, 5, 8] } else { &[2, 3, 4, 5, 8, 16, 32, 64] };
    for &n in process_ns {
        run_verify_cell("Epidemic", n, Epidemic::new(n), options, rows, &mut table);
        run_verify_cell("Coupon", n, Coupon::new(n), options, rows, &mut table);
        run_verify_cell("Fratricide", n, Fratricide::new(n), options, rows, &mut table);
    }
    println!("{}", table.to_plain_text());
}

fn run_verify_cell<P: EnumerableProtocol + CorrectnessOracle>(
    name: &'static str,
    n: usize,
    protocol: P,
    options: &MCheckOptions,
    rows: &mut Vec<Json>,
    table: &mut Table,
) {
    let states = protocol.num_states();
    let start = Instant::now();
    let report = check_convergence(protocol, ConvergenceSource::Lattice, options)
        .expect("lattice within capacity");
    let wall_s = start.elapsed().as_secs_f64();
    assert!(
        report.verified(),
        "{name} n = {n}: silent∧¬correct {}, correct∧¬silent {}, non-convergent {} of {}",
        report.silent_incorrect,
        report.correct_nonsilent,
        report.non_convergent,
        report.configurations,
    );
    assert_eq!(report.configurations, lattice_size(n, states).unwrap());
    table.add_row(vec![
        name.to_owned(),
        n.to_string(),
        states.to_string(),
        report.configurations.to_string(),
        report.silent.to_string(),
        "proved".to_owned(),
        format!("{wall_s:.2}s"),
    ]);
    rows.push(Json::object([
        ("protocol", name.into()),
        ("n", n.into()),
        ("engine", "mcheck".into()),
        ("states", states.into()),
        ("configurations", report.configurations.into()),
        ("silent", report.silent.into()),
        ("verified", true.into()),
        ("wall_s", wall_s.into()),
    ]));
}

/// Proves self-stabilization over the full lattice on the symmetry
/// quotient, past the dense sweep's wall: the enumeration touches only
/// canonical orbit representatives, so the verdict covers `lattice_size`
/// configurations while classifying `orbits ≈ lattice / |G|` of them.
fn quotient_sweep(quick: bool, options: &MCheckOptions, rows: &mut Vec<Json>) {
    println!("== symmetry-quotient verification: full-lattice proofs past the dense wall ==\n");
    let mut table =
        Table::new(vec!["protocol", "n", "configurations", "orbits", "|G|", "verified", "wall"]);

    // Z/n rank rotation: the n = 12 flagship runs in every mode (it is also
    // the nightly gate's throughput row); the dense sweep stops at n = 8.
    let ssr_ns: &[usize] = if quick { &[8, 12] } else { &[8, 10, 12] };
    for &n in ssr_ns {
        let protocol = SilentNStateSsr::new(n);
        let states = protocol.num_states();
        let start = Instant::now();
        let report = check_convergence(protocol, ConvergenceSource::Lattice, options)
            .expect("quotient enumeration within the guards");
        let wall_s = start.elapsed().as_secs_f64();
        assert!(
            report.verified(),
            "SilentNStateSsr n = {n} quotient: silent∧¬correct {}, non-convergent {}",
            report.silent_incorrect,
            report.non_convergent,
        );
        assert_eq!(report.configurations, lattice_size(n, states).unwrap());
        assert_eq!(report.group_order, n as u128, "Z/n rotation");
        assert!(u128::from(report.states) < report.configurations);
        push_quotient_cell(rows, &mut table, "SilentNStateSsr", n, states, &report, wall_s);
    }

    // Commuting leaf-rank block swaps (|G| = 2^⌊n/2⌋ ranks with 2r > n,
    // order 8 at n = 5): most configurations contain no swappable leaf
    // state, so the reduction is modest (1.22M → 880K orbits) — the cell's
    // value is the cross-check that a *non-trivial, non-cyclic* group
    // reproduces the dense sweep's verdict on the same lattice.
    let opt_ns: &[usize] = &[5];
    for &n in opt_ns {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        let states = protocol.num_states();
        let start = Instant::now();
        let report = check_convergence(protocol, ConvergenceSource::Lattice, options)
            .expect("quotient enumeration within the guards");
        let wall_s = start.elapsed().as_secs_f64();
        assert!(report.verified(), "OptimalSilentSsr n = {n} quotient");
        assert_eq!(report.configurations, lattice_size(n, states).unwrap());
        assert!(u128::from(report.states) < report.configurations);
        push_quotient_cell(rows, &mut table, "OptimalSilentSsr", n, states, &report, wall_s);
    }
    println!("{}", table.to_plain_text());
}

fn push_quotient_cell<P: EnumerableProtocol>(
    rows: &mut Vec<Json>,
    table: &mut Table,
    name: &'static str,
    n: usize,
    states: usize,
    report: &ConvergenceReport<P>,
    wall_s: f64,
) {
    table.add_row(vec![
        name.to_owned(),
        n.to_string(),
        report.configurations.to_string(),
        report.states.to_string(),
        report.group_order.to_string(),
        "proved".to_owned(),
        format!("{wall_s:.2}s"),
    ]);
    rows.push(Json::object([
        ("protocol", name.into()),
        ("n", n.into()),
        ("engine", "mcheck-quotient".into()),
        ("states", states.into()),
        ("configurations", report.configurations.into()),
        ("orbits", report.states.into()),
        ("group_order", report.group_order.into()),
        ("silent_orbits", report.silent.into()),
        ("verified", true.into()),
        ("wall_s", wall_s.into()),
    ]));
}

/// Convergence proofs on the compressed reachable closure — the layer past
/// *both* lattice guards: `Optimal-Silent-SSR`'s mcheck lattice at n = 8 is
/// ~1.65 × 10⁹ configurations (over even the quotient's time guard), but
/// the closure of its adversarial starts is small enough to enumerate,
/// canonicalize, and prove convergent.
fn closure_sweep(quick: bool, options: &MCheckOptions, rows: &mut Vec<Json>) {
    println!("== compressed-closure convergence: adversarial starts past both lattice guards ==\n");
    let mut table =
        Table::new(vec!["protocol", "n", "seeds", "closure states", "silent", "verified", "wall"]);

    let opt_ns: &[usize] = if quick { &[6] } else { &[6, 7, 8] };
    for &n in opt_ns {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        let seeds = [
            protocol.adversarial_all_same_rank(2),
            protocol.all_unsettled_configuration(),
            protocol.ranked_configuration(),
        ];
        // The n = 8 closure holds ~5.9M orbit representatives; raise the
        // reachable guard for it (memory stays bounded by the compressed
        // store + the spill threshold, not the guard).
        let opts = MCheckOptions { max_reachable: 16_000_000, ..options.clone() };
        let start = Instant::now();
        let report = check_convergence(protocol, ConvergenceSource::Closure(&seeds), &opts)
            .expect("closure within the guard");
        let wall_s = start.elapsed().as_secs_f64();
        assert!(
            report.verified(),
            "OptimalSilentSsr n = {n} closure: silent∧¬correct {}, non-convergent {}",
            report.silent_incorrect,
            report.non_convergent,
        );
        table.add_row(vec![
            "OptimalSilentSsr".to_owned(),
            n.to_string(),
            seeds.len().to_string(),
            report.states.to_string(),
            report.silent.to_string(),
            "proved".to_owned(),
            format!("{wall_s:.2}s"),
        ]);
        rows.push(Json::object([
            ("protocol", "OptimalSilentSsr".into()),
            ("n", n.into()),
            ("engine", "mcheck-closure".into()),
            ("seeds", seeds.len().into()),
            ("closure_states", report.states.into()),
            ("silent", report.silent.into()),
            ("verified", true.into()),
            ("wall_s", wall_s.into()),
        ]));
    }
    println!("{}", table.to_plain_text());
}

/// Solves exact expected silence times and asserts them against closed
/// forms (to 1e−9 relative) or 200-trial exact-engine means (1.5·t·SE).
fn exact_time_sweep(quick: bool, options: &MCheckOptions, rows: &mut Vec<Json>) {
    println!("== exact expected silence times (absorbing-chain solve) ==\n");
    let mut table =
        Table::new(vec!["protocol", "scenario", "n", "exact E[time]", "reference", "agreement"]);

    // n = 10 and the n = 12 flagship ride the symmetry quotient (the closure
    // of the worst-case start is canonicalized to orbit representatives);
    // the closed form must come out identically either way.
    let ssr_ns: &[usize] =
        if quick { &[2, 3, 4, 5, 6, 12] } else { &[2, 3, 4, 5, 6, 7, 8, 10, 12] };
    for &n in ssr_ns {
        let protocol = SilentNStateSsr::new(n);
        let exact =
            expected_silence_time_exact(protocol, &protocol.worst_case_configuration(), options)
                .expect("worst-case chain converges");
        let closed = silent_n_state_worst_case_interactions(n);
        assert!(
            (exact.expected_interactions - closed).abs() <= 1e-9 * closed,
            "Theorem 2.4 closed form violated at n = {n}: {} vs {closed}",
            exact.expected_interactions
        );
        push_time_cell(
            rows,
            &mut table,
            "SilentNStateSsr",
            "worst-case",
            n,
            exact.expected_parallel,
            Some(closed / n as f64),
            None,
            &exact,
        );
    }

    // The spill layer: a zero resident-edge budget forces the successor
    // store onto disk and the sweeps to stream from the distance-ordered
    // edge file — Lemma 4.2's closed form must still come out exactly.
    {
        let n = 64usize;
        let protocol = Fratricide::new(n);
        let spill_opts = MCheckOptions { max_resident_bytes: 0, ..options.clone() };
        let exact = expected_silence_time_exact(
            protocol,
            &protocol.all_leaders_configuration(),
            &spill_opts,
        )
        .expect("fratricide chain converges through the spill store");
        assert!(exact.spilled, "a zero resident budget must route through the spill store");
        let closed = fratricide_expected_interactions(n);
        assert!(
            (exact.expected_interactions - closed).abs() <= 1e-9 * closed,
            "Lemma 4.2 closed form violated through the spill store at n = {n}: {} vs {closed}",
            exact.expected_interactions
        );
        push_time_cell(
            rows,
            &mut table,
            "Fratricide",
            "all-leaders-spilled",
            n,
            exact.expected_parallel,
            Some(closed / n as f64),
            None,
            &exact,
        );
    }

    let epi_ns: &[usize] = if quick { &[2, 4, 8, 16] } else { &[2, 4, 8, 16, 32, 64] };
    for &n in epi_ns {
        let protocol = Epidemic::new(n);
        let exact =
            expected_silence_time_exact(protocol, &protocol.single_source_configuration(), options)
                .expect("epidemic chain converges");
        let closed = epidemic_expected_interactions(n);
        assert!(
            (exact.expected_interactions - closed).abs() <= 1e-9 * closed,
            "Lemma 2.7 closed form violated at n = {n}: {} vs {closed}",
            exact.expected_interactions
        );
        push_time_cell(
            rows,
            &mut table,
            "Epidemic",
            "single-source",
            n,
            exact.expected_parallel,
            Some(closed / n as f64),
            None,
            &exact,
        );

        let protocol = Fratricide::new(n);
        let exact =
            expected_silence_time_exact(protocol, &protocol.all_leaders_configuration(), options)
                .expect("fratricide chain converges");
        let closed = fratricide_expected_interactions(n);
        assert!(
            (exact.expected_interactions - closed).abs() <= 1e-9 * closed,
            "Lemma 4.2 closed form violated at n = {n}: {} vs {closed}",
            exact.expected_interactions
        );
        push_time_cell(
            rows,
            &mut table,
            "Fratricide",
            "all-leaders",
            n,
            exact.expected_parallel,
            Some(closed / n as f64),
            None,
            &exact,
        );
    }

    // No closed form: assert agreement with the exact engine instead.
    let coupon_ns: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    for &n in coupon_ns {
        let protocol = Coupon::new(n);
        let config = protocol.all_fresh_configuration();
        let exact =
            expected_silence_time_exact(protocol, &config, options).expect("coupon converges");
        let mean = assert_sim_agreement(protocol, &config, exact.expected_interactions, "coupon");
        push_time_cell(
            rows,
            &mut table,
            "Coupon",
            "all-fresh",
            n,
            exact.expected_parallel,
            None,
            Some(mean / n as f64),
            &exact,
        );
    }
    for &n in &[3usize, 4] {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        for (scenario, config) in [
            ("all-rank-2", protocol.adversarial_all_same_rank(2)),
            ("all-unsettled", protocol.all_unsettled_configuration()),
        ] {
            let exact = expected_silence_time_exact(protocol, &config, options)
                .expect("optimal-silent converges under the mcheck timers");
            let mean =
                assert_sim_agreement(protocol, &config, exact.expected_interactions, scenario);
            push_time_cell(
                rows,
                &mut table,
                "OptimalSilentSsr",
                scenario,
                n,
                exact.expected_parallel,
                None,
                Some(mean / n as f64),
                &exact,
            );
        }
    }
    println!("{}", table.to_plain_text());
}

#[allow(clippy::too_many_arguments)]
fn push_time_cell(
    rows: &mut Vec<Json>,
    table: &mut Table,
    protocol: &'static str,
    scenario: &'static str,
    n: usize,
    exact_parallel: f64,
    closed_form_parallel: Option<f64>,
    sim_mean_parallel: Option<f64>,
    exact: &ppsim::mcheck::ExactSilenceTime,
) {
    let (reference, agreement, key, value) = match (closed_form_parallel, sim_mean_parallel) {
        (Some(c), _) => (format!("closed form {c:.4}"), "exact (≤1e−9)", "closed_form_parallel", c),
        (_, Some(m)) => (format!("sim mean {m:.4}"), "within 1.5·t·SE", "sim_mean_parallel", m),
        _ => unreachable!("every cell has a reference"),
    };
    table.add_row(vec![
        protocol.to_owned(),
        scenario.to_owned(),
        n.to_string(),
        format!("{exact_parallel:.4}"),
        reference,
        agreement.to_owned(),
    ]);
    rows.push(Json::object([
        ("protocol", protocol.into()),
        ("scenario", scenario.into()),
        ("n", n.into()),
        ("engine", "mcheck-exact-time".into()),
        ("exact_parallel", exact_parallel.into()),
        (key, value.into()),
        ("reachable", exact.states.into()),
        ("quotient", exact.quotient.into()),
        ("spilled", exact.spilled.into()),
    ]));
}

/// 200 exact-engine trials from `config`; asserts the mean is within the
/// repo's standard 1.5·t·SE allowance of the exact expectation and returns
/// it (in interactions).
fn assert_sim_agreement<P>(
    protocol: P,
    config: &Configuration<P::State>,
    exact_interactions: f64,
    context: &str,
) -> f64
where
    P: Protocol + Clone + Send + Sync,
    P::State: Clone,
{
    let plan = TrialPlan::new(200, 0x3C_EC0);
    let samples = ppsim::run_trials(&plan, |_, seed| {
        let mut sim = Simulation::new(protocol.clone(), config.clone(), seed);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent(), "{context}: trial failed to silence");
        outcome.interactions.count() as f64
    });
    let summary = Summary::from_samples(&samples);
    let allowance = 1.5 * t_quantile_975(summary.count - 1) * summary.standard_error();
    assert!(
        (summary.mean - exact_interactions).abs() <= allowance.max(1e-9),
        "{context}: exact {exact_interactions} outside mean {} ± {allowance}",
        summary.mean
    );
    summary.mean
}

/// Exhaustive fault closure per protocol × plan.
fn fault_closure_sweep(options: &MCheckOptions, rows: &mut Vec<Json>) {
    println!("== exhaustive fault closure: every burst on every reachable configuration ==\n");
    let mut table =
        Table::new(vec!["protocol", "plan", "n", "reachable", "perturbations", "closure"]);

    let n = 5;
    let protocol = SilentNStateSsr::new(n);
    for plan in protocol.adversarial_fault_plans() {
        let report = check_fault_plan_closure(
            protocol,
            &plan,
            &[protocol.ranked_configuration(), protocol.worst_case_configuration()],
            options,
        )
        .expect("lattice within capacity");
        push_fault_cell(rows, &mut table, "SilentNStateSsr", plan.name(), n, &report);
    }

    let n = 3;
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
    let plan = FaultPlan::one_shot(
        1_000,
        1,
        CorruptionTarget::Fixed(ssle::OptimalSilentState::Settled { rank: 1, children: 0 }),
    )
    .with_name("one-shot-second-root");
    let report = check_fault_plan_closure(
        protocol,
        &plan,
        &[protocol.ranked_configuration(), protocol.post_reset_configuration()],
        options,
    )
    .expect("lattice within capacity");
    push_fault_cell(rows, &mut table, "OptimalSilentSsr", plan.name(), n, &report);

    let n = 8;
    let protocol = Fratricide::new(n);
    let plan = FaultPlan::one_shot(100, 2, CorruptionTarget::Fixed(LeaderState::Leader))
        .with_name("one-shot-two-pretenders");
    let report =
        check_fault_plan_closure(protocol, &plan, &[protocol.all_leaders_configuration()], options)
            .expect("lattice within capacity");
    push_fault_cell(rows, &mut table, "Fratricide", plan.name(), n, &report);
    println!("{}", table.to_plain_text());
}

fn push_fault_cell<S>(
    rows: &mut Vec<Json>,
    table: &mut Table,
    protocol: &str,
    plan: &str,
    n: usize,
    report: &FaultClosureReport<S>,
) {
    assert!(report.verified(), "{plan}: {} violations", report.violations);
    table.add_row(vec![
        protocol.to_owned(),
        plan.to_owned(),
        n.to_string(),
        report.reachable.to_string(),
        report.perturbations.to_string(),
        "holds".to_owned(),
    ]);
    rows.push(Json::object([
        ("protocol", protocol.into()),
        ("plan", plan.into()),
        ("n", n.into()),
        ("engine", "mcheck-fault-closure".into()),
        ("reachable", report.reachable.into()),
        ("perturbations", report.perturbations.into()),
        ("violations", 0u32.into()),
    ]));
}

/// Fratricide judged as a *leader election* protocol: the checker must
/// refute it (Observation 2.6) with the leaderless witness.
fn falsification_demo(options: &MCheckOptions) {
    let report = check_convergence(
        FratricideAsElection(Fratricide::new(16)),
        ConvergenceSource::Lattice,
        options,
    )
    .expect("tiny lattice");
    assert!(!report.verified(), "the strict oracle must be refuted");
    assert_eq!(report.silent_incorrect, 1);
    let witness = report.non_convergent_witness.as_ref().expect("leaderless witness");
    assert!(witness.iter().all(|s| matches!(s, LeaderState::Follower)));
    println!(
        "== falsification demo ==\n\nfratricide judged by the strict unique-leader oracle is \
         REFUTED at n = 16:\nwitness: the all-followers configuration (silent, leaderless, \
         inescapable) — Observation 2.6 machine-checked\n"
    );
}

/// Same-machine verification-throughput ratio for the perf gate:
/// configurations exhaustively verified per exact-engine interaction
/// simulated, both rates measured in this process on `Optimal-Silent-SSR`
/// (mcheck timers) at n = 5. A ratio of two same-machine wall-clock rates,
/// so the runner's absolute speed cancels to first order — the same
/// property the engine-speedup gates rely on — and, like those speedups,
/// it *drops* when the checker regresses, which is the direction
/// `check_bench` fails on. The checker rate is reused from the verify
/// sweep's n = 5 cell rather than re-proved.
fn cost_ratio_cell(rows: &[Json]) -> f64 {
    let n = 5;
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));

    // Checker side: configurations verified per second, from the sweep's
    // wall-timed n = 5 cell (present in both quick and full mode).
    let configs_per_s = configs_per_s(rows, "mcheck", "OptimalSilentSsr", n)
        .expect("the verify sweep measures OptimalSilentSsr at n = 5 in every mode");

    // Simulator side: exact-engine interactions per second, measured over at
    // least a quarter second of simulated work from a mid-stabilization
    // start (run_for never terminates early, so the denominator is exact).
    let mut sim = Simulation::new(protocol, protocol.all_unsettled_configuration(), 0xC057);
    let start = Instant::now();
    let mut interactions = 0u64;
    while start.elapsed().as_secs_f64() < 0.25 {
        sim.run_for(200_000);
        interactions += 200_000;
    }
    let interactions_per_s = interactions as f64 / start.elapsed().as_secs_f64();

    let ratio = configs_per_s / interactions_per_s;
    println!(
        "verification throughput: {ratio:.4} configurations proved per simulated interaction \
         ({configs_per_s:.0} configs/s vs {interactions_per_s:.0} interactions/s)\n"
    );
    ratio
}

/// Same-machine throughput ratio for the quotient layer's gate row:
/// full-lattice configurations *covered by the quotient proof* per
/// exact-engine interaction simulated, both rates measured in this process
/// on `Silent-n-state-SSR` at n = 12 — the flagship cell the dense checker
/// cannot reach at all. Present in both quick and full mode (the sweep
/// always runs n = 12), and it drops when the quotient enumeration or the
/// canonicalization regresses.
fn quotient_ratio_cell(rows: &[Json]) -> f64 {
    let n = 12;
    let configs_per_s = configs_per_s(rows, "mcheck-quotient", "SilentNStateSsr", n)
        .expect("the quotient sweep proves SilentNStateSsr at n = 12 in every mode");

    let protocol = SilentNStateSsr::new(n);
    let mut sim = Simulation::new(protocol, protocol.worst_case_configuration(), 0xC058);
    let start = Instant::now();
    let mut interactions = 0u64;
    while start.elapsed().as_secs_f64() < 0.25 {
        sim.run_for(200_000);
        interactions += 200_000;
    }
    let interactions_per_s = interactions as f64 / start.elapsed().as_secs_f64();

    let ratio = configs_per_s / interactions_per_s;
    println!(
        "quotient throughput: {ratio:.4} lattice configurations proved per simulated interaction \
         ({configs_per_s:.0} configs/s vs {interactions_per_s:.0} interactions/s)\n"
    );
    ratio
}

/// Configurations proved per second by the `engine` row of `protocol` at
/// size `n`, if the sweeps recorded one.
fn configs_per_s(rows: &[Json], engine: &str, protocol: &str, n: usize) -> Option<f64> {
    let row = rows.iter().find(|row| {
        row.get("engine") == Some(&engine.into())
            && row.get("protocol") == Some(&protocol.into())
            && row.get("n") == Some(&n.into())
    })?;
    Some(row.get("configurations")?.as_f64()? / row.get("wall_s")?.as_f64()?)
}
