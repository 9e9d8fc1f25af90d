//! Pins the model checker's verdict counts across its proof modes: the
//! full lattice classified configuration by configuration, the same lattice
//! on the symmetry quotient, and the reachable closure of seeded starts.
//! Every figure below is an exact count (no sampling), so any refactor of
//! the checker must reproduce each one.

use ppsim::mcheck::{check_convergence, ConvergenceSource, MCheckOptions};
use ppsim::{Configuration, CorrectnessOracle, EnumerableProtocol};
use processes::{Fratricide, FratricideAsElection, LeaderState};
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};

fn unquotiented() -> MCheckOptions {
    MCheckOptions { use_symmetry: false, ..MCheckOptions::default() }
}

/// `(configurations, silent, correct)` of the unquotiented lattice proof.
fn dense<P: EnumerableProtocol + CorrectnessOracle>(protocol: P) -> (u128, u64, u64) {
    let report = check_convergence(protocol, ConvergenceSource::Lattice, &unquotiented()).unwrap();
    assert!(report.verified());
    (report.configurations, report.silent, report.correct)
}

/// `(orbits, silent orbits, group order)` of the quotient lattice proof.
fn quotient<P: EnumerableProtocol + CorrectnessOracle>(protocol: P) -> (u64, u64, u128) {
    let report =
        check_convergence(protocol, ConvergenceSource::Lattice, &MCheckOptions::default()).unwrap();
    assert!(report.verified());
    (report.states, report.silent, report.group_order)
}

/// `(states, silent)` of a verified seeded-closure proof.
fn closure<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    seeds: &[Configuration<P::State>],
    options: &MCheckOptions,
) -> (u64, u64) {
    let report = check_convergence(protocol, ConvergenceSource::Closure(seeds), options).unwrap();
    assert!(report.verified());
    (report.states, report.silent)
}

struct LatticePin {
    name: &'static str,
    dense: (u128, u64, u64),
    quotient: (u64, u64, u128),
}

fn check_lattice_pin<P>(pin: &LatticePin, protocol: P)
where
    P: EnumerableProtocol + CorrectnessOracle + Copy,
{
    assert_eq!(dense(protocol), pin.dense, "{}: dense (configurations, silent, correct)", pin.name);
    assert_eq!(
        quotient(protocol),
        pin.quotient,
        "{}: quotient (orbits, silent, group order)",
        pin.name
    );
}

#[test]
fn lattice_proof_counts_are_pinned() {
    let ssr = [
        (4, LatticePin { name: "SilentNStateSsr n=4", dense: (35, 1, 1), quotient: (10, 1, 4) }),
        (8, LatticePin { name: "SilentNStateSsr n=8", dense: (6435, 1, 1), quotient: (810, 1, 8) }),
    ];
    for (n, pin) in &ssr {
        check_lattice_pin(pin, SilentNStateSsr::new(*n));
    }
    let optimal = [
        (
            3,
            LatticePin {
                name: "OptimalSilentSsr n=3",
                dense: (7770, 27, 27),
                quotient: (6611, 12, 4),
            },
        ),
        (
            4,
            LatticePin {
                name: "OptimalSilentSsr n=4",
                dense: (101_270, 81, 81),
                quotient: (83_586, 36, 4),
            },
        ),
    ];
    for (n, pin) in &optimal {
        check_lattice_pin(pin, OptimalSilentSsr::new(OptimalSilentParams::mcheck(*n)));
    }
}

#[test]
fn closure_proof_counts_are_pinned() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(4));
    let seeds = [
        protocol.adversarial_all_same_rank(2),
        protocol.all_unsettled_configuration(),
        protocol.ranked_configuration(),
    ];
    let cases = [
        ("quotiented", MCheckOptions::default(), (1613, 5)),
        ("unquotiented", unquotiented(), (1613, 5)),
    ];
    for (name, options, pin) in &cases {
        assert_eq!(
            closure(protocol, &seeds, options),
            *pin,
            "Optimal-Silent {name} closure (states, silent)"
        );
    }

    let protocol = SilentNStateSsr::new(6);
    let seeds = [protocol.worst_case_configuration(), protocol.all_same_rank_configuration()];
    let cases = [
        ("quotiented", MCheckOptions::default(), (32, 1)),
        ("unquotiented", unquotiented(), (32, 1)),
    ];
    for (name, options, pin) in &cases {
        assert_eq!(closure(protocol, &seeds, options), *pin, "SSR {name} closure (states, silent)");
    }
}

#[test]
fn strict_fratricide_failure_counts_are_pinned() {
    let n = 8;
    let protocol = FratricideAsElection(Fratricide::new(n));

    let dense = check_convergence(protocol, ConvergenceSource::Lattice, &unquotiented()).unwrap();
    assert!(!dense.verified());
    assert_eq!(
        (dense.configurations, dense.silent, dense.correct),
        (9, 2, 1),
        "dense (configurations, silent, correct)"
    );
    assert_eq!(
        (dense.silent_incorrect, dense.correct_nonsilent, dense.non_convergent),
        (1, 0, 1),
        "dense (silent∧¬correct, correct∧¬silent, non-convergent)"
    );

    let followers = Configuration::uniform(LeaderState::Follower, n);
    let leaders = Fratricide::new(n).all_leaders_configuration();
    let seeds = [leaders, followers];
    let seeded =
        check_convergence(protocol, ConvergenceSource::Closure(&seeds), &unquotiented()).unwrap();
    assert!(!seeded.verified());
    assert_eq!((seeded.states, seeded.silent), (9, 2), "closure (states, silent)");
    assert_eq!(
        (seeded.silent_incorrect, seeded.non_convergent),
        (1, 1),
        "closure (silent∧¬correct, non-convergent)"
    );
}
