//! Integration tests for the unified telemetry layer.
//!
//! Covered invariants:
//!
//! - Counters are **deterministic**: identical seeds produce identical
//!   counter registries on every engine, run after run.
//! - Probes are **monotone**: interactions strictly increase and applied
//!   transitions never decrease along a probe stream.
//! - Telemetry is **inert**: attaching a recorder never perturbs the
//!   trajectory — outcome and final configuration match a bare run
//!   seed-for-seed (counters are RNG-free and probes piggyback on state the
//!   engine already maintains).

mod common;

use common::Spread;
use ppsim::prelude::*;
use ppsim::telemetry::Counter;
use proptest::prelude::*;

fn spec(n: usize, engine: Engine, seed: u64, probe: bool) -> RunSpec<Spread> {
    RunSpec::new(Spread { n })
        .engine(engine)
        .init(Configuration::from_fn(n, |i| (i % 5) as u8))
        .seed(seed)
        .probe(probe)
}

const ENGINES: [Engine; 3] = [Engine::Exact, Engine::Batched, Engine::BatchedCounts];

#[test]
fn counters_are_identical_seed_for_seed_on_every_engine() {
    for engine in ENGINES {
        let a = spec(64, engine, 7, false).run_one().unwrap();
        let b = spec(64, engine, 7, false).run_one().unwrap();
        assert!(!a.counters.is_empty(), "{engine}: a run must count something");
        assert_eq!(
            a.counters.iter_nonzero().collect::<Vec<_>>(),
            b.counters.iter_nonzero().collect::<Vec<_>>(),
            "{engine}: counters must replay exactly"
        );
    }
    // The interned index too (routed through the count engines).
    let interned = || {
        RunSpec::new(AsInterned(Spread { n: 64 }))
            .engine(Engine::Batched)
            .init(Configuration::from_fn(64, |i| (i % 5) as u8))
            .seed(7)
            .run_one()
            .unwrap()
    };
    let (a, b) = (interned(), interned());
    assert!(!a.counters.is_empty(), "interned: a run must count something");
    assert_eq!(
        a.counters.iter_nonzero().collect::<Vec<_>>(),
        b.counters.iter_nonzero().collect::<Vec<_>>()
    );
    assert!(
        a.counters.get(Counter::InternerGrowths) >= 1,
        "the interned backend discovers at least one state"
    );
}

#[test]
fn count_engines_report_epochs_and_transitions() {
    for engine in [Engine::Batched, Engine::BatchedCounts] {
        let report = spec(256, engine, 3, false).run_one().unwrap();
        assert!(report.outcome.is_silent(), "{engine}: Spread converges");
        assert!(
            report.counters.get(Counter::Transitions) >= 1,
            "{engine}: mixed initial states force real transitions"
        );
        assert!(
            report.counters.get(Counter::NullsSkipped) >= 1,
            "{engine}: both count engines skip nulls in bulk"
        );
    }
    // Only the batch-count mode opens epochs; the default transition
    // sampling draws pairs one at a time and must report none.
    let batched = spec(256, Engine::Batched, 3, false).run_one().unwrap();
    assert_eq!(batched.counters.get(Counter::EpochsOpened), 0);
    let counts = spec(256, Engine::BatchedCounts, 3, false).run_one().unwrap();
    assert!(
        counts.counters.get(Counter::EpochsOpened) >= 1,
        "batch-count mode at n = 256 opens epochs"
    );
}

#[test]
fn probe_streams_are_monotone_on_every_engine() {
    for engine in ENGINES {
        // A run to silence, and a run that a rule stops first (state 0
        // dies out long before every agent agrees).
        let until = spec(256, engine, 11, true).until(|_, c| c.count_matching(|&s| s == 0) == 0);
        for run in [spec(256, engine, 11, true), until] {
            let report = run.run_one().unwrap();
            let recorder = report.telemetry.as_ref().expect("probe(true) yields a recorder");
            assert!(!recorder.probes.is_empty(), "{engine}: at least one checkpoint fires");
            for pair in recorder.probes.windows(2) {
                assert!(
                    pair[1].interactions > pair[0].interactions,
                    "{engine}: probes advance strictly in simulated time"
                );
                assert!(
                    pair[1].transitions >= pair[0].transitions,
                    "{engine}: applied transitions never decrease"
                );
            }
            for probe in &recorder.probes {
                assert!(probe.population as usize == 256, "{engine}: population is stable");
                assert!(probe.distinct_states as usize <= 5, "{engine}: at most 5 states");
            }
            // The frozen registry matches the report's own.
            assert_eq!(recorder.counters, report.counters);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Attaching a recorder must never change the simulated trajectory:
    /// outcome and final configuration are bit-identical with and without
    /// telemetry, on every engine.
    #[test]
    fn telemetry_never_perturbs_the_trajectory(
        n in 4usize..80,
        seed in any::<u64>(),
        engine_sel in 0usize..3,
    ) {
        let engine = ENGINES[engine_sel];
        let bare = spec(n, engine, seed, false).run_one().unwrap();
        let probed = spec(n, engine, seed, true).run_one().unwrap();
        prop_assert_eq!(&bare.outcome, &probed.outcome, "{}", engine);
        prop_assert_eq!(&bare.final_config, &probed.final_config, "{}", engine);
        prop_assert_eq!(
            bare.counters.iter_nonzero().collect::<Vec<_>>(),
            probed.counters.iter_nonzero().collect::<Vec<_>>(),
            "{}", engine
        );
    }
}
