//! Seed-for-seed pins of the measurement samples the experiment binaries
//! print.
//!
//! Every pinned value is an exact `f64::to_bits` of a per-trial parallel
//! time (or, for churn, an exact event record), at small `n` and on every
//! engine the calling binary can route to. A change here means a changed
//! trajectory or a changed stop point, not noise.

use bench::*;
use ppsim::prelude::*;
use processes::{Coupon, Epidemic};
use ssle::params::{OptimalSilentParams, SublinearParams};
use ssle::{OptimalSilentSsr, OptimalSilentState, SilentNStateSsr, SilentRank, SublinearTimeSsr};

const ENGINES: [Engine; 3] = [Engine::Exact, Engine::Batched, Engine::BatchedCounts];
const WORKLOADS: [Workload; 3] = [Workload::WorstCase, Workload::Random, Workload::CleanStart];

/// `f64::to_bits` of every pinned sample list, by name.
const PINS: &[(&str, &[u64])] = &[
    ("optimal-silent WorstCase", &[4633458107875957146, 4631684815522680013, 4632501092955140915]),
    ("optimal-silent Random", &[4631164086815765299, 4632557387950483046, 4631558151783160218]),
    ("optimal-silent CleanStart", &[4621762822593629389, 4621875412584313651, 4630277440639126733]),
    ("optimal-silent on exact", &[4632036659243568333, 4632557387950483046]),
    ("optimal-silent on batched", &[4632205544229594726, 4633626992861983539]),
    ("optimal-silent on batchcount", &[4632205544229594726, 4633626992861983539]),
    ("optimal-silent Emax x5", &[4631670741773844480, 4631825553011035341]),
    (
        "optimal-silent duplicated leader",
        &[4633781804099174400, 4634221608750284800, 4632655904192331776],
    ),
    (
        "reset Dmax x1",
        &[4632954971355086848, 4632691088564420608, 4632990155727175680, 4632796641680687104],
    ),
    (
        "reset Dmax x4",
        &[4633078116657397760, 4632726272936509440, 4633166077587619840, 4632919786982998016],
    ),
    ("epidemic single-source on exact", &[4616752568008179712, 4615514078110652826]),
    ("coupon all-fresh on exact", &[4613937818241073152, 4611010478483282330]),
    ("optimal-silent all-leader on exact", &[4631600373029666816, 4631881848006377472]),
    ("sublinear collision-2way on exact", &[4632743865122553856, 4636596553866280960]),
    ("weighted all-leader on exact", &[4635435469587349504, 4634379938424684544]),
    ("epidemic single-source on batched", &[4615288898129284301, 4613374868287651840]),
    ("coupon all-fresh on batched", &[4611911198408756429, 4609884578576439706]),
    ("optimal-silent all-leader on batched", &[4633588290052685824, 4633218854145753088]),
    ("sublinear collision-2way on batched", &[4632691088564420608, 4636983581959258112]),
    ("weighted all-leader on batched", &[4630178924397278003, 4632135175485417062]),
    ("epidemic single-source on batchcount", &[4615288898129284301, 4613374868287651840]),
    ("coupon all-fresh on batchcount", &[4611911198408756429, 4609884578576439706]),
    ("optimal-silent all-leader on batchcount", &[4633588290052685824, 4633218854145753088]),
    ("sublinear collision-2way on batchcount", &[4632691088564420608, 4636983581959258112]),
    ("weighted all-leader on batchcount", &[4630178924397278003, 4632135175485417062]),
    ("silent-n-state WorstCase", &[4633697361606161203, 4635590280824540365, 4628996729495093248]),
    ("silent-n-state Random", &[4627026404658118656, 4629869301922896282, 4626632339690723738]),
    ("silent-n-state CleanStart", &[0, 0, 0]),
    ("silent-n-state on exact", &[4632515166703976448, 4634374074362669739, 4630838044967742123]),
    ("silent-n-state on batched", &[4635875274238459904, 4631049151200275115, 4631670741773844480]),
    (
        "silent-n-state on batchcount",
        &[4635875274238459904, 4631049151200275115, 4631670741773844480],
    ),
    (
        "silent-n-state duplicated leader",
        &[4628386867045553493, 4590669220166325589, 4616846393000416597],
    ),
    ("sublinear WorstCase", &[4632726272936509440, 4632726272936509440]),
    ("sublinear Random", &[4632831826052775936, 4633007747913220096]),
    ("sublinear CleanStart", &[4613937818241073152, 4615626668101337088]),
    ("sublinear T_H/2", &[4632655904192331776, 4632567943262109696]),
    ("sublinear detection", &[4609434218613702656, 4613093393310941184, 4598175219545276416]),
];

/// Compares `actual` bit for bit with the samples pinned under `name`.
fn check(name: &str, actual: &[f64]) {
    let pinned = PINS.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("no pin {name}")).1;
    let bits: Vec<u64> = actual.iter().map(|t| t.to_bits()).collect();
    assert_eq!(bits, pinned, "{name}: samples {actual:?}");
}

fn boosted() -> InteractionScheduler<SilentRank> {
    InteractionScheduler::WeightedPairs(PairRates::new(1).with_rate(
        SilentRank(0),
        SilentRank(0),
        4,
    ))
}

#[test]
fn silent_n_state_samples_are_pinned() {
    for workload in WORKLOADS {
        let times = parallel_times(silent_n_state(10, workload).trials(3).seed(1));
        check(&format!("silent-n-state {workload:?}"), &times);
    }
    for engine in ENGINES {
        let spec = silent_n_state(12, Workload::WorstCase).engine(engine);
        let times = parallel_times(spec.trials(3).seed(11));
        check(&format!("silent-n-state on {engine}"), &times);
    }
    let protocol = SilentNStateSsr::new(12);
    let init = with_cloned_leader(&protocol, protocol.ranked_configuration());
    let times = parallel_times(RunSpec::new(protocol).init(init).trials(3).seed(5));
    check("silent-n-state duplicated leader", &times);
}

#[test]
fn optimal_silent_samples_are_pinned() {
    let params = OptimalSilentParams::recommended(10);
    for workload in WORKLOADS {
        let times = parallel_times(optimal_silent(params, workload).trials(3).seed(5));
        check(&format!("optimal-silent {workload:?}"), &times);
    }
    for engine in ENGINES {
        let spec = optimal_silent(params, Workload::WorstCase).engine(engine);
        let times = parallel_times(spec.trials(2).seed(13));
        check(&format!("optimal-silent on {engine}"), &times);
    }
    let params = OptimalSilentParams::with_multipliers(10, 4, 5);
    let times = parallel_times(optimal_silent(params, Workload::WorstCase).trials(2).seed(17));
    check("optimal-silent Emax x5", &times);
    let params = OptimalSilentParams::recommended(12);
    let protocol = OptimalSilentSsr::new(params);
    let init = with_cloned_leader(&protocol, protocol.ranked_configuration());
    let times =
        parallel_times(optimal_silent(params, Workload::WorstCase).init(init).trials(3).seed(6));
    check("optimal-silent duplicated leader", &times);
}

#[test]
fn reset_samples_and_leader_flags_are_pinned() {
    for (d_mult, flags) in [(1u32, [true, true, true, true]), (4, [true, true, true, true])] {
        let spec = optimal_silent_reset(OptimalSilentParams::with_multipliers(16, d_mult, 20));
        let reports = spec.trials(4).seed(7).run().unwrap();
        let recovery: Vec<f64> = reports.iter().map(|r| r.parallel_time().value()).collect();
        check(&format!("reset Dmax x{d_mult}"), &recovery);
        let root =
            |s: &OptimalSilentState| matches!(s, OptimalSilentState::Settled { rank: 1, .. });
        let unique: Vec<bool> =
            reports.iter().map(|r| r.final_config.count_matching(root) == 1).collect();
        assert_eq!(unique, flags, "reset Dmax x{d_mult}: unique-leader flags");
    }
}

#[test]
fn sublinear_samples_are_pinned() {
    for workload in WORKLOADS {
        let spec = sublinear(SublinearParams::recommended(8, 1), workload);
        let times = parallel_times(spec.trials(2).seed(7));
        check(&format!("sublinear {workload:?}"), &times);
    }
    let params = SublinearParams::recommended(8, 2);
    let params = params.with_t_h(params.t_h / 2);
    let times = parallel_times(sublinear(params, Workload::WorstCase).trials(2).seed(41));
    check("sublinear T_H/2", &times);
    let spec = sublinear_detection(SublinearParams::recommended(8, 1));
    let times = parallel_times(spec.trials(3).seed(53));
    check("sublinear detection", &times);
}

#[test]
fn scenario_samples_are_pinned() {
    let epidemic = &Epidemic::adversarial_scenarios()[0];
    let coupon = &Coupon::adversarial_scenarios()[0];
    let optimal = &OptimalSilentSsr::adversarial_scenarios()[0];
    let sublinear = &SublinearTimeSsr::adversarial_scenarios()[0];
    let all_leader =
        Scenario::new("all-leader", |p: &SilentNStateSsr, _| p.all_same_rank_configuration());
    for engine in ENGINES {
        let spec = RunSpec::new(Epidemic::new(20)).engine(engine).budget(400_000);
        let times = parallel_times(spec.scenario(epidemic).trials(2).seed(87));
        check(&format!("epidemic {} on {engine}", epidemic.name()), &times);
        let spec = RunSpec::new(Coupon::new(20)).engine(engine).budget(400_000);
        let times = parallel_times(spec.scenario(coupon).trials(2).seed(93));
        check(&format!("coupon {} on {engine}", coupon.name()), &times);
        let spec = optimal_silent(OptimalSilentParams::recommended(8), Workload::WorstCase);
        let spec = spec.engine(engine).budget(50_000 * 64 + 10_000_000).scenario(optimal);
        let times = parallel_times(spec.trials(2).seed(67));
        check(&format!("optimal-silent {} on {engine}", optimal.name()), &times);
        let spec = bench::sublinear(SublinearParams::recommended(8, 2), Workload::WorstCase);
        let spec = spec.engine(engine).budget(3_200_000).scenario(sublinear);
        let times = parallel_times(spec.trials(2).seed(81));
        check(&format!("sublinear {} on {engine}", sublinear.name()), &times);
        let times = parallel_times(
            RunSpec::new(SilentNStateSsr::new(10))
                .engine(engine)
                .budget(31_000)
                .scheduler(boosted())
                .scenario(&all_leader)
                .trials(2)
                .seed(419),
        );
        check(&format!("weighted all-leader on {engine}"), &times);
    }
}

/// One event record: `(at, joined, departed, corrupted, population_after,
/// restabilization)`.
type EventPin = (u64, usize, usize, usize, usize, Option<u64>);

#[test]
fn churn_event_records_are_pinned() {
    let n = 10usize;
    let cube = (n as u64).pow(3);
    let replace = ChurnAction::Replace { count: 2, state: CorruptionTarget::Fixed(SilentRank(0)) };
    let plan = ChurnPlan::periodic(cube, cube / 2, 3, replace);
    // Per scheduler: each trial's stop point, then every trial's events.
    let pinned: [([u64; 2], [EventPin; 6]); 2] = [
        (
            [2185, 2218],
            [
                (1000, 2, 2, 0, 10, Some(234)),
                (1500, 2, 2, 0, 10, Some(146)),
                (2000, 2, 2, 0, 10, Some(185)),
                (1000, 2, 2, 0, 10, None),
                (1500, 2, 2, 0, 10, Some(360)),
                (2000, 2, 2, 0, 10, Some(218)),
            ],
        ),
        (
            [2135, 2132],
            [
                (1000, 2, 2, 0, 10, Some(210)),
                (1500, 2, 2, 0, 10, Some(104)),
                (2000, 2, 2, 0, 10, Some(135)),
                (1000, 2, 2, 0, 10, None),
                (1500, 2, 2, 0, 10, Some(257)),
                (2000, 2, 2, 0, 10, Some(132)),
            ],
        ),
    ];
    for (scheduler, (stops, events)) in
        [InteractionScheduler::Uniform, boosted()].into_iter().zip(pinned)
    {
        let spec = silent_n_state(n, Workload::Random).engine(Engine::Batched).budget(31_000_000);
        let spec = spec.scheduler(scheduler.clone()).churn(plan.clone());
        let reports = spec.trials(2).seed(623).run().unwrap();
        assert!(reports.iter().all(|r| r.outcome.is_silent()));
        let stop: Vec<u64> = reports.iter().map(|r| r.outcome.interactions.count()).collect();
        let records: Vec<EventPin> = reports
            .iter()
            .flat_map(|r| &r.events)
            .map(|e| {
                let restabilization = e.restabilization.map(|i| i.count());
                (
                    e.at.count(),
                    e.joined,
                    e.departed,
                    e.corrupted,
                    e.population_after,
                    restabilization,
                )
            })
            .collect();
        let label = scheduler.label();
        assert_eq!(stop, stops, "churn stop points under the {label} scheduler");
        assert_eq!(records, events, "churn event records under the {label} scheduler");
    }
}
