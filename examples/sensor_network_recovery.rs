//! Sensor-network recovery scenario: ring topology + mid-run churn.
//!
//! The paper motivates self-stabilizing leader election with mission-critical
//! mobile sensor networks: devices fail, get swapped out mid-mission, and can
//! only talk to the neighbours inside their radio range. This example drives
//! `Silent-n-state-SSR` through both constraints end to end:
//!
//! 1. a fleet whose radios only reach the two ring neighbours
//!    (`Topology::Ring` on the exact engine) settles into a *locally* silent
//!    assignment — scheduler-relative silence — which may keep duplicate
//!    ranks that never meet across the ring;
//! 2. mid-mission churn (`ChurnPlan`): failed sensors are removed and
//!    replacements with blank memory join, the ring re-wiring itself at
//!    every new fleet size, and the fleet re-silences after every event;
//! 3. the same churn plan with every sensor in radio range (the uniform
//!    scheduler on the batched engine) — the complete interaction graph is
//!    what the paper's correctness theorem needs, and the fleet provably
//!    re-converges to a valid ranking with a unique coordinator.
//!
//! ```text
//! cargo run --release --example sensor_network_recovery
//! ```

use ssle_pp::prelude::*;

const BUDGET: u64 = u64::MAX >> 16;

fn main() {
    let n = 32;
    let protocol = SilentNStateSsr::new(n);
    println!("fleet of {n} sensors running Silent-n-state-SSR\n");

    // Mission plan: two mid-run maintenance events, each swapping out n/8
    // failed sensors for blank replacements (rank 0), landing around the
    // fleet's expected stabilization scale of ~n^3/2 interactions.
    let cube = (n as u64).pow(3);
    let k = n / 8;
    let churn = ChurnPlan::periodic(
        cube,
        cube / 2,
        2,
        ChurnAction::Replace { count: k, state: CorruptionTarget::Fixed(SilentRank(0)) },
    )
    .with_name("maintenance-swap");

    // Phase 1: radios reach only the ring neighbours. Silence here is
    // *relative to the ring*: the fleet stops when no adjacent pair can act,
    // even if far-apart sensors still duplicate a rank.
    let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
    let report = RunSpec::new(protocol)
        .budget(BUDGET)
        .scheduler(ring.clone())
        .init(protocol.all_same_rank_configuration())
        .seed(11)
        .run_one()
        .expect("graph topologies run on the exact engine");
    assert!(report.outcome.is_silent());
    describe(
        "ring deployment (neighbours only)",
        &protocol,
        report.parallel_time().value(),
        &report.final_config,
    );

    // Phase 2: the same ring fleet with the maintenance churn. Every
    // join/leave rebuilds the ring at the new size, and the driver measures
    // re-stabilization after each event.
    let churned = RunSpec::new(protocol)
        .budget(BUDGET)
        .scheduler(ring)
        .init(protocol.all_same_rank_configuration())
        .seed(23)
        .churn(churn.clone())
        .run_one()
        .expect("churn composes with graph topologies on the exact engine");
    assert!(churned.outcome.is_silent());
    assert_eq!(churned.final_population(), n, "replacement churn keeps the fleet size");
    for (i, event) in churned.events.iter().enumerate() {
        println!(
            "  maintenance event {}: {} sensors swapped at t = {}, fleet size {}",
            i + 1,
            event.departed,
            event.at.to_parallel_time(n),
            event.population_after,
        );
    }
    describe(
        "ring mission with maintenance swaps",
        &protocol,
        churned.outcome.interactions.to_parallel_time(n).value(),
        &churned.final_config,
    );

    // Phase 3: every sensor in radio range — the complete interaction graph
    // of the paper's model (here on the batched engine; count engines accept
    // uniform and weighted schedulers, just not agent-identity graphs). Now
    // re-convergence to a *correct* ranking is guaranteed, churn included.
    let complete = RunSpec::new(protocol)
        .engine(Engine::Batched)
        .budget(BUDGET)
        .init(protocol.all_same_rank_configuration())
        .seed(23)
        .churn(churn)
        .probe(true)
        .run_one()
        .expect("uniform schedulers run on every engine");
    assert!(complete.outcome.is_silent());
    assert_eq!(complete.final_population(), n);
    assert!(protocol.is_correctly_ranked(&complete.final_config));
    assert!(protocol.has_unique_leader(&complete.final_config));
    describe(
        "full-range mission with maintenance swaps",
        &protocol,
        complete.outcome.interactions.to_parallel_time(n).value(),
        &complete.final_config,
    );
    if let Some(recovery) = complete.final_restabilization_parallel_time() {
        println!("  last swap absorbed in {recovery} of re-stabilization");
    }

    // The same mission as the telemetry layer saw it: the log-spaced probe
    // stream, segmented by the maintenance events. Active-pair mass is the
    // convergence signal — it collapses to 0 at each silence, and every
    // swap injects fresh mass that the fleet then burns back down.
    let recorder = complete.telemetry.as_ref().expect("probe(true) yields a recorder");
    println!("\nconvergence timeline (log-spaced probes; active pairs -> 0 is silence):");
    let mut events = complete.events.iter().enumerate().peekable();
    for probe in &recorder.probes {
        while let Some(&(i, event)) = events.peek() {
            if event.at.count() > probe.interactions {
                break;
            }
            println!(
                "  -- maintenance event {} at t = {}: {} swapped, fleet size {} --",
                i + 1,
                event.at.to_parallel_time(n),
                event.departed,
                event.population_after,
            );
            events.next();
        }
        println!(
            "  t = {:>8.1}  active pairs {:>3}  distinct ranks {:>2}  transitions {:>4}",
            probe.interactions as f64 / n as f64,
            probe.active_pairs,
            probe.distinct_states,
            probe.transitions,
        );
    }

    println!(
        "\nthe ring fleet always re-silences (locally: duplicates beyond radio range can\n\
         persist); with full radio range the fleet re-elects a unique coordinator after\n\
         every maintenance swap — the paper's self-stabilization claim, churn included"
    );
}

fn describe(
    label: &str,
    protocol: &SilentNStateSsr,
    elapsed: f64,
    config: &Configuration<SilentRank>,
) {
    let leaders = config.iter().filter(|s| protocol.is_leader(s)).count();
    let ranked = protocol.is_correctly_ranked(config);
    println!(
        "{label:<42} silent after {elapsed:>8.1} parallel time  \
         (leaders: {leaders}, valid ranking: {ranked})\n"
    );
}
