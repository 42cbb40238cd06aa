//! Fault-injection semantics: loss-model convergence, churn, and
//! reproducibility of faulty runs.

use agr_geom::Point;
use agr_sim::{
    ChurnEvent, Ctx, FaultPlan, FlowConfig, FlowTag, GilbertElliott, LinkChannel, LossModel,
    MacAddr, NodeId, Protocol, SimConfig, SimTime, World,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
struct Pkt(FlowTag);

/// One-hop broadcast protocol used as a neutral workload.
struct Bcast;
impl Protocol for Bcast {
    type Packet = Pkt;
    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, _d: NodeId, tag: FlowTag) {
        ctx.mac_broadcast(Pkt(tag), 64);
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, pkt: &Pkt, _from: Option<MacAddr>) {
        ctx.deliver_data(pkt.0);
    }
}

/// Two static nodes in radio range, node 0 streaming CBR to node 1.
fn two_node_config(duration_s: u64) -> SimConfig {
    let mut config = SimConfig::static_topology(
        vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        SimTime::from_secs(duration_s),
    );
    config.flows = vec![FlowConfig {
        src: NodeId(0),
        dst: NodeId(1),
        start: SimTime::from_secs(1),
        interval: SimTime::from_millis(200),
        payload_bytes: 64,
        stop: SimTime::from_secs(duration_s - 1),
    }];
    config
}

// ---------------------------------------------------------------------
// Loss-model convergence (satellite 1): the empirical drop rate of a
// simulated channel converges to the analytic steady state.
// ---------------------------------------------------------------------

/// Empirical drop fraction of `trials` back-to-back transmissions.
fn empirical_loss(model: &LossModel, seed: u64, trials: u32) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut channel = LinkChannel::default();
    let mut dropped = 0u32;
    for _ in 0..trials {
        if channel.transmit(model, &mut rng) {
            dropped += 1;
        }
    }
    f64::from(dropped) / f64::from(trials)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gilbert–Elliott: over 1e5 trials the drop rate converges to the
    /// analytic steady state `p/(p+q)` (with `loss_bad = 1`,
    /// `loss_good = 0`, the chain's bad-state occupancy IS the loss
    /// rate). The tolerance accounts for burst correlation inflating
    /// the variance of the mean by ~2/(p+q) over i.i.d. sampling.
    #[test]
    fn gilbert_elliott_converges_to_steady_state(
        p in 0.05..0.5f64,
        q in 0.05..0.5f64,
        seed in any::<u64>(),
    ) {
        let ge = GilbertElliott::gilbert(p, q);
        let analytic = ge.steady_state_loss();
        prop_assert!((analytic - p / (p + q)).abs() < 1e-12);
        let observed = empirical_loss(&LossModel::GilbertElliott(ge), seed, 100_000);
        prop_assert!(
            (observed - analytic).abs() < 0.02,
            "observed {observed:.4} vs analytic {analytic:.4} (p={p:.3}, q={q:.3})"
        );
    }

    /// Uniform Bernoulli loss converges to its parameter (binomial
    /// standard error at 1e5 trials is < 0.002).
    #[test]
    fn uniform_loss_converges_to_p(p in 0.0..1.0f64, seed in any::<u64>()) {
        let observed = empirical_loss(&LossModel::Uniform { p }, seed, 100_000);
        prop_assert!(
            (observed - p).abs() < 0.01,
            "observed {observed:.4} vs p {p:.4}"
        );
    }
}

// ---------------------------------------------------------------------
// Loss erases frames end to end.
// ---------------------------------------------------------------------

#[test]
fn uniform_loss_erases_broadcasts() {
    let clean = {
        let mut world = World::new(two_node_config(30), |_, _, _| Bcast);
        world.run()
    };
    let mut config = two_node_config(30);
    config.fault = FaultPlan::uniform_loss(0.5);
    let mut world = World::new(config, |_, _, _| Bcast);
    let lossy = world.run();
    assert_eq!(clean.data_sent, lossy.data_sent, "offered load unchanged");
    assert!(lossy.counter("fault.drop.uniform") > 0);
    assert!(
        lossy.data_delivered < clean.data_delivered,
        "50% loss must erase some deliveries: {} vs {}",
        lossy.data_delivered,
        clean.data_delivered
    );
}

#[test]
fn fault_free_runs_record_no_fault_counters() {
    let mut config = two_node_config(20);
    config.fault = FaultPlan::none();
    let mut world = World::new(config, |_, _, _| Bcast);
    let stats = world.run();
    assert!(stats.data_delivered > 0);
    let faults: u64 = stats
        .counters()
        .filter(|(name, _)| name.starts_with("fault."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(faults, 0, "no fault counters without a fault plan");
}

// ---------------------------------------------------------------------
// Churn: a down radio neither transmits nor receives, and the outage
// window is visible in both counters and delivered traffic.
// ---------------------------------------------------------------------

#[test]
fn churn_outage_suppresses_delivery_during_window() {
    let duration = 30u64;
    let clean = {
        let mut world = World::new(two_node_config(duration), |_, _, _| Bcast);
        world.run()
    };
    // Node 1 (the receiver) loses its radio for a third of the run.
    let mut config = two_node_config(duration);
    config.fault =
        FaultPlan::none().with_churn(NodeId(1), SimTime::from_secs(10), SimTime::from_secs(20));
    let mut world = World::new(config, |_, _, _| Bcast);
    let churned = world.run();
    assert_eq!(churned.counter("fault.churn_down"), 1);
    assert_eq!(churned.counter("fault.churn_up"), 1);
    assert_eq!(clean.data_sent, churned.data_sent);
    // CBR at 5 pkt/s for a 10 s outage: at least ~40 packets vanish.
    assert!(
        churned.data_delivered + 40 <= clean.data_delivered,
        "outage must suppress delivery: {} vs {}",
        churned.data_delivered,
        clean.data_delivered
    );
}

#[test]
fn down_transmitter_radiates_nothing() {
    let duration = 30u64;
    let mut config = two_node_config(duration);
    // The *sender* goes down mid-run: its MAC keeps running but every
    // transmission attempt radiates into the void.
    config.fault =
        FaultPlan::none().with_churn(NodeId(0), SimTime::from_secs(10), SimTime::from_secs(20));
    let mut world = World::new(config, |_, _, _| Bcast);
    let stats = world.run();
    assert!(stats.counter("fault.tx_while_down") > 0);
    assert!(
        stats.data_delivered > 0,
        "traffic resumes after the radio recovers"
    );
}

#[test]
#[should_panic(expected = "churn recovery must follow the outage")]
fn inverted_churn_window_rejected() {
    let _ = FaultPlan::none().with_churn(NodeId(0), SimTime::from_secs(5), SimTime::from_secs(5));
}

// ---------------------------------------------------------------------
// Reproducibility (satellite 2, world level): the same seed and the
// same plan give bit-identical statistics; the parallel-runner version
// of this test lives in `agr-bench`.
// ---------------------------------------------------------------------

#[test]
fn same_seed_same_plan_same_stats() {
    let plan = FaultPlan::burst_loss(0.1, 0.3).with_churn(
        NodeId(1),
        SimTime::from_secs(8),
        SimTime::from_secs(14),
    );
    let run = |seed: u64| {
        let mut config = two_node_config(30);
        config.seed = seed;
        config.fault = plan.clone();
        let mut world = World::new(config, |_, _, _| Bcast);
        world.run()
    };
    assert_eq!(run(42), run(42), "identical seeds must reproduce exactly");
    assert_ne!(
        run(42).counter("fault.drop.burst"),
        0,
        "the plan must actually fire"
    );
}

#[test]
fn different_seeds_draw_different_loss_patterns() {
    let run = |seed: u64| {
        let mut config = two_node_config(30);
        config.seed = seed;
        config.fault = FaultPlan::uniform_loss(0.3);
        let mut world = World::new(config, |_, _, _| Bcast);
        world.run()
    };
    assert_ne!(
        run(1),
        run(2),
        "loss draws must depend on the seed, not only the plan"
    );
}

/// The churn schedule is part of the plan, not the RNG: an explicit
/// `ChurnEvent` round-trips through the plan untouched.
#[test]
fn churn_schedule_is_explicit() {
    let plan =
        FaultPlan::none().with_churn(NodeId(3), SimTime::from_secs(2), SimTime::from_secs(9));
    assert_eq!(
        plan.churn,
        vec![ChurnEvent {
            node: NodeId(3),
            down: SimTime::from_secs(2),
            up: SimTime::from_secs(9),
        }]
    );
}
