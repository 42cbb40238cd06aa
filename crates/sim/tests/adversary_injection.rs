//! Adversary-injection semantics: clean runs stay untouched, roles bite
//! exactly as specified, and adversarial runs reproduce bit for bit.

use agr_geom::Point;
use agr_sim::{
    AdversaryMix, AdversaryPlan, AdversaryRole, Ctx, FlowConfig, FlowTag, MacAddr, NodeId,
    Protocol, SimConfig, SimTime, World,
};

#[derive(Clone, Debug)]
struct Pkt(FlowTag);

/// One-hop broadcast protocol that honours the adversary drop hook —
/// the minimal consumer of `Ctx::adversary_drops`, standing in for a
/// routing protocol's forwarding path.
struct Bcast;
impl Protocol for Bcast {
    type Packet = Pkt;
    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, _d: NodeId, tag: FlowTag) {
        ctx.mac_broadcast(Pkt(tag), 64);
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, pkt: &Pkt, _from: Option<MacAddr>) {
        if ctx.adversary_drops() {
            return;
        }
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

#[test]
fn adversary_free_runs_record_no_adversary_counters() {
    let mut config = two_node_config(20);
    config.adversary = AdversaryPlan::none();
    let mut world = World::new(config, |_, _, _| Bcast);
    let stats = world.run();
    assert!(stats.data_delivered > 0);
    let adversarial: u64 = stats
        .counters()
        .filter(|(name, _)| name.starts_with("adv."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(adversarial, 0, "no adv counters without a plan");
}

#[test]
fn blackhole_receiver_swallows_everything() {
    let clean = {
        let mut world = World::new(two_node_config(20), |_, _, _| Bcast);
        world.run()
    };
    let mut config = two_node_config(20);
    config.adversary = AdversaryPlan::none().with_role(NodeId(1), AdversaryRole::Blackhole);
    let mut world = World::new(config, |_, _, _| Bcast);
    let stats = world.run();
    assert_eq!(clean.data_sent, stats.data_sent, "offered load unchanged");
    assert_eq!(stats.data_delivered, 0, "a blackhole delivers nothing");
    assert_eq!(stats.counter("adv.blackhole_drop"), stats.data_sent);
}

#[test]
fn grayhole_drop_rate_tracks_p_drop() {
    // 5 pkt/s for 58 s ≈ 290 decisions: a 30% grayhole should land
    // within a loose binomial tolerance of its parameter.
    let mut config = two_node_config(60);
    config.adversary =
        AdversaryPlan::none().with_role(NodeId(1), AdversaryRole::Grayhole { p_drop: 0.3 });
    let mut world = World::new(config, |_, _, _| Bcast);
    let stats = world.run();
    let decisions = stats.data_delivered + stats.counter("adv.grayhole_drop");
    assert_eq!(decisions, stats.data_sent);
    let observed = stats.counter("adv.grayhole_drop") as f64 / decisions as f64;
    assert!(
        (observed - 0.3).abs() < 0.12,
        "observed grayhole rate {observed:.3} far from p_drop 0.3"
    );
}

// ---------------------------------------------------------------------
// Reproducibility: the same seed and the same plan give bit-identical
// statistics; the parallel-runner version lives in `agr-bench`.
// ---------------------------------------------------------------------

#[test]
fn same_seed_same_plan_same_stats() {
    let plan = AdversaryPlan::none().with_role(NodeId(1), AdversaryRole::Grayhole { p_drop: 0.4 });
    let run = |seed: u64| {
        let mut config = two_node_config(30);
        config.seed = seed;
        config.adversary = plan.clone();
        let mut world = World::new(config, |_, _, _| Bcast);
        world.run()
    };
    assert_eq!(run(42), run(42), "identical seeds must reproduce exactly");
    assert_ne!(
        run(42).counter("adv.grayhole_drop"),
        0,
        "the plan must actually fire"
    );
}

#[test]
fn different_seeds_draw_different_grayhole_patterns() {
    let run = |seed: u64| {
        let mut config = two_node_config(30);
        config.seed = seed;
        config.adversary =
            AdversaryPlan::none().with_role(NodeId(1), AdversaryRole::Grayhole { p_drop: 0.4 });
        let mut world = World::new(config, |_, _, _| Bcast);
        world.run()
    };
    assert_ne!(
        run(1),
        run(2),
        "grayhole draws must depend on the seed, not only the plan"
    );
}

/// Membership resolved from a mix is part of the scenario, not the
/// simulation streams: resolving twice gives the same plan, and feeding
/// it to a world twice gives the same stats.
#[test]
fn resolved_mix_is_reproducible_end_to_end() {
    let mix = AdversaryMix::blackholes(0.5);
    let plan = mix.resolve(2, 7);
    assert_eq!(plan, mix.resolve(2, 7));
    assert_eq!(plan.roles.len(), 1);
    let run = || {
        let mut config = two_node_config(20);
        config.adversary = mix.resolve(2, 7);
        let mut world = World::new(config, |_, _, _| Bcast);
        world.run()
    };
    assert_eq!(run(), run());
}
