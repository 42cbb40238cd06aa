//! The §3.1.2 attack, staged: "the attacker could forge a lot of hello
//! messages with arbitrary pseudonyms to severely degrade the performance
//! and to mislead the forwarding direction." A forger floods bogus hellos
//! advertising a position right next to the destination (a blackhole —
//! it never forwards what gets addressed to its pseudonyms). Plain ANT
//! swallows the bait; AANT's ring-signature verification rejects it.

use agr_core::aant::AantConfig;
use agr_core::agfw::{Agfw, AgfwConfig};
use agr_core::keys::KeyDirectory;
use agr_core::{AgfwPacket, Pseudonym};
use agr_geom::Point;
use agr_sim::{Ctx, FlowConfig, MacAddr, NodeId, Protocol, SimConfig, SimTime, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Honest AGFW node or a hello-forging blackhole.
#[allow(clippy::large_enum_variant)]
enum NodeKind {
    Honest(Agfw),
    Forger { fake_loc: Point },
}

impl Protocol for NodeKind {
    type Packet = AgfwPacket;

    fn on_start(&mut self, ctx: &mut Ctx<'_, AgfwPacket>) {
        match self {
            NodeKind::Honest(inner) => inner.on_start(ctx),
            NodeKind::Forger { .. } => ctx.set_timer(SimTime::from_millis(100), 0),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, kind: u64) {
        match self {
            NodeKind::Honest(inner) => inner.on_timer(ctx, kind),
            NodeKind::Forger { fake_loc } => {
                // A fresh arbitrary pseudonym every 100 ms, claiming a
                // position adjacent to the destination. No certificate,
                // no ring signature — and no intention to forward.
                let n = Pseudonym(ctx.rng().random());
                let hello = AgfwPacket::Hello {
                    n,
                    loc: *fake_loc,
                    ts: ctx.now(),
                    auth: None,
                };
                ctx.count("attack.forged_hello");
                let bytes = hello.wire_bytes();
                ctx.mac_broadcast(hello, bytes);
                ctx.set_timer(SimTime::from_millis(100), 0);
            }
        }
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, dest: NodeId, tag: agr_sim::FlowTag) {
        if let NodeKind::Honest(inner) = self {
            inner.on_app_send(ctx, dest, tag);
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        packet: &AgfwPacket,
        from: Option<MacAddr>,
    ) {
        match self {
            NodeKind::Honest(inner) => inner.on_receive(ctx, packet, from),
            NodeKind::Forger { .. } => {} // blackhole: absorb silently
        }
    }

    fn on_mac_result(
        &mut self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        outcome: agr_sim::MacOutcome<AgfwPacket>,
    ) {
        if let NodeKind::Honest(inner) = self {
            inner.on_mac_result(ctx, outcome);
        }
    }
}

/// Chain 0-1-2-3 plus a forger (node 4) sitting near the middle,
/// advertising a fake position adjacent to the destination (node 3).
fn run_attack(authenticated: bool) -> agr_sim::Stats {
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(200.0, 0.0),
        Point::new(400.0, 0.0),
        Point::new(600.0, 0.0),
        Point::new(300.0, 60.0), // the forger, within range of the relays
    ];
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(60));
    sim.flows = vec![FlowConfig {
        src: NodeId(0),
        dst: NodeId(3),
        start: SimTime::from_secs(10),
        interval: SimTime::from_secs(1),
        payload_bytes: 64,
        stop: SimTime::from_secs(55),
    }];
    let mut rng = StdRng::seed_from_u64(4242);
    // Certificates only for the honest nodes; the forger has none.
    let (keys, dir) = KeyDirectory::generate(4, 256, &mut rng).unwrap();
    let fake_loc = Point::new(590.0, 0.0); // "I am right next to the destination"
    let mut world = World::new(sim, move |id, cfg, rng2| {
        if id == NodeId(4) {
            NodeKind::Forger { fake_loc }
        } else if authenticated {
            NodeKind::Honest(Agfw::with_keys(
                id,
                AgfwConfig::default(),
                cfg,
                Arc::clone(&keys[id.0 as usize]),
                Arc::clone(&dir),
                Some(AantConfig { ring_size: 3 }),
            ))
        } else {
            NodeKind::Honest(Agfw::new(id, AgfwConfig::default(), cfg, rng2))
        }
    });
    world.run()
}

#[test]
fn forged_hellos_degrade_unauthenticated_ant() {
    let stats = run_attack(false);
    assert!(stats.counter("attack.forged_hello") > 100);
    assert!(
        stats.delivery_fraction() < 0.9,
        "the blackhole should swallow a meaningful share, got {}",
        stats.delivery_fraction()
    );
}

#[test]
fn aant_rejects_forged_hellos_and_restores_delivery() {
    let stats = run_attack(true);
    assert!(stats.counter("attack.forged_hello") > 100);
    assert!(
        stats.counter("aant.reject") > 100,
        "every forged hello must be rejected, got {}",
        stats.counter("aant.reject")
    );
    assert!(
        stats.delivery_fraction() > 0.95,
        "authenticated ANT should neutralise the forger, got {}",
        stats.delivery_fraction()
    );
}
