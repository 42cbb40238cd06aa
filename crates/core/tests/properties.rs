//! Property-based tests for the anonymous-routing building blocks.

use agr_core::ant::SelectionStrategy;
use agr_core::packet::{AgfwData, AgfwPacket, TrapdoorWire};
use agr_core::{AnonymousNeighborTable, Pseudonym, PseudonymGenerator};
use agr_geom::Point;
use agr_sim::{FlowTag, NodeId, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..1500.0f64, 0.0..300.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_entry() -> impl Strategy<Value = (u8, Point, u64)> {
    (1u8..=255, arb_point(), 0u64..5000)
}

proptest! {
    #[test]
    fn selection_always_makes_strict_progress(
        me in arb_point(),
        dst in arb_point(),
        entries in proptest::collection::vec(arb_entry(), 0..20),
        now_ms in 4500u64..10_000,
    ) {
        let mut ant = AnonymousNeighborTable::new(
            SimTime::from_millis(4500),
            SimTime::from_millis(2200),
        );
        for (b, loc, t_ms) in &entries {
            ant.observe(Pseudonym([*b; 6]), *loc, SimTime::from_millis(now_ms - 4500 + t_ms));
        }
        let now = SimTime::from_millis(now_ms);
        for strategy in [SelectionStrategy::NaiveClosest, SelectionStrategy::FreshnessAware] {
            if let Some(chosen) = ant.next_hop(me, dst, now, strategy) {
                prop_assert!(
                    chosen.loc.distance_sq(dst) < me.distance_sq(dst),
                    "{strategy:?} chose a non-progressing entry"
                );
            }
        }
    }

    #[test]
    fn naive_selection_is_optimal_among_live(
        me in arb_point(),
        dst in arb_point(),
        entries in proptest::collection::vec(arb_entry(), 1..20),
    ) {
        let mut ant = AnonymousNeighborTable::new(
            SimTime::from_millis(4500),
            SimTime::from_millis(2200),
        );
        let now = SimTime::from_millis(1000);
        for (b, loc, _) in &entries {
            ant.observe(Pseudonym([*b; 6]), *loc, now);
        }
        if let Some(chosen) = ant.next_hop(me, dst, now, SelectionStrategy::NaiveClosest) {
            for e in ant.live(now) {
                prop_assert!(
                    chosen.loc.distance_sq(dst) <= e.loc.distance_sq(dst) + 1e-9
                        || e.loc.distance_sq(dst) >= me.distance_sq(dst),
                    "a closer progressing entry existed"
                );
            }
        }
    }

    #[test]
    fn pseudonym_generator_window_invariants(
        seed in any::<u64>(),
        memory in 1usize..5,
        rotations in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = PseudonymGenerator::new(7, memory);
        let mut all = Vec::new();
        for _ in 0..rotations {
            all.push(g.rotate(&mut rng));
        }
        // The last `memory` pseudonyms are owned, all earlier ones are not.
        let owned_from = all.len().saturating_sub(memory);
        for (i, n) in all.iter().enumerate() {
            prop_assert_eq!(g.owns(*n), i >= owned_from, "window violated at {}", i);
        }
        // Current is the most recent.
        prop_assert_eq!(g.current(), all.last().copied());
        // The reserved value is never generated.
        prop_assert!(!all.contains(&Pseudonym::LAST_ATTEMPT));
    }

    #[test]
    fn pseudonyms_are_distinct_whp(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = PseudonymGenerator::new(1, 2);
        let set: agr_sim::FixedSet<_> = (0..100).map(|_| g.rotate(&mut rng)).collect();
        prop_assert_eq!(set.len(), 100, "48-bit pseudonyms must not collide in 100 draws");
    }

    #[test]
    fn wire_bytes_monotone_in_payload(payload in 0u32..1000) {
        let tag = FlowTag { flow: 0, seq: 0, src: NodeId(0), sent_at: SimTime::ZERO };
        let data = |payload_bytes| AgfwData {
            dst_loc: Point::ORIGIN,
            next: Pseudonym([1; 6]),
            trapdoor: TrapdoorWire::Modeled { dest: NodeId(0), nonce: 0 },
            uid: 1,
            ttl: 64,
            payload_bytes,
            tag,
        };
        let base = data(payload).wire_bytes();
        prop_assert_eq!(data(payload + 1).wire_bytes(), base + 1);
        // Header alone always exceeds the GPSR header (the trapdoor cost).
        prop_assert!(base - payload >= 64);
    }

    #[test]
    fn ant_prune_never_removes_live_entries(
        entries in proptest::collection::vec(arb_entry(), 0..20),
        now_ms in 0u64..20_000,
    ) {
        let mut ant = AnonymousNeighborTable::new(
            SimTime::from_millis(4500),
            SimTime::from_millis(2200),
        );
        for (b, loc, t_ms) in &entries {
            ant.observe(Pseudonym([*b; 6]), *loc, SimTime::from_millis(*t_ms));
        }
        let now = SimTime::from_millis(now_ms);
        let live_before = ant.live_count(now);
        ant.prune(now);
        prop_assert_eq!(ant.live_count(now), live_before);
    }

    #[test]
    fn hello_wire_size_is_constant_without_auth(
        b in any::<u8>(),
        x in 0.0..1500.0f64,
        y in 0.0..300.0f64,
        t in 0u64..900,
    ) {
        let hello = AgfwPacket::Hello {
            n: Pseudonym([b; 6]),
            loc: Point::new(x, y),
            ts: SimTime::from_secs(t),
            auth: None,
        };
        prop_assert_eq!(hello.wire_bytes(), 38);
    }
}
