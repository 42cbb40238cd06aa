//! Property-based tests for GPSR's routing primitives.

use agr_geom::Point;
use agr_gpsr::perimeter;
use agr_gpsr::{greedy, Neighbor, NeighborTable};
use agr_sim::{NodeId, SimTime};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..1500.0f64, 0.0..300.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_neighbors() -> impl Strategy<Value = Vec<Neighbor>> {
    proptest::collection::vec(arb_point(), 0..15).prop_map(|ps| {
        ps.into_iter()
            .enumerate()
            .map(|(i, pos)| Neighbor {
                id: NodeId(i as u32),
                pos,
                heard_at: SimTime::ZERO,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn greedy_choice_is_closest_progressing(
        me in arb_point(),
        dst in arb_point(),
        neighbors in arb_neighbors(),
    ) {
        match greedy::next_hop(me, dst, neighbors.iter().copied()) {
            Some(chosen) => {
                prop_assert!(chosen.pos.distance_sq(dst) < me.distance_sq(dst));
                for n in &neighbors {
                    prop_assert!(
                        chosen.pos.distance_sq(dst) <= n.pos.distance_sq(dst) + 1e-9
                    );
                }
            }
            None => {
                // No neighbor makes progress.
                for n in &neighbors {
                    prop_assert!(n.pos.distance_sq(dst) >= me.distance_sq(dst));
                }
            }
        }
    }

    #[test]
    fn planarisation_yields_subset(
        me in arb_point(),
        neighbors in arb_neighbors(),
    ) {
        let planar = perimeter::planar_neighbors(me, &neighbors);
        prop_assert!(planar.len() <= neighbors.len());
        for p in &planar {
            prop_assert!(neighbors.iter().any(|n| n.id == p.id));
        }
    }

    #[test]
    fn perimeter_next_hop_is_a_planar_neighbor(
        me in arb_point(),
        prev in arb_point(),
        neighbors in arb_neighbors(),
    ) {
        if let Some(next) = perimeter::next_hop(me, prev, &neighbors) {
            let planar = perimeter::planar_neighbors(me, &neighbors);
            prop_assert!(planar.iter().any(|n| n.id == next.id));
        }
    }

    #[test]
    fn resume_rule_is_a_strict_distance_test(
        me in arb_point(),
        entry in arb_point(),
        dst in arb_point(),
    ) {
        let resumed = perimeter::can_resume_greedy(me, entry, dst);
        prop_assert_eq!(resumed, me.distance_sq(dst) < entry.distance_sq(dst));
    }

    #[test]
    fn neighbor_table_expiry_is_exact(
        heard_ms in 0u64..10_000,
        timeout_ms in 1u64..10_000,
        query_ms in 0u64..20_000,
    ) {
        let mut t = NeighborTable::new(SimTime::from_millis(timeout_ms));
        t.update(NodeId(1), Point::ORIGIN, SimTime::from_millis(heard_ms));
        let live = t.get(NodeId(1), SimTime::from_millis(query_ms)).is_some();
        let age = query_ms.saturating_sub(heard_ms);
        prop_assert_eq!(live, age < timeout_ms);
    }
}
