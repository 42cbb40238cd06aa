//! Property-based tests for GPSR's neighbor table. The routing rules
//! themselves are `agr_geom::planar`'s kernel, property-tested there.

use agr_geom::Point;
use agr_gpsr::NeighborTable;
use agr_sim::{NodeId, SimTime};
use proptest::prelude::*;

proptest! {
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
