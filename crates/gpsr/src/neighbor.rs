//! The beaconed neighbor table.
//!
//! Entries map a neighbor's *identity* to its last advertised position —
//! the identity–location doublet the paper's threat model centres on.
//! Entries expire after `timeout` (GPSR uses 4.5 × the beacon interval),
//! so a silent or departed neighbor stops being a forwarding candidate.

use agr_geom::Point;
use agr_sim::{NodeId, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// One neighbor entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Neighbor identity.
    pub id: NodeId,
    /// Last advertised position.
    pub pos: Point,
    /// When the advertisement was heard.
    pub heard_at: SimTime,
}

/// A table of recently heard neighbors.
///
/// # Examples
///
/// ```
/// use agr_geom::Point;
/// use agr_gpsr::NeighborTable;
/// use agr_sim::{NodeId, SimTime};
///
/// let mut table = NeighborTable::new(SimTime::from_secs(4));
/// table.update(NodeId(1), Point::new(10.0, 0.0), SimTime::from_secs(0));
/// assert_eq!(table.get(NodeId(1), SimTime::from_secs(3)).unwrap().pos.x, 10.0);
/// assert!(table.get(NodeId(1), SimTime::from_secs(5)).is_none()); // expired
/// ```
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    /// Keyed by simulated node ids, and every reader breaks ties on the
    /// id, so a fixed-key hasher loses nothing; it spares each node's
    /// construction a random seed.
    entries: HashMap<NodeId, Neighbor, BuildHasherDefault<DefaultHasher>>,
    timeout: SimTime,
}

impl NeighborTable {
    /// Creates a table whose entries expire `timeout` after their beacon.
    #[must_use]
    pub fn new(timeout: SimTime) -> Self {
        NeighborTable {
            entries: HashMap::default(),
            timeout,
        }
    }

    /// Inserts or refreshes a neighbor from a beacon.
    pub fn update(&mut self, id: NodeId, pos: Point, now: SimTime) {
        self.entries.insert(
            id,
            Neighbor {
                id,
                pos,
                heard_at: now,
            },
        );
    }

    /// Removes a neighbor (e.g. after a MAC-layer delivery failure).
    ///
    /// Returns the removed entry, if present.
    pub(crate) fn remove(&mut self, id: NodeId) -> Option<Neighbor> {
        self.entries.remove(&id)
    }

    /// Looks up a live (non-expired) neighbor.
    #[must_use]
    pub fn get(&self, id: NodeId, now: SimTime) -> Option<Neighbor> {
        self.entries
            .get(&id)
            .filter(|n| self.is_live(n, now))
            .copied()
    }

    /// Iterates over live neighbors.
    pub(crate) fn live(&self, now: SimTime) -> impl Iterator<Item = Neighbor> + '_ {
        self.entries
            .values()
            .filter(move |n| self.is_live(n, now))
            .copied()
    }

    /// Number of live neighbors.
    #[must_use]
    pub fn live_count(&self, now: SimTime) -> usize {
        self.live(now).count()
    }

    /// Drops expired entries to bound memory (call occasionally, e.g. on
    /// each beacon).
    pub(crate) fn prune(&mut self, now: SimTime) {
        let timeout = self.timeout;
        self.entries
            .retain(|_, n| now.saturating_sub(n.heard_at) < timeout);
    }

    fn is_live(&self, n: &Neighbor, now: SimTime) -> bool {
        now.saturating_sub(n.heard_at) < self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> NeighborTable {
        NeighborTable::new(SimTime::from_millis(4500))
    }

    #[test]
    fn update_then_lookup() {
        let mut t = table();
        t.update(NodeId(3), Point::new(1.0, 2.0), SimTime::from_secs(1));
        let n = t.get(NodeId(3), SimTime::from_secs(2)).unwrap();
        assert_eq!(n.id, NodeId(3));
        assert_eq!(n.pos, Point::new(1.0, 2.0));
        assert_eq!(n.heard_at, SimTime::from_secs(1));
    }

    #[test]
    fn refresh_replaces_position() {
        let mut t = table();
        t.update(NodeId(3), Point::new(1.0, 2.0), SimTime::from_secs(1));
        t.update(NodeId(3), Point::new(5.0, 6.0), SimTime::from_secs(2));
        assert_eq!(
            t.get(NodeId(3), SimTime::from_secs(2)).unwrap().pos,
            Point::new(5.0, 6.0)
        );
        assert_eq!(t.live_count(SimTime::from_secs(2)), 1);
    }

    #[test]
    fn entries_expire() {
        let mut t = table();
        t.update(NodeId(3), Point::ORIGIN, SimTime::from_secs(1));
        assert!(t.get(NodeId(3), SimTime::from_millis(5499)).is_some());
        assert!(t.get(NodeId(3), SimTime::from_millis(5500)).is_none());
        assert_eq!(t.live_count(SimTime::from_secs(10)), 0);
    }

    #[test]
    fn remove_on_mac_failure() {
        let mut t = table();
        t.update(NodeId(3), Point::ORIGIN, SimTime::from_secs(1));
        assert!(t.remove(NodeId(3)).is_some());
        assert!(t.get(NodeId(3), SimTime::from_secs(1)).is_none());
        assert!(t.remove(NodeId(3)).is_none());
    }

    #[test]
    fn prune_drops_stale() {
        let mut t = table();
        t.update(NodeId(1), Point::ORIGIN, SimTime::from_secs(1));
        t.update(NodeId(2), Point::ORIGIN, SimTime::from_secs(100));
        t.prune(SimTime::from_secs(100));
        assert!(t.get(NodeId(1), SimTime::from_secs(100)).is_none());
        assert!(t.get(NodeId(2), SimTime::from_secs(100)).is_some());
    }

    #[test]
    fn live_iterates_only_fresh() {
        let mut t = table();
        t.update(NodeId(1), Point::ORIGIN, SimTime::from_secs(1));
        t.update(NodeId(2), Point::ORIGIN, SimTime::from_secs(10));
        let live: Vec<_> = t.live(SimTime::from_secs(10)).map(|n| n.id).collect();
        assert_eq!(live, vec![NodeId(2)]);
    }
}
