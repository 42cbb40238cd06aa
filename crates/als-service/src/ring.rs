//! Cell-ownership ring: which cluster nodes replicate which cells.
//!
//! Ownership is rendezvous (highest-random-weight) hashing over the
//! same FNV-1a the shard router uses: every `(node, cell)` pair gets a
//! stable score, and a cell's R owners are the R highest-scoring nodes.
//! Rendezvous hashing needs no token table and has the minimal-movement
//! property this cluster relies on: growing the ring from N to N+1
//! nodes only moves cells whose new-node score beats an incumbent —
//! ownership never shuffles between surviving nodes, so handoff traffic
//! is proportional to the data the new node actually takes over.
//!
//! Node identity is the ring index (0..N), which is stable across
//! kill/restart: a restarted node re-joins with the same index, the same
//! ownership, and an empty store — anti-entropy refills it.

use crate::store::fnv1a;
use agr_geom::CellId;

/// A fixed-membership cell-ownership ring over nodes `0..n`.
///
/// Membership is static by design — crashes make a node *unavailable*,
/// not *removed* (its ownership waits for the restart; the surviving
/// replicas cover reads and writes meanwhile). Changing `n` is a
/// deliberate topology change, not a failure response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    nodes: usize,
}

impl Ring {
    /// A ring over `nodes` members (values below 1 behave as 1).
    #[must_use]
    pub fn new(nodes: usize) -> Ring {
        Ring {
            nodes: nodes.max(1),
        }
    }

    /// The rendezvous score of `node` for `cell` — FNV-1a over the
    /// cell-prefixed key the store itself uses, extended with the node
    /// index, then pushed through a full-avalanche finalizer.
    ///
    /// The finalizer is load-bearing, not decoration: raw FNV-1a's low
    /// bits are a simple function of the input's low bits, and the node
    /// index only perturbs the final byte — so without it, the *rank
    /// order* of the N per-cell scores collapses to a function of a few
    /// shared low bits and small grids starve some nodes of ownership
    /// entirely. The SplitMix64-style mix diffuses every input bit into
    /// the comparison-deciding high bits.
    #[must_use]
    pub(crate) fn score(&self, node: usize, cell: CellId) -> u64 {
        let mut key = [0u8; 16];
        key[..4].copy_from_slice(&cell.col.to_be_bytes());
        key[4..8].copy_from_slice(&cell.row.to_be_bytes());
        key[8..].copy_from_slice(&(node as u64).to_be_bytes());
        let mut z = fnv1a(&key);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The `r` nodes owning `cell`, highest rendezvous score first
    /// (deterministic: ties break towards the lower index). `r` is
    /// clamped to the ring size.
    #[must_use]
    pub fn owners(&self, cell: CellId, r: usize) -> Vec<usize> {
        let mut scored: Vec<(u64, usize)> = (0..self.nodes)
            .map(|node| (self.score(node, cell), node))
            .collect();
        scored.sort_unstable_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
        scored
            .into_iter()
            .take(r.clamp(1, self.nodes))
            .map(|(_, node)| node)
            .collect()
    }
}

/// A node's health as the failure detector sees it.
///
/// ```text
/// Alive --miss--> Suspect --(down_after misses)--> Down
///   ^                |                               |
///   |<----ack--------+            ack                v
///   |                                           Rejoining --miss--> Down
///   +------------------readmit (cells verified)------+
/// ```
///
/// The extra `Rejoining` state is the read-safety half of recovery: a
/// node that answers again after being `Down` is *reachable* but its
/// store may still be stale, so it is written to (it must catch up) but
/// not counted on for reads until its cells verify against a healthy
/// replica and the caller issues `record_readmit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Answering normally.
    Alive,
    /// Missed recent evidence; still read-eligible (suspicion is cheap,
    /// and a lossy transport must not flap reads).
    Suspect,
    /// Considered crashed: skipped for reads and never awaited on.
    Down,
    /// Answering again after `Down`, catching up; written to but not
    /// read-quorum-eligible until verified.
    Rejoining,
}

/// Tuning of a [`FailureDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive misses that turn `Suspect` into `Down`.
    pub down_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig { down_after: 3 }
    }
}

/// A pure, heartbeat-driven per-node health state machine (see
/// [`NodeHealth`]). It holds no clocks and does no I/O: callers feed it
/// ack/miss *evidence* (an answered frame of any kind is an ack; an
/// awaited-but-absent answer is a miss) and read back eligibility. That
/// purity is what makes detector behavior a deterministic function of
/// the evidence stream — the property the chaos proptests pin.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: HealthConfig,
    states: Vec<NodeHealth>,
    misses: Vec<u32>,
}

impl FailureDetector {
    /// A detector over `nodes` members, all initially [`NodeHealth::Alive`].
    #[must_use]
    pub fn new(nodes: usize, config: HealthConfig) -> FailureDetector {
        FailureDetector {
            config,
            states: vec![NodeHealth::Alive; nodes.max(1)],
            misses: vec![0; nodes.max(1)],
        }
    }

    /// The current state of `node`.
    #[must_use]
    pub fn state(&self, node: usize) -> NodeHealth {
        self.states[node]
    }

    /// Whether `node` is worth sending to and awaiting (anything but
    /// `Down`).
    #[must_use]
    pub fn is_alive(&self, node: usize) -> bool {
        self.states[node] != NodeHealth::Down
    }

    /// Whether `node` may serve reads: `Alive` or `Suspect`, but not a
    /// `Rejoining` node whose store has not been verified yet.
    #[must_use]
    pub fn read_eligible(&self, node: usize) -> bool {
        matches!(self.states[node], NodeHealth::Alive | NodeHealth::Suspect)
    }

    /// Records liveness evidence: any answered frame. Clears suspicion;
    /// a `Down` node becomes `Rejoining` (reachable, not yet trusted).
    pub fn record_ack(&mut self, node: usize) {
        self.misses[node] = 0;
        self.states[node] = match self.states[node] {
            NodeHealth::Alive | NodeHealth::Suspect => NodeHealth::Alive,
            NodeHealth::Down | NodeHealth::Rejoining => NodeHealth::Rejoining,
        };
    }

    /// Records an awaited answer that never came. `down_after`
    /// consecutive misses take a node to `Down`; a `Rejoining` node
    /// falls straight back (it had no standing to lose).
    pub fn record_miss(&mut self, node: usize) {
        self.misses[node] = self.misses[node].saturating_add(1);
        self.states[node] = match self.states[node] {
            NodeHealth::Rejoining | NodeHealth::Down => NodeHealth::Down,
            NodeHealth::Alive | NodeHealth::Suspect => {
                if self.misses[node] >= self.config.down_after.max(1) {
                    NodeHealth::Down
                } else {
                    NodeHealth::Suspect
                }
            }
        };
    }

    /// Promotes a `Rejoining` node to `Alive` — called only after the
    /// caller verified the node's cells agree with a healthy replica
    /// (in-band, via digest probes). A no-op in any other state.
    pub fn record_readmit(&mut self, node: usize) {
        if self.states[node] == NodeHealth::Rejoining {
            self.misses[node] = 0;
            self.states[node] = NodeHealth::Alive;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(n: u32) -> impl Iterator<Item = CellId> {
        (0..n).flat_map(move |col| (0..n).map(move |row| CellId { col, row }))
    }

    #[test]
    fn owners_are_stable_distinct_and_in_range() {
        let ring = Ring::new(5);
        for cell in cells(12) {
            let owners = ring.owners(cell, 2);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert!(owners.iter().all(|&n| n < 5));
            assert_eq!(owners, ring.owners(cell, 2), "ownership must be stable");
            assert_eq!(
                owners[0],
                ring.owners(cell, 1)[0],
                "primary heads every owner list"
            );
        }
    }

    #[test]
    fn replication_clamps_to_ring_size() {
        let ring = Ring::new(2);
        for cell in cells(6) {
            assert_eq!(ring.owners(cell, 5).len(), 2);
            assert_eq!(ring.owners(cell, 0).len(), 1);
        }
        assert_eq!(Ring::new(1).owners(CellId { col: 3, row: 7 }, 2), vec![0]);
    }

    #[test]
    fn ownership_spreads_over_the_ring() {
        // Rendezvous hashing must not degenerate: with 256 cells over 5
        // nodes every node should primary a healthy share.
        let ring = Ring::new(5);
        let mut primaries = [0usize; 5];
        for cell in cells(16) {
            primaries[ring.owners(cell, 1)[0]] += 1;
        }
        for (node, &count) in primaries.iter().enumerate() {
            assert!(
                count > 256 / 5 / 3,
                "node {node} primaries only {count} of 256 cells"
            );
        }
    }

    #[test]
    fn small_grids_give_every_node_replica_ownership() {
        // The regression the score finalizer fixes: without full
        // avalanche, rank order degenerates on small grids and some
        // nodes own nothing — a silent loss of the replication factor.
        let ring = Ring::new(5);
        let mut owned = [0usize; 5];
        for cell in cells(4) {
            for owner in ring.owners(cell, 2) {
                owned[owner] += 1;
            }
        }
        for (node, &count) in owned.iter().enumerate() {
            assert!(count > 0, "node {node} owns nothing on a 4x4 grid");
        }
    }

    #[test]
    fn detector_walks_alive_suspect_down_rejoining_alive() {
        let mut fd = FailureDetector::new(3, HealthConfig { down_after: 3 });
        assert_eq!(fd.state(1), NodeHealth::Alive);
        fd.record_miss(1);
        assert_eq!(fd.state(1), NodeHealth::Suspect);
        assert!(fd.read_eligible(1), "suspicion must not flap reads");
        fd.record_miss(1);
        fd.record_miss(1);
        assert_eq!(fd.state(1), NodeHealth::Down);
        assert!(!fd.is_alive(1) && !fd.read_eligible(1));
        // First answer after Down: reachable but not trusted for reads.
        fd.record_ack(1);
        assert_eq!(fd.state(1), NodeHealth::Rejoining);
        assert!(fd.is_alive(1) && !fd.read_eligible(1));
        // Readmission is explicit, after cell verification.
        fd.record_readmit(1);
        assert_eq!(fd.state(1), NodeHealth::Alive);
        // Other nodes were never touched.
        assert_eq!(fd.state(0), NodeHealth::Alive);
        assert_eq!(fd.state(2), NodeHealth::Alive);
    }

    #[test]
    fn one_ack_clears_any_pile_of_suspicion() {
        let mut fd = FailureDetector::new(1, HealthConfig { down_after: 4 });
        for _ in 0..3 {
            fd.record_miss(0);
        }
        assert_eq!(fd.state(0), NodeHealth::Suspect);
        fd.record_ack(0);
        assert_eq!(fd.state(0), NodeHealth::Alive);
        // The miss counter reset too: it takes down_after fresh misses
        // to go Down again.
        for _ in 0..3 {
            fd.record_miss(0);
        }
        assert_eq!(fd.state(0), NodeHealth::Suspect);
    }

    #[test]
    fn rejoining_node_falls_straight_back_on_a_miss() {
        let mut fd = FailureDetector::new(2, HealthConfig::default());
        for _ in 0..3 {
            fd.record_miss(0);
        }
        fd.record_ack(0);
        assert_eq!(fd.state(0), NodeHealth::Rejoining);
        fd.record_miss(0);
        assert_eq!(fd.state(0), NodeHealth::Down);
        // Readmit on a non-Rejoining node is a no-op.
        fd.record_readmit(0);
        assert_eq!(fd.state(0), NodeHealth::Down);
    }

    #[test]
    fn growing_the_ring_moves_ownership_only_to_the_new_node() {
        // The minimal-movement property: going 4 -> 5 nodes, a cell's
        // owner set changes only by the new node displacing an incumbent
        // — never by cells shuffling among nodes 0..4.
        let before = Ring::new(4);
        let after = Ring::new(5);
        for cell in cells(16) {
            let old: Vec<usize> = before.owners(cell, 2);
            let new: Vec<usize> = after.owners(cell, 2);
            for owner in &new {
                assert!(
                    *owner == 4 || old.contains(owner),
                    "cell {cell:?} moved to surviving node {owner} ({old:?} -> {new:?})"
                );
            }
        }
    }
}
