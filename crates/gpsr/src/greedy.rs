//! Greedy next-hop selection.
//!
//! "The forwarding node will forward packets to the closest neighbor to
//! the destination" (§2), with the standard strict-progress condition:
//! the chosen neighbor must be strictly closer to the destination than the
//! forwarder itself, otherwise the packet is at a *local maximum* and
//! greedy forwarding fails. The rule itself is the shared kernel
//! [`agr_geom::planar::greedy_next`], ties broken on the node id.

use crate::neighbor::Neighbor;
use agr_geom::{planar, Point};

/// Picks the greedy next hop among `neighbors` for a packet at `self_pos`
/// heading to `dst_loc`.
///
/// Returns `None` when no neighbor makes strict progress (a void /
/// local maximum), where the packet is dropped.
#[must_use]
pub fn next_hop<I>(self_pos: Point, dst_loc: Point, neighbors: I) -> Option<Neighbor>
where
    I: IntoIterator<Item = Neighbor>,
{
    // `heard_at` rides along in the key; ids are unique in a table, so it
    // never decides a tie.
    let keyed = neighbors.into_iter().map(|n| ((n.id, n.heard_at), n.pos));
    planar::greedy_next(self_pos, dst_loc, keyed).map(|((id, heard_at), pos)| Neighbor {
        id,
        pos,
        heard_at,
    })
}
