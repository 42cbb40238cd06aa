//! The GPSR protocol state machine for `agr-sim`.

use crate::greedy;
use crate::neighbor::NeighborTable;
use crate::packet::{DataHeader, GpsrPacket, RoutingMode, BEACON_BYTES};
use agr_geom::planar;
use agr_sim::{Ctx, FlowTag, MacAddr, MacDst, MacOutcome, NodeId, Protocol, SimTime};
use rand::Rng;

/// GPSR configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpsrConfig {
    /// Enable perimeter-mode recovery (off = the paper's GPSR-Greedy
    /// baseline, which "usually ... has a satisfactory delivery
    /// performance even in a modest-density network", §6).
    pub perimeter: bool,
}

/// Beacon (local location update) interval; GPSR default 1 s.
const BEACON_INTERVAL: SimTime = SimTime::from_secs(1);
/// Neighbor entry lifetime; GPSR default 4.5 × beacon interval.
const NEIGHBOR_TIMEOUT: SimTime = SimTime::from_millis(4500);
/// Initial TTL of data packets.
const DATA_TTL: u8 = 64;

impl GpsrConfig {
    /// The baseline of the paper's Figure 1: greedy-only GPSR.
    #[must_use]
    pub fn greedy_only() -> Self {
        GpsrConfig::default()
    }

    /// Greedy + perimeter recovery (the full GPSR of Karp & Kung).
    #[must_use]
    pub fn with_perimeter() -> Self {
        GpsrConfig { perimeter: true }
    }
}

const TIMER_BEACON: u64 = 1;

/// A GPSR node.
///
/// See the [crate documentation](crate) for the protocol description and
/// a runnable example.
#[derive(Debug)]
pub struct Gpsr {
    config: GpsrConfig,
    table: NeighborTable,
}

impl Gpsr {
    /// Creates a GPSR node. The `rng` parameter mirrors the
    /// `World::new` factory signature; GPSR itself draws its jitter from
    /// the simulation RNG at runtime.
    #[must_use]
    pub fn new(config: GpsrConfig, _rng: &mut impl Rng) -> Self {
        Gpsr {
            config,
            table: NeighborTable::new(NEIGHBOR_TIMEOUT),
        }
    }

    /// Read access to the neighbor table (for tests and analysis).
    #[must_use]
    pub fn neighbor_table(&self) -> &NeighborTable {
        &self.table
    }

    fn schedule_beacon(&self, ctx: &mut Ctx<'_, GpsrPacket>, first: bool) {
        let base = BEACON_INTERVAL.as_nanos();
        let delay = if first {
            // Stagger initial beacons across one interval.
            ctx.rng().random_range(0..base.max(1))
        } else {
            // GPSR jitters beacons uniformly over [0.75B, 1.25B] to avoid
            // synchronisation.
            ctx.rng().random_range((base * 3 / 4)..=(base * 5 / 4))
        };
        ctx.set_timer(SimTime::from_nanos(delay), TIMER_BEACON);
    }

    fn forward(&mut self, ctx: &mut Ctx<'_, GpsrPacket>, mut header: DataHeader) {
        let me = ctx.my_id();
        let my_pos = ctx.my_pos();
        let now = ctx.now();

        // Direct neighbor shortcut: if the destination itself is a live
        // neighbor, hand the packet over regardless of geometry (its
        // advertised position is fresher than the source's snapshot).
        if let Some(dest) = self.table.get(header.dst, now) {
            ctx.count("gpsr.forward.direct");
            ctx.mac_unicast(
                MacAddr::from(dest.id),
                GpsrPacket::Data(header),
                header.wire_bytes(),
            );
            return;
        }

        // Perimeter mode continues until the packet is strictly closer to
        // the destination than where it entered; otherwise route greedily,
        // entering perimeter mode at a local maximum. The right-hand rule
        // for the first perimeter hop sweeps from the direction of the
        // destination.
        let (entry, from, first_edge, counter) = match header.mode {
            RoutingMode::Perimeter {
                entry,
                prev,
                first_edge,
            } if !planar::can_resume_greedy(my_pos, entry, header.dst_loc) => {
                (entry, prev, first_edge, "gpsr.forward.perimeter")
            }
            _ => {
                header.mode = RoutingMode::Greedy;
                match greedy::next_hop(my_pos, header.dst_loc, self.table.live(now)) {
                    Some(next) => {
                        ctx.count("gpsr.forward.greedy");
                        ctx.mac_unicast(
                            MacAddr::from(next.id),
                            GpsrPacket::Data(header),
                            header.wire_bytes(),
                        );
                        return;
                    }
                    None if self.config.perimeter => {
                        (my_pos, header.dst_loc, None, "gpsr.forward.perimeter_enter")
                    }
                    None => {
                        ctx.count("gpsr.drop.local_max");
                        return;
                    }
                }
            }
        };
        let neighbors = self.table.live(now).map(|n| (n.id, n.pos));
        let Some(next) = planar::perimeter_next(my_pos, from, neighbors) else {
            ctx.count("gpsr.drop.no_route");
            return;
        };
        // Loop detection, simplified from the GPSR paper (recorded in
        // DESIGN.md): instead of full face-change bookkeeping, a packet
        // about to re-traverse the *first edge* it took in perimeter mode,
        // in the same direction, has an unreachable destination and is
        // dropped.
        let edge = (me, next);
        if first_edge == Some(edge) {
            ctx.count("gpsr.drop.unreachable");
            return;
        }
        header.mode = RoutingMode::Perimeter {
            entry,
            prev: my_pos,
            first_edge: Some(first_edge.unwrap_or(edge)),
        };
        ctx.count(counter);
        ctx.mac_unicast(
            MacAddr::from(next),
            GpsrPacket::Data(header),
            header.wire_bytes(),
        );
    }
}

impl Protocol for Gpsr {
    type Packet = GpsrPacket;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GpsrPacket>) {
        self.schedule_beacon(ctx, true);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GpsrPacket>, kind: u64) {
        debug_assert_eq!(kind, TIMER_BEACON);
        // Advertised position, which lags ground truth under
        // stale-location fault injection (identical to my_pos otherwise).
        let beacon = GpsrPacket::Beacon {
            id: ctx.my_id(),
            pos: ctx.beacon_pos(),
        };
        ctx.count("gpsr.beacons");
        ctx.mac_broadcast(beacon, BEACON_BYTES);
        let now = ctx.now();
        self.table.prune(now);
        self.schedule_beacon(ctx, false);
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, GpsrPacket>, dest: NodeId, tag: FlowTag) {
        // Geographic routing needs the destination's location; the paper's
        // simulations (like the original GPSR evaluation) grant sources
        // that knowledge rather than simulating the location service.
        let dst_loc = ctx.oracle_position(dest);
        let header = DataHeader {
            tag,
            dst: dest,
            dst_loc,
            ttl: DATA_TTL,
            mode: RoutingMode::Greedy,
            payload_bytes: ctx.config().flows[tag.flow as usize].payload_bytes,
        };
        self.forward(ctx, header);
    }

    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, GpsrPacket>,
        packet: &GpsrPacket,
        _from: Option<MacAddr>,
    ) {
        match packet {
            GpsrPacket::Beacon { id, pos } => {
                self.table.update(*id, *pos, ctx.now());
            }
            GpsrPacket::Data(header) => {
                if header.dst == ctx.my_id() {
                    ctx.deliver_data(header.tag);
                    return;
                }
                if header.ttl == 0 {
                    ctx.count("gpsr.drop.ttl");
                    return;
                }
                // A compromised relay has already link-ACKed the unicast;
                // dropping here is the blackhole's accept-and-discard.
                if ctx.adversary_drops() {
                    return;
                }
                // Committed to forwarding: clone the header out of the
                // shared broadcast payload.
                let mut header = *header;
                header.ttl -= 1;
                self.forward(ctx, header);
            }
        }
    }

    fn on_mac_result(&mut self, ctx: &mut Ctx<'_, GpsrPacket>, outcome: MacOutcome<GpsrPacket>) {
        if let MacOutcome::Failed {
            dst: MacDst::Unicast(addr),
            packet,
        } = outcome
        {
            if let GpsrPacket::Data(header) = packet.as_ref() {
                // The chosen neighbor never acknowledged: it has moved away
                // or died. Evict it and re-route the packet (GPSR's
                // reaction to MAC-layer feedback).
                self.table.remove(NodeId(addr.0));
                ctx.count("gpsr.neighbor_evicted");
                self.forward(ctx, *header);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        assert!(!GpsrConfig::greedy_only().perimeter);
        assert!(GpsrConfig::with_perimeter().perimeter);
    }
}
