//! The GPSR protocol state machine for `agr-sim`.

use crate::greedy;
use crate::neighbor::NeighborTable;
use crate::packet::{DataHeader, GpsrPacket, BEACON_BYTES};
use agr_sim::{Ctx, FlowTag, MacAddr, MacDst, MacOutcome, NodeId, Protocol, SimTime};
use rand::Rng;

/// GPSR configuration. GPSR here is the paper's greedy-only baseline,
/// which "usually ... has a satisfactory delivery performance even in a
/// modest-density network" (§6), so there is nothing left to configure;
/// the type stays because the benchmark harness still names it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpsrConfig;

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
        GpsrConfig
    }
}

const TIMER_BEACON: u64 = 1;

/// A GPSR node.
///
/// See the [crate documentation](crate) for the protocol description and
/// a runnable example.
#[derive(Debug)]
pub struct Gpsr {
    table: NeighborTable,
}

impl Gpsr {
    /// Creates a GPSR node. The `rng` parameter mirrors the
    /// `World::new` factory signature; GPSR itself draws its jitter from
    /// the simulation RNG at runtime.
    #[must_use]
    pub fn new(_config: GpsrConfig, _rng: &mut impl Rng) -> Self {
        Gpsr {
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

    fn forward(&mut self, ctx: &mut Ctx<'_, GpsrPacket>, header: DataHeader) {
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

        match greedy::next_hop(my_pos, header.dst_loc, self.table.live(now)) {
            Some(next) => {
                ctx.count("gpsr.forward.greedy");
                ctx.mac_unicast(
                    MacAddr::from(next.id),
                    GpsrPacket::Data(header),
                    header.wire_bytes(),
                );
            }
            None => ctx.count("gpsr.drop.local_max"),
        }
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
