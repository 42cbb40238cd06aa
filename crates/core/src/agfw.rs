//! AGFW — Anonymous Greedy Forwarding (§3.2).
//!
//! The protocol in one paragraph: every transmission is a **local
//! broadcast with no source MAC address**. Hellos advertise a fresh
//! pseudonym and position, building the [`AnonymousNeighborTable`]. Data
//! packets name their committed next relay by *pseudonym* and their
//! destination by *location plus trapdoor*. A committed forwarder
//! acknowledges at the network layer (the MAC cannot acknowledge an
//! anonymous broadcast), then — only inside the *last-hop region*, where
//! the destination location is within radio range — spends the
//! trapdoor-opening cost to check whether it is itself the destination.
//! If forwarding stalls inside the last-hop region, the node emits the
//! *last forwarding attempt* (`n = 0`), asking every receiver to try the
//! trapdoor.
//!
//! Packet handling mirrors the paper's Algorithm 3.2; the network-layer
//! ACK + retransmission scheme implements the §3.2 reliability
//! discussion; the cryptographic processing-cost model
//! implements §5.1 ("Our simulations include a proper processing delay
//! for where it applies": 0.5 ms per trapdoor seal, 8.5 ms per open
//! attempt, the paper's measured RSA-512 timings).

use crate::aant::{Aant, AantConfig};
use crate::als::{self, AlsServer};
use crate::ant::{AnonymousNeighborTable, SelectionStrategy};
use crate::backoff::backoff_delay;
use crate::dlm::ServerSelection;
use crate::keys::KeyDirectory;
use crate::packet::{
    AckRef, AgfwData, AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair, TrapdoorWire,
};
use crate::pseudonym::{Pseudonym, PseudonymGenerator};
use crate::{FixedMap, FixedSet};
use agr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use agr_crypto::trapdoor::Trapdoor;
use agr_sim::{Ctx, FlowTag, MacAddr, MacOutcome, NodeId, Protocol, SimConfig, SimTime};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How trapdoor cryptography is realised.
///
/// Either way the *timing* cost is injected into the simulation, exactly
/// as the paper did in NS-2 (§5.1). `Real` additionally performs the
/// actual RSA-512 operations (used by integration tests and the crypto
/// benches); `Modeled` is the default for large simulation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoMode {
    /// Model the cost, skip the arithmetic.
    Modeled,
    /// Perform genuine RSA trapdoor operations *and* model the paper's
    /// device timings (2026 hardware is far faster than a 2005 laptop, so
    /// wall-clock crypto time must not leak into simulated latency).
    Real,
}

/// The paper's measured RSA-512 seal time "for a portable computer
/// processor": 0.5 ms.
const ENCRYPT_DELAY: SimTime = SimTime::from_micros(500);
/// The paper's measured RSA-512 time per trapdoor-opening attempt: 8.5 ms.
const DECRYPT_DELAY: SimTime = SimTime::from_micros(8_500);

impl CryptoMode {
    /// Real RSA with the paper's timing model.
    #[must_use]
    pub fn paper_real() -> Self {
        CryptoMode::Real
    }

    /// Simulated time to seal a trapdoor at the source, in either mode.
    fn encrypt_delay(self) -> SimTime {
        ENCRYPT_DELAY
    }

    /// Simulated time per trapdoor-opening attempt, in either mode.
    fn decrypt_delay(self) -> SimTime {
        DECRYPT_DELAY
    }
}

/// How sources learn destination locations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocationMode {
    /// A location oracle — what the paper's §5 evaluation (and the
    /// original GPSR evaluation) grants sources.
    Oracle,
    /// The §3.3 anonymous location service, geo-routed over the live
    /// network: the integration the paper expected to "elegantly degrade
    /// a bit" but did not simulate. Requires key material
    /// ([`Agfw::with_keys`]).
    Als,
}

/// DLM grid cell size of the networked location service, in metres (a
/// radio range is the natural pick).
const ALS_CELL_SIZE: f64 = 250.0;
/// Remote-location-update period.
const ALS_UPDATE_INTERVAL: SimTime = SimTime::from_secs(4);
/// How long a cached destination location stays usable.
const ALS_CACHE_LIFETIME: SimTime = SimTime::from_secs(8);
/// How long a query waits for its LREP before retrying.
const ALS_QUERY_TIMEOUT: SimTime = SimTime::from_millis(400);
/// Query retries before the queued packets are dropped.
const ALS_MAX_QUERY_RETRIES: u32 = 4;
/// Hop budget of service messages.
const ALS_TTL: u8 = 32;

/// Slots with a suspicion score at or above this are excluded from
/// next-hop selection.
const SUSPICION_THRESHOLD: f64 = 1.0;
/// Suspicion added to the addressed slot on an NL-ACK timeout.
const TIMEOUT_INCREMENT: f64 = 0.6;
/// Suspicion removed from the addressed slot on a delivered NL-ACK.
const ACK_DECAY: f64 = 0.3;
/// Suspicion added when a forward-watch fires (sized to cross the
/// threshold at once — a confirmed drop, not mere silence).
const WATCH_INCREMENT: f64 = 2.0;
/// Also suspect live slots advertised within this radius (metres) of a
/// watch-confirmed suspect: a rotating attacker's aliases cluster around
/// the same advertised position.
const SUSPECT_RADIUS: f64 = 50.0;
/// How long an ACKed hop may go without an overheard onward transmission
/// before its relay is condemned. Must cover the relay's MAC queueing
/// plus, in the last-hop region, a trapdoor open.
const WATCH_TIMEOUT: SimTime = SimTime::from_millis(75);
/// First-retry backoff delay (attempt 0).
const BACKOFF_BASE: SimTime = SimTime::from_millis(25);
/// Retransmission backoff cap.
const BACKOFF_CAP: SimTime = SimTime::from_millis(200);
/// ALS query-retry backoff cap (the base is the query timeout).
const ALS_BACKOFF_CAP: SimTime = SimTime::from_millis(1600);

/// AGFW configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgfwConfig {
    /// Next-hop selection strategy.
    pub selection: SelectionStrategy,
    /// Rotate the pseudonym every `rotate_every`-th hello (paper: 1 =
    /// every hello; larger values are the privacy/efficiency ablation).
    pub rotate_every: u32,
    /// Enable network-layer acknowledgments and retransmission. Off is
    /// the paper's "simple form of AGFW" lower bound in Figure 1(a).
    pub nl_ack: bool,
    /// Trapdoor cryptography realisation.
    pub crypto: CryptoMode,
    /// How destination locations are learned.
    pub location: LocationMode,
    /// Hardening against active insiders (blackholes and grayholes, see
    /// `agr-sim::adversary`). **Off** by default: a default-configured
    /// node behaves byte-for-byte like a build without defense support,
    /// preserving the paper-faithful baseline. [`AgfwConfig::hardened`]
    /// turns it on, and three mechanisms compose:
    ///
    /// 1. **Suspicion-scored selection**: every NL-ACK outcome feeds a
    ///    per-pseudonym-slot suspicion score in the ANT (timed out →
    ///    +0.6, delivered → −0.3); next-hop selection skips slots at or
    ///    above 1.0.
    /// 2. **Forward-watch** (watchdog): an ACK from a relay that is *not*
    ///    in the destination's last-hop region promises an onward
    ///    transmission. The packet is retained; if no copy of it (nor a
    ///    downstream ACK) is overheard within 75 ms, the relay is a
    ///    suspected blackhole — it, and live slots advertised within 50 m
    ///    of it (its likely rotation aliases), get +2.0, and the retained
    ///    packet is re-routed around them. This is the only signal that
    ///    can catch an accept+ACK+drop attacker, which never times out.
    /// 3. **Bounded backoff**: hop retransmissions and ALS query retries
    ///    are spaced by capped exponential backoff with hash-derived
    ///    jitter ([`crate::backoff::backoff_delay`]) instead of hammering
    ///    a silent relay at a fixed cadence.
    pub defense: bool,
}

/// How many of its own recent pseudonyms a node answers to (paper: 2).
const PSEUDONYM_MEMORY: usize = 2;
/// Hello (anonymous beacon) interval.
const HELLO_INTERVAL: SimTime = SimTime::from_secs(1);
/// ANT entry lifetime.
const ANT_TIMEOUT: SimTime = SimTime::from_millis(4500);
/// Freshness window for [`SelectionStrategy::FreshnessAware`]; covers
/// the pseudonym-memory horizon (2 hello intervals).
const FRESH_WINDOW: SimTime = SimTime::from_millis(2200);
/// Initial TTL of data packets.
const DATA_TTL: u8 = 64;
/// How long a forwarder waits for the next hop's NL-ACK after its
/// broadcast leaves the MAC.
const ACK_TIMEOUT: SimTime = SimTime::from_millis(25);
/// Retransmissions before giving up on a hop.
pub const MAX_RETRANSMITS: u32 = 5;

impl Default for AgfwConfig {
    fn default() -> Self {
        AgfwConfig {
            selection: SelectionStrategy::FreshnessAware,
            rotate_every: 1,
            nl_ack: true,
            crypto: CryptoMode::Modeled,
            location: LocationMode::Oracle,
            defense: false,
        }
    }
}

impl AgfwConfig {
    /// The paper's "simple form of AGFW with no packet acknowledgment" —
    /// the lower curve of Figure 1(a).
    #[must_use]
    pub fn without_ack() -> Self {
        AgfwConfig {
            nl_ack: false,
            ..AgfwConfig::default()
        }
    }

    /// AGFW hardened against active insiders: suspicion-scored neighbor
    /// selection, the forward-watch, and bounded-backoff retries.
    #[must_use]
    pub fn hardened() -> Self {
        AgfwConfig {
            defense: true,
            ..AgfwConfig::default()
        }
    }
}

const TIMER_HELLO: u64 = 0;
const TIMER_ALS_UPDATE: u64 = 1;
const OP_BASE: u64 = 16;

/// Deferred work completing after a modelled processing delay.
#[derive(Debug)]
enum PendingOp {
    /// The source finished sealing the trapdoor; send the packet.
    SendAfterEncrypt { data: AgfwData },
    /// A trapdoor-opening attempt finished.
    AfterDecrypt {
        data: AgfwData,
        opened: bool,
        last_attempt: bool,
    },
    /// The NL-ACK timer for `uid` (at send generation `generation`)
    /// expired.
    AckTimeout { uid: u64, generation: u32 },
    /// A location query's LREP did not arrive in time.
    QueryTimeout { dest: NodeId, generation: u32 },
    /// The forward-watch for `uid` expired: no onward transmission from
    /// `suspect` was overheard after it acknowledged the hop.
    ForwardWatch { uid: u64, suspect: Pseudonym },
    /// A backed-off retransmission of `uid` is due (defense mode).
    RetryHop { uid: u64, generation: u32 },
}

/// Something this node transmitted and may have to retransmit.
#[derive(Debug, Clone)]
enum Outbound {
    Data(AgfwData),
    Als(AlsNetMessage),
}

/// A hop transmission awaiting its network-layer ACK.
#[derive(Debug)]
struct PendingAck {
    packet: Outbound,
    retries_left: u32,
    generation: u32,
    /// Every pseudonym this packet has been addressed to from this node;
    /// an ACK matches if it echoes any of them.
    used_next: Vec<Pseudonym>,
}

/// Duplicate-suppression record for a packet this node has accepted.
#[derive(Debug, Clone, Copy)]
struct HandledState {
    when: SimTime,
    /// True once the packet was delivered to the application here.
    delivered: bool,
}

/// A hop whose NL-ACK arrived but whose onward transmission has not yet
/// been overheard (the forward-watch). The packet is retained so a
/// confirmed drop can be healed by re-routing, not just punished.
#[derive(Debug)]
struct WatchedHop {
    data: AgfwData,
    suspect: Pseudonym,
    /// The suspect's advertised position at watch time (its ANT entry
    /// may expire before the watch fires).
    suspect_loc: agr_geom::Point,
}

/// A location query in flight, with the application packets waiting on
/// its answer.
#[derive(Debug)]
struct PendingQuery {
    queued: Vec<FlowTag>,
    retries_left: u32,
    generation: u32,
}

/// Per-node state of the networked anonymous location service.
#[derive(Debug)]
struct AlsState {
    ssa: ServerSelection,
    /// Server role: records stored per cell while this node sits in (or
    /// is the surrogate for) that cell. Records are handed off when the
    /// node leaves the cell. Ordered, because the handoff loop draws
    /// message uids from the node's RNG as it walks the cells.
    servers: BTreeMap<agr_geom::CellId, AlsServer>,
    /// Requester role: decrypted locations, with their retrieval time.
    loc_cache: FixedMap<NodeId, (agr_geom::Point, SimTime)>,
    pending_queries: FixedMap<NodeId, PendingQuery>,
    /// Duplicate suppression for geo-routed service messages.
    seen: FixedMap<u64, SimTime>,
    /// Who might query this node — "the updating node has to identify
    /// all its possible senders" (§3.3, the paper's stated limitation).
    anticipated: Vec<NodeId>,
}

/// An AGFW node.
///
/// See the [crate documentation](crate) for a runnable example.
#[derive(Debug)]
pub struct Agfw {
    my_id: NodeId,
    config: AgfwConfig,
    comm_range: f64,
    ant: AnonymousNeighborTable,
    pseudonyms: PseudonymGenerator,
    hellos_sent: u32,
    keys: Option<Arc<RsaKeyPair>>,
    directory: Option<Arc<KeyDirectory>>,
    aant: Option<Aant>,
    pending_ops: FixedMap<u64, PendingOp>,
    next_op: u64,
    pending_acks: FixedMap<u64, PendingAck>,
    /// Packets this node has taken responsibility for (forwarded and/or
    /// delivered), for duplicate suppression and re-ACKing.
    handled: FixedMap<u64, HandledState>,
    als: Option<AlsState>,
    /// Forward-watch state: ACKed hops awaiting an overheard onward
    /// transmission (empty unless the defense is enabled).
    watched: FixedMap<u64, WatchedHop>,
    /// uids of our own in-flight packets whose onward copy we already
    /// overheard. The hop ACK normally *follows* that copy, so without
    /// this record every honestly-forwarded hop would arm a watch no later
    /// event could clear (empty unless the defense is enabled).
    forward_seen: FixedSet<u64>,
    /// Real-mode trapdoors this node already failed to open. A trapdoor
    /// is bound to one destination key, so a failed open can never
    /// succeed later at the same node — retransmissions and repeated
    /// last-attempt broadcasts of the same packet skip the RSA decrypt
    /// (the modelled *time* cost is still charged; see
    /// [`Agfw::trapdoor_opens`]). Always empty in Modeled mode.
    trapdoor_misses: FixedSet<Trapdoor>,
}

impl Agfw {
    /// Seals a trapdoor and launches a data packet towards a resolved
    /// destination location.
    fn originate(
        &mut self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        dest: NodeId,
        dst_loc: agr_geom::Point,
        tag: FlowTag,
    ) {
        let src_loc = ctx.my_pos();
        let Some(trapdoor) = self.seal_trapdoor(ctx, dest, src_loc) else {
            ctx.count("agfw.drop.seal_failed");
            return;
        };
        ctx.count("agfw.trapdoor_sealed");
        let data = AgfwData {
            dst_loc,
            next: Pseudonym::LAST_ATTEMPT, // placeholder until selection
            trapdoor,
            uid: ctx.rng().random(),
            ttl: DATA_TTL,
            payload_bytes: ctx.config().flows[tag.flow as usize].payload_bytes,
            tag,
        };
        let delay = self.config.crypto.encrypt_delay();
        self.schedule_op(ctx, delay, PendingOp::SendAfterEncrypt { data });
    }

    /// Creates an AGFW node with modelled cryptography.
    ///
    /// # Panics
    ///
    /// Panics if `config.crypto` is [`CryptoMode::Real`] — real
    /// cryptography needs key material; use [`Agfw::with_keys`].
    #[must_use]
    pub fn new(id: NodeId, config: AgfwConfig, sim: &SimConfig, _rng: &mut impl Rng) -> Self {
        assert!(
            config.crypto == CryptoMode::Modeled,
            "CryptoMode::Real requires Agfw::with_keys"
        );
        Self::build(id, config, sim, None, None, None)
    }

    /// Creates an AGFW node holding real key material: genuine RSA
    /// trapdoors, and — when `auth` is given — ring-signed hellos (AANT).
    #[must_use]
    pub fn with_keys(
        id: NodeId,
        config: AgfwConfig,
        sim: &SimConfig,
        keypair: Arc<RsaKeyPair>,
        directory: Arc<KeyDirectory>,
        auth: Option<AantConfig>,
    ) -> Self {
        let aant = auth.map(|a| {
            Aant::new(
                u64::from(id.0),
                Arc::clone(&keypair),
                Arc::clone(&directory),
                a,
            )
        });
        Self::build(id, config, sim, Some(keypair), Some(directory), aant)
    }

    fn build(
        id: NodeId,
        config: AgfwConfig,
        sim: &SimConfig,
        keys: Option<Arc<RsaKeyPair>>,
        directory: Option<Arc<KeyDirectory>>,
        aant: Option<Aant>,
    ) -> Self {
        let als = match config.location {
            LocationMode::Oracle => None,
            LocationMode::Als => {
                assert!(
                    keys.is_some() && directory.is_some(),
                    "LocationMode::Als requires Agfw::with_keys (real key material)"
                );
                // Anticipate the configured traffic sources (§3.3: the
                // updater must identify its possible senders).
                let mut anticipated: Vec<NodeId> = sim.flows.iter().map(|f| f.src).collect();
                anticipated.sort_unstable();
                anticipated.dedup();
                anticipated.retain(|&s| s != id);
                Some(AlsState {
                    ssa: ServerSelection::new(sim.area, ALS_CELL_SIZE),
                    servers: BTreeMap::new(),
                    loc_cache: FixedMap::default(),
                    pending_queries: FixedMap::default(),
                    seen: FixedMap::default(),
                    anticipated,
                })
            }
        };
        Agfw {
            my_id: id,
            config,
            comm_range: sim.radio.comm_range,
            ant: AnonymousNeighborTable::new(ANT_TIMEOUT, FRESH_WINDOW),
            pseudonyms: PseudonymGenerator::new(u64::from(id.0), PSEUDONYM_MEMORY),
            hellos_sent: 0,
            keys,
            directory,
            aant,
            pending_ops: FixedMap::default(),
            next_op: 0,
            pending_acks: FixedMap::default(),
            handled: FixedMap::default(),
            als,
            watched: FixedMap::default(),
            forward_seen: FixedSet::default(),
            trapdoor_misses: FixedSet::default(),
        }
    }

    /// Attaches a shared memo of the last ring-verify verdict to this
    /// node's AANT verifier (no-op without AANT). Typically one memo is
    /// shared by every node of a world: the receivers of one hello decode
    /// it back to back, so its signature is verified once per broadcast
    /// instead of once per neighbor. Memo hits surface as the
    /// `crypto.ring_verify_hits` counter.
    #[must_use]
    pub fn with_ring_verify_cache(mut self, cache: Arc<agr_crypto::ring_sig::VerifyCache>) -> Self {
        self.aant = self.aant.map(|a| a.with_verify_cache(cache));
        self
    }

    /// The suspicion cutoff for next-hop selection: the configured
    /// threshold when the defense is on, infinite (exclude nobody, i.e.
    /// the legacy selection verbatim) when it is off.
    fn suspicion_threshold(&self) -> f64 {
        if self.config.defense {
            SUSPICION_THRESHOLD
        } else {
            f64::INFINITY
        }
    }

    fn schedule_op(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, delay: SimTime, op: PendingOp) {
        let id = self.next_op;
        self.next_op += 1;
        self.pending_ops.insert(id, op);
        ctx.set_timer(delay, OP_BASE + id);
    }

    /// Whether `trapdoor` opens for this node, as `(opened, skipped)`.
    ///
    /// `skipped` is true when a Real-mode decrypt was elided because this
    /// exact ciphertext already failed here (negative cache) — the
    /// *simulated* decrypt delay is charged by the caller either way, so
    /// the cache changes host wall-clock only, never simulation
    /// behaviour. Only failures are cached: success means the packet is
    /// ours and terminates.
    fn trapdoor_opens(&mut self, trapdoor: &TrapdoorWire) -> (bool, bool) {
        match trapdoor {
            TrapdoorWire::Modeled { dest, .. } => (*dest == self.my_id, false),
            TrapdoorWire::Real(t) => {
                if self.trapdoor_misses.contains(t) {
                    return (false, true);
                }
                let keys = self.keys.as_ref().expect("Real mode has keys");
                let opened = t.try_open(keys).is_some();
                if !opened {
                    self.trapdoor_misses.insert(t.clone());
                }
                (opened, false)
            }
        }
    }

    fn seal_trapdoor(
        &self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        dest: NodeId,
        src_loc: agr_geom::Point,
    ) -> Option<TrapdoorWire> {
        match self.config.crypto {
            CryptoMode::Modeled => Some(TrapdoorWire::Modeled {
                dest,
                nonce: ctx.rng().random(),
            }),
            CryptoMode::Real => {
                let dir = self.directory.as_ref().expect("Real mode has directory");
                let dest_key = dir.public_key(u64::from(dest.0))?.clone();
                Trapdoor::seal(&dest_key, u64::from(self.my_id.0), src_loc, ctx.rng())
                    .ok()
                    .map(TrapdoorWire::Real)
            }
        }
    }

    /// Broadcasts the NL-ACK for `uid` as received under pseudonym `to`
    /// (nothing when NL-ACKs are off).
    fn send_ack(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, uid: u64, to: Pseudonym) {
        if !self.config.nl_ack {
            return;
        }
        let packet = AgfwPacket::NlAck {
            acks: vec![AckRef { uid, to }],
        };
        ctx.count("agfw.nl_ack_sent");
        let bytes = packet.wire_bytes();
        ctx.mac_broadcast(packet, bytes);
    }

    /// Broadcasts a data packet, registering the pending NL-ACK.
    fn send_data(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, data: AgfwData) {
        if self.config.nl_ack {
            let entry = self
                .pending_acks
                .entry(data.uid)
                .or_insert_with(|| PendingAck {
                    packet: Outbound::Data(data.clone()),
                    retries_left: MAX_RETRANSMITS,
                    generation: 0,
                    used_next: Vec::new(),
                });
            entry.generation += 1;
            entry.packet = Outbound::Data(data.clone());
            if !entry.used_next.contains(&data.next) {
                entry.used_next.push(data.next);
            }
        }
        ctx.count("agfw.data_broadcast");
        let bytes = data.wire_bytes();
        ctx.mac_broadcast(AgfwPacket::Data(data), bytes);
    }

    /// Routes `data` one hop: greedy, the last forwarding attempt, or a
    /// drop. `decrement_ttl` is false for retransmissions of an
    /// already-committed hop.
    fn forward_or_last_attempt(
        &mut self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        mut data: AgfwData,
        decrement_ttl: bool,
    ) {
        if decrement_ttl {
            if data.ttl == 0 {
                self.give_up(ctx, data.uid, "agfw.drop.ttl");
                return;
            }
            data.ttl -= 1;
        }
        let me = ctx.my_pos();
        match self.greedy_hop(me, data.dst_loc, ctx.now()) {
            Some(next) => {
                data.next = next;
                ctx.count("agfw.forward");
                self.send_data(ctx, data);
            }
            None if me.within_range(data.dst_loc, self.comm_range) => {
                // "The last forwarding attempt": n = 0, everyone tries the
                // trapdoor, no further forwarding.
                data.next = Pseudonym::LAST_ATTEMPT;
                ctx.count("agfw.last_attempt");
                self.send_data(ctx, data);
            }
            // Forwarding stops; "recovery mode could be further
            // considered" (Algorithm 3.2).
            None => self.give_up(ctx, data.uid, "agfw.drop.local_max"),
        }
    }

    /// The greedy next hop from `me` towards `target` under the configured
    /// selection strategy and suspicion cutoff.
    fn greedy_hop(
        &self,
        me: agr_geom::Point,
        target: agr_geom::Point,
        now: SimTime,
    ) -> Option<Pseudonym> {
        self.ant.next_hop_excluding(
            me,
            target,
            now,
            self.config.selection,
            self.suspicion_threshold(),
        )
    }

    /// Forgets a data packet this node can route no further, counting the
    /// reason under `reason`.
    fn give_up(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, uid: u64, reason: &'static str) {
        self.pending_acks.remove(&uid);
        self.forward_seen.remove(&uid);
        ctx.count(reason);
    }

    /// Runs the committed-forwarder logic of Algorithm 3.2 on `data`.
    ///
    /// `allow_open` is false at the original source (it knows it is not
    /// the destination).
    fn dispatch_packet(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, data: AgfwData, allow_open: bool) {
        let me = ctx.my_pos();
        let in_last_hop_region = me.within_range(data.dst_loc, self.comm_range);
        if in_last_hop_region && allow_open {
            // Spend a trapdoor-open attempt (8.5 ms of modelled RSA).
            ctx.count("agfw.trapdoor_attempt");
            let (opened, skipped) = self.trapdoor_opens(&data.trapdoor);
            if skipped {
                ctx.count("crypto.trapdoor_skipped");
            }
            let delay = self.config.crypto.decrypt_delay();
            self.schedule_op(
                ctx,
                delay,
                PendingOp::AfterDecrypt {
                    data,
                    opened,
                    last_attempt: false,
                },
            );
        } else {
            // About to forward someone else's data (`allow_open` is false
            // only at the original source): a blackhole/grayhole relay
            // discards it here — the hop ACK has already gone out.
            if allow_open && ctx.adversary_drops() {
                return;
            }
            self.forward_or_last_attempt(ctx, data, true);
        }
    }

    fn accept_delivery(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, data: &AgfwData) {
        self.handled.insert(
            data.uid,
            HandledState {
                when: ctx.now(),
                delivered: true,
            },
        );
        ctx.count("agfw.delivered");
        ctx.deliver_data(data.tag);
    }

    fn handle_op(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, op: PendingOp) {
        match op {
            PendingOp::SendAfterEncrypt { data } => {
                // The source is a committed forwarder that skips the
                // trapdoor check on its own packet.
                self.forward_or_last_attempt(ctx, data, true);
            }
            PendingOp::AfterDecrypt {
                data,
                opened,
                last_attempt,
            } => {
                if opened {
                    ctx.count("agfw.trapdoor_opened");
                    if last_attempt {
                        // Only now do we know the packet was for us: mark,
                        // deliver, and acknowledge the last-attempt sender.
                        self.accept_delivery(ctx, &data);
                        self.send_ack(ctx, data.uid, Pseudonym::LAST_ATTEMPT);
                    } else {
                        // Committed forwarder turned out to be the
                        // destination; the hop ACK already went out when
                        // we accepted the packet.
                        self.accept_delivery(ctx, &data);
                    }
                } else if last_attempt {
                    ctx.count("agfw.last_attempt_miss");
                } else {
                    // The trapdoor did not open: this relay must forward —
                    // unless it is an adversary dropping relayed traffic.
                    if ctx.adversary_drops() {
                        return;
                    }
                    self.forward_or_last_attempt(ctx, data, true);
                }
            }
            PendingOp::QueryTimeout { dest, generation } => {
                self.als_query_timeout(ctx, dest, generation);
            }
            PendingOp::AckTimeout { uid, generation } => {
                let Some(pending) = self.pending_acks.get_mut(&uid) else {
                    return; // acknowledged in the meantime
                };
                if pending.generation != generation {
                    return; // stale timer from an earlier transmission
                }
                if pending.retries_left == 0 {
                    let dropped = self.pending_acks.remove(&uid).expect("checked above");
                    self.forward_seen.remove(&uid);
                    match dropped.packet {
                        Outbound::Data(_) => ctx.count("agfw.drop.retries"),
                        Outbound::Als(msg) => {
                            ctx.count("als.drop.retries");
                            if matches!(msg.kind, AlsNetKind::Reply { .. }) {
                                ctx.count("als.drop.retries.reply");
                            }
                        }
                    }
                    return;
                }
                pending.retries_left -= 1;
                let retries_left = pending.retries_left;
                ctx.count("agfw.retransmit");
                let packet = pending.packet.clone();
                // First silence is usually a collision — retry the same
                // relay. Repeated silence means the relay moved away or
                // has forgotten this pseudonym (§3.1.1 keeps only the two
                // latest): evict the dead entry so re-selection explores a
                // different alias. With the defense on, silence also feeds
                // the suspicion score of the addressed slot.
                let addressed = match &packet {
                    Outbound::Data(data) => data.next,
                    Outbound::Als(msg) => msg.next,
                };
                if self.config.defense {
                    self.ant.suspect(addressed, TIMEOUT_INCREMENT);
                    ctx.count("defense.suspected");
                }
                if retries_left + 1 < MAX_RETRANSMITS {
                    self.ant.remove(addressed);
                }
                if self.config.defense {
                    // Bounded exponential backoff with hash-derived jitter
                    // before re-selecting, instead of an immediate retry
                    // at a fixed cadence.
                    let attempt = MAX_RETRANSMITS - retries_left - 1;
                    let delay = backoff_delay(BACKOFF_BASE, attempt, BACKOFF_CAP, uid);
                    ctx.count("defense.backoff");
                    self.schedule_op(ctx, delay, PendingOp::RetryHop { uid, generation });
                } else {
                    match packet {
                        Outbound::Data(data) => self.forward_or_last_attempt(ctx, data, false),
                        Outbound::Als(msg) => self.als_route_hop(ctx, msg),
                    }
                }
            }
            PendingOp::RetryHop { uid, generation } => {
                let Some(pending) = self.pending_acks.get(&uid) else {
                    return; // acknowledged while backing off
                };
                if pending.generation != generation {
                    return;
                }
                match pending.packet.clone() {
                    Outbound::Data(data) => self.forward_or_last_attempt(ctx, data, false),
                    Outbound::Als(msg) => self.als_route_hop(ctx, msg),
                }
            }
            PendingOp::ForwardWatch { uid, suspect } => {
                // Only the watch that armed this timer may fire it: a
                // later re-route installs a new watch for the same uid.
                if self.watched.get(&uid).is_none_or(|w| w.suspect != suspect) {
                    return;
                }
                let w = self.watched.remove(&uid).expect("checked above");
                ctx.count("defense.watch_fired");
                self.ant.suspect(w.suspect, WATCH_INCREMENT);
                ctx.count("defense.suspected");
                // Taint the suspect's likely rotation aliases too.
                self.ant
                    .suspect_nearby(w.suspect_loc, SUSPECT_RADIUS, WATCH_INCREMENT, ctx.now());
                // Heal: the retained packet re-routes around the suspects.
                ctx.count("defense.rerouted");
                self.forward_or_last_attempt(ctx, w.data, false);
            }
        }
    }

    fn process_ack(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, ack: AckRef) {
        let defense_on = self.config.defense;
        if defense_on {
            // An overheard ACK for the *downstream* hop of a watched
            // packet (same uid, different addressed pseudonym) proves the
            // suspect forwarded it. The suspect's own re-ACKs
            // (`ack.to == suspect`) prove nothing.
            if self
                .watched
                .get(&ack.uid)
                .is_some_and(|w| ack.to != w.suspect)
            {
                self.watched.remove(&ack.uid);
                ctx.count("defense.watch_cleared");
            }
        }
        // Only an ACK echoing a pseudonym *we* addressed clears our
        // pending transmission — an overheard ACK for another hop of the
        // same packet must not.
        let ours = self
            .pending_acks
            .get(&ack.uid)
            .is_some_and(|p| p.used_next.contains(&ack.to));
        if ours {
            let pending = self.pending_acks.remove(&ack.uid).expect("checked above");
            let already_forwarded = self.forward_seen.remove(&ack.uid);
            ctx.count("agfw.hop_acked");
            if pending.retries_left < MAX_RETRANSMITS {
                // The hop only succeeded because retransmission kicked
                // in — the recovery the paper's §3.2 scheme exists for.
                ctx.count("agfw.ack_recovered");
            }
            if defense_on {
                self.ant.absolve(ack.to, ACK_DECAY);
                if !already_forwarded && ack.to != Pseudonym::LAST_ATTEMPT {
                    if let Outbound::Data(data) = pending.packet {
                        // Arm the forward-watch unless the relay's
                        // advertised position puts it in the last-hop
                        // region (it may deliver directly — or *be* the
                        // destination — with no onward broadcast to hear).
                        let advertised = self
                            .ant
                            .entry(ack.to, ctx.now())
                            .map(|e| e.loc)
                            .filter(|loc| !loc.within_range(data.dst_loc, self.comm_range));
                        if let Some(suspect_loc) = advertised {
                            ctx.count("defense.watch_set");
                            self.watched.insert(
                                ack.uid,
                                WatchedHop {
                                    data,
                                    suspect: ack.to,
                                    suspect_loc,
                                },
                            );
                            self.schedule_op(
                                ctx,
                                WATCH_TIMEOUT,
                                PendingOp::ForwardWatch {
                                    uid: ack.uid,
                                    suspect: ack.to,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Handles a data packet borrowed from the shared broadcast payload.
    ///
    /// The dominant path — overhearing a packet addressed to someone else
    /// and discarding it — touches no owned copy at all; the packet is
    /// cloned out of the `Arc` only at the two points where this node
    /// commits to doing something with it (trapdoor open, relay).
    fn handle_data(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, data: &AgfwData) {
        if self.config.defense && !self.pseudonyms.owns(data.next) {
            if self.watched.remove(&data.uid).is_some() {
                // Overhearing a copy of a watched packet addressed onward
                // (not an upstream retransmission back to us) proves the
                // suspect forwarded it.
                ctx.count("defense.watch_cleared");
            } else if self.pending_acks.contains_key(&data.uid) {
                // The onward copy of our own in-flight packet arrived
                // before its hop ACK (the normal order): remember it so
                // the ACK does not arm a watch for a proven forward.
                self.forward_seen.insert(data.uid);
            }
        }
        if data.next == Pseudonym::LAST_ATTEMPT {
            if self.handled.get(&data.uid).is_some_and(|h| h.delivered) {
                // We already delivered this packet (we are its
                // destination) and our ACK was lost: re-acknowledge.
                self.send_ack(ctx, data.uid, Pseudonym::LAST_ATTEMPT);
                return;
            }
            // Everyone hearing the last attempt tries the trapdoor.
            ctx.count("agfw.trapdoor_attempt");
            let (opened, skipped) = self.trapdoor_opens(&data.trapdoor);
            if skipped {
                ctx.count("crypto.trapdoor_skipped");
            }
            let delay = self.config.crypto.decrypt_delay();
            self.schedule_op(
                ctx,
                delay,
                PendingOp::AfterDecrypt {
                    data: data.clone(),
                    opened,
                    last_attempt: true,
                },
            );
        } else if self.pseudonyms.owns(data.next) {
            if self.handled.contains_key(&data.uid) {
                // Duplicate (the previous hop missed our ACK): re-ACK,
                // do not re-forward.
                ctx.count("agfw.duplicate");
                self.send_ack(ctx, data.uid, data.next);
                return;
            }
            self.handled.insert(
                data.uid,
                HandledState {
                    when: ctx.now(),
                    delivered: false,
                },
            );
            // Forward first: the ACK otherwise sits ahead of the data in
            // the MAC queue and delays every hop.
            self.dispatch_packet(ctx, data.clone(), true);
            self.send_ack(ctx, data.uid, data.next);
        } else {
            // "If n is not the pseudonym of the node, it will simply
            // discard the packet."
            ctx.count("agfw.overheard");
        }
    }

    // ---------------------------------------------------------------
    // Networked anonymous location service (§3.3 over the live network)
    // ---------------------------------------------------------------

    /// Periodic RLU: seal one `(index, record)` pair per anticipated
    /// requester and geo-route the batch to `ssa(me)`.
    fn als_send_update(&mut self, ctx: &mut Ctx<'_, AgfwPacket>) {
        let Some(als) = &self.als else { return };
        let me = u64::from(self.my_id.0);
        let my_pos = ctx.my_pos();
        let now = ctx.now();
        let cell = als.ssa.cell_for(me);
        let target_loc = als.ssa.grid().cell_center(cell);
        let directory = self.directory.as_ref().expect("Als mode has directory");
        let ssa = als.ssa;
        // Borrowed keys, resolved up front: nodes missing from the
        // directory drop out here (before any randomness is drawn), and
        // the batch below seals every record through one shared scratch
        // arena instead of cloning a key per requester.
        let requesters: Vec<(u64, &RsaPublicKey)> = als
            .anticipated
            .iter()
            .filter_map(|req| {
                let id = u64::from(req.0);
                directory.public_key(id).map(|key| (id, key))
            })
            .collect();
        let pairs: Vec<AlsPair> =
            als::make_update_batch(me, my_pos, now, &requesters, &ssa, ctx.rng())
                .into_iter()
                .map(|update| AlsPair {
                    index: update.index,
                    payload: update.payload,
                })
                .collect();
        if pairs.is_empty() {
            return;
        }
        // Split into modest frames: a 20-pair batch is a ~2.6 KB frame
        // whose airtime invites collisions.
        for chunk in pairs.chunks(8) {
            ctx.count("als.update_sent");
            let msg = AlsNetMessage {
                target_loc,
                next: Pseudonym::LAST_ATTEMPT,
                uid: ctx.rng().random(),
                ttl: ALS_TTL,
                kind: AlsNetKind::Update {
                    cell,
                    pairs: chunk.to_vec(),
                },
            };
            self.als_route(ctx, msg);
        }
    }

    /// DLM server handoff: when mobility makes some neighbor closer to a
    /// held cell's anchor than this node, the records are re-routed so
    /// they keep homing to the canonical server.
    fn als_handoff(&mut self, ctx: &mut Ctx<'_, AgfwPacket>) {
        let my_pos = ctx.my_pos();
        let now = ctx.now();
        // Taken out for the loop, which consults the ANT through `self`.
        let Some(mut als) = self.als.take() else {
            return;
        };
        let mut outgoing = Vec::new();
        for (&cell, server) in als.servers.iter_mut() {
            if server.is_empty() {
                continue;
            }
            let target_loc = als.ssa.grid().cell_center(cell);
            // Still the local maximum for this anchor: records stay put.
            if self.greedy_hop(my_pos, target_loc, now).is_none() {
                continue;
            }
            let records = server.take_records();
            for chunk in records.chunks(8) {
                outgoing.push(AlsNetMessage {
                    target_loc,
                    next: Pseudonym::LAST_ATTEMPT,
                    uid: 0, // assigned below (needs the RNG)
                    ttl: ALS_TTL,
                    kind: AlsNetKind::Update {
                        cell,
                        pairs: chunk
                            .iter()
                            .map(|(index, payload)| AlsPair {
                                index: index.clone(),
                                payload: payload.clone(),
                            })
                            .collect(),
                    },
                });
            }
        }
        als.servers.retain(|_, s| !s.is_empty());
        self.als = Some(als);
        for mut msg in outgoing {
            msg.uid = ctx.rng().random();
            ctx.count("als.handoff");
            self.als_route(ctx, msg);
        }
    }

    /// Queues an application packet behind a location query, sending the
    /// LREQ if this destination has no query in flight yet.
    fn als_enqueue_query(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, dest: NodeId, tag: FlowTag) {
        let Some(als) = &mut self.als else {
            ctx.count("agfw.drop.no_location");
            return;
        };
        let entry = als.pending_queries.entry(dest);
        let fresh = matches!(entry, std::collections::hash_map::Entry::Vacant(_));
        let pq = entry.or_insert_with(|| PendingQuery {
            queued: Vec::new(),
            retries_left: ALS_MAX_QUERY_RETRIES,
            generation: 0,
        });
        pq.queued.push(tag);
        if fresh {
            self.als_send_request(ctx, dest);
        }
    }

    /// Builds and geo-routes the LREQ for `dest`, scheduling its timeout.
    fn als_send_request(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, dest: NodeId) {
        let defense_on = self.config.defense;
        let my_salt = u64::from(self.my_id.0);
        let Some(als) = &mut self.als else { return };
        let me = u64::from(self.my_id.0);
        let ssa = als.ssa;
        let (generation, retries_left) = match als.pending_queries.get_mut(&dest) {
            Some(pq) => {
                pq.generation += 1;
                (pq.generation, pq.retries_left)
            }
            None => return,
        };
        // Hardened query retries back off exponentially (capped), with
        // jitter salted per (requester, destination) pair so concurrent
        // queriers of a dead region desynchronise.
        let timeout = if defense_on {
            let attempt = ALS_MAX_QUERY_RETRIES.saturating_sub(retries_left);
            backoff_delay(
                ALS_QUERY_TIMEOUT,
                attempt,
                ALS_BACKOFF_CAP,
                (my_salt << 32) | u64::from(dest.0),
            )
        } else {
            ALS_QUERY_TIMEOUT
        };
        let my_pos = ctx.my_pos();
        let keys = self.keys.as_ref().expect("Als mode has keys");
        let Ok(request) = als::make_request(me, keys.public(), u64::from(dest.0), my_pos, &ssa)
        else {
            ctx.count("als.request_failed");
            return;
        };
        ctx.count("als.request_sent");
        let msg = AlsNetMessage {
            target_loc: ssa.anchor_for(u64::from(dest.0)),
            next: Pseudonym::LAST_ATTEMPT,
            uid: ctx.rng().random(),
            ttl: ALS_TTL,
            kind: AlsNetKind::Request {
                cell: request.server_cell,
                index: request.index,
                reply_loc: my_pos,
            },
        };
        self.als_route(ctx, msg);
        self.schedule_op(ctx, timeout, PendingOp::QueryTimeout { dest, generation });
    }

    fn als_query_timeout(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, dest: NodeId, generation: u32) {
        let Some(als) = &mut self.als else { return };
        let Some(pq) = als.pending_queries.get_mut(&dest) else {
            return; // answered in the meantime
        };
        if pq.generation != generation {
            return;
        }
        if pq.retries_left == 0 {
            let dropped = als.pending_queries.remove(&dest).expect("checked above");
            // Explicit give-up: the retry budget is spent and every
            // packet queued behind this query dies with it.
            ctx.count("als.query_gave_up");
            ctx.count_n("agfw.drop.no_location", dropped.queued.len() as u64);
            return;
        }
        pq.retries_left -= 1;
        ctx.count("als.request_retry");
        self.als_send_request(ctx, dest);
    }

    /// Consumes `msg` at this node if it is the canonical server for the
    /// target cell (`at_local_max`: greedy routing towards the cell's
    /// anchor can make no further progress — a unique node per
    /// neighborhood, so updates and requests meet) or the matching
    /// requester; returns whether consumed.
    fn als_try_consume(
        &mut self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        msg: &AlsNetMessage,
        at_local_max: bool,
    ) -> bool {
        let now = ctx.now();
        let Some(als) = &mut self.als else {
            return false;
        };
        match &msg.kind {
            AlsNetKind::Update { cell, pairs } => {
                if !at_local_max {
                    return false;
                }
                let server = als.servers.entry(*cell).or_default();
                for pair in pairs {
                    server.store_at(pair.index.clone(), pair.payload.clone(), now);
                }
                ctx.count("als.server_stored");
                true
            }
            AlsNetKind::Request {
                cell,
                index,
                reply_loc,
            } => {
                if !at_local_max {
                    return false;
                }
                let reply = als
                    .servers
                    .get_mut(cell)
                    .and_then(|server| server.query_at(index, now));
                match reply {
                    Some(payload) => {
                        ctx.count("als.reply_sent");
                        let msg = AlsNetMessage {
                            target_loc: *reply_loc,
                            next: Pseudonym::LAST_ATTEMPT,
                            uid: ctx.rng().random(),
                            ttl: ALS_TTL,
                            kind: AlsNetKind::Reply { payload },
                        };
                        self.als_route(ctx, msg);
                    }
                    None => ctx.count("als.server_miss"),
                }
                true // the request terminates at the server either way
            }
            AlsNetKind::Reply { payload } => {
                let keys = self.keys.as_ref().expect("Als mode has keys");
                let Some(record) = als::open_record(payload, keys) else {
                    return false; // sealed for someone else
                };
                let dest = NodeId(record.updater as u32);
                als.loc_cache.insert(dest, (record.loc, now));
                ctx.count("als.reply_received");
                if let Some(pq) = als.pending_queries.remove(&dest) {
                    for tag in pq.queued {
                        self.originate(ctx, dest, record.loc, tag);
                    }
                }
                true
            }
            // Service-transport frames (`agr-als-service`): never
            // originated inside the simulated network, so swallow any
            // that leak in rather than geo-route them forever.
            AlsNetKind::Forward { .. }
            | AlsNetKind::Ack { .. }
            | AlsNetKind::Miss
            | AlsNetKind::SyncDigest { .. }
            | AlsNetKind::SyncDelta { .. }
            | AlsNetKind::Ping
            | AlsNetKind::Pong { .. }
            | AlsNetKind::Busy
            | AlsNetKind::StatsDump { .. } => {
                ctx.count("als.service_frame_ignored");
                true
            }
        }
    }

    /// Geo-routes a service message: consume here if eligible, otherwise
    /// greedy-forward by pseudonym with the last-attempt fallback.
    /// Service messages are unacknowledged — periodic refresh and query
    /// retry provide the reliability.
    fn als_route(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, msg: AlsNetMessage) {
        // Replies may be claimed anywhere by the matching requester;
        // updates/requests only terminate at the canonical server (the
        // local maximum towards the cell anchor), found in als_route_hop.
        if self.als_try_consume(ctx, &msg, false) {
            return;
        }
        self.als_route_hop(ctx, msg);
    }

    /// Selects the next hop for a service message and broadcasts it with
    /// NL-ACK protection; falls back to surrogate consumption or the last
    /// forwarding attempt at local maxima.
    fn als_route_hop(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, mut msg: AlsNetMessage) {
        let me = ctx.my_pos();
        match self.greedy_hop(me, msg.target_loc, ctx.now()) {
            Some(next) => {
                msg.next = next;
                ctx.count("als.forward");
                self.send_als(ctx, msg);
            }
            None => match msg.kind {
                // Nobody is closer to the cell anchor: this node is the
                // canonical server for the cell (updates and requests
                // converge here because both geo-route to the same anchor
                // point — GLS-style closest-node server semantics).
                AlsNetKind::Update { .. } | AlsNetKind::Request { .. } => {
                    self.pending_acks.remove(&msg.uid);
                    let _ = self.als_try_consume(ctx, &msg, true);
                }
                // A reply terminates at the requester: give nearby nodes
                // one chance to claim it, mirroring the data path's last
                // forwarding attempt.
                AlsNetKind::Reply { .. } if me.within_range(msg.target_loc, self.comm_range) => {
                    msg.next = Pseudonym::LAST_ATTEMPT;
                    ctx.count("als.last_attempt");
                    self.send_als(ctx, msg);
                }
                AlsNetKind::Reply { .. }
                | AlsNetKind::Forward { .. }
                | AlsNetKind::Ack { .. }
                | AlsNetKind::Miss
                | AlsNetKind::SyncDigest { .. }
                | AlsNetKind::SyncDelta { .. }
                | AlsNetKind::Ping
                | AlsNetKind::Pong { .. }
                | AlsNetKind::Busy
                | AlsNetKind::StatsDump { .. } => {
                    self.pending_acks.remove(&msg.uid);
                    ctx.count("als.drop.local_max");
                }
            },
        }
    }

    /// True if a service message deserves NL-ACK protection: query
    /// round-trips are valuable and small; bulk updates are redundant by
    /// design (the next periodic refresh heals any loss) and ACKing them
    /// would saturate the channel.
    fn als_acked(kind: &AlsNetKind) -> bool {
        matches!(kind, AlsNetKind::Request { .. } | AlsNetKind::Reply { .. })
    }

    /// Broadcasts a service message, with NL-ACK protection for queries
    /// and replies (location-service round-trips would otherwise compound
    /// per-hop broadcast loss).
    fn send_als(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, msg: AlsNetMessage) {
        if self.config.nl_ack && Self::als_acked(&msg.kind) {
            let entry = self
                .pending_acks
                .entry(msg.uid)
                .or_insert_with(|| PendingAck {
                    packet: Outbound::Als(msg.clone()),
                    retries_left: MAX_RETRANSMITS,
                    generation: 0,
                    used_next: Vec::new(),
                });
            entry.generation += 1;
            entry.packet = Outbound::Als(msg.clone());
            if !entry.used_next.contains(&msg.next) {
                entry.used_next.push(msg.next);
            }
        }
        let bytes = msg.wire_bytes();
        ctx.mac_broadcast(AgfwPacket::Als(msg), bytes);
    }

    /// Receive path for geo-routed service messages.
    fn handle_als(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, msg: &AlsNetMessage) {
        if self.als.is_none() {
            return; // service disabled at this node
        }
        let now = ctx.now();
        let committed = self.pseudonyms.owns(msg.next);
        let last_attempt = msg.next == Pseudonym::LAST_ATTEMPT;
        if !committed && !last_attempt {
            return; // not addressed to us
        }
        let als = self.als.as_mut().expect("checked above");
        if als.seen.insert(msg.uid, now).is_some() {
            // Duplicate: if we accepted it earlier our ACK was lost —
            // re-acknowledge committed copies of ACK-protected kinds;
            // stay silent otherwise.
            if committed && Self::als_acked(&msg.kind) {
                self.send_ack(ctx, msg.uid, msg.next);
            }
            return;
        }
        if last_attempt {
            if self.als_try_consume(ctx, msg, false) && Self::als_acked(&msg.kind) {
                self.send_ack(ctx, msg.uid, Pseudonym::LAST_ATTEMPT);
            }
            return;
        }
        // Committed relay: take responsibility, acknowledging the hop for
        // ACK-protected kinds.
        let uid = msg.uid;
        let to = msg.next;
        let wants_ack = Self::als_acked(&msg.kind);
        if msg.ttl == 0 {
            ctx.count("als.drop.ttl");
            if wants_ack {
                self.send_ack(ctx, uid, to);
            }
            return;
        }
        // Committed to relaying: clone the message out of the shared
        // broadcast payload.
        let mut msg = msg.clone();
        msg.ttl -= 1;
        // A blackhole/grayhole relay kills service messages too — while
        // still acknowledging the hop, exactly like the data path.
        if ctx.adversary_drops() {
            if wants_ack {
                self.send_ack(ctx, uid, to);
            }
            return;
        }
        self.als_route(ctx, msg);
        if wants_ack {
            self.send_ack(ctx, uid, to);
        }
    }
}

impl Protocol for Agfw {
    type Packet = AgfwPacket;

    fn on_start(&mut self, ctx: &mut Ctx<'_, AgfwPacket>) {
        let base = HELLO_INTERVAL.as_nanos().max(1);
        let delay = SimTime::from_nanos(ctx.rng().random_range(0..base));
        ctx.set_timer(delay, TIMER_HELLO);
        if self.als.is_some() {
            // First update after the neighborhood has formed.
            let base = ALS_UPDATE_INTERVAL.as_nanos().max(1);
            let delay = SimTime::from_nanos(
                SimTime::from_secs(2).as_nanos() + ctx.rng().random_range(0..base),
            );
            ctx.set_timer(delay, TIMER_ALS_UPDATE);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, kind: u64) {
        match kind {
            TIMER_HELLO => {
                if self
                    .hellos_sent
                    .is_multiple_of(self.config.rotate_every.max(1))
                    || self.pseudonyms.current().is_none()
                {
                    self.pseudonyms.rotate(ctx.rng());
                }
                self.hellos_sent += 1;
                let n = self.pseudonyms.current().expect("rotated above");
                let loc = ctx.my_pos();
                let ts = ctx.now();
                let auth = self.aant.as_ref().map(|a| {
                    ctx.count("aant.sign");
                    a.sign_hello(n, loc, ts, ctx.rng())
                });
                let hello = AgfwPacket::Hello { n, loc, ts, auth };
                ctx.count("agfw.hello");
                let bytes = hello.wire_bytes();
                ctx.mac_broadcast(hello, bytes);
                let now = ctx.now();
                self.ant.prune(now);
                self.handled
                    .retain(|_, h| now.saturating_sub(h.when) < SimTime::from_secs(5));
                if let Some(als) = &mut self.als {
                    als.seen
                        .retain(|_, &mut t| now.saturating_sub(t) < SimTime::from_secs(5));
                }
                self.als_handoff(ctx);
                let base = HELLO_INTERVAL.as_nanos();
                let jitter = ctx.rng().random_range((base * 3 / 4)..=(base * 5 / 4));
                ctx.set_timer(SimTime::from_nanos(jitter), TIMER_HELLO);
            }
            TIMER_ALS_UPDATE => {
                self.als_send_update(ctx);
                if self.als.is_some() {
                    let base = ALS_UPDATE_INTERVAL.as_nanos().max(1);
                    let jitter = ctx.rng().random_range((base * 3 / 4)..=(base * 5 / 4));
                    ctx.set_timer(SimTime::from_nanos(jitter), TIMER_ALS_UPDATE);
                }
            }
            op_kind => {
                if let Some(op) = self.pending_ops.remove(&(op_kind - OP_BASE)) {
                    self.handle_op(ctx, op);
                }
            }
        }
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, dest: NodeId, tag: FlowTag) {
        match self.config.location {
            LocationMode::Oracle => {
                // The paper's simulations (§5.1: "we did not incorporate
                // ALS") grant sources destination locations, like the
                // GPSR baseline.
                let dst_loc = ctx.oracle_position(dest);
                self.originate(ctx, dest, dst_loc, tag);
            }
            LocationMode::Als => {
                let now = ctx.now();
                let cached = self.als.as_ref().and_then(|a| {
                    a.loc_cache.get(&dest).and_then(|&(loc, at)| {
                        (now.saturating_sub(at) < ALS_CACHE_LIFETIME).then_some(loc)
                    })
                });
                if let Some(loc) = cached {
                    ctx.count("als.cache_hit");
                    self.originate(ctx, dest, loc, tag);
                } else {
                    self.als_enqueue_query(ctx, dest, tag);
                }
            }
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, AgfwPacket>,
        packet: &AgfwPacket,
        from: Option<MacAddr>,
    ) {
        debug_assert!(from.is_none(), "AGFW frames must be anonymous broadcasts");
        match packet {
            AgfwPacket::Hello { n, loc, ts, auth } => {
                let (n, loc, ts) = (*n, *loc, *ts);
                if let Some(aant) = &self.aant {
                    ctx.count("aant.verify");
                    let (ok, hit) = match auth.as_ref() {
                        Some(a) => aant.verify_hello_cached(n, loc, ts, a),
                        None => (false, false),
                    };
                    if hit {
                        ctx.count("crypto.ring_verify_hits");
                    }
                    if !ok {
                        ctx.count("aant.reject");
                        return;
                    }
                }
                // Replay/duplicate defense: a hello whose (pseudonym, ts)
                // was already seen, or whose timestamp is older than the
                // entry timeout or later than now, is discarded — a
                // replayed beacon cannot resurrect an expired neighbor
                // entry. (Note this defeats replays even of ring-signed
                // AANT hellos, whose signatures verify verbatim.)
                if !self.ant.observe_hello(n, loc, ts, ctx.now()) {
                    ctx.count("defense.hello_rejected");
                    return;
                }
                if self.config.defense {
                    // Suspicion inheritance: a fresh pseudonym beaconing
                    // from where a *convicted* suspect stood is excluded
                    // too — without this a per-beacon-rotating attacker
                    // sheds its conviction every second. Only hard
                    // convictions (score ≥ watch_increment) propagate,
                    // and the inherited score is exactly the exclusion
                    // threshold (< watch_increment), so inherited slots
                    // are never themselves sources: chains terminate,
                    // and a quarantine dies with the convicted entry.
                    let source = self.ant.suspicion_nearby(loc, SUSPECT_RADIUS, n, ctx.now());
                    let current = self.ant.suspicion(n);
                    if source >= WATCH_INCREMENT && current < SUSPICION_THRESHOLD {
                        self.ant.suspect(n, SUSPICION_THRESHOLD - current);
                        ctx.count("defense.suspicion_inherited");
                    }
                }
            }
            AgfwPacket::NlAck { acks } => {
                for &ack in acks {
                    self.process_ack(ctx, ack);
                }
            }
            AgfwPacket::Data(data) => self.handle_data(ctx, data),
            AgfwPacket::Als(msg) => self.handle_als(ctx, msg),
        }
    }

    fn on_mac_result(&mut self, ctx: &mut Ctx<'_, AgfwPacket>, outcome: MacOutcome<AgfwPacket>) {
        // Start the ACK timer only once the broadcast actually left the
        // MAC (queueing under contention would otherwise eat the timeout
        // budget). Data and location-service messages share the machinery.
        let uid = match &outcome {
            MacOutcome::Sent { packet, .. } => match packet.as_ref() {
                AgfwPacket::Data(d) => d.uid,
                AgfwPacket::Als(m) => m.uid,
                _ => return,
            },
            MacOutcome::Failed { .. } => return,
        };
        if let Some(p) = self.pending_acks.get(&uid) {
            let generation = p.generation;
            self.schedule_op(ctx, ACK_TIMEOUT, PendingOp::AckTimeout { uid, generation });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = AgfwConfig::default();
        assert_eq!(HELLO_INTERVAL, SimTime::from_secs(1));
        assert_eq!(c.rotate_every, 1);
        assert!(c.nl_ack);
        assert_eq!(c.crypto, CryptoMode::Modeled);
    }

    #[test]
    fn without_ack_preset() {
        assert!(!AgfwConfig::without_ack().nl_ack);
    }

    #[test]
    #[should_panic(expected = "Real requires")]
    fn real_crypto_needs_keys() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = AgfwConfig {
            crypto: CryptoMode::paper_real(),
            ..AgfwConfig::default()
        };
        let _ = Agfw::new(NodeId(0), config, &SimConfig::default(), &mut rng);
    }

    #[test]
    fn crypto_mode_delays() {
        for m in [CryptoMode::Modeled, CryptoMode::paper_real()] {
            assert_eq!(m.encrypt_delay(), SimTime::from_micros(500));
            assert_eq!(m.decrypt_delay(), SimTime::from_micros(8500));
        }
    }
}
