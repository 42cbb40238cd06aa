//! ALS — the Anonymous Location Service (§3.3, Algorithm 3.3).
//!
//! The message sequence reproduced exactly:
//!
//! ```text
//! A -> S: ⟨RLU, ssa(A), E_KB(A,B), E_KB(A, loc_A, ts)⟩
//! S:      store(E_KB(A,B) -> E_KB(A, loc_A, ts))
//! B -> S: ⟨LREQ, ssa(A), E_KB(A,B), loc_B⟩
//! S -> B: ⟨LREP, loc_B, E_KB(A, loc_A, ts)⟩
//! ```
//!
//! The updater `A` is named (updater anonymity is explicitly out of
//! scope) but its **location** is ciphertext under each anticipated
//! requester `B`'s public key; the requester never reveals its
//! **identity**; the server stores and matches opaque blobs. The index
//! `E_KB(A,B)` must be *the same bytes* at A and B, hence deterministic
//! encryption ([`agr_crypto::rsa::RsaPublicKey::encrypt_deterministic`])
//! — which is also precisely why §3.3 warns the index invites dictionary
//! attacks, motivating the no-index variant
//! ([`AlsServer::handle_request_all`]) that trades bandwidth for
//! requester anonymity.

use agr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use agr_crypto::CryptoError;
use agr_geom::{CellId, Point};
use agr_sim::SimTime;
use rand::Rng;
use std::collections::BTreeMap;

use crate::dlm::ServerSelection;
use crate::packet::NET_HEADER_BYTES;

/// An anonymous remote location update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlsUpdate {
    /// `ssa(A)` — where this update is geo-routed (public knowledge).
    pub server_cell: CellId,
    /// `E_KB(A, B)`, the deterministic lookup index.
    pub index: Vec<u8>,
    /// `E_KB(A, loc_A, ts)`, the sealed location record.
    pub payload: Vec<u8>,
}

impl AlsUpdate {
    /// Network-layer bytes: header + cell + two RSA blocks.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        NET_HEADER_BYTES + 2 + self.index.len() as u32 + self.payload.len() as u32
    }
}

/// An anonymous location request (indexed variant).
#[derive(Debug, Clone, PartialEq)]
pub struct AlsRequest {
    /// `ssa(A)` of the target.
    pub server_cell: CellId,
    /// `E_KB(A, B)` — proves nothing about B to anyone without a
    /// dictionary.
    pub index: Vec<u8>,
    /// Where to geo-route the reply (a location, not an identity).
    pub(crate) reply_loc: Point,
}

impl AlsRequest {
    /// Network-layer bytes.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        NET_HEADER_BYTES + 2 + self.index.len() as u32 + 8
    }
}

/// The no-index request variant: the server returns *all* records for the
/// cell and the requester trial-decrypts. Stronger anonymity, linear
/// reply size (§3.3's stated trade-off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlsRequestAll {
    /// Target cell.
    pub server_cell: CellId,
    /// Reply location.
    pub reply_loc: Point,
}

impl AlsRequestAll {
    /// Network-layer bytes.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        NET_HEADER_BYTES + 2 + 8
    }
}

/// An anonymous location reply.
#[derive(Debug, Clone, PartialEq)]
pub struct AlsReply {
    /// Geo-routing target (the requester's advertised location).
    pub(crate) reply_loc: Point,
    /// The sealed records — one for the indexed variant, all stored
    /// records for the no-index variant.
    pub payloads: Vec<Vec<u8>>,
}

impl AlsReply {
    /// Network-layer bytes.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        NET_HEADER_BYTES + 8 + self.payloads.iter().map(|p| p.len() as u32).sum::<u32>()
    }
}

/// What a requester recovers from a sealed record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlsRecord {
    /// The updater's identity (sealed to this requester).
    pub updater: u64,
    /// The updater's location.
    pub loc: Point,
    /// Update timestamp (whole seconds on the wire).
    pub ts: SimTime,
}

/// Builds `A`'s update addressed to anticipated requester `B`.
///
/// "The updating node has to identify all its possible senders and has to
/// update the location server accordingly" (§3.3) — call this once per
/// anticipated sender.
///
/// # Errors
///
/// Propagates RSA block-size errors (requesters need ≥320-bit keys).
pub fn make_update<R: Rng + ?Sized>(
    updater: u64,
    updater_loc: Point,
    ts: SimTime,
    requester: u64,
    requester_key: &RsaPublicKey,
    ssa: &ServerSelection,
    rng: &mut R,
) -> Result<AlsUpdate, CryptoError> {
    let index = requester_key.encrypt_deterministic(&index_plaintext(updater, requester))?;
    let payload = requester_key.encrypt(&record_plaintext(updater, updater_loc, ts), rng)?;
    Ok(AlsUpdate {
        server_cell: ssa.cell_for(updater),
        index,
        payload,
    })
}

/// Seals one update per anticipated requester — the "update the location
/// server accordingly" burst of §3.3.
///
/// Requesters are processed in slice order and each one draws random
/// padding exactly as [`make_update`] would, so a seeded simulation emits
/// byte-identical ciphertexts whether it loops over [`make_update`] or
/// calls this once. A requester whose key cannot seal the record (block
/// too small) is skipped, consuming no randomness, matching a caller loop
/// that drops `Err` results.
pub(crate) fn make_update_batch<R: Rng + ?Sized>(
    updater: u64,
    updater_loc: Point,
    ts: SimTime,
    requesters: &[(u64, &RsaPublicKey)],
    ssa: &ServerSelection,
    rng: &mut R,
) -> Vec<AlsUpdate> {
    let mut updates = Vec::with_capacity(requesters.len());
    for &(requester, key) in requesters {
        // The index encrypts first and fails (or not) before the payload
        // touches the RNG, so a skip here is RNG-neutral.
        if let Ok(update) = make_update(updater, updater_loc, ts, requester, key, ssa, rng) {
            updates.push(update);
        }
    }
    updates
}

/// Builds `B`'s request for `A`'s location.
///
/// `reply_loc` needs **no** relation to B's identity; geographic routing
/// delivers the reply to whatever location is quoted.
///
/// # Errors
///
/// Propagates RSA block-size errors.
pub fn make_request(
    requester: u64,
    requester_key: &RsaPublicKey,
    target: u64,
    reply_loc: Point,
    ssa: &ServerSelection,
) -> Result<AlsRequest, CryptoError> {
    let index = requester_key.encrypt_deterministic(&index_plaintext(target, requester))?;
    Ok(AlsRequest {
        server_cell: ssa.cell_for(target),
        index,
        reply_loc,
    })
}

/// Opens a sealed record with the requester's private key.
///
/// Returns `None` when the record was not sealed for this requester —
/// which is how the no-index variant filters the bulk reply.
#[must_use]
pub fn open_record(payload: &[u8], keys: &RsaKeyPair) -> Option<AlsRecord> {
    let plain = keys.decrypt(payload).ok()?;
    if plain.len() != 20 {
        return None;
    }
    let updater = u64::from_be_bytes(plain[..8].try_into().ok()?);
    let x = f32::from_be_bytes(plain[8..12].try_into().ok()?);
    let y = f32::from_be_bytes(plain[12..16].try_into().ok()?);
    let secs = u32::from_be_bytes(plain[16..20].try_into().ok()?);
    Some(AlsRecord {
        updater,
        loc: Point::new(f64::from(x), f64::from(y)),
        ts: SimTime::from_secs(u64::from(secs)),
    })
}

fn index_plaintext(updater: u64, requester: u64) -> Vec<u8> {
    let mut m = Vec::with_capacity(16);
    m.extend_from_slice(&updater.to_be_bytes());
    m.extend_from_slice(&requester.to_be_bytes());
    m
}

fn record_plaintext(updater: u64, loc: Point, ts: SimTime) -> Vec<u8> {
    let mut m = Vec::with_capacity(20);
    m.extend_from_slice(&updater.to_be_bytes());
    m.extend_from_slice(&(loc.x as f32).to_be_bytes());
    m.extend_from_slice(&(loc.y as f32).to_be_bytes());
    m.extend_from_slice(&(ts.as_secs_f64() as u32).to_be_bytes());
    m
}

/// Storage policy for one ALS store (a simulator cell server or one
/// shard of the standalone `agr-als-service` engine).
///
/// The default policy — no TTL, no capacity bound — reproduces the
/// paper-faithful blob store exactly, which is what the simulator runs
/// (and what the golden fingerprints pin). The service engine turns both
/// knobs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlsStoreConfig {
    /// Freshness bound: a record stored at `t` answers queries only
    /// until `t + ttl`, mirroring the paper's `ts` freshness rule. The
    /// server cannot read the sealed `ts`, so its own arrival clock is
    /// the freshness proxy. `None` keeps records forever.
    pub ttl: Option<SimTime>,
    /// Maximum live records; storing a *new* index beyond this evicts
    /// the least-recently-used record first. Values below 1 behave as 1.
    /// `None` is unbounded.
    pub capacity: Option<usize>,
}

/// Counters of one store's lifetime, cheap enough to keep always-on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlsStoreStats {
    /// Fresh indices inserted.
    pub stored: u64,
    /// Updates that replaced an existing index.
    pub replaced: u64,
    /// Queries answered from a fresh record.
    pub hits: u64,
    /// Queries that matched nothing (includes expired-on-read).
    pub misses: u64,
    /// Records dropped because their TTL lapsed (on read or compaction).
    pub expired: u64,
    /// Records evicted by LRU capacity pressure.
    pub evicted: u64,
}

impl AlsStoreStats {
    /// Accumulates `other` into `self` (shard aggregation).
    pub fn merge(&mut self, other: &AlsStoreStats) {
        self.stored += other.stored;
        self.replaced += other.replaced;
        self.hits += other.hits;
        self.misses += other.misses;
        self.expired += other.expired;
        self.evicted += other.evicted;
    }
}

/// One stored blob plus the bookkeeping the policies need.
#[derive(Debug, Clone)]
struct Stored {
    payload: Vec<u8>,
    /// Arrival time — the TTL anchor.
    stored_at: SimTime,
    /// Recency tick for LRU ordering (unique per store).
    touched: u64,
}

/// The anonymous location server: a pure blob store.
///
/// It "does know where it is stored" but can read neither identity nor
/// location from what it stores. This type is the **single shared
/// storage implementation**: the simulator holds one per DLM cell
/// (default policy), and the standalone `agr-als-service` engine holds
/// N of them behind locks as shards with TTL and LRU bounds enabled.
#[derive(Debug, Clone, Default)]
pub struct AlsServer {
    config: AlsStoreConfig,
    records: BTreeMap<Vec<u8>, Stored>,
    /// Recency tick → index key; the leftmost entry is the LRU victim.
    recency: BTreeMap<u64, Vec<u8>>,
    clock: u64,
    stats: AlsStoreStats,
}

impl AlsServer {
    /// Creates an empty server with the paper-faithful default policy
    /// (no expiry, no capacity bound).
    #[must_use]
    pub fn new() -> Self {
        AlsServer::default()
    }

    /// Creates an empty server with an explicit storage policy.
    #[must_use]
    pub fn with_config(config: AlsStoreConfig) -> Self {
        AlsServer {
            config,
            ..AlsServer::default()
        }
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &AlsStoreStats {
        &self.stats
    }

    fn is_fresh(&self, stored_at: SimTime, now: SimTime) -> bool {
        self.config
            .ttl
            .is_none_or(|ttl| now.as_nanos() <= stored_at.as_nanos().saturating_add(ttl.as_nanos()))
    }

    /// Whether LRU bookkeeping is worth its cost: the `recency` map is
    /// only ever *consulted* by capacity eviction, so an unbounded
    /// store (the common configuration — the simulator's cells and the
    /// service engine's default shards) skips maintaining it entirely.
    /// Recency ticks still advance identically, so enabling a capacity
    /// bound changes no other observable.
    fn track_lru(&self) -> bool {
        self.config.capacity.is_some()
    }

    fn remove(&mut self, index: &[u8]) -> Option<Stored> {
        let stored = self.records.remove(index)?;
        self.recency.remove(&stored.touched);
        Some(stored)
    }

    /// Stores a blob at time `now`, replacing any record under the same
    /// index; a new index beyond [`AlsStoreConfig::capacity`] evicts the
    /// least-recently-used record first.
    pub fn store_at(&mut self, index: Vec<u8>, payload: Vec<u8>, now: SimTime) {
        let track_lru = self.track_lru();
        let tick = self.clock;
        if let Some(existing) = self.records.get_mut(&index) {
            existing.payload = payload;
            existing.stored_at = now;
            let old_tick = std::mem::replace(&mut existing.touched, tick);
            self.clock += 1;
            self.stats.replaced += 1;
            if track_lru {
                self.recency.remove(&old_tick);
                self.recency.insert(tick, index);
            }
            return;
        }
        if let Some(cap) = self.config.capacity {
            while self.records.len() >= cap.max(1) {
                let Some((_, victim)) = self.recency.pop_first() else {
                    break;
                };
                self.records.remove(&victim);
                self.stats.evicted += 1;
            }
        }
        self.clock += 1;
        if track_lru {
            self.recency.insert(tick, index.clone());
        }
        self.records.insert(
            index,
            Stored {
                payload,
                stored_at: now,
                touched: tick,
            },
        );
        self.stats.stored += 1;
    }

    /// Answers a lookup at time `now`: a fresh record is touched (LRU)
    /// and returned; a stale one is reclaimed and counts as a miss.
    pub fn query_at(&mut self, index: &[u8], now: SimTime) -> Option<Vec<u8>> {
        let ttl = self.config.ttl;
        let track_lru = self.track_lru();
        let tick = self.clock;
        match self.records.get_mut(index) {
            Some(stored)
                if ttl.is_none_or(|ttl| {
                    now.as_nanos() <= stored.stored_at.as_nanos().saturating_add(ttl.as_nanos())
                }) =>
            {
                let payload = stored.payload.clone();
                let old_tick = std::mem::replace(&mut stored.touched, tick);
                self.clock += 1;
                if track_lru {
                    self.recency.remove(&old_tick);
                    self.recency.insert(tick, index.to_vec());
                }
                self.stats.hits += 1;
                Some(payload)
            }
            Some(_) => {
                self.remove(index);
                self.stats.expired += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Removes the record under `index`, returning its payload. Used by
    /// the service engine's DLM-forward to drop the source-cell copy of a
    /// re-homed record; the simulator never removes explicitly.
    pub fn remove_record(&mut self, index: &[u8]) -> Option<Vec<u8>> {
        self.remove(index).map(|stored| stored.payload)
    }

    /// Reclaims every record whose TTL has lapsed by `now`; returns how
    /// many were dropped. A no-op without a TTL.
    pub fn compact(&mut self, now: SimTime) -> usize {
        if self.config.ttl.is_none() {
            return 0;
        }
        let stale: Vec<Vec<u8>> = self
            .records
            .iter()
            .filter(|(_, s)| !self.is_fresh(s.stored_at, now))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &stale {
            self.remove(key);
        }
        self.stats.expired += stale.len() as u64;
        stale.len()
    }

    /// Stores an update, replacing any record under the same index.
    ///
    /// Timeless variant of [`AlsServer::store_at`] for callers without a
    /// clock (records land at `t = 0`, which under the default no-TTL
    /// policy changes nothing).
    pub fn handle_update(&mut self, update: AlsUpdate) {
        self.store_at(update.index, update.payload, SimTime::ZERO);
    }

    /// Answers an indexed request: `⟨LREP, loc_B, E_KB(A, loc_A, ts)⟩`.
    ///
    /// Read-only and timeless: no TTL filtering, no LRU touch — the
    /// simulator's paper-faithful path. Clock-aware callers use
    /// [`AlsServer::query_at`].
    #[must_use]
    pub fn handle_request(&self, request: &AlsRequest) -> Option<AlsReply> {
        self.records.get(&request.index).map(|stored| AlsReply {
            reply_loc: request.reply_loc,
            payloads: vec![stored.payload.clone()],
        })
    }

    /// Answers a no-index request with every stored record; the requester
    /// trial-decrypts. Returns `None` when nothing is stored.
    #[must_use]
    pub fn handle_request_all(&self, request: &AlsRequestAll) -> Option<AlsReply> {
        if self.records.is_empty() {
            return None;
        }
        Some(AlsReply {
            reply_loc: request.reply_loc,
            payloads: self.records.values().map(|s| s.payload.clone()).collect(),
        })
    }

    /// Number of stored records (lazily-expired ones count until a
    /// [`AlsServer::compact`] or an expiring read reclaims them).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Removes and returns all `(index, payload)` records in index order
    /// — used by a departing server to hand its records off towards the
    /// cell.
    pub(crate) fn take_records(&mut self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.recency.clear();
        std::mem::take(&mut self.records)
            .into_iter()
            .map(|(k, s)| (k, s.payload))
            .collect()
    }

    /// Enumerates (without removing) all records whose index starts with
    /// `prefix`, in index order, each with the time it was stored — the
    /// read side of anti-entropy: a replica digests or ships exactly one
    /// cell's records, `stored_at` included so the receiving replica
    /// anchors TTL freshness on the original store.
    #[must_use]
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>, SimTime)> {
        self.records
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, s)| (k.clone(), s.payload.clone(), s.stored_at))
            .collect()
    }

    /// Merges one replicated record last-writer-wins: the incoming copy
    /// lands only when no record exists under `index` or when its
    /// `(stored_at, payload)` orders strictly above the resident one
    /// (payload bytes break stored-at ties deterministically, so two
    /// replicas merging each other's state converge on identical maps).
    /// Returns whether the store changed.
    pub fn merge_record(&mut self, index: Vec<u8>, payload: Vec<u8>, stored_at: SimTime) -> bool {
        if let Some(existing) = self.records.get(&index) {
            if (existing.stored_at, &existing.payload) >= (stored_at, &payload) {
                return false;
            }
        }
        self.store_at(index, payload, stored_at);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_geom::Rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    struct Fixture {
        a_loc: Point,
        b_keys: RsaKeyPair,
        c_keys: RsaKeyPair,
        ssa: ServerSelection,
    }

    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(77);
            Fixture {
                a_loc: Point::new(321.0, 111.0),
                b_keys: RsaKeyPair::generate(512, &mut rng).unwrap(),
                c_keys: RsaKeyPair::generate(512, &mut rng).unwrap(),
                ssa: ServerSelection::new(Rect::with_size(1500.0, 300.0), 250.0),
            }
        })
    }

    const A: u64 = 1;
    const B: u64 = 2;

    #[test]
    fn algorithm_3_3_roundtrip() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(1);
        let ts = SimTime::from_secs(10);
        // A -> S
        let update = make_update(A, f.a_loc, ts, B, f.b_keys.public(), &f.ssa, &mut rng).unwrap();
        assert_eq!(update.server_cell, f.ssa.cell_for(A));
        let mut server = AlsServer::new();
        server.handle_update(update);
        // B -> S (note: request carries only a location for the reply)
        let reply_loc = Point::new(900.0, 200.0);
        let request = make_request(B, f.b_keys.public(), A, reply_loc, &f.ssa).unwrap();
        let reply = server.handle_request(&request).unwrap();
        assert_eq!(reply.reply_loc, reply_loc);
        // B opens the record.
        let record = open_record(&reply.payloads[0], &f.b_keys).unwrap();
        assert_eq!(record.updater, A);
        assert!(record.loc.distance(f.a_loc) < 0.01);
        assert_eq!(record.ts, ts);
    }

    #[test]
    fn server_cannot_read_location() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(2);
        let update = make_update(
            A,
            f.a_loc,
            SimTime::ZERO,
            B,
            f.b_keys.public(),
            &f.ssa,
            &mut rng,
        )
        .unwrap();
        // The stored bytes contain neither the plaintext identity nor the
        // raw coordinates.
        let plain = record_plaintext(A, f.a_loc, SimTime::ZERO);
        assert!(!update
            .payload
            .windows(plain.len())
            .any(|w| w == plain.as_slice()));
        // And a non-recipient (the server or any third party C) cannot
        // decrypt the record.
        assert!(open_record(&update.payload, &f.c_keys).is_none());
    }

    #[test]
    fn wrong_requester_index_misses() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        let mut server = AlsServer::new();
        server.handle_update(
            make_update(
                A,
                f.a_loc,
                SimTime::ZERO,
                B,
                f.b_keys.public(),
                &f.ssa,
                &mut rng,
            )
            .unwrap(),
        );
        // C was not anticipated by A: its index matches nothing — the
        // paper's stated limitation of the scheme.
        let req_c = make_request(3, f.c_keys.public(), A, Point::ORIGIN, &f.ssa).unwrap();
        assert!(server.handle_request(&req_c).is_none());
    }

    #[test]
    fn no_index_variant_trial_decrypts() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(4);
        let mut server = AlsServer::new();
        // Records for B and for C from two updaters.
        server.handle_update(
            make_update(
                A,
                f.a_loc,
                SimTime::ZERO,
                B,
                f.b_keys.public(),
                &f.ssa,
                &mut rng,
            )
            .unwrap(),
        );
        server.handle_update(
            make_update(
                9,
                Point::new(5.0, 5.0),
                SimTime::ZERO,
                3,
                f.c_keys.public(),
                &f.ssa,
                &mut rng,
            )
            .unwrap(),
        );
        let reply = server
            .handle_request_all(&AlsRequestAll {
                server_cell: f.ssa.cell_for(A),
                reply_loc: Point::ORIGIN,
            })
            .unwrap();
        assert_eq!(reply.payloads.len(), 2);
        // B can open exactly one of them.
        let opened: Vec<_> = reply
            .payloads
            .iter()
            .filter_map(|p| open_record(p, &f.b_keys))
            .collect();
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0].updater, A);
        // The trade-off: the bulk reply is larger than the indexed one.
        let indexed = server
            .handle_request(&make_request(B, f.b_keys.public(), A, Point::ORIGIN, &f.ssa).unwrap())
            .unwrap();
        assert!(reply.wire_bytes() > indexed.wire_bytes());
    }

    #[test]
    fn update_refresh_replaces_record() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        let mut server = AlsServer::new();
        for (secs, x) in [(1u64, 10.0f64), (2, 20.0)] {
            server.handle_update(
                make_update(
                    A,
                    Point::new(x, 0.0),
                    SimTime::from_secs(secs),
                    B,
                    f.b_keys.public(),
                    &f.ssa,
                    &mut rng,
                )
                .unwrap(),
            );
        }
        assert_eq!(server.len(), 1, "same index must replace, not accumulate");
        let req = make_request(B, f.b_keys.public(), A, Point::ORIGIN, &f.ssa).unwrap();
        let rec =
            open_record(&server.handle_request(&req).unwrap().payloads[0], &f.b_keys).unwrap();
        assert_eq!(rec.loc.x, 20.0);
    }

    fn blob(fill: u8, len: usize) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn ttl_expires_stale_records_on_read_and_compaction() {
        let mut server = AlsServer::with_config(AlsStoreConfig {
            ttl: Some(SimTime::from_secs(8)),
            capacity: None,
        });
        server.store_at(blob(1, 4), blob(0xA, 8), SimTime::from_secs(0));
        server.store_at(blob(2, 4), blob(0xB, 8), SimTime::from_secs(5));
        // At t=8 both are within their TTL (boundary inclusive).
        assert!(server
            .query_at(&blob(1, 4), SimTime::from_secs(8))
            .is_some());
        // At t=9 record 1 (stored at 0) is stale: expired on read.
        assert!(server
            .query_at(&blob(1, 4), SimTime::from_secs(9))
            .is_none());
        assert_eq!(server.stats().expired, 1);
        assert_eq!(server.len(), 1, "expiring read reclaims the record");
        // Refreshing re-arms the TTL.
        server.store_at(blob(2, 4), blob(0xC, 8), SimTime::from_secs(10));
        assert_eq!(
            server.query_at(&blob(2, 4), SimTime::from_secs(18)),
            Some(blob(0xC, 8))
        );
        // Compaction sweeps what reads never touch.
        server.store_at(blob(3, 4), blob(0xD, 8), SimTime::from_secs(10));
        assert_eq!(server.compact(SimTime::from_secs(100)), 2);
        assert!(server.is_empty());
    }

    #[test]
    fn lru_capacity_evicts_least_recently_used() {
        let mut server = AlsServer::with_config(AlsStoreConfig {
            ttl: None,
            capacity: Some(2),
        });
        let now = SimTime::ZERO;
        server.store_at(blob(1, 4), blob(0xA, 8), now);
        server.store_at(blob(2, 4), blob(0xB, 8), now);
        // Touch record 1 so record 2 becomes the LRU victim.
        assert!(server.query_at(&blob(1, 4), now).is_some());
        server.store_at(blob(3, 4), blob(0xC, 8), now);
        assert_eq!(server.len(), 2);
        assert_eq!(server.stats().evicted, 1);
        assert!(server.query_at(&blob(2, 4), now).is_none(), "2 was LRU");
        assert!(server.query_at(&blob(1, 4), now).is_some());
        assert!(server.query_at(&blob(3, 4), now).is_some());
        // Replacing an existing index never evicts.
        server.store_at(blob(1, 4), blob(0xF, 8), now);
        assert_eq!(server.stats().evicted, 1);
        assert_eq!(server.stats().replaced, 1);
    }

    #[test]
    fn als_messages_cost_more_than_dlm() {
        // §5: "With extra message bits and limited cryptographic
        // operations involved, one might also expect it to elegantly
        // degrade a bit." Quantify the bits.
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(6);
        let als_update = make_update(
            A,
            f.a_loc,
            SimTime::ZERO,
            B,
            f.b_keys.public(),
            &f.ssa,
            &mut rng,
        )
        .unwrap();
        let dlm_update = crate::dlm::DlmUpdate {
            id: A,
            loc: f.a_loc,
            ts: SimTime::ZERO,
        };
        assert!(als_update.wire_bytes() > dlm_update.wire_bytes());
    }
}
