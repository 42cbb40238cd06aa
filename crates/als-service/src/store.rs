//! The sharded blob store at the heart of the service engine.
//!
//! Each shard is one [`AlsServer`] — the identical storage type the
//! simulator's cell servers run — behind its own mutex, so the engine
//! scales by spreading index keys over shards rather than by making the
//! store itself concurrent. Keys are the owning cell (8-byte prefix)
//! followed by the sealed `E_KB(A,B)` index; the cell prefix is what
//! makes the hierarchical DLM-forward a prefix drain.

use agr_core::als::{AlsServer, AlsStoreConfig, AlsStoreStats};
use agr_geom::CellId;
use agr_sim::par::par_map;
use agr_sim::SimTime;
use std::sync::Mutex;

/// Sizing and retention policy of a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Shard count (values below 1 behave as 1). Throughput scales with
    /// shards until lock contention stops being the bottleneck.
    pub shards: usize,
    /// Freshness bound per record — the paper's `ts` rule, anchored on
    /// the server's arrival clock (it cannot read the sealed `ts`).
    pub ttl: Option<SimTime>,
    /// LRU capacity bound **per shard**.
    pub capacity_per_shard: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 4,
            ttl: None,
            capacity_per_shard: None,
        }
    }
}

/// FNV-1a over `bytes` — the shard router. Stable across platforms and
/// processes, so a key always lands on the same shard.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The full lookup key for a sealed index stored under `cell`: the cell
/// coordinates as an 8-byte big-endian prefix, then the index bytes.
#[must_use]
pub fn cell_key(cell: CellId, index: &[u8]) -> Vec<u8> {
    let mut key = Vec::with_capacity(8 + index.len());
    key.extend_from_slice(&cell.col.to_be_bytes());
    key.extend_from_slice(&cell.row.to_be_bytes());
    key.extend_from_slice(index);
    key
}

/// One update operation for batch application: `(key, payload)`.
pub type StoreOp = (Vec<u8>, Vec<u8>);

/// Summary of one cell's records for anti-entropy comparison (see
/// [`ShardedStore::cell_digest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellDigest {
    /// Order-independent FNV-1a fold over `(key, payload, stored_at)`.
    pub(crate) digest: u64,
    /// Records covered.
    pub(crate) count: u32,
}

/// A sharded, TTL-bounded, LRU-capped blob store.
///
/// All methods take `&self`: shards lock independently, so disjoint keys
/// never contend. Every observable (which records exist, what a query
/// returns, what expires when) is a deterministic function of the
/// operation sequence per key — sharding moves no decision, which is
/// what the model-equivalence proptest in `tests/store_model.rs` pins.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<AlsServer>>,
}

impl ShardedStore {
    /// Creates an empty store with `config.shards` shards.
    #[must_use]
    pub fn new(config: &StoreConfig) -> Self {
        let per_shard = AlsStoreConfig {
            ttl: config.ttl,
            capacity: config.capacity_per_shard,
        };
        ShardedStore {
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(AlsServer::with_config(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key`.
    #[must_use]
    pub(crate) fn shard_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &[u8]) -> std::sync::MutexGuard<'_, AlsServer> {
        self.shards[self.shard_of(key)]
            .lock()
            .expect("shard poisoned")
    }

    /// Stores a blob at `now`, replacing any record under the same key.
    pub fn store(&self, key: Vec<u8>, payload: Vec<u8>, now: SimTime) {
        self.shard(&key).store_at(key, payload, now);
    }

    /// Looks up `key` at `now`; stale records count as misses and are
    /// reclaimed.
    #[must_use]
    pub fn query(&self, key: &[u8], now: SimTime) -> Option<Vec<u8>> {
        self.shard(key).query_at(key, now)
    }

    /// Removes the record under `key`, returning its payload.
    pub fn remove(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shard(key).remove_record(key)
    }

    /// Applies a batch of updates, grouped by shard and fanned out over
    /// up to `jobs` workers with [`par_map`]; per-shard application
    /// preserves batch order, so the result is independent of `jobs`.
    /// Returns the number of operations applied.
    pub fn apply_batch(&self, ops: Vec<StoreOp>, now: SimTime, jobs: usize) -> usize {
        let total = ops.len();
        if total == 0 {
            return 0;
        }
        if jobs <= 1 || self.shards.len() <= 1 {
            // Serial fast path: no shard grouping, no key/payload
            // clones — per-op lock acquisition is cheaper than the
            // grouping allocations for the short coalescing runs a
            // mixed read/write workload produces, and batch order per
            // shard is trivially preserved.
            for (key, payload) in ops {
                self.shards[self.shard_of(&key)]
                    .lock()
                    .expect("shard poisoned")
                    .store_at(key, payload, now);
            }
            return total;
        }
        let mut by_shard: Vec<Vec<StoreOp>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for op in ops {
            by_shard[self.shard_of(&op.0)].push(op);
        }
        // Tasks carry their ops behind a mutex so each worker can *move*
        // them out (`par_map` hands the closure a shared borrow): the
        // batch is applied without cloning a single key or payload.
        let tasks: Vec<(usize, Mutex<Vec<StoreOp>>)> = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(shard, ops)| (shard, Mutex::new(ops)))
            .collect();
        par_map(&tasks, jobs, |(shard, ops)| {
            let ops = std::mem::take(&mut *ops.lock().expect("ops poisoned"));
            let mut server = self.shards[*shard].lock().expect("shard poisoned");
            for (key, payload) in ops {
                server.store_at(key, payload, now);
            }
        });
        total
    }

    /// Reclaims every record whose TTL lapsed by `now`, sweeping shards
    /// in parallel; returns how many records were dropped.
    pub fn compact(&self, now: SimTime, jobs: usize) -> usize {
        par_map(&self.shards, jobs, |shard| {
            shard.lock().expect("shard poisoned").compact(now)
        })
        .into_iter()
        .sum()
    }

    /// Enumerates (without removing) every record stored under `cell`,
    /// in key order: `(full cell-prefixed key, payload, stored_at)`.
    /// The read side of replication handoff and anti-entropy deltas.
    #[must_use]
    pub(crate) fn scan_cell(&self, cell: CellId) -> Vec<(Vec<u8>, Vec<u8>, SimTime)> {
        let prefix = cell_key(cell, &[]);
        let mut records: Vec<(Vec<u8>, Vec<u8>, SimTime)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("shard poisoned")
                    .scan_prefix(&prefix)
                    .into_iter()
            })
            .collect();
        records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        records
    }

    /// Enumerates (without removing) every record in the store, in key
    /// order: `(full cell-prefixed key, payload, stored_at)`. The read
    /// side of journal compaction: the snapshot segment is exactly this
    /// scan at compaction time.
    #[must_use]
    pub(crate) fn scan_all(&self) -> Vec<(Vec<u8>, Vec<u8>, SimTime)> {
        let mut records: Vec<(Vec<u8>, Vec<u8>, SimTime)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("shard poisoned")
                    .scan_prefix(&[])
                    .into_iter()
            })
            .collect();
        records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        records
    }

    /// A merkle-ish summary of one cell's records: an order-independent
    /// FNV-1a fold (per-record hashes summed mod 2^64) plus the record
    /// count. Two replicas hold byte-identical cell state if and only if
    /// their digests and counts agree (modulo hash collisions), which is
    /// what the anti-entropy exchange compares before shipping any data.
    #[must_use]
    pub fn cell_digest(&self, cell: CellId) -> CellDigest {
        let prefix = cell_key(cell, &[]);
        let mut digest = 0u64;
        let mut count = 0u32;
        for shard in &self.shards {
            for (key, payload, stored_at) in
                shard.lock().expect("shard poisoned").scan_prefix(&prefix)
            {
                let mut record = Vec::with_capacity(key.len() + payload.len() + 16);
                record.extend_from_slice(&(key.len() as u64).to_be_bytes());
                record.extend_from_slice(&key);
                record.extend_from_slice(&payload);
                record.extend_from_slice(&stored_at.as_nanos().to_be_bytes());
                digest = digest.wrapping_add(fnv1a(&record).max(1));
                count += 1;
            }
        }
        CellDigest { digest, count }
    }

    /// Merges a single replicated record last-writer-wins (see
    /// [`AlsServer::merge_record`]): `(key, payload, stored_at)` lands
    /// only when absent or strictly newer by `(stored_at, payload)` than
    /// the resident copy. `key` is a full cell-prefixed key. Returns
    /// whether the resident state changed (the journal records only the
    /// records that landed).
    pub(crate) fn merge_record(&self, key: Vec<u8>, payload: Vec<u8>, stored_at: SimTime) -> bool {
        self.shard(&key)
            .merge_record(key.clone(), payload, stored_at)
    }

    /// Total records across shards (lazily-expired ones included until
    /// reclaimed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    /// True when no shard holds a record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard lifetime counters, in shard order.
    #[must_use]
    pub(crate) fn shard_stats(&self) -> Vec<AlsStoreStats> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").stats().clone())
            .collect()
    }

    /// Counters merged across shards.
    #[must_use]
    pub fn stats(&self) -> AlsStoreStats {
        let mut merged = AlsStoreStats::default();
        for s in self.shard_stats() {
            merged.merge(&s);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> StoreConfig {
        StoreConfig {
            shards,
            ttl: Some(SimTime::from_secs(10)),
            capacity_per_shard: Some(64),
        }
    }

    #[test]
    fn shard_router_is_stable_and_in_range() {
        let store = ShardedStore::new(&cfg(4));
        for i in 0..100u8 {
            let key = vec![i, i ^ 0x5A, 7];
            let s = store.shard_of(&key);
            assert!(s < 4);
            assert_eq!(s, store.shard_of(&key), "routing must be stable");
        }
    }

    #[test]
    fn store_query_roundtrip_across_shards() {
        let store = ShardedStore::new(&cfg(4));
        let now = SimTime::from_secs(1);
        for i in 0..50u8 {
            store.store(vec![i; 12], vec![i, 0xEE], now);
        }
        assert_eq!(store.len(), 50);
        for i in 0..50u8 {
            assert_eq!(store.query(&[i; 12], now), Some(vec![i, 0xEE]));
        }
        assert!(store.query(&[0xFF; 12], now).is_none());
        let stats = store.stats();
        assert_eq!(stats.stored, 50);
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn apply_batch_equals_sequential_stores_any_jobs() {
        let now = SimTime::from_secs(2);
        let ops: Vec<StoreOp> = (0..200u8).map(|i| (vec![i, i / 3], vec![i])).collect();
        let sequential = ShardedStore::new(&cfg(4));
        for (k, v) in &ops {
            sequential.store(k.clone(), v.clone(), now);
        }
        for jobs in [1, 2, 8] {
            let batched = ShardedStore::new(&cfg(4));
            assert_eq!(batched.apply_batch(ops.clone(), now, jobs), 200);
            for (k, _) in &ops {
                assert_eq!(batched.query(k, now), sequential.query(k, now));
            }
        }
    }

    #[test]
    fn compact_reclaims_stale_records_in_every_shard() {
        let store = ShardedStore::new(&cfg(8));
        for i in 0..40u8 {
            store.store(vec![i; 4], vec![i], SimTime::from_secs(0));
        }
        for i in 40..60u8 {
            store.store(vec![i; 4], vec![i], SimTime::from_secs(100));
        }
        assert_eq!(store.compact(SimTime::from_secs(100), 4), 40);
        assert_eq!(store.len(), 20);
    }
}
