//! Observational equivalence of the sharded store and a single-map
//! reference model.
//!
//! The acceptance bar for sharding is that it moves **no decision**:
//! every observable — what a query returns, how many records exist, how
//! many operations hit/missed/expired — must be a function of the
//! per-key operation sequence alone, identical for 1 shard or N. The
//! reference model here is an independent, deliberately naive
//! implementation (one `BTreeMap`, a recency list, linear scans); the
//! proptests drive both with the same random operation sequences and
//! compare every answer.
//!
//! Capacity bounds are per shard, so the LRU property is compared where
//! the two universes coincide: a single-shard store against a capacity
//! bound on the whole model.

use agr_als_service::store::{ShardedStore, StoreConfig};
use agr_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The naive single-map reference: same retention semantics as the
/// engine, written the simplest possible way.
struct Model {
    ttl: Option<SimTime>,
    capacity: Option<usize>,
    records: BTreeMap<Vec<u8>, (Vec<u8>, SimTime)>,
    /// Recency order, least recently used first.
    lru: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
    stored: u64,
    replaced: u64,
    expired: u64,
    evicted: u64,
}

impl Model {
    fn new(ttl: Option<SimTime>, capacity: Option<usize>) -> Model {
        Model {
            ttl,
            capacity,
            records: BTreeMap::new(),
            lru: Vec::new(),
            hits: 0,
            misses: 0,
            stored: 0,
            replaced: 0,
            expired: 0,
            evicted: 0,
        }
    }

    fn fresh(&self, stored_at: SimTime, now: SimTime) -> bool {
        match self.ttl {
            None => true,
            Some(ttl) => now.as_nanos() <= stored_at.as_nanos().saturating_add(ttl.as_nanos()),
        }
    }

    fn touch(&mut self, key: &[u8]) {
        self.lru.retain(|k| k != key);
        self.lru.push(key.to_vec());
    }

    fn store(&mut self, key: Vec<u8>, payload: Vec<u8>, now: SimTime) {
        if let Some(slot) = self.records.get_mut(&key) {
            *slot = (payload, now);
            self.replaced += 1;
            self.touch(&key);
            return;
        }
        if let Some(cap) = self.capacity {
            while self.records.len() >= cap.max(1) && !self.lru.is_empty() {
                let victim = self.lru.remove(0);
                self.records.remove(&victim);
                self.evicted += 1;
            }
        }
        self.touch(&key);
        self.records.insert(key, (payload, now));
        self.stored += 1;
    }

    fn query(&mut self, key: &[u8], now: SimTime) -> Option<Vec<u8>> {
        match self.records.get(key) {
            Some((payload, stored_at)) if self.fresh(*stored_at, now) => {
                let payload = payload.clone();
                self.touch(key);
                self.hits += 1;
                Some(payload)
            }
            Some(_) => {
                self.records.remove(key);
                self.lru.retain(|k| k != key);
                self.expired += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.lru.retain(|k| k != key);
        self.records.remove(key).map(|(payload, _)| payload)
    }

    fn compact(&mut self, now: SimTime) {
        if self.ttl.is_none() {
            return;
        }
        let stale: Vec<Vec<u8>> = self
            .records
            .iter()
            .filter(|(_, (_, at))| !self.fresh(*at, now))
            .map(|(k, _)| k.clone())
            .collect();
        for key in stale {
            self.records.remove(&key);
            self.lru.retain(|k| *k != key);
            self.expired += 1;
        }
    }
}

/// One randomized operation: `(kind, key selector, payload byte, time
/// advance in seconds)`.
type Op = (u8, u8, u8, u64);

fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..10, 0u8..12, any::<u8>(), 0u64..3), 1..len)
}

/// Drives `store` and `model` with the same operations, comparing every
/// observable answer along the way.
fn run_equivalence(
    store: &ShardedStore,
    ttl: Option<SimTime>,
    capacity: Option<usize>,
    ops: &[Op],
) -> Result<(), String> {
    let mut model = Model::new(ttl, capacity);
    let mut now = SimTime::ZERO;
    for &(kind, key_sel, payload, dt) in ops {
        now += SimTime::from_secs(dt);
        let key = vec![key_sel, key_sel ^ 0x3C, 0x07];
        match kind {
            // Weighted: stores and queries dominate, compaction and
            // removal are occasional.
            0..=3 => {
                store.store(key.clone(), vec![payload], now);
                model.store(key, vec![payload], now);
            }
            4..=7 => {
                let got = store.query(&key, now);
                let want = model.query(&key, now);
                if got != want {
                    return Err(format!("query({key:?}) at {now:?}: {got:?} != {want:?}"));
                }
            }
            8 => {
                let got = store.remove(&key);
                let want = model.remove(&key);
                if got != want {
                    return Err(format!("remove({key:?}): {got:?} != {want:?}"));
                }
            }
            _ => {
                store.compact(now, 2);
                model.compact(now);
            }
        }
        if store.len() != model.records.len() {
            return Err(format!(
                "len diverged at {now:?}: {} != {}",
                store.len(),
                model.records.len()
            ));
        }
    }
    // Final sweep: every key the model knows must answer identically.
    for sel in 0u8..12 {
        let key = vec![sel, sel ^ 0x3C, 0x07];
        let got = store.query(&key, now);
        let want = model.query(&key, now);
        if got != want {
            return Err(format!("final query({key:?}): {got:?} != {want:?}"));
        }
    }
    let stats = store.stats();
    let counters = [
        ("stored", stats.stored, model.stored),
        ("replaced", stats.replaced, model.replaced),
        ("hits", stats.hits, model.hits),
        ("misses", stats.misses, model.misses),
        ("expired", stats.expired, model.expired),
        ("evicted", stats.evicted, model.evicted),
    ];
    for (name, got, want) in counters {
        if got != want {
            return Err(format!("stat {name}: {got} != {want}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TTL semantics shard-transparently: any shard count answers every
    /// operation exactly as the single map does.
    #[test]
    fn sharded_ttl_store_matches_reference_model(
        shards in 1usize..9,
        ops in ops(120),
    ) {
        let ttl = Some(SimTime::from_secs(10));
        let store = ShardedStore::new(&StoreConfig {
            shards,
            ttl,
            capacity_per_shard: None,
        });
        let outcome = run_equivalence(&store, ttl, None, &ops);
        prop_assert!(outcome.is_ok(), "{} (shards={shards})", outcome.unwrap_err());
    }

    /// LRU capacity semantics match the model where the universes
    /// coincide (one shard = one capacity domain), TTL stacked on top.
    #[test]
    fn single_shard_lru_matches_reference_model(
        capacity in 1usize..6,
        ops in ops(150),
    ) {
        let ttl = Some(SimTime::from_secs(7));
        let store = ShardedStore::new(&StoreConfig {
            shards: 1,
            ttl,
            capacity_per_shard: Some(capacity),
        });
        let outcome = run_equivalence(&store, ttl, Some(capacity), &ops);
        prop_assert!(outcome.is_ok(), "{} (capacity={capacity})", outcome.unwrap_err());
    }

    /// Without retention bounds the store is a plain sharded map — and
    /// batch application must agree with one-at-a-time stores.
    #[test]
    fn unbounded_store_matches_model_and_batching_is_transparent(
        shards in 1usize..9,
        jobs in 1usize..5,
        ops in ops(80),
    ) {
        let store = ShardedStore::new(&StoreConfig {
            shards,
            ttl: None,
            capacity_per_shard: None,
        });
        let mut model = Model::new(None, None);
        let now = SimTime::from_secs(1);
        // Apply all stores as one batch against sequential model stores.
        let batch: Vec<(Vec<u8>, Vec<u8>)> = ops
            .iter()
            .map(|&(_, sel, payload, _)| (vec![sel, 0xA1], vec![payload]))
            .collect();
        for (key, payload) in &batch {
            model.store(key.clone(), payload.clone(), now);
        }
        store.apply_batch(batch, now, jobs);
        for sel in 0u8..12 {
            let key = vec![sel, 0xA1];
            prop_assert_eq!(store.query(&key, now), model.query(&key, now));
        }
        prop_assert_eq!(store.len(), model.records.len());
    }
}
