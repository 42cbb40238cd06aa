//! Mirroring the service's legacy stat structs into an
//! [`agr_telemetry::Registry`], and rendering the wire scrape.
//!
//! The serve loop keeps its plain-field tallies ([`ServeStats`]) —
//! those are battle-tested and cheap — and *mirrors* them into a fresh
//! registry at scrape time, together with the engine's store counters,
//! queue gauge, and frame-pool stats. A scrape therefore costs nothing
//! on the hot path: no atomics are touched per frame beyond what the
//! legacy structs already did, and the registry materializes only when
//! an [`agr_core::packet::AlsNetKind::StatsDump`] request arrives.
//!
//! The scrape payload is Prometheus text exposition format v0, bounded
//! to fit one transport frame (`MAX_FRAME` minus framing headroom) by
//! truncating at a line boundary — Prometheus text is line-oriented, so
//! a truncated dump is still parseable.

use crate::pipeline::Engine;
use crate::pool::FramePool;
use crate::service::ServeStats;
use agr_telemetry::export::snapshot_to_prometheus;
use agr_telemetry::{Histogram, Registry};
use std::sync::Arc;

/// Scrape payload bound: comfortably inside `MAX_FRAME` (64 KiB) after
/// the ALS message header and the u16 payload length prefix.
pub(crate) const MAX_SCRAPE_BYTES: usize = 60 * 1024;

/// Mirrors one [`ServeStats`] tally into `reg` under the `als.serve.*`
/// namespace (counters are `set`, so re-mirroring is idempotent).
pub(crate) fn mirror_serve_stats(reg: &Registry, s: &ServeStats) {
    reg.counter("als.serve.updates").set(s.updates);
    reg.counter("als.serve.queries").set(s.queries);
    reg.counter("als.serve.forwards").set(s.forwards);
    reg.counter("als.serve.hits").set(s.hits);
    reg.counter("als.serve.bad_frames").set(s.bad_frames);
    reg.counter("als.serve.ignored").set(s.ignored);
    reg.counter("als.serve.sync_digests").set(s.sync_digests);
    reg.counter("als.serve.sync_deltas").set(s.sync_deltas);
    reg.counter("als.serve.pings").set(s.pings);
    reg.counter("als.serve.shed").set(s.shed);
    reg.counter("als.serve.send_errors").set(s.send_errors);
    reg.counter("als.serve.batches").set(s.batches);
    reg.counter("als.serve.stats_dumps").set(s.stats_dumps);
    reg.counter("als.serve.pool_hits").set(s.pool_hits);
    reg.counter("als.serve.pool_misses").set(s.pool_misses);
}

/// Mirrors the engine's store counters, record/shard gauges, pipeline
/// queue depth, shed total, and journal health into `reg`.
pub(crate) fn mirror_engine(reg: &Registry, engine: &Engine) {
    let store = engine.store();
    let stats = store.stats();
    reg.counter("als.store.stored").set(stats.stored);
    reg.counter("als.store.replaced").set(stats.replaced);
    reg.counter("als.store.hits").set(stats.hits);
    reg.counter("als.store.misses").set(stats.misses);
    reg.counter("als.store.expired").set(stats.expired);
    reg.counter("als.store.evicted").set(stats.evicted);
    reg.gauge("als.store.records")
        .set(i64::try_from(store.len()).unwrap_or(i64::MAX));
    reg.gauge("als.store.shards")
        .set(i64::try_from(store.shards()).unwrap_or(i64::MAX));
    reg.gauge("als.engine.queue_depth")
        .set(i64::try_from(engine.queued()).unwrap_or(i64::MAX));
    reg.counter("als.engine.shed_total")
        .set(engine.shed_count());
    reg.counter("als.engine.journal_errors")
        .set(engine.journal_error_count());
    reg.gauge("als.engine.journaled")
        .set(i64::from(engine.is_journaled()));
}

/// Mirrors frame-pool reuse counters under `als.pool.*`, labelled by
/// pool role.
pub(crate) fn mirror_pools(reg: &Registry, recv: &FramePool, reply: &FramePool) {
    for (role, pool) in [("recv", recv), ("reply", reply)] {
        let stats = pool.stats();
        reg.counter_with("als.pool.hits", &[("pool", role)])
            .set(stats.hits);
        reg.counter_with("als.pool.misses", &[("pool", role)])
            .set(stats.misses);
        reg.gauge_with("als.pool.idle", &[("pool", role)])
            .set(i64::try_from(pool.idle()).unwrap_or(i64::MAX));
    }
}

/// Builds the registry a scrape renders: engine + serve tallies, plus —
/// when the batched loop is asked — the live batch-occupancy histogram
/// and pool counters.
#[must_use]
pub(crate) fn scrape_registry(
    engine: &Engine,
    stats: &ServeStats,
    batch_occupancy: Option<&Histogram>,
    pools: Option<(&FramePool, &FramePool)>,
) -> Arc<Registry> {
    let reg = Registry::new();
    mirror_engine(&reg, engine);
    mirror_serve_stats(&reg, stats);
    if let Some(h) = batch_occupancy {
        reg.histogram("als.serve.frames_per_batch").merge_from(h);
    }
    if let Some((recv, reply)) = pools {
        mirror_pools(&reg, recv, reply);
    }
    reg
}

/// Renders the scrape payload: Prometheus text, truncated at a line
/// boundary to fit one frame.
#[must_use]
pub fn scrape_payload(
    engine: &Engine,
    stats: &ServeStats,
    batch_occupancy: Option<&Histogram>,
    pools: Option<(&FramePool, &FramePool)>,
) -> Vec<u8> {
    let reg = scrape_registry(engine, stats, batch_occupancy, pools);
    let text = snapshot_to_prometheus(&reg.snapshot());
    truncate_at_line(text, MAX_SCRAPE_BYTES).into_bytes()
}

/// Truncates `text` to at most `limit` bytes, cutting only at newline
/// boundaries so every surviving line stays well-formed.
fn truncate_at_line(mut text: String, limit: usize) -> String {
    if text.len() <= limit {
        return text;
    }
    let cut = text[..limit].rfind('\n').map_or(0, |i| i + 1);
    text.truncate(cut);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{EngineConfig, Request};
    use agr_geom::{CellId, Point};
    use agr_telemetry::export::prometheus_family_count;

    #[test]
    fn scrape_renders_at_least_twenty_families() {
        let engine = Engine::start(EngineConfig::default());
        let _ = engine.call(Request::Query {
            cell: CellId { col: 0, row: 0 },
            index: vec![1; 16],
            reply_loc: Point::ORIGIN,
        });
        let mut stats = ServeStats::default();
        stats.queries = 1;
        let recv = FramePool::new(4);
        let reply = FramePool::new(4);
        let occupancy = Histogram::new();
        occupancy.record(3);
        let payload = scrape_payload(&engine, &stats, Some(&occupancy), Some((&recv, &reply)));
        let text = String::from_utf8(payload).expect("scrape is UTF-8");
        assert!(
            prometheus_family_count(&text) >= 20,
            "scrape must expose at least 20 metric families, got {} in:\n{text}",
            prometheus_family_count(&text)
        );
        assert!(text.contains("agr_als_serve_queries 1"));
        assert!(text.contains("agr_als_store_misses 1"));
        assert!(text.contains("# TYPE agr_als_serve_frames_per_batch histogram"));
        drop(engine.shutdown());
    }

    #[test]
    fn truncation_respects_line_boundaries() {
        let text = "aaaa\nbbbb\ncccc\n".to_string();
        assert_eq!(truncate_at_line(text.clone(), 100), "aaaa\nbbbb\ncccc\n");
        assert_eq!(truncate_at_line(text.clone(), 11), "aaaa\nbbbb\n");
        assert_eq!(truncate_at_line(text, 3), "");
    }
}
