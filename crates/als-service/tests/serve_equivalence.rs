//! Config equivalence of the one serve loop: batching reorders work,
//! never decisions.
//!
//! [`serve_batched`] reorders *work* — frames are drained in readiness
//! batches, data requests ride shard-grouped pipeline batches, replies
//! go out in one `sendmmsg`-shaped burst — but it must move **no
//! decision**: for any request mix, every uid must receive exactly the
//! answer it gets when the same loop is pinned to one frame per round
//! (`max_batch: 1, max_backlog: 1` — single-frame serving as a *value*
//! of [`BatchConfig`], not a second implementation), the stores must
//! end bit-identical, and the shared stat tallies must agree. The
//! proptest here drives both configs over loopback with the same
//! randomized frame sequence (updates, queries, forwards, sync probes
//! and deltas, pings, and garbage) under a manual clock pinned at zero,
//! then compares every observable.
//!
//! The one sanctioned divergence: `Pong` advertises the instantaneous
//! queue depth, which legitimately differs between the two configs, so
//! the comparison normalizes it to zero.

use agr_als_service::pipeline::{Engine, EngineConfig};
use agr_als_service::service::{serve_batched, BatchConfig, ServeStats};
use agr_als_service::store::{CellDigest, StoreConfig};
use agr_als_service::transport::{loopback_pair, Transport};
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair, AlsSyncPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet};
use agr_geom::{CellId, Point};
use agr_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CELLS: [CellId; 2] = [CellId { col: 1, row: 4 }, CellId { col: 5, row: 2 }];

/// One randomized frame: `(kind selector, cell selector, key selector,
/// payload byte)`.
type Op = (u8, u8, u8, u8);

fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..8, 0u8..2, 0u8..6, any::<u8>()), 1..len)
}

/// Encodes op number `i` (uids are `i + 1`) into a wire frame, or a
/// deliberately undecodable one. Returns the frame and whether the
/// serve loop will answer it.
fn frame_for(i: usize, op: Op) -> (Vec<u8>, bool) {
    let (kind_sel, cell_sel, key_sel, payload) = op;
    let uid = i as u64 + 1;
    let cell = CELLS[usize::from(cell_sel)];
    let other = CELLS[usize::from(1 - cell_sel)];
    let pair = AlsPair {
        index: vec![key_sel; 16],
        payload: vec![payload, key_sel],
    };
    let kind = match kind_sel {
        // Weighted: updates dominate so queries have something to hit.
        0..=2 => AlsNetKind::Update {
            cell,
            pairs: vec![pair],
        },
        3..=4 => AlsNetKind::Request {
            cell,
            index: vec![key_sel; 16],
            reply_loc: Point::ORIGIN,
        },
        5 => AlsNetKind::Forward {
            from_cell: cell,
            to_cell: other,
            pairs: vec![pair],
        },
        6 if key_sel % 2 == 0 => AlsNetKind::SyncDigest {
            cell,
            digest: 0,
            count: 0,
        },
        6 => AlsNetKind::SyncDelta {
            cell,
            pairs: vec![AlsSyncPair {
                index: pair.index,
                payload: pair.payload,
                stored_at: SimTime::from_secs(1),
            }],
        },
        _ if key_sel % 2 == 0 => AlsNetKind::Ping,
        // Undecodable garbage: counted in `bad_frames`, never answered.
        _ => return (vec![0xFF, uid as u8, 0xFF, 0xFF], false),
    };
    let frame = encode_packet(&AgfwPacket::Als(AlsNetMessage {
        target_loc: Point::ORIGIN,
        next: Pseudonym::LAST_ATTEMPT,
        uid,
        ttl: 1,
        kind,
    }))
    .expect("service frames always encode");
    (frame, true)
}

/// The answer map with config-dependent noise removed: `Pong` advertises
/// the momentary queue depth, which is not an equivalence observable.
fn normalize(kind: AlsNetKind) -> AlsNetKind {
    match kind {
        AlsNetKind::Pong { .. } => AlsNetKind::Pong { queue_depth: 0 },
        other => other,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        store: StoreConfig {
            shards: 2,
            ttl: None,
            capacity_per_shard: None,
        },
        workers: 1,
        queue_depth: 256,
        batch_max: 16,
        compact_every: None,
        shed_watermark: None,
    }
}

/// One frame per drain round: the loop blocks for a frame, skips the
/// readiness drain (the backlog cap is already met), and answers it.
fn single_frame() -> BatchConfig {
    BatchConfig {
        max_batch: 1,
        max_backlog: 1,
        ..BatchConfig::default()
    }
}

/// Drives `frames` through the serve loop under `config` and returns
/// every observable: the uid -> normalized answer map, the final cell
/// digests, and the serve tally.
fn run_loop(
    config: BatchConfig,
    frames: &[(Vec<u8>, bool)],
) -> (BTreeMap<u64, AlsNetKind>, [CellDigest; 2], ServeStats) {
    let (engine, _clock) = Engine::start_manual_clock(engine_config());
    let engine = Arc::new(engine);
    let (mut client, mut server) = loopback_pair(1024);
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let engine = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || serve_batched(&engine, &mut server, config, &stop))
    };
    for (frame, _) in frames {
        client.send(frame).expect("loopback send");
    }
    let expected = frames.iter().filter(|(_, answered)| *answered).count();
    let mut answers = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while answers.len() < expected {
        assert!(Instant::now() < deadline, "serve loop stopped answering");
        match client.recv() {
            Ok(bytes) => {
                if let Ok(AgfwPacket::Als(m)) = decode_packet(&bytes) {
                    answers.insert(m.uid, normalize(m.kind));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("loopback recv failed: {e:?}"),
        }
    }
    stop.store(true, Ordering::Release);
    let stats = handle.join().expect("serve loop must not panic");
    let digests = [
        engine.store().cell_digest(CELLS[0]),
        engine.store().cell_digest(CELLS[1]),
    ];
    (answers, digests, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any frame mix answers identically under both configs, leaves
    /// bit-identical stores, and tallies the same shared counters.
    #[test]
    fn batched_serve_is_observationally_equivalent_to_single_frame(mix in ops(48)) {
        let mut frames: Vec<(Vec<u8>, bool)> = mix
            .iter()
            .enumerate()
            .map(|(i, &op)| frame_for(i, op))
            .collect();
        // Sentinel ping as the very last frame: garbage elicits no
        // answer, so without it a trailing bad frame could still be in
        // flight when the stop flag lands. Once every expected answer
        // (including the sentinel's pong) has arrived, every earlier
        // frame has been classified and counted.
        frames.push(frame_for(frames.len(), (7, 0, 0, 0)));
        let (ref_answers, ref_digests, ref_stats) = run_loop(single_frame(), &frames);
        let (bat_answers, bat_digests, bat_stats) = run_loop(BatchConfig::default(), &frames);
        prop_assert_eq!(&bat_answers, &ref_answers, "uid -> answer maps diverged");
        prop_assert_eq!(bat_digests, ref_digests, "final stores diverged");
        let tallies = [
            ("updates", ref_stats.updates, bat_stats.updates),
            ("queries", ref_stats.queries, bat_stats.queries),
            ("forwards", ref_stats.forwards, bat_stats.forwards),
            ("hits", ref_stats.hits, bat_stats.hits),
            ("bad_frames", ref_stats.bad_frames, bat_stats.bad_frames),
            ("ignored", ref_stats.ignored, bat_stats.ignored),
            ("sync_digests", ref_stats.sync_digests, bat_stats.sync_digests),
            ("sync_deltas", ref_stats.sync_deltas, bat_stats.sync_deltas),
            ("pings", ref_stats.pings, bat_stats.pings),
            ("shed", ref_stats.shed, bat_stats.shed),
            ("send_errors", ref_stats.send_errors, bat_stats.send_errors),
        ];
        for (name, reference, batched) in tallies {
            prop_assert_eq!(reference, batched, "stat {} diverged", name);
        }
        // The reference config really is single-frame serving: one
        // drain round per frame sent (garbage included), never two
        // frames in a round.
        prop_assert_eq!(ref_stats.batches, frames.len() as u64, "one round per frame");
        prop_assert_eq!(ref_stats.frames_per_batch_p99, 1, "no round held two frames");
        prop_assert!(
            (1..=frames.len() as u64).contains(&bat_stats.batches),
            "the default config drains at least one frame per round"
        );
    }
}
