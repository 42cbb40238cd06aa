//! Crash-recovery journal: an append-only log of applied mutations.
//!
//! Each cluster node owns one journal directory of numbered segments
//! (`seg-<seq>.log`). Every record the engine *applies* — a put with its
//! authoritative `stored_at`, or a delete — is appended as a
//! length-prefixed record whose put body is a wire-encoded
//! [`AlsNetKind::SyncDelta`] frame, the same bytes anti-entropy ships
//! between replicas. Restart replays the journal into the store before
//! the node serves a single frame, so recovery cost is local disk I/O
//! plus a top-off delta for writes the node missed while down — instead
//! of re-pulling every record over the network.
//!
//! Durability/determinism contract:
//! - Records carry the store's own `stored_at`, so replay reproduces the
//!   exact LWW state: applying the journal in order is equivalent to
//!   re-running the applied mutation sequence.
//! - `fsync` is batched (`sync_every`); a crash can lose at most the
//!   unsynced tail, which anti-entropy then refills — the journal is an
//!   accelerator, never the sole source of truth.
//! - Replay is torn-tail tolerant: a short or undecodable record (the
//!   footprint of a crash mid-append) ends that segment's replay cleanly
//!   rather than erroring.
//! - Compaction snapshots the live store into a fresh segment and drops
//!   everything older, bounding replay work by store size rather than
//!   write history.

use crate::store::cell_key;
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage, AlsSyncPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet};
use agr_geom::{CellId, Point};
use agr_sim::SimTime;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Record tag: the body is a wire-encoded `SyncDelta` frame of puts.
const TAG_PUTS: u8 = 0;
/// Record tag: the body is one full cell-prefixed key to delete.
const TAG_DELETE: u8 = 1;

/// Largest record body replay will believe. Anything larger is read as
/// a torn or corrupt length prefix, ending the segment.
const MAX_RECORD: usize = 256 * 1024;

/// Target payload bytes per `SyncDelta` frame inside a put record —
/// keeps journal frames the same order of size as their network twins.
const PUT_CHUNK_BYTES: usize = 32 * 1024;

/// Sizing and durability knobs of a [`Journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Bytes after which the active segment is sealed and a new one
    /// started.
    pub(crate) segment_bytes: u64,
    /// Records between `fsync` calls (0 syncs every record). Larger
    /// batches trade a longer losable tail for fewer disk stalls.
    pub(crate) sync_every: u32,
    /// Sealed segments that trigger [`Journal::wants_compaction`].
    pub(crate) compact_segments: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_bytes: 1 << 20,
            sync_every: 64,
            compact_segments: 4,
        }
    }
}

/// One replayed mutation, in journal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JournalOp {
    /// Store `payload` under the full cell-prefixed `key` as of
    /// `stored_at` (the original application time, not replay time).
    Put {
        /// Full cell-prefixed store key.
        key: Vec<u8>,
        /// The sealed blob.
        payload: Vec<u8>,
        /// The authoritative store timestamp of the original write.
        stored_at: SimTime,
    },
    /// Remove the record under the full cell-prefixed `key`.
    Delete {
        /// Full cell-prefixed store key.
        key: Vec<u8>,
    },
}

/// An append-only, segmented, crash-tolerant mutation log. See the
/// module docs for the recovery contract.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    active: BufWriter<File>,
    active_seq: u64,
    active_bytes: u64,
    unsynced: u32,
    sealed: Vec<u64>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:016}.log"))
}

/// Sequence numbers of the segments present in `dir`, ascending.
fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

fn open_segment(dir: &Path, seq: u64) -> io::Result<BufWriter<File>> {
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(dir, seq))?;
    Ok(BufWriter::new(file))
}

/// Wraps `pairs` of one cell in the journal's put-frame encoding.
fn puts_frame(cell: CellId, pairs: Vec<AlsSyncPair>) -> Vec<u8> {
    encode_packet(&AgfwPacket::Als(AlsNetMessage {
        target_loc: Point::ORIGIN,
        next: Pseudonym::LAST_ATTEMPT,
        uid: 0,
        ttl: 1,
        kind: AlsNetKind::SyncDelta { cell, pairs },
    }))
    .expect("journal frames always encode")
}

/// The owning cell encoded in a full store key's 8-byte prefix, if the
/// key is long enough to carry one.
fn cell_of_key(key: &[u8]) -> Option<CellId> {
    if key.len() < 8 {
        return None;
    }
    Some(CellId {
        col: u32::from_be_bytes(key[0..4].try_into().expect("4 bytes")),
        row: u32::from_be_bytes(key[4..8].try_into().expect("4 bytes")),
    })
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir` and starts a
    /// fresh active segment after any existing ones. Existing segments
    /// are left untouched for `Journal::replay`.
    pub fn open(dir: impl Into<PathBuf>, config: JournalConfig) -> io::Result<Journal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let sealed = list_segments(&dir)?;
        let active_seq = sealed.last().map_or(0, |last| last + 1);
        let active = open_segment(&dir, active_seq)?;
        Ok(Journal {
            dir,
            config,
            active,
            active_seq,
            active_bytes: 0,
            unsynced: 0,
            sealed,
        })
    }

    /// Replays every record in `dir` in segment-and-append order,
    /// tolerating a torn tail per segment. A missing directory replays
    /// as empty (a node's first boot).
    pub(crate) fn replay(dir: impl AsRef<Path>) -> io::Result<Vec<JournalOp>> {
        let dir = dir.as_ref();
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut ops = Vec::new();
        for seq in list_segments(dir)? {
            let bytes = fs::read(segment_path(dir, seq))?;
            replay_segment(&bytes, &mut ops);
        }
        Ok(ops)
    }

    /// Appends applied puts (full cell-prefixed keys with their
    /// authoritative `stored_at`), grouped per cell into `SyncDelta`
    /// frames. Call *after* the store applied them — the journal records
    /// history, it does not stage intent.
    pub fn append_puts(&mut self, records: &[(Vec<u8>, Vec<u8>, SimTime)]) -> io::Result<()> {
        let mut cell: Option<CellId> = None;
        let mut pairs: Vec<AlsSyncPair> = Vec::new();
        let mut pending = 0usize;
        for (key, payload, stored_at) in records {
            let Some(owner) = cell_of_key(key) else {
                continue;
            };
            if cell != Some(owner) || pending >= PUT_CHUNK_BYTES {
                if let Some(cell) = cell.take() {
                    if !pairs.is_empty() {
                        self.append_record(
                            TAG_PUTS,
                            &puts_frame(cell, std::mem::take(&mut pairs)),
                        )?;
                    }
                }
                cell = Some(owner);
                pending = 0;
            }
            pending += key.len() + payload.len();
            pairs.push(AlsSyncPair {
                index: key[8..].to_vec(),
                payload: payload.clone(),
                stored_at: *stored_at,
            });
        }
        if let Some(cell) = cell {
            if !pairs.is_empty() {
                self.append_record(TAG_PUTS, &puts_frame(cell, pairs))?;
            }
        }
        Ok(())
    }

    /// Appends an applied delete of the full cell-prefixed `key`.
    pub(crate) fn append_delete(&mut self, key: &[u8]) -> io::Result<()> {
        self.append_record(TAG_DELETE, key)
    }

    /// Whether enough sealed history has piled up that the owner should
    /// snapshot the store and [`Journal::compact`].
    #[must_use]
    pub(crate) fn wants_compaction(&self) -> bool {
        self.sealed.len() >= self.config.compact_segments.max(1)
    }

    /// Replaces all history with `snapshot` (the live store, as from
    /// `ShardedStore::scan_all`): the snapshot is written and synced to
    /// a fresh segment first, then every older segment is deleted, so a
    /// crash at any point leaves a replayable journal — at worst with
    /// duplicated history, never with a hole.
    pub(crate) fn compact(&mut self, snapshot: &[(Vec<u8>, Vec<u8>, SimTime)]) -> io::Result<()> {
        self.active.flush()?;
        self.active.get_ref().sync_data()?;
        let snapshot_seq = self.active_seq + 1;
        let mut old = std::mem::take(&mut self.sealed);
        old.push(self.active_seq);
        self.active = open_segment(&self.dir, snapshot_seq)?;
        self.active_seq = snapshot_seq;
        self.active_bytes = 0;
        self.unsynced = 0;
        // The snapshot must land in exactly one segment: suspend size
        // rotation while writing it (a rotation here would collide with
        // the fresh tail segment opened below).
        let segment_bytes = self.config.segment_bytes;
        self.config.segment_bytes = u64::MAX;
        let written = self.append_puts(snapshot);
        self.config.segment_bytes = segment_bytes;
        written?;
        self.active.flush()?;
        self.active.get_ref().sync_data()?;
        // History is now redundant: the snapshot segment precedes every
        // future append in replay order.
        for seq in old {
            fs::remove_file(segment_path(&self.dir, seq))?;
        }
        // Seal the snapshot and append into a fresh tail segment, so the
        // snapshot itself is never a torn-tail candidate.
        self.active_seq = snapshot_seq + 1;
        self.active = open_segment(&self.dir, self.active_seq)?;
        self.active_bytes = 0;
        self.unsynced = 0;
        self.sealed = vec![snapshot_seq];
        Ok(())
    }

    /// Flushes and syncs everything appended so far.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.flush()?;
        self.active.get_ref().sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    fn append_record(&mut self, tag: u8, body: &[u8]) -> io::Result<()> {
        let len = u32::try_from(1 + body.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "journal record too large"))?;
        self.active.write_all(&len.to_be_bytes())?;
        self.active.write_all(&[tag])?;
        self.active.write_all(body)?;
        self.active_bytes += u64::from(len) + 4;
        self.unsynced += 1;
        if self.unsynced > self.config.sync_every {
            self.sync()?;
        }
        if self.active_bytes >= self.config.segment_bytes.max(1) {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.sealed.push(self.active_seq);
        self.active_seq += 1;
        self.active = open_segment(&self.dir, self.active_seq)?;
        self.active_bytes = 0;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// Parses one segment's records into `ops`, stopping cleanly at a torn
/// or corrupt tail.
fn replay_segment(bytes: &[u8], ops: &mut Vec<JournalOp>) {
    let mut rest = bytes;
    loop {
        if rest.len() < 4 {
            return;
        }
        let len = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_RECORD || rest.len() < 4 + len {
            return;
        }
        let record = &rest[4..4 + len];
        rest = &rest[4 + len..];
        match record[0] {
            TAG_PUTS => {
                let Ok(AgfwPacket::Als(AlsNetMessage {
                    kind: AlsNetKind::SyncDelta { cell, pairs },
                    ..
                })) = decode_packet(&record[1..])
                else {
                    return;
                };
                for pair in pairs {
                    ops.push(JournalOp::Put {
                        key: cell_key(cell, &pair.index),
                        payload: pair.payload,
                        stored_at: pair.stored_at,
                    });
                }
            }
            TAG_DELETE => {
                if record.len() < 9 {
                    return;
                }
                ops.push(JournalOp::Delete {
                    key: record[1..].to_vec(),
                });
            }
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "agr-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(i: u8, t: u64) -> (Vec<u8>, Vec<u8>, SimTime) {
        let cell = CellId {
            col: u32::from(i % 3),
            row: 7,
        };
        (
            cell_key(cell, &[i; 16]),
            vec![i, 0xEE, i ^ 0x5A],
            SimTime::from_millis(t),
        )
    }

    #[test]
    fn appends_replay_in_order_with_timestamps() {
        let dir = tempdir("roundtrip");
        let records: Vec<_> = (0..20u8).map(|i| rec(i, 100 + u64::from(i))).collect();
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).expect("open");
            journal.append_puts(&records).expect("puts");
            journal.append_delete(&records[3].0).expect("delete");
            journal.sync().expect("sync");
        }
        let ops = Journal::replay(&dir).expect("replay");
        let puts: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                JournalOp::Put {
                    key,
                    payload,
                    stored_at,
                } => Some((key.clone(), payload.clone(), *stored_at)),
                JournalOp::Delete { .. } => None,
            })
            .collect();
        assert_eq!(puts, records, "puts replay in append order, stamps intact");
        assert_eq!(
            ops.last(),
            Some(&JournalOp::Delete {
                key: records[3].0.clone()
            })
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_directory_replays_empty() {
        let dir = tempdir("missing");
        assert_eq!(Journal::replay(&dir).expect("replay"), Vec::new());
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tempdir("torn");
        let records: Vec<_> = (0..8u8).map(|i| rec(i, 50)).collect();
        {
            let mut journal = Journal::open(&dir, JournalConfig::default()).expect("open");
            journal.append_puts(&records).expect("puts");
            journal.sync().expect("sync");
        }
        // Simulate a crash mid-append: chop bytes off the segment tail.
        let seg = list_segments(&dir).expect("list")[0];
        let path = segment_path(&dir, seg);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        let ops = Journal::replay(&dir).expect("replay");
        assert!(
            !ops.is_empty() && ops.len() < records.len(),
            "torn tail drops the last record(s) only, got {}",
            ops.len()
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn segments_rotate_and_survive_reopen() {
        let dir = tempdir("rotate");
        let config = JournalConfig {
            segment_bytes: 256,
            sync_every: 0,
            compact_segments: 2,
        };
        {
            let mut journal = Journal::open(&dir, config).expect("open");
            for i in 0..30u8 {
                journal.append_puts(&[rec(i, u64::from(i))]).expect("puts");
            }
            assert!(journal.wants_compaction(), "tiny segments must rotate");
        }
        assert!(list_segments(&dir).expect("list").len() > 2);
        // Reopen appends after existing history; replay sees both eras.
        {
            let mut journal = Journal::open(&dir, config).expect("reopen");
            journal.append_puts(&[rec(99, 999)]).expect("puts");
        }
        let ops = Journal::replay(&dir).expect("replay");
        assert_eq!(ops.len(), 31);
        assert_eq!(
            ops.last(),
            Some(&JournalOp::Put {
                key: rec(99, 999).0,
                payload: rec(99, 999).1,
                stored_at: SimTime::from_millis(999),
            })
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn compaction_collapses_history_to_live_state() {
        let dir = tempdir("compact");
        let config = JournalConfig {
            segment_bytes: 256,
            sync_every: 0,
            compact_segments: 2,
        };
        let mut journal = Journal::open(&dir, config).expect("open");
        for round in 0..5u64 {
            for i in 0..10u8 {
                journal.append_puts(&[rec(i, round)]).expect("puts");
            }
        }
        // Live state: only the last round's version of each key.
        let live: Vec<_> = (0..10u8).map(|i| rec(i, 4)).collect();
        journal.compact(&live).expect("compact");
        // More appends after compaction land in the fresh tail.
        journal.append_puts(&[rec(42, 77)]).expect("puts");
        drop(journal);
        let ops = Journal::replay(&dir).expect("replay");
        assert_eq!(ops.len(), live.len() + 1, "history collapsed to snapshot");
        assert!(list_segments(&dir).expect("list").len() <= 2);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
