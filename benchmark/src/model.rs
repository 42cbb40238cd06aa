//! What the store must hold after a run, derived from the plan alone.
//!
//! The read-back check ("the last-written keys return the last payload
//! written") needs the expected final record of each key. Most keys have
//! one, but not all: the second copy of a re-sent write can land after
//! later writes that were in flight with it, and a forward removes its
//! source record on a *different* worker queue than an update to that
//! record rides, so the two can commute when they are in flight
//! together. Such keys are excluded rather than guessed at.

use crate::plan::{Mix, Op, OpKind};
use agr_geom::CellId;
use std::collections::HashMap;

/// Operations closer together than this may have been in flight at the
/// same time (the closed loop's window is 32; the open loop keeps a
/// handful in flight).
const RACE_SPAN: u64 = 64;

#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Sequence number of the last write, and whether *any* write to this
    /// key was ever re-sent: the re-sent copy may land after later writes
    /// that were in flight with it, so the key stays uncertain.
    write: Option<(u64, bool)>,
    /// Sequence number of the last forward that removed this record.
    removed_at: Option<u64>,
}

/// A key the read-back can verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub cell: CellId,
    pub rank: u32,
    /// The write whose payload the store must return.
    pub seq: u64,
}

/// The last write to every `(cell, key)` the run touched.
#[derive(Debug, Default)]
pub struct WriteModel {
    keys: HashMap<(u16, u32), KeyState>,
}

impl WriteModel {
    /// Folds the `seq`-th operation of the run into the model.
    pub fn apply(&mut self, mix: &Mix, op: Op, seq: u64, resent: bool) {
        let home = mix.home_cell(op.rank);
        let home_code = (home.row * mix.side + home.col) as u16;
        match op.kind {
            OpKind::Query => {}
            OpKind::Update => self.write((home_code, op.rank), seq, resent),
            OpKind::Forward => {
                if op.to_cell != home_code {
                    let source = self.keys.entry((home_code, op.rank)).or_default();
                    source.removed_at = Some(seq);
                    if resent {
                        // The second removal can land after a later
                        // update re-created the record.
                        source.write = Some((source.write.map_or(seq, |(s, _)| s), true));
                    }
                }
                self.write((op.to_cell, op.rank), seq, resent);
            }
        }
    }

    fn write(&mut self, key: (u16, u32), seq: u64, resent: bool) {
        let state = self.keys.entry(key).or_default();
        let tainted = resent || state.write.is_some_and(|(_, tainted)| tainted);
        state.write = Some((seq, tainted));
    }

    /// The `n` most recently written keys whose final record is certain,
    /// newest first.
    pub fn newest(&self, mix: &Mix, n: usize) -> Vec<Expected> {
        let mut certain: Vec<Expected> = self
            .keys
            .iter()
            .filter_map(|(&(cell, rank), state)| {
                let (seq, resent) = state.write?;
                let raced = state
                    .removed_at
                    .is_some_and(|removed| removed + RACE_SPAN > seq);
                (!resent && !raced).then(|| Expected {
                    cell: mix.cell_from_code(cell),
                    rank,
                    seq,
                })
            })
            .collect();
        certain.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
        certain.truncate(n);
        certain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        update_pct: 70,
        query_pct: 29,
        keys: 1_000,
        zipf_s: 0.99,
        side: 16,
    };

    fn update(rank: u32) -> Op {
        Op {
            kind: OpKind::Update,
            rank,
            to_cell: 0,
        }
    }

    fn forward(rank: u32, to_cell: u16) -> Op {
        Op {
            kind: OpKind::Forward,
            rank,
            to_cell,
        }
    }

    #[test]
    fn the_last_write_wins_and_newest_come_first() {
        let mut model = WriteModel::default();
        model.apply(&MIX, update(5), 10, false);
        model.apply(&MIX, update(6), 11, false);
        model.apply(&MIX, update(5), 12, false);
        let newest = model.newest(&MIX, 10);
        assert_eq!(newest.len(), 2);
        assert_eq!((newest[0].rank, newest[0].seq), (5, 12));
        assert_eq!((newest[1].rank, newest[1].seq), (6, 11));
        assert_eq!(newest[0].cell, MIX.home_cell(5));
        assert_eq!(model.newest(&MIX, 1).len(), 1);
    }

    #[test]
    fn a_forward_moves_the_record_and_removes_the_source() {
        let mut model = WriteModel::default();
        model.apply(&MIX, update(5), 10, false);
        model.apply(&MIX, forward(5, 200), 500, false);
        let newest = model.newest(&MIX, 10);
        // The home-cell record is gone (removed after its last write);
        // only the forwarded copy is verifiable.
        assert_eq!(newest.len(), 1);
        assert_eq!(newest[0].cell, MIX.cell_from_code(200));
        assert_eq!(newest[0].seq, 500);
        // A much later update re-creates the home-cell record.
        model.apply(&MIX, update(5), 9_000, false);
        assert_eq!(model.newest(&MIX, 10)[0].seq, 9_000);
    }

    #[test]
    fn racing_and_resent_writes_are_excluded() {
        let mut model = WriteModel::default();
        // An update 3 ops after a forward away from the same record: the
        // remove and the store ride different queues and may commute.
        model.apply(&MIX, forward(7, 200), 100, false);
        model.apply(&MIX, update(7), 103, false);
        // A re-sent write may be applied again after a later write that
        // was in flight with it: the key stays uncertain.
        model.apply(&MIX, update(8), 104, true);
        model.apply(&MIX, update(8), 110, false);
        // Likewise the source of a re-sent forward.
        model.apply(&MIX, forward(9, 201), 120, true);
        model.apply(&MIX, update(9), 9_000, false);
        let newest = model.newest(&MIX, 10);
        assert_eq!(newest.len(), 1);
        assert_eq!((newest[0].rank, newest[0].seq), (7, 100));
    }
}
