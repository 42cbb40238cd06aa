//! Differential test of the Anonymous Neighbor Table: the slot-slab
//! table in `agr_core::ant` against the two-map table it replaced, kept
//! below verbatim as the reference model. Both are driven by the same
//! random operation sequences, over a small pseudonym pool so slots are
//! refreshed, replayed, removed and re-created, at non-monotone times and
//! on a coarse position grid so greedy ties occur. After every operation
//! every observable must agree.
//!
//! The one intended difference: the slab table rejects a hello stamped
//! later than `now`, which the reference accepted (and then kept its
//! dedup stamp until the clock reached it). The test expects that
//! rejection and leaves the reference untouched for such a hello.

use agr_core::ant::{AntEntry, SelectionStrategy};
use agr_core::{AnonymousNeighborTable, Pseudonym};
use agr_geom::Point;
use agr_sim::SimTime;
use proptest::prelude::*;

mod reference {
    use agr_core::ant::{AntEntry, SelectionStrategy};
    use agr_core::Pseudonym;
    use agr_geom::Point;
    use agr_sim::{FixedMap, SimTime};

    /// The greedy kernel as the reference table called it (a min over the
    /// candidates), so the reference shares no selection code with the
    /// table under test.
    mod planar {
        use agr_geom::Point;

        pub fn greedy_next<K, I>(here: Point, dst: Point, neighbors: I) -> Option<(K, Point)>
        where
            K: Ord + Copy,
            I: IntoIterator<Item = (K, Point)>,
        {
            let my_dist = here.distance_sq(dst);
            neighbors
                .into_iter()
                .map(|(key, pos)| (key, pos, pos.distance_sq(dst)))
                .filter(|&(_, _, dist)| dist < my_dist)
                .min_by(|a, b| {
                    a.2.partial_cmp(&b.2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                })
                .map(|(key, pos, _)| (key, pos))
        }
    }

    #[derive(Debug, Clone)]
    pub struct AnonymousNeighborTable {
        entries: FixedMap<Pseudonym, AntEntry>,
        timeout: SimTime,
        fresh_window: SimTime,
        /// Per-pseudonym-slot suspicion score, fed by NL-ACK outcomes and the
        /// forward-watch (timed out → increment, delivered → decay). Scores
        /// outlive `remove()` so a suspect cannot launder itself by being
        /// re-heard under the same pseudonym, and are garbage-collected in
        /// [`Self::prune`] once the slot's entry has expired (rotated-away
        /// pseudonyms never return).
        suspicion: FixedMap<Pseudonym, f64>,
        /// Replay/duplicate dedup window: the newest accepted hello timestamp
        /// per pseudonym slot (bounded — pruned with the entries).
        hello_ts: FixedMap<Pseudonym, SimTime>,
    }

    impl AnonymousNeighborTable {
        /// Creates a table with the given entry `timeout` and freshness
        /// window (entries younger than `fresh_window` are preferred by
        /// [`SelectionStrategy::FreshnessAware`]).
        #[must_use]
        pub fn new(timeout: SimTime, fresh_window: SimTime) -> Self {
            AnonymousNeighborTable {
                entries: FixedMap::default(),
                timeout,
                fresh_window,
                suspicion: FixedMap::default(),
                hello_ts: FixedMap::default(),
            }
        }

        /// Records a hello `⟨n, loc, ts⟩`.
        ///
        /// A repeated pseudonym refreshes its entry; distinct pseudonyms from
        /// the same (unknown) neighbor simply coexist.
        pub fn observe(&mut self, pseudonym: Pseudonym, loc: Point, now: SimTime) {
            self.entries.insert(
                pseudonym,
                AntEntry {
                    pseudonym,
                    loc,
                    heard_at: now,
                },
            );
        }

        /// Records a timestamped hello, rejecting replays and duplicates.
        ///
        /// A hello is accepted only when its beacon timestamp `ts` (carried
        /// in the packet) is *newer* than the last accepted hello for this
        /// pseudonym slot AND no older than the entry timeout relative to
        /// `now`. An honest neighbor always passes: its timestamps increase
        /// monotonically and arrive within microseconds of being stamped. A
        /// replayed beacon fails one of the two gates — verbatim replays
        /// repeat an already-seen `(pseudonym, ts)`, and delayed replays
        /// carry a timestamp at least as old as the entry timeout by the time
        /// they could resurrect anything. Returns whether the hello was
        /// accepted.
        pub fn observe_hello(
            &mut self,
            pseudonym: Pseudonym,
            loc: Point,
            ts: SimTime,
            now: SimTime,
        ) -> bool {
            if now.saturating_sub(ts) >= self.timeout {
                return false;
            }
            if let Some(&last) = self.hello_ts.get(&pseudonym) {
                if ts <= last {
                    return false;
                }
            }
            self.hello_ts.insert(pseudonym, ts);
            self.observe(pseudonym, loc, now);
            true
        }

        /// Removes an entry, e.g. after repeated delivery failures to it.
        pub fn remove(&mut self, pseudonym: Pseudonym) -> Option<AntEntry> {
            self.entries.remove(&pseudonym)
        }

        /// Raises the suspicion score of a pseudonym slot by `amount`
        /// (an NL-ACK timeout, or a forward-watch that saw no onward
        /// transmission).
        pub fn suspect(&mut self, pseudonym: Pseudonym, amount: f64) {
            *self.suspicion.entry(pseudonym).or_insert(0.0) += amount;
        }

        /// Raises the suspicion of every *live* slot advertised within
        /// `radius` of `loc` — the spatial generalisation of [`Self::suspect`]
        /// used when a misbehaving neighbor hides behind per-beacon pseudonym
        /// rotation: its aliases cluster around the same advertised position.
        /// (This deliberately links pseudonyms by position, trading a slice of
        /// the paper's unlinkability for robustness; see DESIGN.md.)
        pub fn suspect_nearby(&mut self, loc: Point, radius: f64, amount: f64, now: SimTime) {
            let nearby: Vec<Pseudonym> = self
                .live(now)
                .filter(|e| e.loc.distance(loc) <= radius)
                .map(|e| e.pseudonym)
                .collect();
            for p in nearby {
                self.suspect(p, amount);
            }
        }

        /// The largest suspicion score among live slots advertised within
        /// `radius` of `loc`, excluding `except` — what a *new* pseudonym
        /// beaconing from that position inherits. A rotating attacker sheds
        /// its convicted alias every beacon; without inheritance each fresh
        /// alias starts clean and must be re-convicted at full price. (Same
        /// position-linking trade-off as [`Self::suspect_nearby`].)
        #[must_use]
        pub fn suspicion_nearby(
            &self,
            loc: Point,
            radius: f64,
            except: Pseudonym,
            now: SimTime,
        ) -> f64 {
            self.live(now)
                .filter(|e| e.pseudonym != except && e.loc.distance(loc) <= radius)
                .map(|e| self.suspicion(e.pseudonym))
                .fold(0.0, f64::max)
        }

        /// Decays the suspicion score of a pseudonym slot by `amount`
        /// (a delivered NL-ACK), clamping at zero.
        pub fn absolve(&mut self, pseudonym: Pseudonym, amount: f64) {
            if let Some(score) = self.suspicion.get_mut(&pseudonym) {
                *score -= amount;
                if *score <= 0.0 {
                    self.suspicion.remove(&pseudonym);
                }
            }
        }

        /// The current suspicion score of a pseudonym slot (zero when clean).
        #[must_use]
        pub fn suspicion(&self, pseudonym: Pseudonym) -> f64 {
            self.suspicion.get(&pseudonym).copied().unwrap_or(0.0)
        }

        /// The live entry for `pseudonym`, if present and unexpired.
        #[must_use]
        pub fn entry(&self, pseudonym: Pseudonym, now: SimTime) -> Option<AntEntry> {
            self.entries
                .get(&pseudonym)
                .filter(|e| now.saturating_sub(e.heard_at) < self.timeout)
                .copied()
        }

        /// Live (non-expired) entries.
        pub fn live(&self, now: SimTime) -> impl Iterator<Item = AntEntry> + '_ {
            self.entries
                .values()
                .filter(move |e| now.saturating_sub(e.heard_at) < self.timeout)
                .copied()
        }

        /// Number of live entries (may exceed the number of physical
        /// neighbors — that multiplicity is the anonymity working).
        #[must_use]
        pub fn live_count(&self, now: SimTime) -> usize {
            self.live(now).count()
        }

        /// Drops expired entries, along with dedup-window and suspicion
        /// state for pseudonym slots whose entry has expired (per-beacon
        /// rotation means an abandoned pseudonym never returns, so this
        /// bounds both side tables without forgetting a live suspect).
        pub fn prune(&mut self, now: SimTime) {
            let timeout = self.timeout;
            self.entries
                .retain(|_, e| now.saturating_sub(e.heard_at) < timeout);
            self.hello_ts
                .retain(|_, ts| now.saturating_sub(*ts) < timeout);
            self.suspicion.retain(|p, _| self.entries.contains_key(p));
        }

        /// Live entries whose suspicion score is below `suspicion_threshold`
        /// (an infinite threshold excludes nobody), optionally only those
        /// heard within the freshness window.
        fn candidates(
            &self,
            now: SimTime,
            fresh_only: bool,
            suspicion_threshold: f64,
        ) -> impl Iterator<Item = AntEntry> + '_ {
            self.live(now).filter(move |e| {
                (!fresh_only || now.saturating_sub(e.heard_at) < self.fresh_window)
                    && self.suspicion(e.pseudonym) < suspicion_threshold
            })
        }

        /// Chooses the next-hop entry for a packet at `self_pos` heading to
        /// `dst_loc`: strictly closer to the destination than the forwarder,
        /// per greedy forwarding, refined by `strategy`.
        #[must_use]
        pub fn next_hop(
            &self,
            self_pos: Point,
            dst_loc: Point,
            now: SimTime,
            strategy: SelectionStrategy,
        ) -> Option<AntEntry> {
            self.next_hop_excluding(self_pos, dst_loc, now, strategy, f64::INFINITY)
                .and_then(|pseudonym| self.entries.get(&pseudonym).copied())
        }

        /// The pseudonym [`Self::next_hop`] would choose, restricted to
        /// entries whose suspicion score is below `suspicion_threshold` — the
        /// hardened selection rule. An infinite threshold excludes nobody and
        /// reproduces `next_hop` exactly, which is what keeps defense-off runs
        /// byte-identical.
        #[must_use]
        pub fn next_hop_excluding(
            &self,
            self_pos: Point,
            dst_loc: Point,
            now: SimTime,
            strategy: SelectionStrategy,
            suspicion_threshold: f64,
        ) -> Option<Pseudonym> {
            let closest = |fresh_only| {
                let candidates = self
                    .candidates(now, fresh_only, suspicion_threshold)
                    .map(|e| (e.pseudonym, e.loc));
                planar::greedy_next(self_pos, dst_loc, candidates).map(|(pseudonym, _)| pseudonym)
            };
            match strategy {
                SelectionStrategy::NaiveClosest => closest(false),
                SelectionStrategy::FreshnessAware => closest(true).or_else(|| closest(false)),
            }
        }
    }
}

const TIMEOUT_MS: u64 = 4500;
const FRESH_MS: u64 = 1500;
const POOL: u8 = 6;

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

fn pseudonym(i: u8) -> Pseudonym {
    Pseudonym([i % POOL + 1; 6])
}

/// A grid point: positions repeat, so distances tie.
fn grid(i: u8, j: u8) -> Point {
    Point::new(f64::from(i % 7) * 50.0, f64::from(j % 7) * 50.0)
}

/// One drawn operation: `(kind, pseudonym, x, y, now step, ts step, amount)`.
type Op = (u8, u8, u8, u8, u64, u64, u8);

fn arb_op() -> impl Strategy<Value = Op> {
    (
        (0u8..10, 0u8..POOL),
        (0u8..7, 0u8..7),
        (0u64..48, 0u64..30, 1u8..=4),
    )
        .prop_map(|((kind, who), (x, y), (now, ts, amount))| (kind, who, x, y, now, ts, amount))
}

fn live_sorted(entries: impl Iterator<Item = AntEntry>) -> Vec<(Pseudonym, Point, SimTime)> {
    let mut live: Vec<_> = entries.map(|e| (e.pseudonym, e.loc, e.heard_at)).collect();
    live.sort_by_key(|&(p, _, _)| p);
    live
}

/// Applies `op` to both tables; `Err` names the first disagreement.
fn step(
    table: &mut AnonymousNeighborTable,
    model: &mut reference::AnonymousNeighborTable,
    (kind, who, x, y, now_step, ts_step, amount): Op,
) -> Result<SimTime, String> {
    let p = pseudonym(who);
    let loc = grid(x, y);
    // 250 ms steps: hellos, expiries (4.5 s) and the freshness window
    // (1.5 s) land on exactly the same instants.
    let now = ms(now_step * 250);
    let amount = f64::from(amount) * 0.5;
    match kind {
        0 => {
            table.observe(p, loc, now);
            model.observe(p, loc, now);
        }
        1..=3 => {
            // Stamps from 5 s old to 2.5 s in the future, on the same
            // grid, so duplicates, replays and stale stamps all recur.
            let ts = (now_step * 250 + 2500).saturating_sub(ts_step * 250);
            let ts = ms(ts);
            let got = table.observe_hello(p, loc, ts, now);
            let want = ts <= now && model.observe_hello(p, loc, ts, now);
            if got != want {
                return Err(format!(
                    "observe_hello({p:?}, ts={ts:?}, now={now:?}): {got} vs {want}"
                ));
            }
        }
        4 => {
            let (got, want) = (table.remove(p), model.remove(p));
            if got != want {
                return Err(format!("remove({p:?}): {got:?} vs {want:?}"));
            }
        }
        5 => {
            table.suspect(p, amount);
            model.suspect(p, amount);
        }
        6 => {
            table.absolve(p, amount);
            model.absolve(p, amount);
        }
        7 => {
            let radius = [0.0, 50.0, 75.0, 400.0][(ts_step % 4) as usize];
            table.suspect_nearby(loc, radius, amount, now);
            model.suspect_nearby(loc, radius, amount, now);
        }
        _ => {
            table.prune(now);
            model.prune(now);
        }
    }
    Ok(now)
}

/// Every observable of both tables at `now`, from `here` towards `dst`.
fn compare(
    table: &AnonymousNeighborTable,
    model: &reference::AnonymousNeighborTable,
    now: SimTime,
    here: Point,
    dst: Point,
) -> Result<(), String> {
    for i in 0..POOL {
        let p = pseudonym(i);
        if table.entry(p, now) != model.entry(p, now) {
            return Err(format!("entry({p:?}) at {now:?}"));
        }
        if table.suspicion(p) != model.suspicion(p) {
            return Err(format!("suspicion({p:?})"));
        }
        for radius in [0.0, 75.0, 400.0] {
            let (got, want) = (
                table.suspicion_nearby(here, radius, p, now),
                model.suspicion_nearby(here, radius, p, now),
            );
            if got != want {
                return Err(format!(
                    "suspicion_nearby(r={radius}, except {p:?}): {got} vs {want}"
                ));
            }
        }
    }
    if live_sorted(table.live(now)) != live_sorted(model.live(now)) {
        return Err(format!("live set at {now:?}"));
    }
    if table.live_count(now) != model.live_count(now) {
        return Err(format!("live_count at {now:?}"));
    }
    for strategy in [
        SelectionStrategy::NaiveClosest,
        SelectionStrategy::FreshnessAware,
    ] {
        for threshold in [1.0, f64::INFINITY] {
            let (got, want) = (
                table.next_hop_excluding(here, dst, now, strategy, threshold),
                model.next_hop_excluding(here, dst, now, strategy, threshold),
            );
            if got != want {
                return Err(format!(
                    "next_hop_excluding({strategy:?}, {threshold}) at {now:?}: {got:?} vs {want:?}"
                ));
            }
        }
        if table.next_hop(here, dst, now, strategy) != model.next_hop(here, dst, now, strategy) {
            return Err(format!("next_hop({strategy:?}) at {now:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn slab_table_matches_the_map_table(
        ops in proptest::collection::vec(arb_op(), 1..60),
        here in (0u8..7, 0u8..7),
        dst in (0u8..7, 0u8..7),
    ) {
        let (here, dst) = (grid(here.0, here.1), grid(dst.0, dst.1));
        let mut table = AnonymousNeighborTable::new(ms(TIMEOUT_MS), ms(FRESH_MS));
        let mut model = reference::AnonymousNeighborTable::new(ms(TIMEOUT_MS), ms(FRESH_MS));
        for (i, op) in ops.iter().enumerate() {
            let now = step(&mut table, &mut model, *op).map_err(|e| format!("op {i} {op:?}: {e}"))?;
            // At the operation's instant and once more after the
            // freshness window and the timeout have passed over it.
            for at in [now, now + ms(FRESH_MS), now + ms(TIMEOUT_MS)] {
                compare(&table, &model, at, here, dst).map_err(|e| format!("after op {i} {op:?}: {e}"))?;
            }
        }
    }
}
