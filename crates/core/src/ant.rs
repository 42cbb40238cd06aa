//! ANT — the Anonymous Neighbor Table (§3.1).
//!
//! Entries are `⟨n, loc, ts, to⟩`: pseudonym, advertised location, beacon
//! timestamp, timeout. Because pseudonyms rotate per hello, "a snapshot of
//! ANT at certain moment may have more than one entry for the same
//! neighbor ... which is also a desirable feature we expect for
//! anonymity". The cost is that the *best-positioned* entry may be a
//! stale alias of a neighbor that has since advertised a fresher position
//! under a new pseudonym, so §3.1.1 amends the forwarding rule: "It's
//! preferable to choose a fresher position rather than the best one."
//! Both strategies are implemented ([`SelectionStrategy`]) so the choice
//! can be ablated.

use crate::pseudonym::Pseudonym;
use crate::FixedMap;
use agr_geom::{planar::Greedy, Point};
use agr_sim::SimTime;

/// Next-hop selection strategy over the ANT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Pick the entry whose position is closest to the destination —
    /// the unmodified greedy rule, vulnerable to stale aliases.
    NaiveClosest,
    /// Prefer entries heard within the freshness window; fall back to all
    /// live entries only when no fresh one makes progress (the paper's
    /// §3.1.1 recommendation).
    #[default]
    FreshnessAware,
}

/// One anonymous neighbor table entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AntEntry {
    /// The pseudonym the neighbor used in this hello.
    pub pseudonym: Pseudonym,
    /// Advertised position.
    pub loc: Point,
    /// When the hello was heard.
    pub heard_at: SimTime,
}

/// Everything the table holds for one pseudonym. A slot lives while
/// either its entry or its dedup timestamp does.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pseudonym: Pseudonym,
    loc: Point,
    /// When the entry was last heard; `None` once removed or expired.
    heard_at: Option<SimTime>,
    /// The newest accepted hello timestamp (the replay/duplicate window);
    /// `None` for an entry made by [`AnonymousNeighborTable::observe`], or
    /// once it ages out.
    hello_ts: Option<SimTime>,
}

impl Slot {
    fn entry(&self) -> Option<AntEntry> {
        self.heard_at.map(|heard_at| AntEntry {
            pseudonym: self.pseudonym,
            loc: self.loc,
            heard_at,
        })
    }
}

/// The anonymous neighbor table.
///
/// # Examples
///
/// ```
/// use agr_core::{AnonymousNeighborTable, Pseudonym};
/// use agr_core::ant::SelectionStrategy;
/// use agr_geom::Point;
/// use agr_sim::SimTime;
///
/// let mut ant = AnonymousNeighborTable::new(
///     SimTime::from_millis(4500),
///     SimTime::from_millis(1500),
/// );
/// let n = Pseudonym::derive(1, 2);
/// ant.observe(n, Point::new(100.0, 0.0), SimTime::from_secs(1));
/// let next = ant.next_hop(
///     Point::ORIGIN,
///     Point::new(200.0, 0.0),
///     SimTime::from_secs(2),
///     SelectionStrategy::FreshnessAware,
/// );
/// assert_eq!(next.unwrap().loc, Point::new(100.0, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct AnonymousNeighborTable {
    /// One slot per pseudonym, in no meaningful order: every reader
    /// either looks one up through `index` or folds over all of them
    /// order-independently (greedy ties break on the pseudonym).
    slots: Vec<Slot>,
    /// Pseudonym → position in `slots`.
    index: FixedMap<Pseudonym, usize>,
    timeout: SimTime,
    fresh_window: SimTime,
    /// Per-pseudonym-slot suspicion score, fed by NL-ACK outcomes and the
    /// forward-watch (timed out → increment, delivered → decay). Scores
    /// outlive `remove()` so a suspect cannot launder itself by being
    /// re-heard under the same pseudonym, and are garbage-collected in
    /// [`Self::prune`] once the slot's entry has expired (rotated-away
    /// pseudonyms never return). Empty unless the defense is on.
    suspicion: FixedMap<Pseudonym, f64>,
}

impl AnonymousNeighborTable {
    /// Creates a table with the given entry `timeout` and freshness
    /// window (entries younger than `fresh_window` are preferred by
    /// [`SelectionStrategy::FreshnessAware`]).
    #[must_use]
    pub fn new(timeout: SimTime, fresh_window: SimTime) -> Self {
        AnonymousNeighborTable {
            slots: Vec::new(),
            index: FixedMap::default(),
            timeout,
            fresh_window,
            suspicion: FixedMap::default(),
        }
    }

    fn is_live(&self, heard_at: SimTime, now: SimTime) -> bool {
        now.saturating_sub(heard_at) < self.timeout
    }

    /// The slot for `pseudonym`, appended empty if there is none.
    fn slot_mut(&mut self, pseudonym: Pseudonym) -> &mut Slot {
        let slots = &mut self.slots;
        let i = *self.index.entry(pseudonym).or_insert_with(|| {
            slots.push(Slot {
                pseudonym,
                loc: Point::ORIGIN,
                heard_at: None,
                hello_ts: None,
            });
            slots.len() - 1
        });
        &mut slots[i]
    }

    /// Records a hello `⟨n, loc, ts⟩`.
    ///
    /// A repeated pseudonym refreshes its entry; distinct pseudonyms from
    /// the same (unknown) neighbor simply coexist.
    pub fn observe(&mut self, pseudonym: Pseudonym, loc: Point, now: SimTime) {
        let slot = self.slot_mut(pseudonym);
        slot.loc = loc;
        slot.heard_at = Some(now);
    }

    /// Records a timestamped hello, rejecting replays and duplicates.
    ///
    /// A hello is accepted only when its beacon timestamp `ts` (carried
    /// in the packet) is *newer* than the last accepted hello for this
    /// pseudonym slot, not later than `now`, AND no older than the entry
    /// timeout relative to `now`. An honest neighbor always passes: its
    /// timestamps increase monotonically and arrive within microseconds
    /// of being stamped. A replayed beacon fails one of the gates —
    /// verbatim replays repeat an already-seen `(pseudonym, ts)`, and
    /// delayed replays carry a timestamp at least as old as the entry
    /// timeout by the time they could resurrect anything. A hello stamped
    /// in the future is forged: were it kept, its dedup slot would outlive
    /// every prune until the clock reached the stamp. Returns whether the
    /// hello was accepted.
    pub fn observe_hello(
        &mut self,
        pseudonym: Pseudonym,
        loc: Point,
        ts: SimTime,
        now: SimTime,
    ) -> bool {
        if ts > now || now.saturating_sub(ts) >= self.timeout {
            return false;
        }
        let slot = self.slot_mut(pseudonym);
        if slot.hello_ts.is_some_and(|last| ts <= last) {
            return false;
        }
        slot.hello_ts = Some(ts);
        slot.loc = loc;
        slot.heard_at = Some(now);
        true
    }

    /// Removes an entry, e.g. after repeated delivery failures to it.
    /// Its dedup timestamp stays until it ages out.
    pub fn remove(&mut self, pseudonym: Pseudonym) -> Option<AntEntry> {
        let &i = self.index.get(&pseudonym)?;
        let slot = &mut self.slots[i];
        let entry = slot.entry();
        slot.heard_at = None;
        entry
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
        let timeout = self.timeout;
        for slot in &self.slots {
            let live = slot
                .heard_at
                .is_some_and(|t| now.saturating_sub(t) < timeout);
            if live && slot.loc.distance(loc) <= radius {
                *self.suspicion.entry(slot.pseudonym).or_insert(0.0) += amount;
            }
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
        if self.suspicion.is_empty() {
            return 0.0;
        }
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
        if self.suspicion.is_empty() {
            return 0.0;
        }
        self.suspicion.get(&pseudonym).copied().unwrap_or(0.0)
    }

    /// The live entry for `pseudonym`, if present and unexpired.
    #[must_use]
    pub fn entry(&self, pseudonym: Pseudonym, now: SimTime) -> Option<AntEntry> {
        self.index
            .get(&pseudonym)
            .and_then(|&i| self.slots[i].entry())
            .filter(|e| self.is_live(e.heard_at, now))
    }

    /// Live (non-expired) entries, in no particular order.
    pub fn live(&self, now: SimTime) -> impl Iterator<Item = AntEntry> + '_ {
        self.slots
            .iter()
            .filter_map(Slot::entry)
            .filter(move |e| self.is_live(e.heard_at, now))
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
    /// bounds both without forgetting a live suspect).
    pub fn prune(&mut self, now: SimTime) {
        let timeout = self.timeout;
        let alive = |t: &SimTime| now.saturating_sub(*t) < timeout;
        let mut i = 0;
        while i < self.slots.len() {
            let slot = &mut self.slots[i];
            slot.heard_at = slot.heard_at.filter(alive);
            slot.hello_ts = slot.hello_ts.filter(alive);
            if slot.heard_at.is_some() || slot.hello_ts.is_some() {
                i += 1;
                continue;
            }
            self.index.remove(&slot.pseudonym);
            self.slots.swap_remove(i);
            if let Some(moved) = self.slots.get(i) {
                *self
                    .index
                    .get_mut(&moved.pseudonym)
                    .expect("every slot is indexed") = i;
            }
        }
        if !self.suspicion.is_empty() {
            let (index, slots) = (&self.index, &self.slots);
            self.suspicion
                .retain(|p, _| index.get(p).is_some_and(|&i| slots[i].heard_at.is_some()));
        }
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
            .and_then(|pseudonym| self.entry(pseudonym, now))
    }

    /// The pseudonym [`Self::next_hop`] would choose, restricted to
    /// entries whose suspicion score is below `suspicion_threshold` — the
    /// hardened selection rule. An infinite threshold excludes nobody and
    /// reproduces `next_hop` exactly, which is what keeps defense-off runs
    /// byte-identical.
    ///
    /// One scan keeps both greedy choices [`SelectionStrategy::FreshnessAware`]
    /// needs: over the fresh entries, and over all live ones as fallback.
    #[must_use]
    pub fn next_hop_excluding(
        &self,
        self_pos: Point,
        dst_loc: Point,
        now: SimTime,
        strategy: SelectionStrategy,
        suspicion_threshold: f64,
    ) -> Option<Pseudonym> {
        let fresh_first = strategy == SelectionStrategy::FreshnessAware;
        let mut any = Greedy::new(self_pos, dst_loc);
        let mut fresh = any;
        for slot in &self.slots {
            let Some(heard_at) = slot.heard_at else {
                continue;
            };
            let age = now.saturating_sub(heard_at);
            if age < self.timeout && self.suspicion(slot.pseudonym) < suspicion_threshold {
                if fresh_first && age < self.fresh_window {
                    fresh.offer(slot.pseudonym, slot.loc);
                }
                any.offer(slot.pseudonym, slot.loc);
            }
        }
        fresh
            .choice()
            .or(any.choice())
            .map(|(pseudonym, _)| pseudonym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(b: u8) -> Pseudonym {
        Pseudonym([b; 6])
    }

    fn ant() -> AnonymousNeighborTable {
        AnonymousNeighborTable::new(SimTime::from_millis(4500), SimTime::from_millis(1500))
    }

    #[test]
    fn multiple_entries_for_one_neighbor_coexist() {
        // The same physical neighbor beacons twice under different
        // pseudonyms; the table cannot (and must not) merge them.
        let mut t = ant();
        t.observe(n(1), Point::new(10.0, 0.0), SimTime::from_secs(1));
        t.observe(n(2), Point::new(12.0, 0.0), SimTime::from_secs(2));
        assert_eq!(t.live_count(SimTime::from_secs(2)), 2);
    }

    #[test]
    fn entries_expire_and_prune() {
        let mut t = ant();
        t.observe(n(1), Point::ORIGIN, SimTime::from_secs(1));
        assert_eq!(t.live_count(SimTime::from_secs(6)), 0);
        t.prune(SimTime::from_secs(6));
        assert!(t.remove(n(1)).is_none());
    }

    #[test]
    fn naive_picks_globally_closest() {
        let mut t = ant();
        let dst = Point::new(100.0, 0.0);
        // Old entry closer to destination than a fresh one.
        t.observe(n(1), Point::new(80.0, 0.0), SimTime::from_secs(1));
        t.observe(n(2), Point::new(50.0, 0.0), SimTime::from_millis(3900));
        let got = t
            .next_hop(
                Point::ORIGIN,
                dst,
                SimTime::from_secs(4),
                SelectionStrategy::NaiveClosest,
            )
            .unwrap();
        assert_eq!(got.pseudonym, n(1));
    }

    #[test]
    fn freshness_aware_prefers_recent_entries() {
        let mut t = ant();
        let dst = Point::new(100.0, 0.0);
        t.observe(n(1), Point::new(80.0, 0.0), SimTime::from_secs(1)); // stale alias
        t.observe(n(2), Point::new(50.0, 0.0), SimTime::from_millis(3900)); // fresh
        let got = t
            .next_hop(
                Point::ORIGIN,
                dst,
                SimTime::from_secs(4),
                SelectionStrategy::FreshnessAware,
            )
            .unwrap();
        assert_eq!(
            got.pseudonym,
            n(2),
            "fresh entry must win over stale-but-closer"
        );
    }

    #[test]
    fn freshness_aware_falls_back_to_stale_progress() {
        let mut t = ant();
        let dst = Point::new(100.0, 0.0);
        // Only a stale entry makes progress.
        t.observe(n(1), Point::new(80.0, 0.0), SimTime::from_secs(1));
        let got = t
            .next_hop(
                Point::ORIGIN,
                dst,
                SimTime::from_secs(4),
                SelectionStrategy::FreshnessAware,
            )
            .unwrap();
        assert_eq!(got.pseudonym, n(1));
    }

    #[test]
    fn strict_progress_required() {
        let mut t = ant();
        let dst = Point::new(100.0, 0.0);
        t.observe(n(1), Point::new(-10.0, 0.0), SimTime::from_secs(1));
        for s in [
            SelectionStrategy::NaiveClosest,
            SelectionStrategy::FreshnessAware,
        ] {
            assert!(t
                .next_hop(Point::ORIGIN, dst, SimTime::from_secs(1), s)
                .is_none());
        }
    }

    #[test]
    fn replayed_hello_cannot_resurrect_expired_entry() {
        let mut t = ant();
        // Original hello at t=1 s, stamped t=1 s.
        let accepted = t.observe_hello(
            n(1),
            Point::new(10.0, 0.0),
            SimTime::from_secs(1),
            SimTime::from_secs(1),
        );
        assert!(accepted, "the genuine hello must be accepted");
        // The entry expires (timeout 4.5 s) ...
        assert_eq!(t.live_count(SimTime::from_secs(10)), 0);
        // ... and a verbatim replay 9 s later must not resurrect it:
        // its (pseudonym, ts) was already seen AND its timestamp is
        // older than the entry timeout.
        let replay = t.observe_hello(
            n(1),
            Point::new(10.0, 0.0),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );
        assert!(!replay, "replayed hello must be rejected");
        assert_eq!(t.live_count(SimTime::from_secs(10)), 0);
    }

    #[test]
    fn replay_rejected_even_at_fresh_receiver() {
        // A receiver that never heard the original (no dedup record)
        // still rejects the replay by the timestamp-age gate.
        let mut t = ant();
        let replay = t.observe_hello(
            n(1),
            Point::new(10.0, 0.0),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );
        assert!(!replay);
        assert_eq!(t.live_count(SimTime::from_secs(10)), 0);
    }

    #[test]
    fn duplicate_timestamp_rejected_but_newer_accepted() {
        let mut t = ant();
        let p = Point::new(10.0, 0.0);
        assert!(t.observe_hello(n(1), p, SimTime::from_secs(1), SimTime::from_secs(1)));
        // Immediate duplicate (same ts): rejected.
        assert!(!t.observe_hello(n(1), p, SimTime::from_secs(1), SimTime::from_secs(1)));
        // The neighbor's own next hello (newer ts): accepted.
        assert!(t.observe_hello(n(1), p, SimTime::from_secs(2), SimTime::from_secs(2)));
        assert_eq!(t.live_count(SimTime::from_secs(2)), 1);
    }

    #[test]
    fn future_stamped_hello_is_rejected_and_leaves_no_slot() {
        let mut t = ant();
        let now = SimTime::from_secs(10);
        let forged = now + SimTime::from_secs(3600);
        assert!(!t.observe_hello(n(1), Point::new(10.0, 0.0), forged, now));
        assert_eq!(t.live_count(now), 0);
        t.prune(now);
        assert!(t.slots.is_empty() && t.index.is_empty());
        // Its pseudonym's honest hellos are still accepted: a kept forged
        // stamp would have rejected every one of them as a duplicate.
        assert!(t.observe_hello(n(1), Point::new(10.0, 0.0), now, now));
    }

    #[test]
    fn prune_bounds_dedup_window_but_keeps_live_suspicion() {
        let mut t = ant();
        t.observe(n(1), Point::new(10.0, 0.0), SimTime::from_secs(1));
        t.suspect(n(1), 2.0);
        t.suspect(n(2), 2.0); // no entry: collected at next prune
        t.prune(SimTime::from_secs(2));
        assert_eq!(t.suspicion(n(1)), 2.0, "live suspect must be kept");
        assert_eq!(t.suspicion(n(2)), 0.0, "entry-less suspicion collected");
        // Once the entry expires the slot's suspicion goes too.
        t.prune(SimTime::from_secs(10));
        assert_eq!(t.suspicion(n(1)), 0.0);
    }

    #[test]
    fn suspicion_excludes_suspects_until_absolved() {
        let mut t = ant();
        let dst = Point::new(100.0, 0.0);
        let now = SimTime::from_secs(1);
        t.observe(n(1), Point::new(80.0, 0.0), now); // best hop
        t.observe(n(2), Point::new(50.0, 0.0), now); // runner-up
        t.suspect(n(1), 1.0);
        let got = t.next_hop_excluding(
            Point::ORIGIN,
            dst,
            now,
            SelectionStrategy::NaiveClosest,
            1.0,
        );
        assert_eq!(got, Some(n(2)), "suspect must be routed around");
        // Decay below the threshold restores the suspect.
        t.absolve(n(1), 0.5);
        let got = t.next_hop_excluding(
            Point::ORIGIN,
            dst,
            now,
            SelectionStrategy::NaiveClosest,
            1.0,
        );
        assert_eq!(got, Some(n(1)));
        // An infinite threshold reproduces plain next_hop exactly.
        t.suspect(n(1), 99.0);
        assert_eq!(
            t.next_hop_excluding(
                Point::ORIGIN,
                dst,
                now,
                SelectionStrategy::NaiveClosest,
                f64::INFINITY
            ),
            t.next_hop(Point::ORIGIN, dst, now, SelectionStrategy::NaiveClosest)
                .map(|e| e.pseudonym)
        );
    }

    #[test]
    fn suspect_nearby_taints_clustered_aliases() {
        let mut t = ant();
        let now = SimTime::from_secs(1);
        t.observe(n(1), Point::new(100.0, 0.0), now);
        t.observe(n(2), Point::new(110.0, 0.0), now); // alias 10 m away
        t.observe(n(3), Point::new(200.0, 0.0), now); // honest, far away
        t.suspect_nearby(Point::new(100.0, 0.0), 25.0, 1.0, now);
        assert!(t.suspicion(n(1)) >= 1.0);
        assert!(t.suspicion(n(2)) >= 1.0);
        assert_eq!(t.suspicion(n(3)), 0.0);
    }

    #[test]
    fn repeated_pseudonym_refreshes_entry() {
        let mut t = ant();
        t.observe(n(1), Point::new(1.0, 0.0), SimTime::from_secs(1));
        t.observe(n(1), Point::new(2.0, 0.0), SimTime::from_secs(2));
        assert_eq!(t.live_count(SimTime::from_secs(2)), 1);
        let e = t.live(SimTime::from_secs(2)).next().unwrap();
        assert_eq!(e.loc, Point::new(2.0, 0.0));
    }
}
