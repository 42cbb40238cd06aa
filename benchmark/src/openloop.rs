//! The open-loop request scheduler, as a pure state machine.
//!
//! Independent users do not wait for each other, so the paced workload
//! sends on a fixed schedule whatever the server does. Request `i` is
//! *due* at `i / rate` after the window starts; its latency is timed
//! from that due time, not from when it actually left, so a stall that
//! delays later requests is charged to them (no coordinated omission).
//! How late the generator itself ran is recorded separately.
//!
//! The scheduler never reads a clock: every method takes `now_ns`, which
//! is what lets the unit tests drive it with a fake one.

use std::collections::{HashMap, VecDeque};

/// Pacing and loss policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopConfig {
    /// Requests per second.
    pub rate_per_s: u64,
    /// Most datagrams (first sends and re-sends together) one turn may
    /// emit, so catching up after a stall cannot overrun socket buffers.
    pub burst: usize,
    /// An unanswered request is sent again this long after its last send.
    pub resend_after_ns: u64,
    /// Re-sends before an unanswered request counts as failed.
    pub max_resends: u32,
    /// Most requests awaiting an answer at once. While that many are
    /// outstanding no new request is released (it waits, and its wait
    /// is charged to its latency, which runs from the due time). Without
    /// this, catching up after the host froze for half a second floods
    /// the server's socket buffer, and requests are lost four times over.
    pub max_inflight: usize,
}

/// One datagram the caller must put on the wire this turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    /// Index of the request in the window's schedule.
    pub index: u64,
    /// 0 for the first send, then 1, 2, …
    pub attempt: u32,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    due_ns: u64,
    attempt: u32,
}

/// The scheduler for one measurement window.
#[derive(Debug)]
pub struct OpenLoop {
    config: OpenLoopConfig,
    start_ns: u64,
    total: u64,
    next: u64,
    inflight: HashMap<u64, Pending>,
    /// `(deadline, index, attempt)` in send order; deadlines are
    /// monotone because every send waits the same `resend_after_ns`.
    timeouts: VecDeque<(u64, u64, u32)>,
    /// How late each first send left, relative to its due time.
    pub late_ns: Vec<u64>,
    pub resends: u64,
    pub failed: u64,
}

impl OpenLoop {
    /// A window of `total` requests whose first is due at `start_ns`.
    pub fn new(config: OpenLoopConfig, start_ns: u64, total: u64) -> OpenLoop {
        assert!(config.rate_per_s > 0 && config.burst > 0);
        OpenLoop {
            config,
            start_ns,
            total,
            next: 0,
            inflight: HashMap::new(),
            timeouts: VecDeque::new(),
            late_ns: Vec::with_capacity(usize::try_from(total).unwrap_or(0)),
            resends: 0,
            failed: 0,
        }
    }

    /// When request `index` is due. Computed from the index, never by
    /// accumulating an interval, so rounding cannot drift the schedule.
    pub fn due_ns(&self, index: u64) -> u64 {
        let offset = u128::from(index) * 1_000_000_000 / u128::from(self.config.rate_per_s);
        self.start_ns + u64::try_from(offset).expect("windows are seconds long")
    }

    /// One loop turn at `now_ns`: expires or re-sends timed-out
    /// requests, then releases every request that has come due, at most
    /// `burst` datagrams in all. Appends what to send to `out`.
    pub fn turn(&mut self, now_ns: u64, out: &mut Vec<Send>) {
        let mut budget = self.config.burst;
        while budget > 0 {
            let Some(&(deadline, index, attempt)) = self.timeouts.front() else {
                break;
            };
            if deadline > now_ns {
                break;
            }
            self.timeouts.pop_front();
            // A stale entry: the request was answered, or re-sent since.
            let Some(pending) = self.inflight.get_mut(&index) else {
                continue;
            };
            if pending.attempt != attempt {
                continue;
            }
            if attempt == self.config.max_resends {
                self.inflight.remove(&index);
                self.failed += 1;
                continue;
            }
            pending.attempt += 1;
            self.resends += 1;
            self.timeouts
                .push_back((now_ns + self.config.resend_after_ns, index, attempt + 1));
            out.push(Send {
                index,
                attempt: attempt + 1,
            });
            budget -= 1;
        }
        while budget > 0 && self.next < self.total && self.inflight.len() < self.config.max_inflight
        {
            let due_ns = self.due_ns(self.next);
            if due_ns > now_ns {
                break;
            }
            let index = self.next;
            self.next += 1;
            self.late_ns.push(now_ns - due_ns);
            self.inflight.insert(index, Pending { due_ns, attempt: 0 });
            self.timeouts
                .push_back((now_ns + self.config.resend_after_ns, index, 0));
            out.push(Send { index, attempt: 0 });
            budget -= 1;
        }
    }

    /// A reply for request `index` arrived at `now_ns`. Returns its
    /// latency from the *due* time and whether it had been re-sent, or
    /// `None` for a duplicate or an already-failed request.
    pub fn on_reply(&mut self, index: u64, now_ns: u64) -> Option<(u64, bool)> {
        let pending = self.inflight.remove(&index)?;
        Some((now_ns.saturating_sub(pending.due_ns), pending.attempt > 0))
    }

    /// Every request was released and is answered or failed.
    pub fn finished(&self) -> bool {
        self.next == self.total && self.inflight.is_empty()
    }

    /// Requests released so far.
    #[cfg(test)]
    pub fn released(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;

    fn config() -> OpenLoopConfig {
        OpenLoopConfig {
            rate_per_s: 20_000, // one request every 50 µs
            burst: 32,
            resend_after_ns: 50 * MS,
            max_resends: 3,
            max_inflight: 256,
        }
    }

    fn turn(sched: &mut OpenLoop, now_ns: u64) -> Vec<Send> {
        let mut out = Vec::new();
        sched.turn(now_ns, &mut out);
        out
    }

    fn first(index: u64) -> Send {
        Send { index, attempt: 0 }
    }

    #[test]
    fn requests_leave_at_their_due_times() {
        let mut s = OpenLoop::new(config(), 1_000, 1_000);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 1_000 + 50 * US);
        assert_eq!(s.due_ns(20_000), 1_000 + 1_000 * MS);
        assert!(turn(&mut s, 999).is_empty(), "nothing is due before start");
        assert_eq!(turn(&mut s, 1_000), vec![first(0)]);
        assert!(turn(&mut s, 1_000 + 49 * US).is_empty());
        assert_eq!(turn(&mut s, 1_000 + 50 * US), vec![first(1)]);
    }

    #[test]
    fn lateness_and_latency_are_measured_from_the_due_time() {
        let mut s = OpenLoop::new(config(), 0, 10);
        // The generator wakes 120 µs in: requests 0, 1, 2 are due.
        assert_eq!(turn(&mut s, 120 * US), vec![first(0), first(1), first(2)]);
        assert_eq!(s.late_ns, vec![120 * US, 70 * US, 20 * US]);
        // A reply 30 µs later is charged the generator's lateness too.
        assert_eq!(s.on_reply(1, 150 * US), Some((100 * US, false)));
        assert_eq!(s.on_reply(1, 151 * US), None, "duplicates are ignored");
    }

    #[test]
    fn a_stall_is_caught_up_in_bursts_of_at_most_32() {
        let mut s = OpenLoop::new(config(), 0, 1_000);
        // 10 ms stall: 201 requests are due, but one turn sends 32.
        let sends = turn(&mut s, 10 * MS);
        assert_eq!(sends.len(), 32);
        assert_eq!(sends[31], first(31));
        assert_eq!(turn(&mut s, 10 * MS).len(), 32);
        assert_eq!(s.released(), 64);
        // Request 63 was due at 3.15 ms and left at 10 ms.
        assert_eq!(s.late_ns[63], 10 * MS - 63 * 50 * US);
    }

    #[test]
    fn an_unanswered_request_is_resent_three_times_then_failed() {
        let mut s = OpenLoop::new(config(), 0, 1);
        assert_eq!(turn(&mut s, 0), vec![first(0)]);
        assert!(turn(&mut s, 50 * MS - 1).is_empty());
        for attempt in 1..=3 {
            let at = u64::from(attempt) * 50 * MS;
            assert_eq!(turn(&mut s, at), vec![Send { index: 0, attempt }]);
        }
        assert_eq!((s.resends, s.failed), (3, 0));
        assert!(!s.finished());
        assert!(turn(&mut s, 200 * MS).is_empty());
        assert_eq!((s.resends, s.failed), (3, 1));
        assert!(s.finished());
        assert_eq!(
            s.on_reply(0, 201 * MS),
            None,
            "a failed request stays failed"
        );
    }

    #[test]
    fn a_reply_cancels_the_resend_and_reports_it_was_resent() {
        let mut s = OpenLoop::new(config(), 0, 2);
        assert_eq!(turn(&mut s, 50 * US), vec![first(0), first(1)]);
        assert_eq!(s.on_reply(0, 90 * US), Some((90 * US, false)));
        // Only request 1 times out.
        assert_eq!(
            turn(&mut s, 50 * MS + 50 * US),
            vec![Send {
                index: 1,
                attempt: 1
            }]
        );
        let (latency, resent) = s.on_reply(1, 51 * MS).expect("answered");
        assert_eq!((latency, resent), (51 * MS - 50 * US, true));
        assert!(s.finished());
        assert!(
            turn(&mut s, 500 * MS).is_empty(),
            "stale timeouts are dropped"
        );
        assert_eq!((s.resends, s.failed), (1, 0));
    }

    #[test]
    fn releases_stop_while_the_in_flight_cap_is_reached() {
        let mut s = OpenLoop::new(
            OpenLoopConfig {
                max_inflight: 3,
                ..config()
            },
            0,
            100,
        );
        // Ten are due; only three may be outstanding.
        assert_eq!(turn(&mut s, 500 * US), vec![first(0), first(1), first(2)]);
        assert!(turn(&mut s, 600 * US).is_empty());
        // An answer frees a slot; request 3 leaves 550 µs late, and that
        // wait is part of its latency.
        assert!(s.on_reply(1, 650 * US).is_some());
        assert_eq!(turn(&mut s, 700 * US), vec![first(3)]);
        assert_eq!(s.late_ns[3], 700 * US - 150 * US);
        assert_eq!(s.on_reply(3, 720 * US), Some((720 * US - 150 * US, false)));
    }

    #[test]
    fn resends_share_the_burst_budget_with_first_sends() {
        let mut s = OpenLoop::new(
            OpenLoopConfig {
                burst: 4,
                ..config()
            },
            0,
            100,
        );
        assert_eq!(turn(&mut s, 150 * US).len(), 4); // 0..=3 due, cap 4
                                                     // 50 ms later all four time out and ~1000 more are due: the
                                                     // turn still emits 4 datagrams, re-sends first.
        let sends = turn(&mut s, 50 * MS + 150 * US);
        assert_eq!(sends.len(), 4);
        assert!(sends.iter().all(|send| send.attempt == 1));
        assert_eq!(turn(&mut s, 50 * MS + 150 * US)[0], first(4));
    }
}
