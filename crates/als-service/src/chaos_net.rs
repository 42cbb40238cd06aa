//! Deterministic packet-level chaos over any [`Transport`].
//!
//! `ChaosTransport` wraps a transport and injects seeded drop,
//! duplication, and reorder/delay faults on the frames flowing through
//! it. Every fault decision is drawn from a private [`SplitMix64`]
//! stream keyed to the *frame counter*, never to wall time or to how
//! often a caller happens to poll: the n-th frame sent and the n-th
//! frame arriving meet exactly the same fate in every run with the same
//! seed. That is what lets the cluster conformance suite assert
//! byte-identical traces while 5% of its packets vanish.
//!
//! Reordering is modeled as *holdback*: a reordered frame is parked and
//! later frames overtake it. A parked frame is released once enough
//! further frames have arrived (its seeded reorder distance) or at the
//! next idle receive poll — so a held frame is delayed, never lost, and
//! the delay is bounded by one poll interval once traffic pauses.
//! Duplication re-sends on the transmit side and re-delivers on the
//! receive side; request/response protocols built on uid echo (every
//! frame in this crate) absorb duplicates for free.
//!
//! **Batch passthrough.** `ChaosTransport` deliberately does *not*
//! override the [`Transport`] batch hooks ([`Transport::send_batch`],
//! [`Transport::recv_batch_with`]): their default implementations loop
//! over the per-frame [`Transport::send`] / [`Transport::recv`] paths
//! above, so a batch of N frames consumes exactly the same N
//! frame-counter-keyed fault draws as N individual calls would. Batched
//! and unbatched callers therefore see byte-identical fault schedules
//! at a fixed seed — the property `batch_send_draws_the_same_fate_as
//! _per_frame_send` pins — and the chaos suites stay valid no matter
//! which data plane the peer runs.

use crate::cluster::SplitMix64;
use crate::transport::Transport;
use std::collections::VecDeque;
use std::io;

/// Fault rates of a `ChaosTransport`. Rates are per-mille (0..=1000)
/// and applied independently per frame per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosNetConfig {
    /// Seed of the private fault stream. Two transports with the same
    /// seed and traffic make identical decisions.
    pub(crate) seed: u64,
    /// Probability (‰) that a frame silently vanishes, rolled on each
    /// send and again on each arrival.
    pub(crate) drop_permille: u16,
    /// Probability (‰) that a frame is delivered twice, rolled on each
    /// surviving send and arrival.
    pub(crate) dup_permille: u16,
    /// Probability (‰) that an arriving frame is held back so later
    /// frames overtake it.
    pub(crate) reorder_permille: u16,
    /// Most frames that may overtake a held-back frame before it is
    /// released (0 disables reordering).
    pub(crate) reorder_window: usize,
}

impl ChaosNetConfig {
    /// A transparent configuration: no faults at all.
    pub(crate) const OFF: ChaosNetConfig = ChaosNetConfig {
        seed: 0,
        drop_permille: 0,
        dup_permille: 0,
        reorder_permille: 0,
        reorder_window: 0,
    };

    /// The acceptance regime pinned by the conformance suite: 5% drop,
    /// 1% duplication, 10% reorder with a window of 4 overtakes.
    #[must_use]
    pub fn standard(seed: u64) -> ChaosNetConfig {
        ChaosNetConfig {
            seed,
            drop_permille: 50,
            dup_permille: 10,
            reorder_permille: 100,
            reorder_window: 4,
        }
    }

    /// Whether this configuration injects any fault at all.
    #[must_use]
    pub(crate) fn is_off(&self) -> bool {
        self.drop_permille == 0
            && self.dup_permille == 0
            && (self.reorder_permille == 0 || self.reorder_window == 0)
    }

    /// The same rates under a different seed — how per-peer streams are
    /// decorrelated from one base configuration.
    #[must_use]
    pub(crate) fn reseeded(&self, seed: u64) -> ChaosNetConfig {
        ChaosNetConfig { seed, ..*self }
    }
}

/// A frame parked by the reorder fault, released once `release_at`
/// arrivals have been observed (or at the next idle poll).
struct Held {
    release_at: u64,
    frame: Vec<u8>,
}

/// A [`Transport`] decorator injecting seeded drop/dup/reorder faults —
/// see the module docs for the determinism contract.
pub(crate) struct ChaosTransport<T: Transport> {
    inner: T,
    config: ChaosNetConfig,
    tx_rng: SplitMix64,
    rx_rng: SplitMix64,
    held: VecDeque<Held>,
    arrivals: u64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`. An [`ChaosNetConfig::is_off`] configuration is a
    /// pure pass-through (no RNG draws, so the fault stream of an active
    /// configuration is unperturbed by off-wrapped peers).
    #[must_use]
    pub(crate) fn new(inner: T, config: ChaosNetConfig) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            tx_rng: SplitMix64::new(config.seed ^ 0x7C5A_0115_D1A6_0001),
            rx_rng: SplitMix64::new(config.seed ^ 0x7C5A_0115_D1A6_0002),
            config,
            held: VecDeque::new(),
            arrivals: 0,
        }
    }

    /// Pops a held frame that is due (enough arrivals observed), oldest
    /// release first.
    fn pop_due(&mut self) -> Option<Vec<u8>> {
        let due = self
            .held
            .iter()
            .enumerate()
            .filter(|(_, h)| h.release_at <= self.arrivals)
            .min_by_key(|(i, h)| (h.release_at, *i))
            .map(|(i, _)| i)?;
        Some(self.held.remove(due).expect("index from enumerate").frame)
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.config.is_off() {
            return self.inner.send(frame);
        }
        // Fixed two draws per send keep the stream aligned with the
        // frame counter regardless of outcomes.
        let drop_roll = self.tx_rng.below(1000);
        let dup_roll = self.tx_rng.below(1000);
        if drop_roll < u64::from(self.config.drop_permille) {
            return Ok(());
        }
        self.inner.send(frame)?;
        if dup_roll < u64::from(self.config.dup_permille) {
            self.inner.send(frame)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        if self.config.is_off() {
            return self.inner.recv();
        }
        loop {
            if let Some(frame) = self.pop_due() {
                return Ok(frame);
            }
            let frame = match self.inner.recv() {
                Ok(frame) => frame,
                Err(e)
                    if e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::WouldBlock =>
                {
                    // Idle poll: release the oldest held frame late
                    // rather than never (a held frame is a delayed
                    // frame, not a dropped one).
                    if let Some(held) = self.held.pop_front() {
                        return Ok(held.frame);
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            };
            self.arrivals += 1;
            // Fixed three draws per arrival, same alignment rationale.
            let drop_roll = self.rx_rng.below(1000);
            let dup_roll = self.rx_rng.below(1000);
            let reorder_roll = self.rx_rng.below(1000);
            if drop_roll < u64::from(self.config.drop_permille) {
                continue;
            }
            if dup_roll < u64::from(self.config.dup_permille) {
                self.held.push_back(Held {
                    release_at: self.arrivals,
                    frame: frame.clone(),
                });
            }
            if self.config.reorder_window > 0
                && reorder_roll < u64::from(self.config.reorder_permille)
            {
                let distance = 1 + self.rx_rng.below(self.config.reorder_window as u64);
                self.held.push_back(Held {
                    release_at: self.arrivals + distance,
                    frame,
                });
                continue;
            }
            return Ok(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use crate::transport::ServerTransport;

    /// Sends `n` numbered frames through a chaos wrapper and drains
    /// everything the far side sees (plus one idle poll to flush
    /// holdbacks).
    fn deliveries(config: ChaosNetConfig, n: u32) -> Vec<Vec<u8>> {
        let (client, server) = loopback_pair(2048);
        let mut chaotic = ChaosTransport::new(client, config);
        for i in 0..n {
            chaotic.send(&i.to_be_bytes()).expect("loopback send");
        }
        // Deliver client→server unscathed; chaos here is on the client's
        // *receive* of the echoes.
        let mut server = server;
        let mut echoed = 0;
        while let Ok((frame, ())) = server.recv_from() {
            server.send_to(&(), &frame).expect("echo");
            echoed += 1;
            if echoed >= n {
                break;
            }
        }
        let mut got = Vec::new();
        while let Ok(frame) = chaotic.recv() {
            got.push(frame);
        }
        got
    }

    #[test]
    fn off_config_is_transparent() {
        let got = deliveries(ChaosNetConfig::OFF, 64);
        let want: Vec<Vec<u8>> = (0..64u32).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn same_seed_same_traffic_same_fate() {
        let config = ChaosNetConfig::standard(0xDEAD_BEEF);
        assert_eq!(deliveries(config, 256), deliveries(config, 256));
        assert_ne!(
            deliveries(config, 256),
            deliveries(config.reseeded(0xFEED_F00D), 256),
            "different seeds should fault differently"
        );
    }

    #[test]
    fn drops_thin_the_stream_and_reorders_swap_it() {
        let config = ChaosNetConfig {
            seed: 42,
            drop_permille: 200,
            dup_permille: 0,
            reorder_permille: 300,
            reorder_window: 4,
        };
        let got = deliveries(config, 512);
        assert!(
            got.len() < 512 && got.len() > 256,
            "~20% tx + ~20% rx drop expected, got {} of 512",
            got.len()
        );
        let in_order = got.windows(2).all(|w| w[0] < w[1]);
        assert!(!in_order, "reordering must actually reorder something");
    }

    #[test]
    fn duplicates_redeliver_frames() {
        let config = ChaosNetConfig {
            seed: 7,
            drop_permille: 0,
            dup_permille: 500,
            reorder_permille: 0,
            reorder_window: 0,
        };
        let got = deliveries(config, 64);
        assert!(
            got.len() > 64,
            "50% dup on both directions must redeliver, got {}",
            got.len()
        );
    }

    /// Like [`deliveries`], but the client side transmits through one
    /// [`Transport::send_batch`] call instead of per-frame sends.
    fn batch_deliveries(config: ChaosNetConfig, n: u32) -> Vec<Vec<u8>> {
        let (client, server) = loopback_pair(2048);
        let mut chaotic = ChaosTransport::new(client, config);
        let frames: Vec<Vec<u8>> = (0..n).map(|i| i.to_be_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let sent = chaotic.send_batch(&refs).expect("loopback batch send");
        assert_eq!(sent, n as usize, "loopback never rejects a frame");
        let mut server = server;
        let mut echoed = 0;
        while let Ok((frame, ())) = server.recv_from() {
            server.send_to(&(), &frame).expect("echo");
            echoed += 1;
            if echoed >= n {
                break;
            }
        }
        let mut got = Vec::new();
        let mut drained = 0;
        while drained < n as usize + 8 {
            match chaotic.recv_batch_with(16, &mut |frame| got.push(frame.to_vec())) {
                Ok(0) | Err(_) => break,
                Ok(k) => drained += k,
            }
        }
        got
    }

    #[test]
    fn batch_send_draws_the_same_fate_as_per_frame_send() {
        // The batch hooks fall through to the per-frame chaos paths, so
        // a batched run and an unbatched run at the same seed must see
        // the exact same surviving frames in the exact same order.
        let config = ChaosNetConfig::standard(0x0BAD_CAFE);
        assert_eq!(batch_deliveries(config, 256), deliveries(config, 256));
    }

    #[test]
    fn holdback_releases_on_idle_poll_never_loses() {
        // Reorder every frame: with no follow-up traffic, each frame
        // must still come out via the idle-poll release path.
        let config = ChaosNetConfig {
            seed: 3,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 1000,
            reorder_window: 8,
        };
        let mut got = deliveries(config, 32);
        got.sort();
        let want: Vec<Vec<u8>> = (0..32u32).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(got, want, "held frames are delayed, never dropped");
    }
}
