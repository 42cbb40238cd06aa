//! Deterministic fault injection.
//!
//! The paper's reliability argument (§3.2) is that replacing MAC-layer
//! unicast with anonymous local broadcast loses 802.11 ACKs, and that the
//! network-layer ACK + retransmission scheme restores delivery under
//! loss. A perfect channel never stresses that machinery, so this module
//! supplies the imperfections as *scheduled, seeded state machines*:
//!
//! * **Per-link packet loss** ([`LossModel`]): a uniform Bernoulli eraser
//!   or a two-state Gilbert–Elliott burst channel ([`GilbertElliott`]),
//!   evaluated independently per *directed* link `(tx → rx)`. Loss is
//!   applied to frames that would otherwise decode; the carrier is still
//!   sensed, modelling bit errors rather than vanishing energy.
//! * **Node churn** ([`ChurnEvent`]): scheduled radio outages. A down
//!   node neither transmits into the channel nor senses it; its protocol
//!   state survives (a radio crash, not an amnesia crash), so recovery
//!   exercises route healing over stale neighbor tables.
//!
//! # Determinism
//!
//! Every random decision is drawn from a dedicated per-node fault RNG,
//! split off the master seed in node order at world construction — the
//! same construction the per-node mobility RNGs use. Event processing is
//! single-threaded and time-ordered with FIFO tie-breaks, so the draw
//! sequence, and therefore every drop, is a pure function of
//! `(seed, FaultPlan)`. Sweep workers (`AGR_JOBS`) parallelise whole
//! runs, never the inside of one, so identical seeds reproduce identical
//! statistics at any worker count. A [`FaultPlan::none`] plan draws
//! nothing and schedules nothing: fault-free runs are bit-identical to
//! runs of a build without this module.

use crate::time::SimTime;
use crate::NodeId;
use rand::Rng;

/// Two-state Gilbert–Elliott burst-loss channel parameters.
///
/// The channel is a Markov chain over `{Good, Bad}`; each packet first
/// draws a loss decision from the current state's loss probability, then
/// draws the state transition. The stationary distribution puts
/// `p / (p + q)` mass on `Bad` (with `p = p_good_to_bad`,
/// `q = p_bad_to_good`), giving the analytic mean loss rate of
/// [`GilbertElliott::steady_state_loss`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of leaving `Good` for `Bad`.
    pub(crate) p_good_to_bad: f64,
    /// Per-packet probability of leaving `Bad` for `Good`.
    pub(crate) p_bad_to_good: f64,
    /// Loss probability while in `Good` (classic Gilbert: 0).
    pub(crate) loss_good: f64,
    /// Loss probability while in `Bad` (classic Gilbert: 1).
    pub(crate) loss_bad: f64,
}

impl GilbertElliott {
    /// The classic Gilbert channel: `Good` never drops, `Bad` always
    /// drops, so the mean loss rate is exactly `p / (p + q)`.
    #[must_use]
    pub fn gilbert(p_good_to_bad: f64, p_bad_to_good: f64) -> Self {
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Analytic steady-state loss rate:
    /// `π_bad · loss_bad + π_good · loss_good` with
    /// `π_bad = p / (p + q)`.
    #[must_use]
    pub fn steady_state_loss(&self) -> f64 {
        let p = self.p_good_to_bad;
        let q = self.p_bad_to_good;
        if p + q == 0.0 {
            // A frozen chain stays in its initial (Good) state forever.
            return self.loss_good;
        }
        let pi_bad = p / (p + q);
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// Per-link packet-loss model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// Perfect channel (the pre-fault behaviour).
    #[default]
    None,
    /// Independent Bernoulli loss: every frame is erased with
    /// probability `p`.
    Uniform {
        /// Per-frame loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss, one chain per directed link.
    GilbertElliott(GilbertElliott),
}

impl LossModel {
    /// True if this model can never drop a frame.
    #[must_use]
    pub(crate) fn is_none(&self) -> bool {
        match self {
            LossModel::None => true,
            LossModel::Uniform { p } => *p <= 0.0,
            LossModel::GilbertElliott(ge) => ge.loss_good <= 0.0 && ge.loss_bad <= 0.0,
        }
    }

    /// Counter name under which drops from this model are recorded.
    #[must_use]
    pub(crate) fn drop_counter(&self) -> &'static str {
        match self {
            LossModel::None | LossModel::Uniform { .. } => "fault.drop.uniform",
            LossModel::GilbertElliott(_) => "fault.drop.burst",
        }
    }
}

/// The state of one directed link's loss channel.
///
/// Exposed so property tests can drive the chain directly; the simulator
/// creates one lazily per `(tx → rx)` pair at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkChannel {
    /// True while a Gilbert–Elliott chain sits in its `Bad` state.
    bad: bool,
}

impl LinkChannel {
    /// Passes one frame through the channel; returns true if the frame
    /// is dropped.
    ///
    /// The draw count per call is fixed per model (uniform: 1,
    /// Gilbert–Elliott: 2) regardless of the outcome, so the RNG stream
    /// stays aligned whatever the loss pattern.
    pub fn transmit<R: Rng + ?Sized>(&mut self, model: &LossModel, rng: &mut R) -> bool {
        match model {
            LossModel::None => false,
            LossModel::Uniform { p } => rng.random::<f64>() < *p,
            LossModel::GilbertElliott(ge) => {
                let loss_p = if self.bad { ge.loss_bad } else { ge.loss_good };
                let dropped = rng.random::<f64>() < loss_p;
                let flip_p = if self.bad {
                    ge.p_bad_to_good
                } else {
                    ge.p_good_to_bad
                };
                if rng.random::<f64>() < flip_p {
                    self.bad = !self.bad;
                }
                dropped
            }
        }
    }
}

/// One scheduled radio outage: `node` goes down at `down` and recovers
/// at `up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The node whose radio fails.
    pub node: NodeId,
    /// Outage start.
    pub down: SimTime,
    /// Recovery time (must be after `down`).
    pub up: SimTime,
}

/// A complete, seeded fault schedule for one run.
///
/// The default plan injects nothing and leaves the simulation
/// bit-identical to the pre-fault engine (no extra RNG draws, no extra
/// events).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-link loss model.
    pub(crate) loss: LossModel,
    /// Scheduled radio outages.
    pub churn: Vec<ChurnEvent>,
}

impl FaultPlan {
    /// The no-fault plan (perfect channel, no churn).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Uniform Bernoulli loss at rate `p` on every link.
    #[must_use]
    pub fn uniform_loss(p: f64) -> Self {
        FaultPlan {
            loss: LossModel::Uniform { p },
            ..FaultPlan::default()
        }
    }

    /// Classic Gilbert burst loss (`Good` lossless, `Bad` fully lossy).
    #[must_use]
    pub fn burst_loss(p_good_to_bad: f64, p_bad_to_good: f64) -> Self {
        FaultPlan {
            loss: LossModel::GilbertElliott(GilbertElliott::gilbert(p_good_to_bad, p_bad_to_good)),
            ..FaultPlan::default()
        }
    }

    /// True if the plan injects nothing; such plans cost no RNG draws
    /// and schedule no events.
    #[must_use]
    pub(crate) fn is_none(&self) -> bool {
        self.loss.is_none() && self.churn.is_empty()
    }

    /// Adds a scheduled outage.
    ///
    /// # Panics
    ///
    /// Panics if `up <= down`.
    #[must_use]
    pub fn with_churn(mut self, node: NodeId, down: SimTime, up: SimTime) -> Self {
        assert!(up > down, "churn recovery must follow the outage");
        self.churn.push(ChurnEvent { node, down, up });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_plan_is_none() {
        assert!(FaultPlan::default().is_none());
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::uniform_loss(0.0).is_none());
        assert!(!FaultPlan::uniform_loss(0.1).is_none());
        assert!(!FaultPlan::burst_loss(0.1, 0.4).is_none());
        let churned =
            FaultPlan::none().with_churn(NodeId(3), SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!churned.is_none());
    }

    #[test]
    #[should_panic(expected = "recovery must follow")]
    fn churn_with_inverted_window_rejected() {
        let _ =
            FaultPlan::none().with_churn(NodeId(0), SimTime::from_secs(5), SimTime::from_secs(5));
    }

    #[test]
    fn gilbert_steady_state_formula() {
        let ge = GilbertElliott::gilbert(0.1, 0.3);
        assert!((ge.steady_state_loss() - 0.25).abs() < 1e-12);
        // Frozen chain: stays Good forever.
        let frozen = GilbertElliott::gilbert(0.0, 0.0);
        assert_eq!(frozen.steady_state_loss(), 0.0);
        // General (loss-probability) variant.
        let soft = GilbertElliott {
            p_good_to_bad: 0.2,
            p_bad_to_good: 0.2,
            loss_good: 0.1,
            loss_bad: 0.5,
        };
        assert!((soft.steady_state_loss() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn uniform_channel_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ch = LinkChannel::default();
        for _ in 0..100 {
            assert!(!ch.transmit(&LossModel::Uniform { p: 0.0 }, &mut rng));
            assert!(ch.transmit(&LossModel::Uniform { p: 1.0 }, &mut rng));
            assert!(!ch.transmit(&LossModel::None, &mut rng));
        }
    }

    #[test]
    fn gilbert_bursts_are_contiguous() {
        // With loss_good = 0 and loss_bad = 1, the drop sequence must be
        // exactly the state sequence (shifted by the initial Good state).
        let model = LossModel::GilbertElliott(GilbertElliott::gilbert(0.3, 0.3));
        let mut rng = StdRng::seed_from_u64(42);
        let mut ch = LinkChannel::default();
        assert!(!ch.bad, "chains start Good");
        for _ in 0..10_000 {
            let was_bad = ch.bad;
            let dropped = ch.transmit(&model, &mut rng);
            assert_eq!(dropped, was_bad, "drop decision must reflect the state");
        }
    }

    #[test]
    fn same_seed_same_drop_sequence() {
        let model = LossModel::GilbertElliott(GilbertElliott::gilbert(0.2, 0.4));
        let run = |seed: u64| -> Vec<bool> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ch = LinkChannel::default();
            (0..1000).map(|_| ch.transmit(&model, &mut rng)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn drop_counter_names() {
        assert_eq!(
            LossModel::Uniform { p: 0.1 }.drop_counter(),
            "fault.drop.uniform"
        );
        assert_eq!(
            LossModel::GilbertElliott(GilbertElliott::gilbert(0.1, 0.2)).drop_counter(),
            "fault.drop.burst"
        );
    }
}
