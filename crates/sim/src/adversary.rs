//! Deterministic adversarial node injection.
//!
//! `fault` models a hostile *environment*; this module models hostile
//! *participants*. The paper's threat model (§2) assumes passive
//! eavesdroppers, but the very mechanisms that buy anonymity —
//! unlinkable per-beacon pseudonyms and identity-free local broadcast —
//! make AGFW unusually attractive to an active insider: a node can
//! agree to relay and then drop silently without ever being named. An
//! [`AdversaryPlan`] converts chosen nodes into one of two such
//! insiders:
//!
//! * **Blackhole** ([`AdversaryRole::Blackhole`]): accepts a committed
//!   hop, sends the network-layer ACK, and silently discards the data.
//!   The most damaging role, because the honest sender believes the hop
//!   succeeded.
//! * **Grayhole** ([`AdversaryRole::Grayhole`]): a probabilistic
//!   blackhole that drops each accepted packet with probability
//!   `p_drop`, making misbehaviour intermittent and harder to pin.
//!
//! # Determinism
//!
//! Every probabilistic adversary decision (only the grayhole draws) is
//! taken from a dedicated per-node adversary RNG family, split off the
//! master seed in node order at world construction, *after* the fault
//! family — the identical discipline `fault` uses. The plan itself is
//! explicit data; [`AdversaryMix::resolve`] derives membership from a
//! seed with its own throwaway RNG, never the simulation stream. A
//! [`AdversaryPlan::none`] plan allocates no RNGs and draws nothing:
//! adversary-free runs are byte-identical to runs of a build without
//! this module, and adversarial runs are bit-identical at any
//! `AGR_JOBS` worker count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NodeId;

/// Behaviour assigned to a compromised node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryRole {
    /// Accept + ACK + drop: relay commitments are honoured on the wire
    /// (the hop is acknowledged) but the data never leaves the node.
    Blackhole,
    /// Probabilistic blackhole: each accepted packet is dropped with
    /// probability `p_drop` (one RNG draw per decision).
    Grayhole {
        /// Per-packet drop probability in `[0, 1]`.
        p_drop: f64,
    },
}

/// Explicit, seed-independent assignment of roles to nodes.
///
/// Like [`crate::fault::FaultPlan`], the plan is plain data: *which*
/// nodes misbehave is part of the scenario, not the simulation RNG
/// stream. Use [`AdversaryMix::resolve`] to sample membership from a
/// seed when sweeping attacker fractions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdversaryPlan {
    /// `(node, role)` pairs; at most one role per node.
    pub roles: Vec<(NodeId, AdversaryRole)>,
}

impl AdversaryPlan {
    /// The empty plan: every node is honest.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no node carries a role (no RNGs will be allocated).
    #[must_use]
    pub(crate) fn is_none(&self) -> bool {
        self.roles.is_empty()
    }

    /// Assign `role` to `node`.
    ///
    /// # Panics
    /// Panics if `node` already carries a role — a node cannot be two
    /// adversaries at once.
    #[must_use]
    pub fn with_role(mut self, node: NodeId, role: AdversaryRole) -> Self {
        assert!(
            self.roles.iter().all(|(n, _)| *n != node),
            "node {node:?} already carries an adversary role"
        );
        self.roles.push((node, role));
        self
    }
}

/// A density-independent adversary template: "this `fraction` of the
/// population plays `role`". Resolved into a concrete [`AdversaryPlan`]
/// per run so sweeps over node counts and seeds stay comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryMix {
    /// Role assigned to every sampled node.
    pub(crate) role: AdversaryRole,
    /// Fraction of the population compromised, in `[0, 1]`.
    pub(crate) fraction: f64,
}

/// Domain-separation constant mixed into the membership seed so the
/// sampler never collides with any simulation RNG family.
const MEMBERSHIP_SALT: u64 = 0xad5e_a17e_5eed_c0de;

impl AdversaryMix {
    /// A blackhole population at the given fraction.
    #[must_use]
    pub fn blackholes(fraction: f64) -> Self {
        Self {
            role: AdversaryRole::Blackhole,
            fraction,
        }
    }

    /// Sample `round(fraction * num_nodes)` distinct nodes with a
    /// throwaway RNG derived from `seed`, assigning each the mix role.
    /// The draw is a pure function of `(self, num_nodes, seed)` and
    /// never touches the simulation streams.
    #[must_use]
    pub fn resolve(&self, num_nodes: usize, seed: u64) -> AdversaryPlan {
        let want = (self.fraction * num_nodes as f64).round() as usize;
        let count = want.min(num_nodes);
        if count == 0 {
            return AdversaryPlan::none();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ MEMBERSHIP_SALT);
        // Partial Fisher–Yates: the first `count` slots end up holding a
        // uniform sample without replacement.
        let mut ids: Vec<u32> = (0..num_nodes as u32).collect();
        for i in 0..count {
            let j = rng.random_range(i..num_nodes);
            ids.swap(i, j);
        }
        let mut chosen = ids[..count].to_vec();
        chosen.sort_unstable();
        AdversaryPlan {
            roles: chosen
                .into_iter()
                .map(|id| (NodeId(id), self.role))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(AdversaryPlan::none().is_none());
        assert!(!AdversaryPlan::none()
            .with_role(NodeId(3), AdversaryRole::Blackhole)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "already carries an adversary role")]
    fn duplicate_assignment_rejected() {
        let _ = AdversaryPlan::none()
            .with_role(NodeId(1), AdversaryRole::Blackhole)
            .with_role(NodeId(1), AdversaryRole::Blackhole);
    }

    #[test]
    fn resolve_samples_exact_count_without_replacement() {
        let plan = AdversaryMix::blackholes(0.2).resolve(50, 123);
        assert_eq!(plan.roles.len(), 10);
        let mut ids: Vec<u32> = plan.roles.iter().map(|(n, _)| n.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 10, "membership must be without replacement");
        assert!(ids.iter().all(|&id| id < 50));
    }

    #[test]
    fn resolve_is_a_pure_function_of_seed() {
        let mix = AdversaryMix::blackholes(0.3);
        assert_eq!(mix.resolve(40, 7), mix.resolve(40, 7));
        assert_ne!(
            mix.resolve(40, 7),
            mix.resolve(40, 8),
            "different seeds must draw different memberships"
        );
    }

    #[test]
    fn zero_fraction_resolves_to_none() {
        assert!(AdversaryMix::blackholes(0.0).resolve(50, 1).is_none());
        assert!(AdversaryMix::blackholes(0.004).resolve(50, 1).is_none());
    }

    #[test]
    fn full_fraction_compromises_everyone() {
        let plan = AdversaryMix::blackholes(1.0).resolve(8, 5);
        assert_eq!(plan.roles.len(), 8);
        let ids: Vec<u32> = plan.roles.iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }
}
