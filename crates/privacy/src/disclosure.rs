//! What each packet type discloses on the air.
//!
//! The paper's privacy claim (§2, §4) is a statement about frames: every
//! GPSR beacon and data header pairs a cleartext identity with a
//! location, while no AGFW frame does — AGFW leaves only pseudonyms and
//! locations observable. [`Discloses`] states this once per packet type,
//! as one exhaustive `match` per protocol, so a new packet variant does
//! not compile until its leak is declared. Every eavesdropper in the tree
//! reads a payload through this trait and nothing else.

use agr_core::{AgfwPacket, Pseudonym};
use agr_geom::Point;
use agr_gpsr::GpsrPacket;
use agr_sim::NodeId;

/// What one payload hands an eavesdropper who hears it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disclosure {
    /// The cleartext identity the payload pairs with a location: a §2
    /// identity–location doublet.
    pub identity: Option<NodeId>,
    /// The position the payload advertises for its transmitter, as a
    /// beacon or hello does; the tracker takes it as a sighting.
    pub advertised: Option<Point>,
    /// True if the payload discloses a location beside a pseudonym and no
    /// identity: what AGFW deliberately leaves observable.
    pub pseudonymous: bool,
    /// The pseudonym the transmitter announces for itself.
    pub pseudonym: Option<Pseudonym>,
    /// The packet kind, as the viz stream labels it.
    pub kind: &'static str,
}

/// A packet type whose on-air disclosure is declared.
pub trait Discloses {
    /// What this payload discloses to an eavesdropper.
    fn disclosure(&self) -> Disclosure;
}

impl Discloses for GpsrPacket {
    fn disclosure(&self) -> Disclosure {
        match self {
            GpsrPacket::Beacon { id, pos } => Disclosure {
                identity: Some(*id),
                advertised: Some(*pos),
                pseudonymous: false,
                pseudonym: None,
                kind: "beacon",
            },
            // The header pairs the destination's identity with its
            // location.
            GpsrPacket::Data(header) => Disclosure {
                identity: Some(header.dst),
                advertised: None,
                pseudonymous: false,
                pseudonym: None,
                kind: "data",
            },
        }
    }
}

impl Discloses for AgfwPacket {
    fn disclosure(&self) -> Disclosure {
        match self {
            // A ring signature names a ring, not its signer. Every field
            // is named, so a new one has to be accounted for here.
            AgfwPacket::Hello {
                n,
                loc,
                ts: _,
                auth: _,
            } => Disclosure {
                identity: None,
                advertised: Some(*loc),
                pseudonymous: true,
                pseudonym: Some(*n),
                kind: "hello",
            },
            // The destination's location and the next hop's pseudonym;
            // nothing names or announces the sender.
            AgfwPacket::Data(_) => Disclosure {
                identity: None,
                advertised: None,
                pseudonymous: true,
                pseudonym: None,
                kind: "data",
            },
            AgfwPacket::NlAck { .. } => Disclosure {
                identity: None,
                advertised: None,
                pseudonymous: false,
                pseudonym: None,
                kind: "nl_ack",
            },
            AgfwPacket::Als(_) => Disclosure {
                identity: None,
                advertised: None,
                pseudonymous: false,
                pseudonym: None,
                kind: "als",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_core::packet::{AckRef, AlsNetKind, AlsNetMessage, HelloAuth};
    use agr_core::{AgfwData, TrapdoorWire};
    use agr_crypto::ring_sig::ring_sign;
    use agr_crypto::rsa::RsaKeyPair;
    use agr_gpsr::{Gpsr, GpsrConfig};
    use agr_sim::{FlowConfig, FlowTag, RecordingObserver, SimConfig, SimTime, World};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A GPSR data packet from node 0 to node 1, as a two-node run puts
    /// it on the air (its header fields are private to `agr-gpsr`).
    fn gpsr_data_on_air() -> GpsrPacket {
        let positions = vec![Point::ORIGIN, Point::new(100.0, 0.0)];
        let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(4));
        sim.flows = vec![FlowConfig {
            src: NodeId(0),
            dst: NodeId(1),
            start: SimTime::from_secs(2),
            interval: SimTime::from_secs(1),
            payload_bytes: 64,
            stop: SimTime::from_secs(3),
        }];
        let mut world = World::new(sim, |_, _, rng| Gpsr::new(GpsrConfig::greedy_only(), rng));
        let trace = Rc::new(RefCell::new(RecordingObserver::new()));
        world.attach_observer(Box::new(Rc::clone(&trace)));
        let _ = world.run();
        let trace = trace.borrow();
        trace
            .frames()
            .iter()
            .find_map(|f| match f.packet.as_deref() {
                Some(p @ GpsrPacket::Data(_)) => Some(p.clone()),
                _ => None,
            })
            .expect("a data frame went on the air")
    }

    fn hello(auth: Option<HelloAuth>) -> AgfwPacket {
        AgfwPacket::Hello {
            n: Pseudonym([1; 6]),
            loc: Point::new(3.0, 4.0),
            ts: SimTime::ZERO,
            auth,
        }
    }

    fn ring_signed() -> HelloAuth {
        let mut rng = StdRng::seed_from_u64(11);
        let signer = RsaKeyPair::generate(128, &mut rng).unwrap();
        let other = RsaKeyPair::generate(128, &mut rng).unwrap();
        let ring = vec![signer.public().clone(), other.public().clone()];
        HelloAuth {
            ring_ids: vec![1, 2],
            signature: ring_sign(b"hello", &ring, 0, &signer, &mut rng).unwrap(),
        }
    }

    fn agfw_data() -> AgfwPacket {
        AgfwPacket::Data(AgfwData {
            dst_loc: Point::new(500.0, 100.0),
            next: Pseudonym([2; 6]),
            trapdoor: TrapdoorWire::Modeled {
                dest: NodeId(9),
                nonce: 7,
            },
            uid: 1,
            ttl: 64,
            payload_bytes: 64,
            tag: FlowTag {
                flow: 0,
                seq: 0,
                src: NodeId(3),
                sent_at: SimTime::ZERO,
            },
        })
    }

    fn declared(
        identity: Option<u32>,
        advertised: Option<Point>,
        pseudonymous: bool,
        pseudonym: Option<Pseudonym>,
        kind: &'static str,
    ) -> Disclosure {
        Disclosure {
            identity: identity.map(NodeId),
            advertised,
            pseudonymous,
            pseudonym,
            kind,
        }
    }

    /// Every packet variant of both protocols, with what it discloses.
    #[test]
    fn every_variant_declares_its_disclosure() {
        let at = Point::new(3.0, 4.0);
        let cases = [
            (
                "gpsr beacon",
                GpsrPacket::Beacon {
                    id: NodeId(5),
                    pos: at,
                }
                .disclosure(),
                declared(Some(5), Some(at), false, None, "beacon"),
            ),
            (
                "gpsr data",
                gpsr_data_on_air().disclosure(),
                declared(Some(1), None, false, None, "data"),
            ),
            (
                "agfw hello",
                hello(None).disclosure(),
                declared(None, Some(at), true, Some(Pseudonym([1; 6])), "hello"),
            ),
            (
                "agfw hello, AANT ring-signed",
                hello(Some(ring_signed())).disclosure(),
                declared(None, Some(at), true, Some(Pseudonym([1; 6])), "hello"),
            ),
            (
                "agfw data",
                agfw_data().disclosure(),
                declared(None, None, true, None, "data"),
            ),
            (
                "agfw nl_ack",
                AgfwPacket::NlAck {
                    ack: AckRef {
                        uid: 1,
                        to: Pseudonym([2; 6]),
                    },
                }
                .disclosure(),
                declared(None, None, false, None, "nl_ack"),
            ),
            (
                "agfw als",
                AgfwPacket::Als(AlsNetMessage {
                    target_loc: at,
                    next: Pseudonym([2; 6]),
                    uid: 1,
                    ttl: 64,
                    kind: AlsNetKind::Reply {
                        payload: vec![0; 16],
                    },
                })
                .disclosure(),
                declared(None, None, false, None, "als"),
            ),
        ];
        for (name, got, want) in cases {
            assert_eq!(got, want, "{name}");
        }
    }
}
