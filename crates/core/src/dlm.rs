//! DLM — the grid location service ALS is layered on (§3.3).
//!
//! Xue et al.'s Distributed Location Management divides the deployment
//! area into equal grid cells; hashing a node identity names the cell
//! hosting its location servers ("node identity and a certain set of
//! special grids have established a fixed association of location
//! service, which is publicly known"). Updates and requests are
//! geo-routed to the cell; whichever node is currently inside answers.
//!
//! This module provides the *plain* (non-anonymous) DLM that the paper
//! takes as its starting point — and whose update/request messages expose
//! every party's identity–location doublet, quantified by the `agr-bench`
//! T-als table against [`crate::als`].

use agr_crypto::Sha256;
use agr_geom::{CellId, Grid, Point, Rect};
use agr_sim::SimTime;
use std::collections::BTreeMap;

/// The public identity → server-cell mapping (`ssa` in Algorithm 3.3).
#[derive(Debug, Clone, Copy)]
pub struct ServerSelection {
    grid: Grid,
}

impl ServerSelection {
    /// Builds the mapping over `area` with square cells of `cell_size`
    /// metres (a natural choice is the radio range, making every in-cell
    /// node reachable from the cell centre).
    #[must_use]
    pub fn new(area: Rect, cell_size: f64) -> Self {
        ServerSelection {
            grid: Grid::new(area, cell_size),
        }
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// `ssa(id)`: the server cell for a node identity.
    #[must_use]
    pub fn cell_for(&self, id: u64) -> CellId {
        let digest = Sha256::digest_parts(&[b"SSA", &id.to_be_bytes()]);
        let key = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
        self.grid.cell_for_key(key)
    }

    /// The geographic anchor (cell centre) update/request packets are
    /// geo-routed towards.
    #[must_use]
    pub(crate) fn anchor_for(&self, id: u64) -> Point {
        self.grid.cell_center(self.cell_for(id))
    }
}

/// A stored location record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DlmRecord {
    /// The node's advertised location.
    pub(crate) loc: Point,
    /// Update timestamp.
    pub(crate) ts: SimTime,
}

/// Remote location update: `⟨RLU, id, loc, ts⟩` — identity and location
/// together in cleartext, the exposure ALS removes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlmUpdate {
    /// Updating node's identity.
    pub id: u64,
    /// Its current location.
    pub loc: Point,
    /// Timestamp.
    pub ts: SimTime,
}

impl DlmUpdate {
    /// Network-layer bytes: header + id + loc + ts.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        crate::packet::NET_HEADER_BYTES + 8 + 8 + 4
    }
}

/// Location request: `⟨LREQ, target, requester, requester_loc⟩` — "an
/// LREQ message attaches the location and identity of the source so that
/// the response ... could reach the original requester" (§2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlmRequest {
    /// Whose location is wanted.
    pub target: u64,
    /// Who is asking (exposed!).
    pub requester: u64,
    /// Where to send the reply (exposed!).
    pub requester_loc: Point,
}

impl DlmRequest {
    /// Network-layer bytes.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        crate::packet::NET_HEADER_BYTES + 8 + 8 + 8
    }
}

/// Location reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlmReply {
    /// The requested node.
    pub(crate) target: u64,
    /// Its stored location.
    pub loc: Point,
    /// Record timestamp.
    pub(crate) ts: SimTime,
}

impl DlmReply {
    /// Network-layer bytes.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        crate::packet::NET_HEADER_BYTES + 8 + 8 + 4
    }
}

/// The location-server role: any node currently inside a cell stores
/// records addressed to that cell.
#[derive(Debug, Clone, Default)]
pub struct DlmServer {
    records: BTreeMap<u64, DlmRecord>,
}

impl DlmServer {
    /// Creates an empty server.
    #[must_use]
    pub fn new() -> Self {
        DlmServer::default()
    }

    /// Stores (or refreshes) an update; newer timestamps win.
    pub fn handle_update(&mut self, update: DlmUpdate) {
        let newer = self
            .records
            .get(&update.id)
            .is_none_or(|r| update.ts >= r.ts);
        if newer {
            self.records.insert(
                update.id,
                DlmRecord {
                    loc: update.loc,
                    ts: update.ts,
                },
            );
        }
    }

    /// Answers a request from the stored records.
    #[must_use]
    pub fn handle_request(&self, request: &DlmRequest) -> Option<DlmReply> {
        self.records.get(&request.target).map(|r| DlmReply {
            target: request.target,
            loc: r.loc,
            ts: r.ts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssa() -> ServerSelection {
        ServerSelection::new(Rect::with_size(1500.0, 300.0), 250.0)
    }

    #[test]
    fn ssa_is_deterministic_and_public() {
        let s = ssa();
        assert_eq!(s.cell_for(42), s.cell_for(42));
        assert_eq!(s.anchor_for(42), s.anchor_for(42));
        let cell = s.cell_for(42);
        assert!(cell.col < s.grid().cols() && cell.row < s.grid().rows());
    }

    #[test]
    fn ssa_spreads_identities_across_cells() {
        let s = ssa();
        let cells: crate::FixedSet<_> = (0..200u64).map(|i| s.cell_for(i)).collect();
        assert!(
            cells.len() >= 10,
            "200 identities should hit most of the 12 cells, got {}",
            cells.len()
        );
    }

    #[test]
    fn update_then_request_roundtrip() {
        let mut server = DlmServer::new();
        server.handle_update(DlmUpdate {
            id: 7,
            loc: Point::new(100.0, 50.0),
            ts: SimTime::from_secs(1),
        });
        let reply = server
            .handle_request(&DlmRequest {
                target: 7,
                requester: 9,
                requester_loc: Point::ORIGIN,
            })
            .unwrap();
        assert_eq!(reply.loc, Point::new(100.0, 50.0));
        assert_eq!(reply.target, 7);
    }

    #[test]
    fn stale_update_does_not_regress() {
        let mut server = DlmServer::new();
        server.handle_update(DlmUpdate {
            id: 7,
            loc: Point::new(1.0, 1.0),
            ts: SimTime::from_secs(10),
        });
        server.handle_update(DlmUpdate {
            id: 7,
            loc: Point::new(2.0, 2.0),
            ts: SimTime::from_secs(5),
        });
        let reply = server
            .handle_request(&DlmRequest {
                target: 7,
                requester: 9,
                requester_loc: Point::ORIGIN,
            })
            .unwrap();
        assert_eq!(reply.loc, Point::new(1.0, 1.0), "older update must lose");
    }

    #[test]
    fn unknown_target_yields_none() {
        let server = DlmServer::new();
        assert!(server
            .handle_request(&DlmRequest {
                target: 1,
                requester: 2,
                requester_loc: Point::ORIGIN,
            })
            .is_none());
    }
}
