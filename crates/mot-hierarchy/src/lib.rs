//! Hierarchical overlay structures (`HS`) for the MOT tracking algorithm.
//!
//! The paper builds its tracking data structure on a layered overlay:
//!
//! * **Constant-doubling model (§2.2):** a sequence of connectivity graphs
//!   `I_0 ⊇ I_1 ⊇ … ⊇ I_h` where `V_{ℓ+1}` is a maximal independent set of
//!   `(V_ℓ, E_ℓ)` and `E_ℓ` connects nodes closer than `2^{ℓ+1}`. Level-ℓ
//!   members are pairwise `≥ 2^ℓ` apart yet cover every lower-level node
//!   within `2^ℓ`. The MIS is computed with Luby's randomized algorithm.
//! * **General model (§6):** an `(O(log n), O(log n))` sparse-partition
//!   scheme — per level, `O(log n)` labelled padded decompositions with
//!   cluster radius `O(2^ℓ log n)`; every node belongs to `O(log n)`
//!   clusters and every `2^ℓ`-ball is contained in some cluster.
//!
//! Both constructions export the same artifact: for every bottom-level
//! sensor its detection path — per level, the ordered *station* of parent
//! nodes a detection/maintenance/query message visits on its way to the
//! root, with the length of every hop between consecutive stops. The
//! [`Overlay`] type packages paths (one flat station table), levels, and
//! the special-parent pairing (Definition 3) consumed by `mot-core`.
//!
//! [`validate::validate`] states the §2.2 rules — nested levels, each a
//! maximal independent set of the one below, nearest default parents,
//! stations of the members within `ρ · 2^ℓ` — and checks an overlay
//! against them and every stored hop length against the oracle. Tests
//! run it on the overlays they build.
//!
//! For §7 topology churn, [`RepairableHierarchy`] maintains the same
//! doubling structure under sensor leave/join deltas via deterministic
//! hash-priority MIS and localized repair, with a rebuild-vs-repair
//! cost ledger (DESIGN.md §17).
//!
//! # Example
//!
//! ```
//! use mot_hierarchy::{build_doubling, OverlayConfig};
//! use mot_net::{generators, DenseOracle, NodeId};
//!
//! let g = generators::grid(8, 8)?;
//! let m = DenseOracle::build(&g)?;
//! let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 7);
//!
//! // h <= ceil(log2 D) + 1 levels, shrinking to a single root.
//! assert!(overlay.height() <= (m.diameter().log2().ceil() as usize) + 1);
//! assert_eq!(overlay.level_members(overlay.height()).len(), 1);
//!
//! // Every bottom node's detection path starts at itself and ends at
//! // the root; nearby nodes' paths meet at a low level (Lemma 2.1).
//! let u = NodeId(0);
//! assert_eq!(overlay.station(u, 0), &[u]);
//! assert!(overlay.meet_level(NodeId(0), NodeId(1)) <= overlay.height());
//! # Ok::<(), mot_net::NetError>(())
//! ```
//!
//! # Place in the workspace
//!
//! Sits directly above `mot-net` in the crate DAG; `mot-core`,
//! `mot-sim`, and `mot-bench` build on it. Implements §2.2 (doubling
//! overlays) and §6 (general overlays); the overlay choice drives the
//! `general` experiment table. See DESIGN.md §3 and §5.

#![warn(missing_docs)]

mod blocks;
pub mod config;
pub mod doubling;
pub mod general;
pub mod mis;
pub mod overlay;
pub mod repair;
mod table;
pub mod validate;

pub use config::OverlayConfig;
pub use doubling::build_doubling;
pub use general::build_general;
pub use mis::luby_mis;
pub use overlay::{Overlay, OverlayBytes, OverlayKind};
pub use repair::{
    HierarchySnapshot, RepairDecision, RepairLedger, RepairReport, RepairableHierarchy,
};
pub use table::{DropHop, TableBytes};
