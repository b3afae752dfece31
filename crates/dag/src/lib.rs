//! # mbsp-dag — weighted computational DAG substrate
//!
//! This crate provides the directed acyclic graph (DAG) representation used by every
//! other crate in the MBSP scheduling workspace. A computational DAG `G = (V, E)`
//! models a static computation: nodes are operations, edges are data dependencies.
//! Each node `v` carries
//!
//! * a **compute weight** `ω(v)` — the time it takes to execute the operation, and
//! * a **memory weight** `μ(v)` — the amount of fast memory its output occupies.
//!
//! The crate offers construction ([`DagBuilder`]), structural queries (parents,
//! children, sources, sinks, topological orderings), analysis helpers used by the
//! schedulers (critical path, total work, the minimal feasible cache size `r₀`),
//! sub-DAG extraction and acyclic quotient graphs for the divide-and-conquer
//! scheduler, and zero-copy sub-DAG views behind the [`DagLike`] accessor trait
//! (the generic surface the scheduling stacks of the downstream crates are
//! written against).
//!
//! ## Representation
//!
//! The representation is index-based: nodes are identified by the dense
//! [`NodeId`] handle and adjacency is stored in **CSR (compressed sparse row)
//! form** — one flat target array plus an `n + 1` offset array per direction, so
//! `children(v)` / `parents(v)` are contiguous slices and degree queries are
//! O(1) offset subtractions. Incremental construction lives in [`DagBuilder`],
//! which keeps nested append-friendly lists plus an incremental Pearce–Kelly
//! topological order (O(1) cycle checks for order-respecting edges) and compacts
//! into CSR once at `build`. Traversal helpers work on flat per-node arrays,
//! allocated per call; the Pearce–Kelly order keeps version-stamped visited
//! marks ([`scratch::VisitMarks`]) across its repairs instead of per-call hash
//! sets. [`SubDagView`] borrows a parent graph and serves an
//! induced subgraph by remapping the parent's CSR slices through a
//! local↔global offset table — no adjacency/weight/label copies — which is how
//! the sharded holistic search of `mbsp-ilp` builds per-shard sub-problems at
//! 100k-node scale.
//!
//! ## Incremental mutation
//!
//! Built graphs are not frozen: [`delta::DagDelta`] describes atomic mutations
//! (add/remove node, add/remove edge, reweight) and [`CompDag::apply_delta`]
//! patches the CSR arrays in place in `O(degree + n)` per delta instead of a
//! full `O(V + E)` rebuild. Cycle safety comes from [`pk::PkOrder`], the
//! Pearce–Kelly incremental topological order extracted from [`DagBuilder`]:
//! an order-respecting edge insertion is accepted in O(1), an order-violating
//! one triggers only the bounded affected-region repair, and a cycle-closing
//! one is rejected before any state changes. Node removal uses swap-remove id
//! semantics (the last node takes over the freed id), which keeps ids dense
//! for the downstream flat per-node tables. This is the substrate layer of
//! the dirty-cone re-scheduling engine in `mbsp_ilp::dirty_cone`.
//!
//! ## Oracle convention
//!
//! The pre-CSR nested-`Vec` adjacency lives on as [`reference::AdjacencyOracle`],
//! a deliberately thin differential oracle: the property tests build both
//! representations from the same random edge lists and assert every structural
//! query agrees (mirroring `lp_solver::dense` and
//! `mbsp_cache::two_stage::reference`). The delta path carries the same
//! convention as a **mutation-replay oracle**: seeded [`delta::DagDelta`]
//! streams are applied through [`CompDag::apply_delta`] while a naive edge
//! list replays them independently, and after every stream the patched CSR
//! arrays must be identical to a [`CompDag::from_edges`] rebuild of that list
//! (children, parents, degrees, weights, edge order), with the maintained
//! [`pk::PkOrder`] still a valid topological order.

pub mod analysis;
pub mod builder;
pub mod delta;
pub mod error;
pub mod graph;
pub mod partition;
pub mod pk;
pub mod reference;
pub mod scratch;
pub mod subgraph;
pub mod topo;
pub mod view;

pub use analysis::DagStatistics;
pub use builder::DagBuilder;
pub use delta::{DagDelta, DeltaEffect};
pub use error::DagError;
pub use graph::{CompDag, EdgeId, NodeId, NodeWeights};
pub use partition::AcyclicPartition;
pub use pk::PkOrder;
pub use subgraph::SubDag;
pub use topo::TopologicalOrder;
pub use view::{DagLike, SubDagView};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DagError>;
