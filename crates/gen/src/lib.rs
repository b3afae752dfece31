//! # mbsp-gen — benchmark DAG generators and paper constructions
//!
//! The paper evaluates its schedulers on the computational-DAG benchmark of
//! Papp et al. (SPAA 2024): a "tiny" dataset of 15 DAGs with 40–80 nodes (three
//! coarse-grained algorithm graphs plus fine-grained CG, SpMV, iterated SpMV and
//! k-NN instances) and a sample of 10 larger DAGs with 264–464 nodes. The original
//! dataset files are not redistributable, so this crate generates synthetic DAGs of
//! the same families, sizes and structure (see PAPER.md, "Reproduction notes"):
//!
//! * [`spmv`] — fine-grained sparse matrix–vector multiplication and iterated SpMV;
//! * [`cg`] — fine-grained conjugate-gradient iterations on a 2D grid;
//! * [`knn`] — fine-grained k-nearest-neighbour computations;
//! * [`coarse`] — coarse-grained representations of BiCGSTAB, k-means and Pregel;
//! * [`datasets`] — the named "tiny" and "small-sample" instance collections with
//!   the paper's random memory weights in `{1..5}`;
//! * [`constructions`] — the parametric gadget DAGs of Theorem 4.1 and
//!   Lemmas 5.3, 5.4 and 6.1;
//! * [`random`] — random layered DAGs for property-based testing;
//! * [`mutations`] — seeded, replayable `DagDelta` streams over any of the
//!   above, feeding the incremental re-scheduling engine and its
//!   mutation-replay differential suite;
//! * [`faults`] — seeded fault-injection plans (worker panics, checkpoint
//!   corruption, invalid deltas) driving the engine's robustness soak tests.

pub mod cg;
pub mod coarse;
pub mod constructions;
pub mod datasets;
pub mod faults;
pub mod knn;
pub mod mutations;
pub mod random;
pub mod spmv;
pub mod weights;

pub use datasets::{large_dataset, small_dataset_sample, tiny_dataset, NamedInstance};
pub use faults::{Corruption, FaultPlan};
pub use mutations::{mutation_stream, try_mutation_stream, MutationStreamConfig, StreamError};
pub use weights::assign_random_memory_weights;
