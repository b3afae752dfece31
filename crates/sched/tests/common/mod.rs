//! Fixtures shared by the at-scale differential sweeps.

use mbsp_dag::CompDag;
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};

/// The DAGs of the at-scale sweeps: a 20k-node layered-random DAG whose ready
/// list is hundreds of nodes wide, and a conjugate-gradient DAG (wide stencil
/// layers alternating with narrow reduction trees).
pub fn scale_dags() -> [CompDag; 2] {
    let layered = random_layered_dag(
        &RandomDagConfig {
            layers: 50,
            width: 400,
            edge_probability: 3.0 / 400.0,
            ..Default::default()
        },
        0x5CA1E,
    );
    assert!(layered.num_nodes() >= 20_000);
    [layered, mbsp_gen::cg::cg_dag("cg_n16_k3", 16, 3)]
}

/// The (P, L) grid of the at-scale sweeps: quantum `max(2L, 4, ω_max)` from 4
/// to 20, so superstep counts from hundreds to thousands.
pub fn scale_grid() -> impl Iterator<Item = (usize, f64)> {
    [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|p| [0.0, 2.0, 10.0].map(|l| (p, l)))
}
