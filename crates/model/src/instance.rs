//! An MBSP problem instance: a computational DAG plus a target architecture.

use crate::arch::Architecture;
use mbsp_dag::CompDag;
use serde::{Deserialize, Serialize};

/// A complete MBSP scheduling problem instance.
///
/// The paper defines the cache size of its experiments relative to the minimal
/// feasible cache size `r₀` of the DAG (the largest footprint of a single compute
/// step); [`MbspInstance::with_cache_factor`] constructs instances the same way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MbspInstance {
    dag: CompDag,
    arch: Architecture,
}

impl MbspInstance {
    /// Creates an instance from an explicit DAG and architecture.
    pub fn new(dag: CompDag, arch: Architecture) -> Self {
        MbspInstance { dag, arch }
    }

    /// Creates an instance whose cache size is `factor · r₀` where `r₀` is the DAG's
    /// minimal feasible cache size ([`CompDag::minimal_cache_size`]). The remaining
    /// architecture parameters are taken from `base`.
    pub fn with_cache_factor(dag: CompDag, base: Architecture, factor: f64) -> Self {
        let r0 = dag.minimal_cache_size();
        let arch = base.with_cache_size(r0 * factor);
        MbspInstance { dag, arch }
    }

    /// The computational DAG.
    pub fn dag(&self) -> &CompDag {
        &self.dag
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// Instance name (the DAG's name).
    pub fn name(&self) -> &str {
        self.dag.name()
    }

    /// The minimal feasible cache size `r₀` of the DAG.
    pub fn minimal_cache_size(&self) -> f64 {
        self.dag.minimal_cache_size()
    }

    /// Returns `true` if the instance admits any valid schedule at all, i.e. the
    /// cache is large enough to hold the footprint of every individual compute step.
    pub fn is_feasible(&self) -> bool {
        self.arch.fits(self.dag.minimal_cache_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;

    fn diamond() -> CompDag {
        CompDag::from_edges(
            "diamond",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn cache_factor_construction() {
        let dag = diamond();
        // r0 of the diamond is 3 (node 3 plus two parents).
        let inst = MbspInstance::with_cache_factor(dag, Architecture::paper_default(0.0), 3.0);
        assert_eq!(inst.arch().cache_size, 9.0);
        assert!(inst.is_feasible());
        assert_eq!(inst.minimal_cache_size(), 3.0);
        assert_eq!(inst.name(), "diamond");
    }

    #[test]
    fn infeasible_when_cache_below_r0() {
        let dag = diamond();
        let inst = MbspInstance::new(dag, Architecture::new(2, 2.0, 1.0, 0.0));
        assert!(!inst.is_feasible());
    }
}
