//! The computing architecture of an MBSP problem instance.

use serde::{Deserialize, Serialize};

/// Identifier of a processor, in `0..P`.
///
/// The paper numbers processors from 1 to `P`; we use 0-based indices internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Returns the processor id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a processor id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        ProcId(index as u32)
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The target architecture of an MBSP problem: `P` identical processors, each with a
/// fast memory of capacity `r`, sharing a slow memory of unbounded capacity, with BSP
/// parameters `g` (cost of moving one unit of data between fast and slow memory) and
/// `L` (cost of a synchronisation / superstep barrier).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    /// Number of processors `P ≥ 1`.
    pub processors: usize,
    /// Fast-memory (cache) capacity `r ≥ 0`, identical for every processor.
    pub cache_size: f64,
    /// Communication gap `g`: cost of transferring one unit of data (one unit of
    /// memory weight) between fast and slow memory.
    pub g: f64,
    /// Synchronisation cost `L` charged once per superstep in the synchronous model.
    pub latency: f64,
}

impl Architecture {
    /// Creates a new architecture description.
    ///
    /// # Panics
    /// Panics if `processors == 0` or any parameter is negative / not finite.
    pub fn new(processors: usize, cache_size: f64, g: f64, latency: f64) -> Self {
        assert!(
            processors >= 1,
            "an architecture needs at least one processor"
        );
        assert!(
            cache_size.is_finite() && cache_size >= 0.0,
            "cache size must be finite and >= 0"
        );
        assert!(g.is_finite() && g >= 0.0, "g must be finite and >= 0");
        assert!(
            latency.is_finite() && latency >= 0.0,
            "L must be finite and >= 0"
        );
        Architecture {
            processors,
            cache_size,
            g,
            latency,
        }
    }

    /// The architecture used in the paper's main experiments: `P = 4`, `g = 1`,
    /// `L = 10`, with the cache size supplied by the caller (usually `3·r₀`).
    pub fn paper_default(cache_size: f64) -> Self {
        Architecture::new(4, cache_size, 1.0, 10.0)
    }

    /// Single-processor variant (red–blue pebbling with compute costs).
    pub fn single_processor(cache_size: f64, g: f64) -> Self {
        Architecture::new(1, cache_size, g, 0.0)
    }

    /// Does a compute step of this footprint
    /// ([`mbsp_dag::CompDag::compute_footprint`]) fit in one processor's fast
    /// memory? With the `1e-9` slack the converter's own cache tests allow; a
    /// DAG whose minimal cache size does not fit has no valid schedule.
    pub fn fits(&self, footprint: f64) -> bool {
        footprint <= self.cache_size + 1e-9
    }

    /// Iterator over the processor ids `0..P`.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> {
        (0..self.processors).map(ProcId::new)
    }

    /// Returns a copy with a different cache size.
    pub fn with_cache_size(mut self, cache_size: f64) -> Self {
        assert!(cache_size.is_finite() && cache_size >= 0.0);
        self.cache_size = cache_size;
        self
    }

    /// Returns a copy with a different synchronisation cost.
    pub fn with_latency(mut self, latency: f64) -> Self {
        assert!(latency.is_finite() && latency >= 0.0);
        self.latency = latency;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let a = Architecture::new(4, 12.0, 1.0, 10.0);
        assert_eq!(a.processors, 4);
        assert_eq!(a.cache_size, 12.0);
        assert_eq!(a.procs().count(), 4);
        assert_eq!(a.procs().next(), Some(ProcId::new(0)));
    }

    #[test]
    fn paper_default_matches_experiment_setup() {
        let a = Architecture::paper_default(30.0);
        assert_eq!(a.processors, 4);
        assert_eq!(a.g, 1.0);
        assert_eq!(a.latency, 10.0);
        assert_eq!(a.cache_size, 30.0);
    }

    #[test]
    fn builder_style_modifiers() {
        let a = Architecture::paper_default(30.0)
            .with_cache_size(50.0)
            .with_latency(0.0);
        assert_eq!(a.processors, 4);
        assert_eq!(a.cache_size, 50.0);
        assert_eq!(a.latency, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        Architecture::new(0, 1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_cache_panics() {
        Architecture::new(1, -1.0, 1.0, 0.0);
    }

    #[test]
    fn proc_id_display_and_index() {
        let p = ProcId::new(3);
        assert_eq!(p.index(), 3);
        assert_eq!(p.to_string(), "p3");
    }
}
