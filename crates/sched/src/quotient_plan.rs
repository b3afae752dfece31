//! High-level scheduling plan for the quotient graph of an acyclic partition.
//!
//! The divide-and-conquer scheduler (Section 6.3) needs a "scheduling plan" on the
//! quotient DAG: which set of processors each part gets, and in which order the
//! parts are handled. The paper uses an adjusted version of the BSPg heuristic that
//! allows assigning several processors to one (contracted) node, reducing its
//! execution time proportionally.
//!
//! [`QuotientPlanner`] implements that idea as a malleable-task list scheduler: the
//! contracted parts are processed in topological order by bottom-level priority;
//! each part is given a contiguous group of processors whose size is proportional to
//! the part's share of the remaining work among the currently ready parts, and parts
//! that are independent of each other may run side by side in the same *stage*.

use mbsp_dag::topo::bottom_levels;
use mbsp_dag::{CompDag, NodeId, TopologicalOrder};
use mbsp_model::{Architecture, ProcId};

/// The plan entry of one part: which processors execute it, and in which stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartPlan {
    /// The part (node of the quotient graph).
    pub part: usize,
    /// The processors assigned to this part.
    pub processors: Vec<ProcId>,
    /// The stage (position in the high-level order); parts in the same stage are
    /// independent and run side by side on disjoint processor groups.
    pub stage: usize,
}

/// A complete plan for the quotient graph.
#[derive(Debug, Clone, Default)]
pub struct QuotientPlan {
    /// Per part (indexed by quotient node id), the plan entry.
    pub parts: Vec<PartPlan>,
}

impl QuotientPlan {
    /// The plan entries grouped by stage, in stage order.
    pub fn stages(&self) -> Vec<Vec<&PartPlan>> {
        let max_stage = self
            .parts
            .iter()
            .map(|p| p.stage)
            .max()
            .map_or(0, |m| m + 1);
        let mut out = vec![Vec::new(); max_stage];
        for p in &self.parts {
            out[p.stage].push(p);
        }
        out
    }

    /// The plan entry of a given part.
    pub fn part(&self, part: usize) -> &PartPlan {
        self.parts
            .iter()
            .find(|p| p.part == part)
            .expect("part exists in plan")
    }
}

/// Planner producing [`QuotientPlan`]s from a quotient DAG.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuotientPlanner;

impl QuotientPlanner {
    /// Creates a new planner.
    pub fn new() -> Self {
        QuotientPlanner
    }

    /// Builds a plan for the quotient DAG `quotient` on `arch.processors`
    /// processors. Every part receives at least one processor; independent parts in
    /// the same stage share the machine proportionally to their compute weight.
    pub fn plan(&self, quotient: &CompDag, arch: &Architecture) -> QuotientPlan {
        let k = quotient.num_nodes();
        if k == 0 {
            return QuotientPlan::default();
        }
        let p = arch.processors;
        let priorities = bottom_levels(quotient);
        let topo = TopologicalOrder::of(quotient);

        let mut remaining_parents: Vec<usize> =
            (0..k).map(|i| quotient.in_degree(NodeId::new(i))).collect();
        let mut scheduled = vec![false; k];
        let mut plans: Vec<PartPlan> = Vec::with_capacity(k);
        let mut stage = 0usize;
        let mut num_done = 0usize;

        while num_done < k {
            // Ready parts: all quotient parents already planned in earlier stages.
            let mut ready: Vec<NodeId> = (0..k)
                .map(NodeId::new)
                .filter(|&v| !scheduled[v.index()] && remaining_parents[v.index()] == 0)
                .collect();
            ready.sort_by(|&a, &b| {
                priorities[b.index()]
                    .partial_cmp(&priorities[a.index()])
                    .unwrap()
                    .then(topo.position(a).cmp(&topo.position(b)))
            });
            debug_assert!(!ready.is_empty(), "quotient graph is acyclic");
            // At most `p` parts per stage (each needs at least one processor).
            ready.truncate(p);

            // Proportional processor allocation by compute weight.
            let total_work: f64 = ready
                .iter()
                .map(|&v| quotient.compute_weight(v).max(1e-9))
                .sum();
            let mut alloc: Vec<usize> = ready
                .iter()
                .map(|&v| {
                    let share = quotient.compute_weight(v).max(1e-9) / total_work;
                    ((share * p as f64).floor() as usize).max(1)
                })
                .collect();
            // Repair the allocation so that it sums to exactly min(p, ...) >= ready.len().
            let mut total_alloc: usize = alloc.iter().sum();
            while total_alloc > p {
                // Shrink the largest allocation above 1.
                if let Some(i) = (0..alloc.len())
                    .filter(|&i| alloc[i] > 1)
                    .max_by_key(|&i| alloc[i])
                {
                    alloc[i] -= 1;
                    total_alloc -= 1;
                } else {
                    break;
                }
            }
            let mut idx = 0usize;
            while total_alloc < p {
                // Grow allocations round-robin (prefer heavier parts first: `ready`
                // is sorted by priority).
                let slot = idx % alloc.len();
                alloc[slot] += 1;
                total_alloc += 1;
                idx += 1;
            }

            // Hand out contiguous processor groups.
            let mut next_proc = 0usize;
            for (i, &part) in ready.iter().enumerate() {
                let count = alloc[i].min(p - next_proc).max(1);
                let processors: Vec<ProcId> =
                    (next_proc..next_proc + count).map(ProcId::new).collect();
                next_proc = (next_proc + count).min(p);
                plans.push(PartPlan {
                    part: part.index(),
                    processors,
                    stage,
                });
                scheduled[part.index()] = true;
                num_done += 1;
            }
            // Unlock children of the parts planned in this stage.
            for plan in plans.iter().filter(|pl| pl.stage == stage) {
                for &c in quotient.children(NodeId::new(plan.part)) {
                    remaining_parents[c.index()] -= 1;
                }
            }
            stage += 1;
        }
        plans.sort_by_key(|p| p.part);
        QuotientPlan { parts: plans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;

    fn arch(p: usize) -> Architecture {
        Architecture::new(p, 100.0, 1.0, 10.0)
    }

    #[test]
    fn sequential_quotient_gets_all_processors_per_part() {
        // A path of three parts: each stage has one part which should get all procs.
        let q = CompDag::from_edges("q", vec![NodeWeights::new(10.0, 5.0); 3], &[(0, 1), (1, 2)])
            .unwrap();
        let plan = QuotientPlanner::new().plan(&q, &arch(4));
        assert_eq!(plan.parts.len(), 3);
        for part in &plan.parts {
            assert_eq!(part.processors.len(), 4);
            assert_eq!(part.stage, part.part);
        }
        assert_eq!(plan.stages().len(), 3);
    }

    #[test]
    fn parallel_parts_share_the_machine() {
        // Two independent heavy parts followed by a join part.
        let q = CompDag::from_edges(
            "q",
            vec![
                NodeWeights::new(10.0, 5.0),
                NodeWeights::new(10.0, 5.0),
                NodeWeights::new(2.0, 1.0),
            ],
            &[(0, 2), (1, 2)],
        )
        .unwrap();
        let plan = QuotientPlanner::new().plan(&q, &arch(4));
        let p0 = plan.part(0);
        let p1 = plan.part(1);
        let p2 = plan.part(2);
        assert_eq!(p0.stage, 0);
        assert_eq!(p1.stage, 0);
        assert_eq!(p2.stage, 1);
        // The two parallel parts split the 4 processors evenly and disjointly.
        assert_eq!(p0.processors.len() + p1.processors.len(), 4);
        let overlap = p0
            .processors
            .iter()
            .filter(|p| p1.processors.contains(p))
            .count();
        assert_eq!(overlap, 0);
        // The join part gets the whole machine.
        assert_eq!(p2.processors.len(), 4);
    }

    #[test]
    fn proportional_allocation_prefers_heavy_parts() {
        let q = CompDag::from_edges(
            "q",
            vec![NodeWeights::new(30.0, 5.0), NodeWeights::new(10.0, 5.0)],
            &[],
        )
        .unwrap();
        let plan = QuotientPlanner::new().plan(&q, &arch(4));
        assert!(plan.part(0).processors.len() >= plan.part(1).processors.len());
        assert_eq!(
            plan.part(0).processors.len() + plan.part(1).processors.len(),
            4
        );
    }

    #[test]
    fn more_ready_parts_than_processors() {
        // Five independent parts on two processors: stages are formed so that each
        // stage has at most two parts.
        let q = CompDag::from_edges("q", vec![NodeWeights::new(5.0, 1.0); 5], &[]).unwrap();
        let plan = QuotientPlanner::new().plan(&q, &arch(2));
        assert_eq!(plan.parts.len(), 5);
        for stage in plan.stages() {
            assert!(stage.len() <= 2);
            for part in stage {
                assert!(!part.processors.is_empty());
            }
        }
    }

    #[test]
    fn empty_quotient_yields_empty_plan() {
        let q = CompDag::new("empty");
        let plan = QuotientPlanner::new().plan(&q, &arch(4));
        assert!(plan.parts.is_empty());
        assert!(plan.stages().is_empty());
    }
}
