//! BSP-cost optimiser: the "ILP-based BSP scheduler" baseline of Table 3.
//!
//! The paper's stronger two-stage baseline replaces the greedy BSP heuristic with a
//! BSP scheduling ILP solved by COPT under a time limit. Here the same role is
//! played by a deterministic, count-budgeted local search that minimises the
//! *pure BSP cost* (work-balance + h-relation + latency, no memory
//! constraints) starting from the greedy solution — like the paper's BSP ILP it optimises a memory-oblivious
//! objective, which is exactly what makes it an interesting comparison point: a
//! better first stage does not necessarily yield a better MBSP schedule.
//! (Exact-ILP pipelines instead go through [`crate::ExactIlpScheduler`], whose
//! branch and bound is warm-started from the two-stage baseline schedule via
//! [`crate::MbspIlpBuilder::warm_start_from_schedule`].)

use crate::improver::{canonical_bsp, TieOrder};
use mbsp_dag::{CompDag, NodeId};
use mbsp_model::{Architecture, ProcId};
use mbsp_sched::{BspScheduler, BspSchedulingResult, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Local-search rounds; a round without an improvement also ends the search.
const MAX_ROUNDS: usize = 40;
/// Candidate moves per round.
const MOVES_PER_ROUND: usize = 150;
/// Seed of the move stream.
const SEED: u64 = 0xB5B;

/// BSP-cost optimiser used as the "ILP-based BSP scheduler" stand-in. Like the
/// paper's baseline it runs in one configuration: 40 rounds of 150 moves,
/// drawn from a fixed seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct BspIlpScheduler;

impl BspIlpScheduler {
    /// Creates the optimiser.
    pub fn new() -> Self {
        BspIlpScheduler
    }
}

impl BspScheduler for BspIlpScheduler {
    fn name(&self) -> &'static str {
        "bsp-ilp"
    }

    fn schedule(&self, dag: &CompDag, arch: &Architecture) -> BspSchedulingResult {
        let greedy = GreedyBspScheduler::new().schedule(dag, arch);
        let mut procs: Vec<ProcId> = dag.nodes().map(|v| greedy.schedule.proc_of(v)).collect();
        let order = TieOrder::BreadthFirst.of(dag);
        let evaluate = |procs: &[ProcId]| -> (f64, BspSchedulingResult) {
            let result = canonical_bsp(dag, arch, procs, &order);
            let cost = result.schedule.cost(dag, arch).total;
            (cost, result)
        };
        let (mut best_cost, mut best) = evaluate(&procs);
        // The greedy result itself (with its own superstep structure) also competes.
        let greedy_cost = greedy.schedule.cost(dag, arch).total;
        if greedy_cost < best_cost {
            best_cost = greedy_cost;
            best = greedy.clone();
        }
        let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
        if movable.is_empty() || arch.processors == 1 {
            return best;
        }
        let mut rng = StdRng::seed_from_u64(SEED);
        for _ in 0..MAX_ROUNDS {
            let mut improved = false;
            for _ in 0..MOVES_PER_ROUND {
                let v = movable[rng.gen_range(0..movable.len())];
                let new_proc = ProcId::new(rng.gen_range(0..arch.processors));
                if procs[v.index()] == new_proc {
                    continue;
                }
                let old = procs[v.index()];
                procs[v.index()] = new_proc;
                let (cost, result) = evaluate(&procs);
                if cost < best_cost - 1e-9 {
                    best_cost = cost;
                    best = result;
                    improved = true;
                } else {
                    procs[v.index()] = old;
                }
            }
            if !improved {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> Architecture {
        Architecture::new(4, 1e9, 1.0, 10.0)
    }

    #[test]
    fn produces_valid_schedules_with_cost_not_worse_than_greedy() {
        let opt = BspIlpScheduler::new();
        for inst in mbsp_gen::tiny_dataset(42).into_iter().take(4) {
            let a = arch();
            let greedy = GreedyBspScheduler::new().schedule(&inst.dag, &a);
            let greedy_cost = greedy.schedule.cost(&inst.dag, &a).total;
            let result = opt.schedule(&inst.dag, &a);
            result.schedule.validate(&inst.dag).unwrap();
            let cost = result.schedule.cost(&inst.dag, &a).total;
            assert!(
                cost <= greedy_cost + 1e-9,
                "{}: {cost} vs greedy {greedy_cost}",
                inst.name
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = mbsp_gen::tiny_dataset(1).remove(4);
        let opt = BspIlpScheduler::new();
        let a = opt.schedule(&inst.dag, &arch());
        let b = opt.schedule(&inst.dag, &arch());
        assert_eq!(a.schedule, b.schedule);
    }
}
