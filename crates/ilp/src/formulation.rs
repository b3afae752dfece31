//! The ILP representation of MBSP scheduling (Section 6.1 / Appendix C.1).
//!
//! For every node `v`, processor `p` and discrete time step `t` the formulation has
//! binary variables `compute[p][v][t]`, `save[p][v][t]`, `load[p][v][t]`,
//! `hasred[p][v][t]` and `hasblue[v][t]`, related by the fundamental constraints of
//! Figure 3 of the paper (validity of loads/saves/computes, pebble propagation, the
//! one-operation-per-step rule, the memory bound, and the initial/terminal
//! conditions). Deletions are implicit: a red pebble that is present at step `t` and
//! absent at `t + 1` has been deleted.
//!
//! The objective implemented here is the **asynchronous makespan** of Appendix
//! C.1.2: continuous `finishtime[p][t]` variables accumulate the cost of the
//! operations of processor `p`, `getsblue[v]` bounds when a value first reaches slow
//! memory, loads cannot finish before `getsblue[v] + g·μ(v)`, and the makespan
//! dominates every finish time. (For `P = 1` and `L = 0` this coincides with the
//! synchronous cost, which is how the exact solver is used in the test-suite and the
//! Lemma 6.1 experiment; benchmark-scale synchronous instances are handled by the
//! holistic scheduler instead — see PAPER.md, "Reproduction notes".)
//!
//! Recomputation can be forbidden with [`IlpConfig::allow_recompute`]`= false`,
//! which adds the constraint `Σ_{p,t} compute[p][v][t] ≤ 1` for every node — the
//! switch used by the paper's recomputation experiment.

use lp_solver::{
    BranchBoundSolver, ConstraintSense, LinExpr, LpProblem, MipSolution, MipStatus, SolverLimits,
    VarId,
};
use mbsp_dag::{CompDag, NodeId};
use mbsp_model::{Architecture, ComputePhaseStep, MbspInstance, MbspSchedule, ProcId, Superstep};

/// Options of the ILP formulation.
#[derive(Debug, Clone, Copy)]
pub struct IlpConfig {
    /// Number of discrete time steps `T` available to the schedule.
    pub time_steps: usize,
    /// Whether nodes may be computed more than once (recomputation).
    pub allow_recompute: bool,
    /// Solver limits.
    pub limits: SolverLimits,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            time_steps: 8,
            allow_recompute: true,
            limits: SolverLimits::default(),
        }
    }
}

/// Builder holding the variable ids of the MBSP ILP formulation.
pub struct MbspIlpBuilder {
    /// The assembled problem.
    pub problem: LpProblem,
    /// `compute[p][v][t]`
    pub compute: Vec<Vec<Vec<VarId>>>,
    /// `save[p][v][t]`
    pub save: Vec<Vec<Vec<VarId>>>,
    /// `load[p][v][t]`
    pub load: Vec<Vec<Vec<VarId>>>,
    /// `hasred[p][v][t]` (defined for `t` in `0..=T`)
    pub hasred: Vec<Vec<Vec<VarId>>>,
    /// `hasblue[v][t]` (defined for `t` in `0..=T`)
    pub hasblue: Vec<Vec<VarId>>,
    /// `finishtime[p][t]` (continuous, defined for `t` in `0..=T`)
    pub finishtime: Vec<Vec<VarId>>,
    /// `getsblue[v]` (continuous)
    pub getsblue: Vec<VarId>,
    /// `makespan`
    pub makespan: VarId,
    time_steps: usize,
}

impl MbspIlpBuilder {
    /// Builds the full formulation for `instance` with `config.time_steps` steps.
    pub fn build(instance: &MbspInstance, config: &IlpConfig) -> Self {
        let dag = instance.dag();
        let arch = instance.arch();
        let n = dag.num_nodes();
        let p = arch.processors;
        let t_max = config.time_steps;
        let mut lp = LpProblem::new();

        // A safe big-M: everything can be executed sequentially within this budget.
        let big_m: f64 = p as f64
            * dag
                .nodes()
                .map(|v| dag.compute_weight(v) + 2.0 * arch.g * dag.memory_weight(v))
                .sum::<f64>()
            + 1.0;

        let mut compute = vec![vec![vec![VarId(0); t_max]; n]; p];
        let mut save = vec![vec![vec![VarId(0); t_max]; n]; p];
        let mut load = vec![vec![vec![VarId(0); t_max]; n]; p];
        let mut hasred = vec![vec![vec![VarId(0); t_max + 1]; n]; p];
        let mut hasblue = vec![vec![VarId(0); t_max + 1]; n];
        for pi in 0..p {
            for v in 0..n {
                for t in 0..t_max {
                    compute[pi][v][t] = lp.add_binary(format!("comp_{pi}_{v}_{t}"), 0.0);
                    save[pi][v][t] = lp.add_binary(format!("save_{pi}_{v}_{t}"), 0.0);
                    load[pi][v][t] = lp.add_binary(format!("load_{pi}_{v}_{t}"), 0.0);
                }
                for t in 0..=t_max {
                    hasred[pi][v][t] = lp.add_binary(format!("red_{pi}_{v}_{t}"), 0.0);
                }
            }
        }
        for v in 0..n {
            for t in 0..=t_max {
                hasblue[v][t] = lp.add_binary(format!("blue_{v}_{t}"), 0.0);
            }
        }
        let finishtime: Vec<Vec<VarId>> = (0..p)
            .map(|pi| {
                (0..=t_max)
                    .map(|t| lp.add_continuous(format!("fin_{pi}_{t}"), 0.0, big_m, 0.0))
                    .collect()
            })
            .collect();
        let getsblue: Vec<VarId> = (0..n)
            .map(|v| lp.add_continuous(format!("getsblue_{v}"), 0.0, big_m, 0.0))
            .collect();
        let makespan = lp.add_continuous("makespan", 0.0, big_m, 1.0);

        // (1) loads need a blue pebble; (2) saves need a red pebble; (3) computes
        // need red pebbles on all parents; (4)/(5) pebble propagation; (6) one
        // operation per processor and step; (7) memory bound; (8)-(10) boundary
        // conditions.
        for pi in 0..p {
            for v_idx in 0..n {
                let v = NodeId::new(v_idx);
                for t in 0..t_max {
                    lp.add_constraint(
                        format!("loadblue_{pi}_{v_idx}_{t}"),
                        LinExpr::term(load[pi][v_idx][t], 1.0).plus(hasblue[v_idx][t], -1.0),
                        ConstraintSense::LessEqual,
                        0.0,
                    );
                    lp.add_constraint(
                        format!("savered_{pi}_{v_idx}_{t}"),
                        LinExpr::term(save[pi][v_idx][t], 1.0).plus(hasred[pi][v_idx][t], -1.0),
                        ConstraintSense::LessEqual,
                        0.0,
                    );
                    if dag.is_source(v) {
                        // Source nodes are never computed.
                        lp.add_constraint(
                            format!("nosrc_{pi}_{v_idx}_{t}"),
                            LinExpr::term(compute[pi][v_idx][t], 1.0),
                            ConstraintSense::Equal,
                            0.0,
                        );
                    } else {
                        for &u in dag.parents(v) {
                            lp.add_constraint(
                                format!("parent_{pi}_{v_idx}_{}_{t}", u.index()),
                                LinExpr::term(compute[pi][v_idx][t], 1.0)
                                    .plus(hasred[pi][u.index()][t], -1.0),
                                ConstraintSense::LessEqual,
                                0.0,
                            );
                        }
                    }
                    // (4) hasred_{t+1} <= hasred_t + compute_t + load_t
                    lp.add_constraint(
                        format!("redprop_{pi}_{v_idx}_{t}"),
                        LinExpr::term(hasred[pi][v_idx][t + 1], 1.0)
                            .plus(hasred[pi][v_idx][t], -1.0)
                            .plus(compute[pi][v_idx][t], -1.0)
                            .plus(load[pi][v_idx][t], -1.0),
                        ConstraintSense::LessEqual,
                        0.0,
                    );
                }
                // (8) no red pebbles initially.
                lp.add_constraint(
                    format!("red0_{pi}_{v_idx}"),
                    LinExpr::term(hasred[pi][v_idx][0], 1.0),
                    ConstraintSense::Equal,
                    0.0,
                );
            }
            // (6) one operation per step and processor.
            for t in 0..t_max {
                let mut expr = LinExpr::new();
                for v_idx in 0..n {
                    expr.add(compute[pi][v_idx][t], 1.0);
                    expr.add(save[pi][v_idx][t], 1.0);
                    expr.add(load[pi][v_idx][t], 1.0);
                }
                lp.add_constraint(
                    format!("oneop_{pi}_{t}"),
                    expr,
                    ConstraintSense::LessEqual,
                    1.0,
                );
            }
            // (7) memory bound at every step.
            for t in 0..=t_max {
                let mut expr = LinExpr::new();
                for v_idx in 0..n {
                    expr.add(hasred[pi][v_idx][t], dag.memory_weight(NodeId::new(v_idx)));
                }
                lp.add_constraint(
                    format!("mem_{pi}_{t}"),
                    expr,
                    ConstraintSense::LessEqual,
                    arch.cache_size,
                );
            }
        }
        for v_idx in 0..n {
            let v = NodeId::new(v_idx);
            // (5) hasblue_{t+1} <= hasblue_t + Σ_p save_t
            for t in 0..t_max {
                let mut expr =
                    LinExpr::term(hasblue[v_idx][t + 1], 1.0).plus(hasblue[v_idx][t], -1.0);
                for pi in 0..p {
                    expr.add(save[pi][v_idx][t], -1.0);
                }
                lp.add_constraint(
                    format!("blueprop_{v_idx}_{t}"),
                    expr,
                    ConstraintSense::LessEqual,
                    0.0,
                );
            }
            // (9) initial blue pebbles exactly on the sources.
            lp.add_constraint(
                format!("blue0_{v_idx}"),
                LinExpr::term(hasblue[v_idx][0], 1.0),
                ConstraintSense::Equal,
                if dag.is_source(v) { 1.0 } else { 0.0 },
            );
            // (10) terminal blue pebbles on the sinks.
            if dag.is_sink(v) {
                lp.add_constraint(
                    format!("sink_{v_idx}"),
                    LinExpr::term(hasblue[v_idx][t_max], 1.0),
                    ConstraintSense::Equal,
                    1.0,
                );
            }
            // Optional: forbid recomputation.
            if !config.allow_recompute {
                let mut expr = LinExpr::new();
                for pi in 0..p {
                    for t in 0..t_max {
                        expr.add(compute[pi][v_idx][t], 1.0);
                    }
                }
                lp.add_constraint(
                    format!("norecomp_{v_idx}"),
                    expr,
                    ConstraintSense::LessEqual,
                    1.0,
                );
            }
        }

        // Asynchronous cost: finish times, slow-memory availability and makespan.
        for pi in 0..p {
            for t in 0..t_max {
                // finishtime_{t+1} >= finishtime_t + cost of the operation at step t.
                let mut expr =
                    LinExpr::term(finishtime[pi][t + 1], 1.0).plus(finishtime[pi][t], -1.0);
                for v_idx in 0..n {
                    let v = NodeId::new(v_idx);
                    expr.add(compute[pi][v_idx][t], -dag.compute_weight(v));
                    expr.add(save[pi][v_idx][t], -arch.g * dag.memory_weight(v));
                    expr.add(load[pi][v_idx][t], -arch.g * dag.memory_weight(v));
                }
                lp.add_constraint(
                    format!("fintime_{pi}_{t}"),
                    expr,
                    ConstraintSense::GreaterEqual,
                    0.0,
                );
                for v_idx in 0..n {
                    let v = NodeId::new(v_idx);
                    // getsblue_v >= finishtime_{t+1} - M (1 - save)
                    lp.add_constraint(
                        format!("getsblue_{pi}_{v_idx}_{t}"),
                        LinExpr::term(getsblue[v_idx], 1.0)
                            .plus(finishtime[pi][t + 1], -1.0)
                            .plus(save[pi][v_idx][t], -big_m),
                        ConstraintSense::GreaterEqual,
                        -big_m,
                    );
                    // finishtime_{t+1} >= getsblue_v + g μ(v) - M (1 - load)
                    lp.add_constraint(
                        format!("loadwait_{pi}_{v_idx}_{t}"),
                        LinExpr::term(finishtime[pi][t + 1], 1.0)
                            .plus(getsblue[v_idx], -1.0)
                            .plus(load[pi][v_idx][t], -big_m),
                        ConstraintSense::GreaterEqual,
                        arch.g * dag.memory_weight(v) - big_m,
                    );
                }
            }
            // Sources are available in slow memory from time 0 (getsblue defaults to
            // >= 0, which is correct); the makespan dominates the last finish time.
            lp.add_constraint(
                format!("makespan_{pi}"),
                LinExpr::term(makespan, 1.0).plus(finishtime[pi][t_max], -1.0),
                ConstraintSense::GreaterEqual,
                0.0,
            );
        }

        MbspIlpBuilder {
            problem: lp,
            compute,
            save,
            load,
            hasred,
            hasblue,
            finishtime,
            getsblue,
            makespan,
            time_steps: t_max,
        }
    }

    /// Encodes a valid [`MbspSchedule`] as a feasible assignment of this
    /// formulation's variables — the warm start the paper hands to COPT
    /// (initialising the ILP solver with the two-stage baseline schedule).
    ///
    /// Each superstep is serialized into aligned time-step slots (computes,
    /// then saves, then loads, padded to the per-phase maximum across
    /// processors) so that cross-processor save→load visibility within a
    /// superstep is preserved. Pebble variables are filled by cache
    /// simulation; the continuous finish-time/availability variables by a
    /// least-fixpoint iteration of their defining inequalities. Returns `None`
    /// when the schedule needs more than `T` steps or the encoding is not
    /// feasible for the formulation (e.g. re-saves that would force a load to
    /// wait on a later save).
    pub fn warm_start_from_schedule(
        &self,
        dag: &CompDag,
        arch: &Architecture,
        schedule: &MbspSchedule,
    ) -> Option<Vec<f64>> {
        #[derive(Debug, Clone, Copy)]
        enum WarmOp {
            Compute(usize),
            Save(usize),
            Load(usize),
        }
        let p = arch.processors;
        let n = dag.num_nodes();
        let t_max = self.time_steps;
        if schedule.processors() != p {
            return None;
        }
        // 1. Serialize: one ILP step per operation, phases aligned across procs.
        let mut op_at: Vec<Vec<Option<WarmOp>>> = vec![vec![None; t_max]; p];
        // `(step, node)`: the red pebble of `node` disappears from step on.
        let mut red_off: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
        let mut cursor = 0usize;
        for step in schedule.supersteps() {
            let c_max = step.procs().map(|ph| ph.num_computes()).max().unwrap_or(0);
            let s_max = step.procs().map(|ph| ph.save.len()).max().unwrap_or(0);
            let l_max = step.procs().map(|ph| ph.load.len()).max().unwrap_or(0);
            if cursor + c_max + s_max + l_max > t_max {
                return None;
            }
            for (pi, phases) in step.procs().enumerate() {
                let mut tc = cursor;
                for c in phases.compute {
                    match c {
                        ComputePhaseStep::Compute(v) => {
                            op_at[pi][tc] = Some(WarmOp::Compute(v.index()));
                            tc += 1;
                        }
                        ComputePhaseStep::Delete(v) => red_off[pi].push((tc, v.index())),
                    }
                }
                for (k, v) in phases.save.iter().enumerate() {
                    op_at[pi][cursor + c_max + k] = Some(WarmOp::Save(v.index()));
                }
                for v in phases.delete {
                    red_off[pi].push((cursor + c_max + s_max, v.index()));
                }
                for (k, v) in phases.load.iter().enumerate() {
                    op_at[pi][cursor + c_max + s_max + k] = Some(WarmOp::Load(v.index()));
                }
            }
            cursor += c_max + s_max + l_max;
        }
        // 2. Pebble variables by simulation.
        let mut values = vec![0.0; self.problem.num_variables()];
        for pi in 0..p {
            let mut redset = vec![false; n];
            red_off[pi].sort_unstable();
            let mut off_iter = red_off[pi].iter().copied().peekable();
            for t in 0..=t_max {
                while let Some((_, v)) = off_iter.next_if(|&(ts, _)| ts <= t) {
                    redset[v] = false;
                }
                for (v, &r) in redset.iter().enumerate() {
                    if r {
                        values[self.hasred[pi][v][t].index()] = 1.0;
                    }
                }
                if t < t_max {
                    match op_at[pi][t] {
                        Some(WarmOp::Compute(v)) => {
                            values[self.compute[pi][v][t].index()] = 1.0;
                            redset[v] = true;
                        }
                        Some(WarmOp::Load(v)) => {
                            values[self.load[pi][v][t].index()] = 1.0;
                            redset[v] = true;
                        }
                        Some(WarmOp::Save(v)) => values[self.save[pi][v][t].index()] = 1.0,
                        None => {}
                    }
                }
            }
        }
        let mut blue_from = vec![usize::MAX; n];
        for v in dag.sources() {
            blue_from[v.index()] = 0;
        }
        for ops in &op_at {
            for (t, op) in ops.iter().enumerate() {
                if let Some(WarmOp::Save(v)) = op {
                    blue_from[*v] = blue_from[*v].min(t + 1);
                }
            }
        }
        for (v, &from) in blue_from.iter().enumerate() {
            for t in from..=t_max {
                values[self.hasblue[v][t].index()] = 1.0;
            }
        }
        // 3. Continuous variables: least fixpoint of the finish-time system.
        let mut fin = vec![vec![0.0f64; t_max + 1]; p];
        let mut gets = vec![0.0f64; n];
        for _round in 0..(t_max + 2) {
            let mut changed = false;
            for pi in 0..p {
                for t in 0..t_max {
                    let mut f = fin[pi][t];
                    match op_at[pi][t] {
                        Some(WarmOp::Compute(v)) => f += dag.compute_weight(NodeId::new(v)),
                        Some(WarmOp::Save(v)) => f += arch.g * dag.memory_weight(NodeId::new(v)),
                        Some(WarmOp::Load(v)) => {
                            f = (f + arch.g * dag.memory_weight(NodeId::new(v)))
                                .max(gets[v] + arch.g * dag.memory_weight(NodeId::new(v)));
                        }
                        None => {}
                    }
                    if f > fin[pi][t + 1] + 1e-12 {
                        fin[pi][t + 1] = f;
                        changed = true;
                    }
                }
                for (t, op) in op_at[pi].iter().enumerate() {
                    if let Some(WarmOp::Save(v)) = op {
                        if fin[pi][t + 1] > gets[*v] + 1e-12 {
                            gets[*v] = fin[pi][t + 1];
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut makespan = 0.0f64;
        for pi in 0..p {
            for t in 0..=t_max {
                values[self.finishtime[pi][t].index()] = fin[pi][t];
            }
            makespan = makespan.max(fin[pi][t_max]);
        }
        for v in 0..n {
            values[self.getsblue[v].index()] = gets[v];
        }
        values[self.makespan.index()] = makespan;
        self.problem.is_feasible(&values, 1e-6).then_some(values)
    }

    /// Extracts a valid [`MbspSchedule`] from a MIP solution of this formulation.
    /// Every ILP time step becomes one superstep; implicit deletions are placed in
    /// the delete phase of the step where the red pebble disappears.
    pub fn extract_schedule(
        &self,
        dag: &CompDag,
        arch: &Architecture,
        solution: &MipSolution,
    ) -> MbspSchedule {
        let p = arch.processors;
        let n = dag.num_nodes();
        let values = &solution.values;
        let is_one = |var: VarId| values[var.index()] > 0.5;
        let mut schedule = MbspSchedule::new(p);
        let mut step = Superstep::empty(p);
        for t in 0..self.time_steps {
            for pi in 0..p {
                let phases = step.proc_mut(ProcId::new(pi));
                phases.clear();
                for v_idx in 0..n {
                    let v = NodeId::new(v_idx);
                    if is_one(self.compute[pi][v_idx][t]) {
                        phases.compute.push(ComputePhaseStep::Compute(v));
                    }
                    if is_one(self.save[pi][v_idx][t]) {
                        phases.save.push(v);
                    }
                    if is_one(self.load[pi][v_idx][t]) {
                        phases.load.push(v);
                    }
                    // Implicit deletion: the pebble is present now but gone at t+1,
                    // and is not re-acquired by this step's own compute/load (those
                    // produce the pebble at t+1).
                    if is_one(self.hasred[pi][v_idx][t]) && !is_one(self.hasred[pi][v_idx][t + 1]) {
                        phases.delete.push(v);
                    }
                }
            }
            schedule.push_superstep(&step);
        }
        schedule.remove_empty_supersteps();
        schedule
    }
}

/// Exact MBSP scheduler: builds the ILP and solves it with branch and bound.
#[derive(Debug, Clone, Default)]
pub struct ExactIlpScheduler {
    config: IlpConfig,
}

impl ExactIlpScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn with_config(config: IlpConfig) -> Self {
        ExactIlpScheduler { config }
    }

    /// Solves the instance. Returns the extracted schedule and the solver status, or
    /// `None` if no feasible schedule was found within the limits.
    pub fn schedule(&self, instance: &MbspInstance) -> Option<(MbspSchedule, MipStatus, f64)> {
        self.solve(instance, None)
    }

    /// Like [`ExactIlpScheduler::schedule`], but seeds branch and bound with a
    /// known-valid schedule (typically the two-stage baseline), exactly as the
    /// paper warm-starts COPT: the encoded assignment becomes the incumbent
    /// (pruning from node one) *and* crashes the root simplex basis. A warm
    /// schedule that does not fit the formulation's `T` steps is silently
    /// ignored.
    pub fn schedule_with_warm_start(
        &self,
        instance: &MbspInstance,
        warm: &MbspSchedule,
    ) -> Option<(MbspSchedule, MipStatus, f64)> {
        self.solve(instance, Some(warm))
    }

    fn solve(
        &self,
        instance: &MbspInstance,
        warm: Option<&MbspSchedule>,
    ) -> Option<(MbspSchedule, MipStatus, f64)> {
        let builder = MbspIlpBuilder::build(instance, &self.config);
        let mut solver = BranchBoundSolver::with_limits(self.config.limits);
        if let Some(ws) =
            warm.and_then(|w| builder.warm_start_from_schedule(instance.dag(), instance.arch(), w))
        {
            solver = solver.with_warm_start(ws);
        }
        let solution = solver.solve(&builder.problem);
        match solution.status {
            MipStatus::Optimal | MipStatus::Feasible => {
                let schedule = builder.extract_schedule(instance.dag(), instance.arch(), &solution);
                Some((schedule, solution.status, solution.objective))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;
    use mbsp_model::async_cost;

    fn path2_instance() -> MbspInstance {
        // A single source feeding one compute node; P = 1, r = 2, g = 1.
        let dag = CompDag::from_edges("tiny", vec![NodeWeights::unit(); 2], &[(0, 1)]).unwrap();
        MbspInstance::new(dag, Architecture::new(1, 2.0, 1.0, 0.0))
    }

    fn small_limits() -> SolverLimits {
        SolverLimits {
            max_nodes: 4000,
            max_pivots: 100_000,
        }
    }

    #[test]
    fn exact_ilp_solves_a_two_node_instance_optimally() {
        let instance = path2_instance();
        let config = IlpConfig {
            time_steps: 3,
            allow_recompute: true,
            limits: small_limits(),
        };
        let (schedule, status, objective) = ExactIlpScheduler::with_config(config)
            .schedule(&instance)
            .expect("feasible");
        assert_eq!(status, MipStatus::Optimal);
        schedule.validate(instance.dag(), instance.arch()).unwrap();
        // Optimal: load the source (cost 1), compute (cost 1), save the sink (cost 1).
        assert!((objective - 3.0).abs() < 1e-6, "objective {objective}");
        let measured = async_cost(&schedule, instance.dag(), instance.arch());
        assert!((measured - 3.0).abs() < 1e-6, "measured {measured}");
    }

    #[test]
    fn infeasible_when_too_few_time_steps() {
        let instance = path2_instance();
        // Two steps cannot hold load + compute + save.
        let config = IlpConfig {
            time_steps: 2,
            allow_recompute: true,
            limits: small_limits(),
        };
        assert!(ExactIlpScheduler::with_config(config)
            .schedule(&instance)
            .is_none());
    }

    #[test]
    fn no_recompute_constraint_is_respected() {
        // A diamond where recomputation is possible but not necessary; with the
        // constraint enabled, every node is computed at most once.
        let dag =
            CompDag::from_edges("d", vec![NodeWeights::unit(); 3], &[(0, 1), (1, 2)]).unwrap();
        let instance = MbspInstance::new(dag, Architecture::new(1, 3.0, 1.0, 0.0));
        let config = IlpConfig {
            time_steps: 5,
            allow_recompute: false,
            limits: small_limits(),
        };
        let (schedule, _, _) = ExactIlpScheduler::with_config(config)
            .schedule(&instance)
            .expect("feasible");
        schedule.validate(instance.dag(), instance.arch()).unwrap();
        let stats = schedule.statistics(instance.dag(), instance.arch());
        assert_eq!(stats.recomputed_nodes, 0);
        assert_eq!(stats.computes, 2);
    }

    /// A hand-built optimal schedule for [`path2_instance`]: load the source,
    /// compute the sink, save it.
    fn path2_schedule() -> MbspSchedule {
        let mut steps = vec![Superstep::empty(1); 2];
        steps[0].procs[0].load.push(mbsp_dag::NodeId::new(0));
        steps[1].procs[0]
            .compute
            .push(ComputePhaseStep::Compute(mbsp_dag::NodeId::new(1)));
        steps[1].procs[0].save.push(mbsp_dag::NodeId::new(1));
        MbspSchedule::from_supersteps(1, &steps).unwrap()
    }

    #[test]
    fn warm_start_encoding_is_feasible_and_matches_the_schedule_cost() {
        let instance = path2_instance();
        let config = IlpConfig {
            time_steps: 3,
            allow_recompute: true,
            limits: small_limits(),
        };
        let builder = MbspIlpBuilder::build(&instance, &config);
        let warm = path2_schedule();
        warm.validate(instance.dag(), instance.arch()).unwrap();
        let values = builder
            .warm_start_from_schedule(instance.dag(), instance.arch(), &warm)
            .expect("the optimal schedule must encode feasibly");
        assert!(builder.problem.is_feasible(&values, 1e-6));
        // The encoded makespan equals the schedule's asynchronous cost.
        let makespan = values[builder.makespan.index()];
        let measured = async_cost(&warm, instance.dag(), instance.arch());
        assert!(
            (makespan - measured).abs() < 1e-6,
            "{makespan} vs {measured}"
        );
    }

    #[test]
    fn warm_start_that_needs_too_many_steps_is_rejected() {
        let instance = path2_instance();
        let config = IlpConfig {
            time_steps: 2,
            allow_recompute: true,
            limits: small_limits(),
        };
        let builder = MbspIlpBuilder::build(&instance, &config);
        assert!(builder
            .warm_start_from_schedule(instance.dag(), instance.arch(), &path2_schedule())
            .is_none());
    }

    #[test]
    fn warm_started_exact_solve_matches_the_cold_solve() {
        let instance = path2_instance();
        let config = IlpConfig {
            time_steps: 3,
            allow_recompute: true,
            limits: small_limits(),
        };
        let scheduler = ExactIlpScheduler::with_config(config);
        let (_, cold_status, cold_obj) = scheduler.schedule(&instance).expect("feasible");
        let (schedule, status, objective) = scheduler
            .schedule_with_warm_start(&instance, &path2_schedule())
            .expect("feasible");
        assert_eq!(status, cold_status);
        assert!((objective - cold_obj).abs() < 1e-6);
        schedule.validate(instance.dag(), instance.arch()).unwrap();
    }

    #[test]
    fn formulation_size_scales_as_expected() {
        let instance = path2_instance();
        let config = IlpConfig {
            time_steps: 4,
            ..Default::default()
        };
        let builder = MbspIlpBuilder::build(&instance, &config);
        // 2 nodes, 1 processor, 4 steps: 3·2·4 binary op vars + 2·5 red + 2·5 blue
        // + continuous finish/getsblue/makespan.
        assert_eq!(builder.compute.len(), 1);
        assert_eq!(builder.compute[0].len(), 2);
        assert_eq!(builder.compute[0][0].len(), 4);
        assert!(builder.problem.num_variables() >= 24 + 20);
        assert!(builder.problem.num_constraints() > 40);
    }
}
