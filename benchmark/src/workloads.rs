//! The four workloads: instance families and sizes, budgets, repeat counts,
//! and the request lines a run will send.
//!
//! The instances of a workload are a fixed set (generated from
//! [`INSTANCE_SEED`]). `--seed` generates traffic: the delta streams of
//! `tenants_small` and `upload_mid`, and the search seeds of `tenants_small`,
//! whose medians are over dozens of searches. Where a run times a kind one to
//! four times the traffic is pinned — which shard an edit dirties, or whether
//! a search improves in its first iteration, would otherwise decide the
//! metric. Nothing is generated while requests are being timed. Sizes,
//! budgets and seed derivations are fixed — only the repeat counts in
//! [`Shape`] may be retuned (see README.md).

use mbsp::dag::{CompDag, DagDelta, PkOrder};
use mbsp::gen::cg::cg_dag;
use mbsp::gen::random::{random_layered_dag, RandomDagConfig};
use mbsp::gen::spmv::{iterated_spmv_dag, spmv_dag, SparsityPattern};
use mbsp::gen::{
    assign_random_memory_weights, mutation_stream, small_dataset_sample, tiny_dataset,
    MutationStreamConfig,
};
use mbsp::model::{Architecture, MbspInstance};
use std::time::Instant;

/// Every instance is generated from this seed (the one the repository's
/// experiment binaries use), whatever `--seed` says: a run times some requests
/// once or a handful of times, and a median over so few samples is only
/// steady across seeds if the work behind each sample does not change.
const INSTANCE_SEED: u64 = 42;
/// The search seed of the two pinned workloads. Whether and in which
/// iteration a search improves on its seed incumbent depends on the seed (on
/// the 100k-node DAG about every other seed never does at this budget), and
/// one `schedule` per run cannot average that out; this one improves in the
/// first iteration, so `first_improve_p50_ms` times an improvement there.
const PINNED_SEARCH_SEED: u64 = 2;
const PROCESSORS: usize = 4;
const CACHE_FACTOR: f64 = 3.0;
/// `--seconds` value at which the repeat counts in [`Shape`] apply unscaled.
pub const REFERENCE_SECONDS: u64 = 10;

/// An hour: no budget is ever cut by the clock, so every result stays a
/// function of (instance, config, seed).
const NO_DEADLINE: &str = r#""time_limit_ms":3600000"#;
const FULL_SEARCH_BUDGET: &str =
    r#""num_shards":4,"max_rounds":6,"moves_per_round":8,"iterations":2,"stale_round_limit":0"#;
/// `stale_round_limit` 0 here too: a repair then spends its whole per-shard
/// budget, so its duration follows the dirty shards, not an early stop.
const EDIT_BUDGET: &str = r#""max_rounds":6,"moves_per_round":8,"stale_round_limit":0"#;

/// Which instances a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// One layered-random DAG (200×500 = 100k nodes) registered by `family`.
    LargeRandom,
    /// The conjugate-gradient DAG (n=40, k=4: 48k nodes) registered by `family`
    /// under three names.
    LargeCg,
    /// The paper's scale: `small_dataset_sample` plus the three coarse
    /// `tiny_dataset` DAGs, uploaded as `dag_hex`.
    PaperSmall,
    /// ≈5k-node DAGs of four families, uploaded as 0.4–0.6 MB `dag_hex` lines.
    MidUploads,
}

/// The fixed description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    family: Family,
    budget: &'static str,
    /// Search seeds come from `--seed` (else [`PINNED_SEARCH_SEED`]).
    seeded_search: bool,
    /// Delta streams come from `--seed` (else [`INSTANCE_SEED`]).
    seeded_edits: bool,
    /// Load-generator connections (capped at `nproc` when a run starts).
    pub clients: usize,
    /// Passes over every instance at [`REFERENCE_SECONDS`].
    passes: usize,
    /// `schedule` in every pass, or only in the first.
    schedule_every_pass: bool,
    /// `mutate` requests per pass and instance, and deltas per request.
    batches: usize,
    deltas: usize,
    /// Fraction of the topological order a pass's deltas fall into.
    locality: f64,
    /// Every n-th pass the daemon is killed between the last `mutate` ack and
    /// the `repair`.
    restart_every: usize,
    /// Extra kill → restart → `status` rounds after the last pass.
    idle_restarts: usize,
    /// Every `schedule` returns its schedule (else: the run's last `repair`).
    schedule_returns: bool,
}

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "sched_large",
        why: "search-bound: one 100k-node DAG, so conversion, evaluation and merge are most of every request; an ingest, transport or checkpoint change must not move it",
        family: Family::LargeRandom,
        budget: FULL_SEARCH_BUDGET,
        seeded_search: false,
        seeded_edits: false,
        clients: 1,
        passes: 1,
        schedule_every_pass: false,
        batches: 3,
        deltas: 4,
        locality: 0.01,
        restart_every: 1,
        idle_restarts: 8,
        schedule_returns: true,
    },
    Shape {
        name: "edit_loop",
        why: "write path: three 48k-node tenants edited in place - apply_delta, full checkpoint rewrite, queue hop, two-frame reply, dirty-cone repair - with kill -9 between the last mutate ack and the repair",
        family: Family::LargeCg,
        budget: EDIT_BUDGET,
        seeded_search: false,
        seeded_edits: false,
        clients: 1,
        passes: 1,
        schedule_every_pass: false,
        batches: 4,
        deltas: 4,
        locality: 0.01,
        restart_every: 1,
        idle_restarts: 5,
        schedule_returns: false,
    },
    Shape {
        name: "tenants_small",
        why: "the paper's scale (52-780 nodes) under two concurrent clients: per-request fixed costs, the reply floor and the shared pool dominate; its cost_ratio is the Table-2-style number",
        family: Family::PaperSmall,
        budget: "",
        seeded_search: true,
        seeded_edits: true,
        clients: 2,
        passes: 6,
        schedule_every_pass: true,
        batches: 1,
        deltas: 8,
        locality: 1.0,
        restart_every: 2,
        idle_restarts: 4,
        schedule_returns: true,
    },
    Shape {
        name: "upload_mid",
        why: "ingest-bound: 5k-node DAGs uploaded as 0.4-0.6 MB dag_hex lines, so parse_request (JSON string scan, hex, decode_dag) is most of register and of the run",
        family: Family::MidUploads,
        budget: FULL_SEARCH_BUDGET,
        seeded_search: false,
        seeded_edits: true,
        clients: 1,
        passes: 1,
        schedule_every_pass: true,
        batches: 1,
        deltas: 4,
        locality: 0.05,
        restart_every: 1,
        idle_restarts: 4,
        schedule_returns: true,
    },
];

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Register,
    Schedule,
    Mutate,
    Repair,
    Status,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Register => "register",
            Kind::Schedule => "schedule",
            Kind::Mutate => "mutate",
            Kind::Repair => "repair",
            Kind::Status => "status",
        }
    }
}

/// One request, ready to send.
#[derive(Debug)]
pub struct Op {
    pub kind: Kind,
    pub instance: usize,
    /// Echoed by every frame the daemon answers with.
    pub id: u64,
    /// The request line, newline included.
    pub line: Vec<u8>,
    /// The deltas a `mutate` carries, for the client's mirror DAG.
    pub deltas: Vec<DagDelta>,
    /// The request asks for the schedule to be embedded in the reply.
    pub returns_schedule: bool,
}

/// One registered instance as the client knows it.
#[derive(Debug)]
pub struct Instance {
    pub name: String,
    /// The DAG as registered (the seed of the client's mirror).
    pub dag: CompDag,
    pub arch: Architecture,
    /// When the `mbsp_gen` generator call for this DAG started and ended.
    pub generated: (Instant, Instant),
}

/// Everything one run will send: `segments[s][c]` is what client `c` sends in
/// segment `s`; the daemon is killed (`kill -9`) and restarted between
/// segments.
#[derive(Debug)]
pub struct Plan {
    pub instances: Vec<Instance>,
    pub segments: Vec<Vec<Vec<Op>>>,
}

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated DAG and how it reaches the daemon.
struct Generated {
    name: String,
    dag: CompDag,
    /// `"family":{…}` for server-side generation, `None` for a hex upload.
    family: Option<String>,
    generated: (Instant, Instant),
}

fn timed(name: &str, family: Option<String>, make: impl FnOnce() -> CompDag) -> Generated {
    let start = Instant::now();
    let dag = make();
    Generated {
        name: name.to_string(),
        dag,
        family,
        generated: (start, Instant::now()),
    }
}

fn generate(family: Family, smoke: bool) -> Vec<Generated> {
    let seed = INSTANCE_SEED;
    match family {
        Family::LargeRandom => {
            let (layers, width, edge_probability) = if smoke {
                (20, 50, 0.06)
            } else {
                (200, 500, 0.006)
            };
            // The protocol's own `max_compute`/`max_memory` defaults, spelled
            // out so client and daemon build the same DAG.
            let config = RandomDagConfig {
                layers,
                width,
                edge_probability,
                max_compute: 4,
                max_memory: 3,
            };
            let dag_seed = sub_seed(seed, 1);
            let spec = format!(
                r#"{{"kind":"random","layers":{layers},"width":{width},"edge_probability":{edge_probability},"max_compute":4,"max_memory":3,"seed":{dag_seed}}}"#
            );
            vec![timed("a", Some(spec), || {
                random_layered_dag(&config, dag_seed)
            })]
        }
        Family::LargeCg => {
            let (n, k) = if smoke { (6, 2) } else { (40, 4) };
            let spec = format!(r#"{{"kind":"cg","n":{n},"k":{k}}}"#);
            // Three tenants with the same DAG: `register` and `schedule` get
            // three samples of identical work, each tenant its own edits.
            ["cg_a", "cg_b", "cg_c"]
                .iter()
                .map(|name| timed(name, Some(spec.clone()), || cg_dag(name, n, k)))
                .collect()
        }
        Family::PaperSmall => {
            let start = Instant::now();
            let named = if smoke {
                let mut tiny = tiny_dataset(seed);
                tiny.truncate(4);
                tiny
            } else {
                let mut all = small_dataset_sample(seed);
                all.extend(tiny_dataset(seed).into_iter().take(3));
                all
            };
            let generated = (start, Instant::now());
            named
                .into_iter()
                .map(|inst| Generated {
                    name: inst.name,
                    dag: inst.dag,
                    family: None,
                    generated,
                })
                .collect()
        }
        Family::MidUploads => {
            let weighted = |name: &str, make: &dyn Fn() -> CompDag| {
                timed(name, None, || {
                    let mut dag = make();
                    assign_random_memory_weights(&mut dag, 5, seed ^ 0xA5);
                    dag
                })
            };
            let (layers, width, spmv_n, exp_n, exp_k, cg_n, cg_k) = if smoke {
                (8, 25, 30, 12, 2, 3, 2)
            } else {
                (25, 200, 600, 250, 4, 13, 4)
            };
            let mut out = vec![
                weighted("rand", &|| {
                    random_layered_dag(
                        &RandomDagConfig {
                            layers,
                            width,
                            edge_probability: 3.0 / width as f64,
                            ..Default::default()
                        },
                        seed,
                    )
                }),
                weighted("spmv", &|| {
                    spmv_dag("spmv", &SparsityPattern::random(spmv_n, 4, seed ^ 1))
                }),
            ];
            if !smoke {
                out.push(weighted("exp", &|| {
                    iterated_spmv_dag("exp", &SparsityPattern::random(exp_n, 3, seed ^ 2), exp_k)
                }));
                out.push(weighted("cg", &|| cg_dag("cg", cg_n, cg_k)));
            }
            out
        }
    }
}

fn scaled(count: usize, seconds: u64) -> usize {
    ((count as u64 * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS).max(1) as usize
}

fn delta_json(delta: &DagDelta) -> String {
    match delta {
        DagDelta::AddNode { weights, label } => {
            assert!(label.is_none(), "mutation streams add unlabeled nodes");
            format!(
                r#"{{"add_node":{{"compute":{:?},"memory":{:?}}}}}"#,
                weights.compute, weights.memory
            )
        }
        DagDelta::RemoveNode { node } => {
            format!(r#"{{"remove_node":{{"node":{}}}}}"#, node.index())
        }
        DagDelta::AddEdge { from, to } => format!(
            r#"{{"add_edge":{{"from":{},"to":{}}}}}"#,
            from.index(),
            to.index()
        ),
        DagDelta::RemoveEdge { from, to } => format!(
            r#"{{"remove_edge":{{"from":{},"to":{}}}}}"#,
            from.index(),
            to.index()
        ),
        DagDelta::Reweight { node, weights } => format!(
            r#"{{"reweight":{{"node":{},"compute":{:?},"memory":{:?}}}}}"#,
            node.index(),
            weights.compute,
            weights.memory
        ),
    }
}

/// Numbers the requests of a plan and renders their lines.
#[derive(Default)]
struct Ops {
    next_id: u64,
}

impl Ops {
    /// `body` is the request without its braces and `id`.
    fn op(&mut self, kind: Kind, instance: usize, body: String, deltas: Vec<DagDelta>) -> Op {
        self.next_id += 1;
        Op {
            kind,
            instance,
            id: self.next_id,
            returns_schedule: body.contains(r#""return_schedule":true"#),
            line: format!("{{\"id\":{},{body}}}\n", self.next_id).into_bytes(),
            deltas,
        }
    }

    fn status(&mut self, instance: usize, name: &str) -> Op {
        let body = format!(r#""op":"status","instance":"{name}""#);
        self.op(Kind::Status, instance, body, Vec::new())
    }
}

/// The requests of one instance after its `register`: per pass, what is sent
/// before a possible restart (schedule, mutates) and after it (repair, status).
struct Passes {
    before: std::vec::IntoIter<Vec<Op>>,
    after: std::vec::IntoIter<Vec<Op>>,
}

impl Shape {
    /// Generates the instances and every request line of one run.
    pub fn plan(&self, seed: u64, seconds: u64, smoke: bool, clients: usize) -> Plan {
        let (passes, batches, idle_restarts) = if smoke {
            (2, self.batches.min(2), 1)
        } else {
            (
                scaled(self.passes, seconds),
                self.batches,
                self.idle_restarts,
            )
        };
        let search_seed = if self.seeded_search {
            sub_seed(seed, 2)
        } else {
            PINNED_SEARCH_SEED
        };
        let edit_seed = if self.seeded_edits {
            seed
        } else {
            INSTANCE_SEED
        };
        let budget = if self.budget.is_empty() {
            NO_DEADLINE.to_string()
        } else {
            format!("{},{NO_DEADLINE}", self.budget)
        };

        let generated = generate(self.family, smoke);
        let count = generated.len();
        let mut ops = Ops::default();
        let mut instances = Vec::new();
        let mut registers = Vec::new();
        let mut traffic = Vec::new();
        for (i, gen) in generated.into_iter().enumerate() {
            let name = &gen.name;
            let base = Architecture::new(PROCESSORS, 0.0, 1.0, 2.0);
            let arch = *MbspInstance::with_cache_factor(gen.dag.clone(), base, CACHE_FACTOR).arch();
            let source = match &gen.family {
                Some(spec) => format!(r#""family":{spec}"#),
                None => format!(
                    r#""dag_hex":"{}""#,
                    mbsp::serve::encode_hex(&mbsp::io::encode_dag(&gen.dag))
                ),
            };
            registers.push(ops.op(
                Kind::Register,
                i,
                format!(
                    r#""op":"register","instance":"{name}",{source},"processors":{PROCESSORS},"cache_factor":{CACHE_FACTOR:?},"seed":{search_seed},{budget}"#
                ),
                Vec::new(),
            ));

            // The delta streams are generated on a mirror that moves with
            // them, exactly as the daemon's copy will.
            let mut mirror = gen.dag.clone();
            let mut order = PkOrder::of_dag(&mirror);
            let mut before = Vec::new();
            let mut after = Vec::new();
            for pass in 0..passes {
                let mut sent = Vec::new();
                if pass == 0 || self.schedule_every_pass {
                    let body = format!(
                        r#""op":"schedule","instance":"{name}","stream":true,"return_schedule":{}"#,
                        self.schedule_returns
                    );
                    sent.push(ops.op(Kind::Schedule, i, body, Vec::new()));
                }
                let stream = mutation_stream(
                    &mirror,
                    &MutationStreamConfig {
                        ops: batches * self.deltas,
                        locality: self.locality,
                        ..Default::default()
                    },
                    sub_seed(edit_seed, ((i as u64) << 32) | (pass as u64 + 1024)),
                );
                for batch in stream.chunks(self.deltas) {
                    for delta in batch {
                        mirror
                            .apply_delta(delta, &mut order)
                            .expect("mutation streams replay cleanly");
                    }
                    let deltas: Vec<String> = batch.iter().map(delta_json).collect();
                    let body = format!(
                        r#""op":"mutate","instance":"{name}","deltas":[{}]"#,
                        deltas.join(",")
                    );
                    sent.push(ops.op(Kind::Mutate, i, body, batch.to_vec()));
                }
                before.push(sent);
                // Where no `schedule` returns its schedule, the run's very last
                // `repair` does: the checker gets a post-mutation schedule.
                let returns = !self.schedule_returns && pass + 1 == passes && i + 1 == count;
                let body =
                    format!(r#""op":"repair","instance":"{name}","return_schedule":{returns}"#);
                after.push(vec![
                    ops.op(Kind::Repair, i, body, Vec::new()),
                    ops.status(i, name),
                ]);
            }
            traffic.push(Passes {
                before: before.into_iter(),
                after: after.into_iter(),
            });
            instances.push(Instance {
                name: gen.name,
                dag: gen.dag,
                arch,
                generated: gen.generated,
            });
        }

        // Deal the ops out: client `i % clients` owns instance `i`. A pass
        // with a restart sends everything that precedes it, then (in the next
        // segment) a `status` per instance to compare with the pre-kill
        // state, then the repairs. An idle restart has nothing pending.
        let owner = |i: usize| i % clients;
        let new_segment = || (0..clients).map(|_| Vec::new()).collect::<Vec<Vec<Op>>>();
        let mut segments = Vec::new();
        let mut current = new_segment();
        for register in registers {
            current[owner(register.instance)].push(register);
        }
        let mut restart = |current: &mut Vec<Vec<Op>>, ops: &mut Ops| {
            segments.push(std::mem::replace(current, new_segment()));
            for (i, inst) in instances.iter().enumerate() {
                current[owner(i)].push(ops.status(i, &inst.name));
            }
        };
        for pass in 0..passes {
            for (i, passes) in traffic.iter_mut().enumerate() {
                current[owner(i)].extend(passes.before.next().expect("one entry per pass"));
                if (pass + 1) % self.restart_every != 0 {
                    current[owner(i)].extend(passes.after.next().expect("one entry per pass"));
                }
            }
            if (pass + 1) % self.restart_every == 0 {
                restart(&mut current, &mut ops);
                for (i, passes) in traffic.iter_mut().enumerate() {
                    current[owner(i)].extend(passes.after.next().expect("one entry per pass"));
                }
            }
        }
        for _ in 0..idle_restarts {
            restart(&mut current, &mut ops);
        }
        segments.push(current);
        Plan {
            instances,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for shape in &SHAPES {
            let lines = |seed| -> Vec<Vec<u8>> {
                let plan = shape.plan(seed, REFERENCE_SECONDS, true, shape.clients);
                plan.segments
                    .into_iter()
                    .flatten()
                    .flatten()
                    .map(|op| op.line)
                    .collect()
            };
            assert_eq!(lines(7), lines(7), "{}", shape.name);
            assert_eq!(lines(7) != lines(8), shape.seeded_edits, "{}", shape.name);
        }
    }

    #[test]
    fn smoke_instances_stay_small() {
        for shape in &SHAPES {
            let plan = shape.plan(42, REFERENCE_SECONDS, true, shape.clients);
            for inst in &plan.instances {
                assert!(inst.dag.num_nodes() <= 2000, "{}/{}", shape.name, inst.name);
            }
            for op in plan.segments.iter().flatten().flatten() {
                assert!(
                    op.line.len() <= 40 * 1024,
                    "{}: {} bytes",
                    shape.name,
                    op.line.len()
                );
            }
        }
    }

    #[test]
    fn every_instance_is_registered_once_and_ids_are_unique() {
        let shape = shape("tenants_small").unwrap();
        let plan = shape.plan(42, REFERENCE_SECONDS, false, 2);
        let ops: Vec<&Op> = plan.segments.iter().flatten().flatten().collect();
        let registers = ops.iter().filter(|op| op.kind == Kind::Register).count();
        assert_eq!(registers, plan.instances.len());
        assert_eq!(plan.instances.len(), 13);
        let mut ids: Vec<u64> = ops.iter().map(|op| op.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ops.len());
    }
}
