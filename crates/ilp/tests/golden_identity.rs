//! Golden identity: pins every scheduler front-end against recorded values.
//!
//! The determinism suites compare worker counts against each other inside one
//! build; nothing there notices when a refactor changes what *every* worker
//! count produces. This suite records, for the first six `tiny_dataset(42)`
//! instances (`paper_default`, cache factor 3, limits generous enough never to
//! truncate), the final cost bits, the evaluation count and the 64-bit FNV-1a
//! hash of the schedule's JSON form for each front-end, plus the hashes of the
//! sharded search's incumbent stream and of the incremental session's final
//! checkpoint. The tables were generated at commit `550b858`
//! (`DIVIDE_AND_CONQUER` and the two `SHARDED_WEIGHTED_*` tables re-recorded
//! when the bipartition ILP went into closure form, which returns a different
//! optimum among ties, and `INCREMENTAL`'s checkpoint hashes re-recorded
//! when the session's config section became `CNF2`); a mismatch
//! prints the table the current build produces, so an *intended* change of
//! behaviour is re-recorded by pasting that output over the constant.

use mbsp_gen::{mutation_stream, MutationStreamConfig};
use mbsp_ilp::{
    DivideAndConquerConfig, DivideAndConquerScheduler, IncrementalScheduler, IncumbentObserver,
    IncumbentUpdate, RepairConfig, ShardStrategy, ShardedHolisticScheduler, ShardedSearchConfig,
};
use mbsp_model::{sync_cost, Architecture, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::sync::{Arc, Mutex};

/// `(final_cost.to_bits(), evaluations, FNV-1a of the schedule's JSON)`.
type Row = (u64, u64, u64);

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn schedule_hash(schedule: &MbspSchedule) -> u64 {
    let json = serde_json::to_string(schedule).expect("schedules serialise");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

fn instances() -> Vec<MbspInstance> {
    mbsp_gen::tiny_dataset(42)
        .into_iter()
        .take(6)
        .map(|inst| {
            MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
        })
        .collect()
}

/// `Err` carries the table the current build produces, formatted as the rows
/// of the constant it is compared against.
fn check_golden<T: PartialEq + std::fmt::Debug>(
    name: &str,
    actual: &[T],
    expected: &[T],
) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let rows: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    Err(format!(
        "{name} moved; this build produces the rows:\n{rows}"
    ))
}

fn assert_golden<T: PartialEq + std::fmt::Debug>(name: &str, actual: &[T], expected: &[T]) {
    if let Err(report) = check_golden(name, actual, expected) {
        panic!("{report}");
    }
}

const DIVIDE_AND_CONQUER: &[Row] = &[
    (4644090825121202176, 0, 11491537141267037038),
    (4644213970423513088, 0, 7588284370162990913),
    (4644530629772312576, 0, 16055161327706311255),
    (4637581716284768256, 0, 16347524510636357122),
    (4640255728563519488, 0, 5355031962182114235),
    (4640818678516940800, 0, 8547879637612837511),
];

#[test]
fn divide_and_conquer_scheduler_matches_the_recorded_values() {
    let dnc = DivideAndConquerScheduler::with_config(DivideAndConquerConfig {
        max_part_size: 25,
        max_rounds: 4,
        moves_per_round: 20,
        ..Default::default()
    });
    let actual: Vec<Row> = instances()
        .iter()
        .map(|inst| {
            let schedule = dnc.schedule(inst);
            let cost = sync_cost(&schedule, inst.dag(), inst.arch()).total;
            // The scheduler reports no statistics; the cost is re-derived.
            (cost.to_bits(), 0, schedule_hash(&schedule))
        })
        .collect();
    assert_golden("DIVIDE_AND_CONQUER", &actual, DIVIDE_AND_CONQUER);
}

/// A [`Row`] plus the FNV-1a hash of the incumbent stream: every update's
/// `(sequence, iteration, cost bits, evaluations)` as little-endian words.
type ShardedRow = (u64, u64, u64, u64);

fn sharded_rows(strategy: ShardStrategy, shard_local_seed: bool) -> Vec<ShardedRow> {
    let greedy = GreedyBspScheduler::new();
    instances()
        .iter()
        .map(|inst| {
            let stream = Arc::new(Mutex::new(FNV_OFFSET));
            let sink = Arc::clone(&stream);
            let observer: IncumbentObserver = Arc::new(move |u: &IncumbentUpdate| {
                let mut hash = sink.lock().unwrap();
                for word in [
                    u.sequence,
                    u.iteration as u64,
                    u.cost.to_bits(),
                    u.evaluations,
                ] {
                    *hash = fnv1a(*hash, &word.to_le_bytes());
                }
            });
            let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
                strategy,
                shard_local_seed,
                num_shards: 3,
                max_rounds: 4,
                moves_per_round: 10,
                iterations: 2,
                ..Default::default()
            })
            .with_observer(observer);
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let (schedule, stats, _) = sharded.schedule_with_assignment(inst, &baseline);
            let stream_hash = *stream.lock().unwrap();
            (
                stats.final_cost.to_bits(),
                stats.evaluations,
                schedule_hash(&schedule),
                stream_hash,
            )
        })
        .collect()
}

const SHARDED_TOPO_LOCAL_SEED: &[ShardedRow] = &[
    (
        4640853862889029632,
        39,
        14050396731830282402,
        8680618421834301905,
    ),
    (
        4640748309772763136,
        87,
        3407941841364740758,
        864459648080710601,
    ),
    (
        4641979762795872256,
        83,
        4814326394961686495,
        14242393672037577861,
    ),
    (
        4636526185122103296,
        91,
        4766469012951891124,
        1024522165821481646,
    ),
    (
        4637652085028945920,
        65,
        4362345751605939281,
        8030995217789422825,
    ),
    (
        4640185359819341824,
        86,
        10105911686239032778,
        2848727819770984906,
    ),
];
const SHARDED_TOPO_INCUMBENT_SEED: &[ShardedRow] = &[
    (
        4641346444098273280,
        37,
        5136440828595974245,
        16837466104647041975,
    ),
    (
        4640255728563519488,
        80,
        6035264189021127707,
        11394666440091861044,
    ),
    (
        4641979762795872256,
        82,
        4814326394961686495,
        14242393672037577861,
    ),
    (
        4636385447633747968,
        83,
        2360520861031319889,
        15928675983603914485,
    ),
    (
        4637370610052235264,
        71,
        2525775066120621773,
        4868691604665265554,
    ),
    (
        4640326097307697152,
        132,
        2357330465003108260,
        13143108582631957167,
    ),
];
const SHARDED_WEIGHTED_LOCAL_SEED: &[ShardedRow] = &[
    (
        4641276075354095616,
        38,
        2400523297319232285,
        8380458479310191200,
    ),
    (
        4640748309772763136,
        67,
        3407941841364740758,
        864459648080710601,
    ),
    (
        4641979762795872256,
        70,
        4814326394961686495,
        14242393672037577861,
    ),
    (
        4636385447633747968,
        81,
        1879027844049070965,
        10154587440534858400,
    ),
    (
        4635892866424504320,
        106,
        5167368198685613334,
        15445031162361784746,
    ),
    (
        4640959416005296128,
        96,
        16794189046409514526,
        16045956642705052486,
    ),
];
const SHARDED_WEIGHTED_INCUMBENT_SEED: &[ShardedRow] = &[
    (
        4641346444098273280,
        33,
        5136440828595974245,
        16837466104647041975,
    ),
    (
        4640748309772763136,
        59,
        3407941841364740758,
        864459648080710601,
    ),
    (
        4641979762795872256,
        47,
        4814326394961686495,
        14242393672037577861,
    ),
    (
        4636385447633747968,
        68,
        1879027844049070965,
        1692978765725581141,
    ),
    (
        4637581716284768256,
        83,
        16775519440794393649,
        1156216724009961622,
    ),
    (
        4640502019168141312,
        129,
        5446912211206036736,
        11201340330657593597,
    ),
];

#[test]
fn sharded_scheduler_matches_the_recorded_values() {
    // All four variants are compared before failing, so one run re-records
    // every table.
    let mut moved = Vec::new();
    for (name, strategy, shard_local_seed, expected) in [
        (
            "SHARDED_TOPO_LOCAL_SEED",
            ShardStrategy::Topo,
            true,
            SHARDED_TOPO_LOCAL_SEED,
        ),
        (
            "SHARDED_TOPO_INCUMBENT_SEED",
            ShardStrategy::Topo,
            false,
            SHARDED_TOPO_INCUMBENT_SEED,
        ),
        (
            "SHARDED_WEIGHTED_LOCAL_SEED",
            ShardStrategy::Weighted,
            true,
            SHARDED_WEIGHTED_LOCAL_SEED,
        ),
        (
            "SHARDED_WEIGHTED_INCUMBENT_SEED",
            ShardStrategy::Weighted,
            false,
            SHARDED_WEIGHTED_INCUMBENT_SEED,
        ),
    ] {
        if let Err(report) = check_golden(name, &sharded_rows(strategy, shard_local_seed), expected)
        {
            moved.push(report);
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// The full repair's [`Row`], the post-mutation repair's [`Row`], and the
/// FNV-1a hash of the session's final checkpoint.
type IncrementalRow = (Row, Row, u64);

const INCREMENTAL: &[IncrementalRow] = &[
    (
        (4641276075354095616, 38, 14347240237950182896),
        (4641522365958717440, 30, 834257870919038502),
        1509298880388229013,
    ),
    (
        (4640396466051874816, 48, 18254570904224638095),
        (4639903884842631168, 49, 2304020880547337240),
        4384838275318442756,
    ),
    (
        (4642824187726004224, 34, 10439191748400367539),
        (4642507528377204736, 62, 4266520391578624591),
        7108820197079045289,
    ),
    (
        (4636385447633747968, 50, 9651592118288835760),
        (4637229872563879936, 94, 14979415379550022691),
        2874461240284126256,
    ),
    (
        (4637581716284768256, 66, 12775341531550626209),
        (4638883538052055040, 67, 329350569936027434),
        16705492263593062667,
    ),
    (
        (4641205706609917952, 101, 12748834799017232835),
        (4641240890982006784, 93, 7257127178155521069),
        5448411400066494323,
    ),
];

#[test]
fn incremental_scheduler_matches_the_recorded_values() {
    let greedy = GreedyBspScheduler::new();
    let config = RepairConfig {
        search: ShardedSearchConfig {
            num_shards: 4,
            max_rounds: 4,
            moves_per_round: 12,
            strategy: ShardStrategy::Topo,
            shard_local_seed: false,
            ..ShardedSearchConfig::default()
        },
        cone_radius: 2,
    };
    let actual: Vec<IncrementalRow> = instances()
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let procs: Vec<ProcId> = inst
                .dag()
                .nodes()
                .map(|v| baseline.schedule.proc_of(v))
                .collect();
            let mut session =
                IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), procs, config);
            let (schedule, stats) = session.full_repair();
            let full = (
                stats.final_cost.to_bits(),
                stats.evaluations,
                schedule_hash(&schedule),
            );
            let stream_config = MutationStreamConfig {
                ops: 10,
                ..Default::default()
            };
            for delta in mutation_stream(inst.dag(), &stream_config, 0x601D ^ i as u64) {
                session.apply(&delta).expect("stream deltas apply in order");
            }
            let (schedule, stats) = session.repair();
            let repaired = (
                stats.final_cost.to_bits(),
                stats.evaluations,
                schedule_hash(&schedule),
            );
            (full, repaired, fnv1a(FNV_OFFSET, &session.checkpoint()))
        })
        .collect();
    assert_golden("INCREMENTAL", &actual, INCREMENTAL);
}
