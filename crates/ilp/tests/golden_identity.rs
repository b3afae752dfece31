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
        38,
        14050396731830282402,
        5911856417541313263,
    ),
    (
        4640748309772763136,
        86,
        3407941841364740758,
        17078888314822672808,
    ),
    (
        4641979762795872256,
        82,
        4814326394961686495,
        12010078265069988452,
    ),
    (
        4635329916471083008,
        76,
        6128121373858442839,
        13848651149967595124,
    ),
    (
        4637652085028945920,
        64,
        4362345751605939281,
        5836933512387604153,
    ),
    (
        4640185359819341824,
        85,
        7044624231542368793,
        3308899605373008538,
    ),
];
const SHARDED_TOPO_INCUMBENT_SEED: &[ShardedRow] = &[
    (
        4641346444098273280,
        36,
        5136440828595974245,
        14605150697679452566,
    ),
    (
        4640255728563519488,
        79,
        6035264189021127707,
        5175394508700219322,
    ),
    (
        4641979762795872256,
        81,
        4814326394961686495,
        12010078265069988452,
    ),
    (
        4636385447633747968,
        82,
        12245934291615690845,
        13960428774775252325,
    ),
    (
        4637370610052235264,
        70,
        2525775066120621773,
        16473946196616867747,
    ),
    (
        4640290912935608320,
        118,
        515333435751862615,
        17840753159975150881,
    ),
];
const SHARDED_WEIGHTED_LOCAL_SEED: &[ShardedRow] = &[
    (
        4641276075354095616,
        37,
        2400523297319232285,
        13165130786028070146,
    ),
    (
        4640748309772763136,
        66,
        3407941841364740758,
        17078888314822672808,
    ),
    (
        4641979762795872256,
        69,
        4814326394961686495,
        12010078265069988452,
    ),
    (
        4636385447633747968,
        80,
        4206028768088501097,
        2117129791919105072,
    ),
    (
        4635892866424504320,
        105,
        5167368198685613334,
        15732106177436549689,
    ),
    (
        4640361281679785984,
        95,
        4047691476760464372,
        3265441624120913757,
    ),
];
const SHARDED_WEIGHTED_INCUMBENT_SEED: &[ShardedRow] = &[
    (
        4641346444098273280,
        32,
        5136440828595974245,
        14605150697679452566,
    ),
    (
        4640748309772763136,
        58,
        3407941841364740758,
        17078888314822672808,
    ),
    (
        4641979762795872256,
        46,
        4814326394961686495,
        12010078265069988452,
    ),
    (
        4636385447633747968,
        67,
        4206028768088501097,
        9990517648759545987,
    ),
    (
        4637581716284768256,
        82,
        16775519440794393649,
        6582484622997570615,
    ),
    (
        4640326097307697152,
        113,
        6402579048842926037,
        14133151384747127503,
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
        (4641276075354095616, 37, 14347240237950182896),
        (4641522365958717440, 29, 834257870919038502),
        1509298880388229013,
    ),
    (
        (4640396466051874816, 47, 18254570904224638095),
        (4639903884842631168, 48, 2304020880547337240),
        4384838275318442756,
    ),
    (
        (4642824187726004224, 33, 10439191748400367539),
        (4642507528377204736, 61, 4266520391578624591),
        7108820197079045289,
    ),
    (
        (4636455816377925632, 49, 28594442630095732),
        (4637229872563879936, 93, 13090499555709260215),
        2874461240284126256,
    ),
    (
        (4637581716284768256, 65, 12775341531550626209),
        (4638989091168321536, 66, 13010671417280737662),
        16705492263593062667,
    ),
    (
        (4640713125400674304, 102, 7662595864747250945),
        (4641276075354095616, 71, 8406562070636501512),
        18215444116966441952,
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
