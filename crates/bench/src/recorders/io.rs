//! The `io` recorder: binary encode/decode wall-clock of full
//! `mbsp_ilp::IncrementalScheduler` sessions (`mbsp_io` frame) on the
//! `large_dataset` instances (`BENCH_io.json`).
//!
//! Per instance the harness seeds an incremental session (greedy assignment,
//! standard repair configuration), lands a small localized delta stream so
//! the pending set and the mutated order are non-trivial — a checkpoint of a
//! freshly-built session would flatter the codec — then measures
//! (a) `checkpoint()` (encode) and (b) `IncrementalScheduler::restore`
//! (decode + full invariant re-validation), each as the minimum over `REPS`
//! runs. Two robustness flags ride along: `byte_identical` (the restored
//! session re-checkpoints to the exact original bytes — the property the
//! `checkpoint_session` suite pins functionally) and `corrupt_rejected` (a
//! truncation and a bit flip of the blob are both refused with a typed
//! [`DecodeError`](mbsp_ilp::DecodeError)).
//!
//! A quick run takes two small layered DAGs. Gated on every row: both flags,
//! and both timings are real measurements. Full-run bar: on the
//! production-scale (100k-node) instances encode and decode each finish
//! **under 50 ms** — checkpointing has to be cheap enough to run at
//! mutation-stream cadence, not just at job boundaries.

use crate::{large_or_quick, paper_instance, Recorder};
use mbsp_gen::{mutation_stream, Corruption, MutationStreamConfig, NamedInstance};
use mbsp_ilp::{IncrementalScheduler, RepairConfig, ShardedSearchConfig};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::Instant;

/// Wall-clock is the minimum over this many runs: checkpointing is pure CPU
/// (no I/O, no search), so the minimum is the least-noisy estimator.
const REPS: usize = 5;
/// The acceptance bar, per direction, on the 100k-node instances.
const BUDGET_SECONDS: f64 = 0.050;

/// The `io` recorder.
#[derive(Default)]
pub(crate) struct Io;

/// One row of `BENCH_io.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
    name: String,
    nodes: usize,
    edges: usize,
    pending: usize,
    blob_bytes: usize,
    encode_seconds: f64,
    decode_seconds: f64,
    encode_mb_per_s: f64,
    decode_mb_per_s: f64,
    byte_identical: bool,
    corrupt_rejected: bool,
}

impl Recorder for Io {
    type Instance = NamedInstance;
    type Row = Row;
    const NAME: &'static str = "io";
    const BENCHMARK: &'static str = "binary session checkpoint encode/decode (mbsp_io frame) \
        with byte-identity and corruption-rejection flags";
    const FLAGS: &'static [&'static str] = &["byte_identical", "corrupt_rejected"];
    const TIMINGS: &'static [&'static str] = &["encode_seconds", "decode_seconds"];

    fn instances(&self, quick: bool) -> Vec<NamedInstance> {
        large_or_quick(quick, [(12, 50, 0.08, 17), (20, 60, 0.06, 18)])
    }

    fn name(named: &NamedInstance) -> &str {
        &named.name
    }

    fn measure(&self, named: &NamedInstance) -> Row {
        let n = named.dag.num_nodes();
        let instance = paper_instance(named);
        let baseline = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        let procs = instance
            .dag()
            .nodes()
            .map(|v| baseline.schedule.proc_of(v))
            .collect();
        let mut sched = IncrementalScheduler::new(
            named.dag.clone(),
            *instance.arch(),
            procs,
            RepairConfig {
                search: ShardedSearchConfig {
                    num_shards: 16,
                    workers: 4,
                    max_rounds: 20,
                    moves_per_round: 4,
                    ..Default::default()
                },
                cone_radius: 1,
            },
        );

        // Make the session state non-trivial: land a localized delta stream so
        // the checkpoint carries a real pending set.
        // (The search itself is not run — this benchmark times the codec, and
        // the blob layout is identical either way.)
        let stream_config = MutationStreamConfig {
            ops: (n / 1000).clamp(4, 32),
            structural: false,
            locality: 0.01,
        };
        for delta in &mutation_stream(sched.dag(), &stream_config, 0x10CDC) {
            sched
                .apply(delta)
                .expect("generated streams replay cleanly");
        }

        // (a) Encode: full session -> blob.
        let mut encode_seconds = f64::INFINITY;
        let mut blob = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            blob = sched.checkpoint();
            encode_seconds = encode_seconds.min(start.elapsed().as_secs_f64());
        }

        // (b) Decode: blob -> session, re-validating every invariant.
        let mut decode_seconds = f64::INFINITY;
        let mut restored = None;
        for _ in 0..REPS {
            let start = Instant::now();
            restored = Some(IncrementalScheduler::restore(&blob).expect("clean blob restores"));
            decode_seconds = decode_seconds.min(start.elapsed().as_secs_f64());
        }
        let byte_identical = restored.expect("REPS >= 1").checkpoint() == blob;

        // Robustness spot-checks: a mid-blob truncation and a payload bit flip
        // must both be refused with a typed error (the corrupted-checkpoint
        // corpus suite walks every section exhaustively; this keeps the
        // recorded artifact honest about the binary actually benchmarked).
        let truncated = Corruption::Truncate {
            offset: blob.len() / 2,
        }
        .apply(&blob);
        let flipped = Corruption::BitFlip {
            offset: blob.len() - 9,
            bit: 3,
        }
        .apply(&blob);
        let corrupt_rejected = IncrementalScheduler::restore(&truncated).is_err()
            && IncrementalScheduler::restore(&flipped).is_err();

        let mb = blob.len() as f64 / (1024.0 * 1024.0);
        Row {
            name: named.name.clone(),
            nodes: n,
            edges: named.dag.num_edges(),
            pending: sched.num_pending(),
            blob_bytes: blob.len(),
            encode_seconds,
            decode_seconds,
            encode_mb_per_s: mb / encode_seconds.max(1e-12),
            decode_mb_per_s: mb / decode_seconds.max(1e-12),
            byte_identical,
            corrupt_rejected,
        }
    }

    fn full_bars(&self, rows: &[Row]) -> Vec<String> {
        rows.iter()
            .filter(|r| r.nodes >= 100_000)
            .filter(|r| r.encode_seconds >= BUDGET_SECONDS || r.decode_seconds >= BUDGET_SECONDS)
            .map(|r| {
                format!(
                    "io: {}: checkpoint codec over budget (encode {:.1} ms, decode {:.1} ms, \
                     bar {:.0} ms)",
                    r.name,
                    r.encode_seconds * 1e3,
                    r.decode_seconds * 1e3,
                    BUDGET_SECONDS * 1e3
                )
            })
            .collect()
    }
}
