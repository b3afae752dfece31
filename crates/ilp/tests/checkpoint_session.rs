//! Session-checkpoint robustness: a corrupted-checkpoint corpus (every
//! section truncated at several offsets, plus single-bit flips) must be
//! rejected with typed errors, and a session restored from a clean checkpoint
//! must continue **byte-identically** to the uninterrupted session, at any
//! worker count — a warm session holds nothing its checkpoint does not.

use mbsp_dag::{DagDelta, NodeId};
use mbsp_gen::{mutation_stream, MutationStreamConfig};
use mbsp_ilp::{DecodeError, IncrementalScheduler, RepairConfig, ShardedSearchConfig, TieOrder};
use mbsp_io::SEC_CONFIG;
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};

fn instance() -> MbspInstance {
    let inst = mbsp_gen::tiny_dataset(42).remove(2);
    MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
}

fn seed_procs(inst: &MbspInstance) -> Vec<ProcId> {
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    inst.dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect()
}

fn repair_config(workers: usize) -> RepairConfig {
    RepairConfig {
        search: ShardedSearchConfig {
            num_shards: 4,
            workers,
            max_rounds: 4,
            moves_per_round: 12,
            ..Default::default()
        },
        cone_radius: 2,
    }
}

fn session(workers: usize) -> IncrementalScheduler {
    let inst = instance();
    IncrementalScheduler::new(
        inst.dag().clone(),
        *inst.arch(),
        seed_procs(&inst),
        repair_config(workers),
    )
}

/// Byte ranges of the blob's sections: `(tag, start, end)` with `start` at the
/// section's tag word and `end` one past its payload.
fn section_spans(blob: &[u8]) -> Vec<(u32, usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 10; // magic(4) + version(2) + kind(4)
    while pos < blob.len() {
        let tag = u32::from_le_bytes(blob[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(blob[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let end = pos + 16 + len;
        spans.push((tag, pos, end));
        pos = end;
    }
    spans
}

#[test]
fn every_section_truncation_and_bit_flip_is_a_typed_error() {
    let mut sched = session(1);
    sched.full_repair();
    let blob = sched.checkpoint();
    let spans = section_spans(&blob);
    assert!(
        spans.len() >= 8,
        "expected all session sections, got {spans:?}"
    );

    for &(tag, start, end) in &spans {
        // Truncate inside the section header, inside the payload and just
        // before its end: all must fail with a typed error, never a panic.
        for cut in [start + 2, (start + 16 + end) / 2, end - 1] {
            let err = IncrementalScheduler::restore(&blob[..cut])
                .expect_err("truncated checkpoint must be rejected");
            match err {
                DecodeError::Truncated { .. }
                | DecodeError::ChecksumMismatch { .. }
                | DecodeError::MissingSection { .. } => {}
                other => panic!("section {tag:#x} cut at {cut}: unexpected error {other}"),
            }
        }
        // One-bit flips across the whole section (header and payload): every
        // flip is either rejected or — never here, but permitted in general —
        // decodes to a checkpoint with identical bytes.
        for pos in start..end {
            let mut bad = blob.clone();
            bad[pos] ^= 0x04;
            match IncrementalScheduler::restore(&bad) {
                Err(_) => {}
                Ok(back) => assert_eq!(
                    back.checkpoint(),
                    blob,
                    "accepted flip at byte {pos} of section {tag:#x} must be value-preserving"
                ),
            }
        }
    }
}

#[test]
fn swapping_in_a_foreign_artifact_is_rejected() {
    let sched = session(1);
    let dag_blob = mbsp_io::encode_dag(sched.dag());
    assert!(matches!(
        IncrementalScheduler::restore(&dag_blob),
        Err(DecodeError::WrongArtifact { .. })
    ));
    assert!(matches!(
        IncrementalScheduler::restore(&[]),
        Err(DecodeError::Truncated { .. })
    ));
}

/// The uninterrupted reference: warm-up, apply the first half of the stream,
/// repair, apply the rest, repair. The interrupted runs checkpoint/restore at
/// the midpoint and must land on the same bytes.
#[test]
fn a_restored_session_continues_byte_identically() {
    let inst = instance();
    let stream = {
        let config = MutationStreamConfig {
            ops: 12,
            ..Default::default()
        };
        let mut probe = inst.dag().clone();
        let mut order = mbsp_dag::PkOrder::of_dag(&probe);
        let stream = mutation_stream(&probe, &config, 23);
        for delta in &stream {
            probe.apply_delta(delta, &mut order).unwrap();
        }
        stream
    };
    let half = stream.len() / 2;

    let run_reference = || {
        let mut sched = session(1);
        sched.full_repair();
        for delta in &stream[..half] {
            sched.apply(delta).unwrap();
        }
        sched.repair();
        for delta in &stream[half..] {
            sched.apply(delta).unwrap();
        }
        let (schedule, _) = sched.repair();
        (schedule, sched.assignment().to_vec(), sched.checkpoint())
    };
    let (ref_schedule, ref_procs, ref_blob) = run_reference();

    for workers in [1usize, 4, 8] {
        let mut sched = session(1);
        sched.full_repair();
        for delta in &stream[..half] {
            sched.apply(delta).unwrap();
        }
        sched.repair();
        // Interrupt: checkpoint, drop the live session, restore, continue on a
        // different worker count (result-neutral by contract).
        let blob = sched.checkpoint();
        drop(sched);
        let mut sched = IncrementalScheduler::restore(&blob).expect("clean restore");
        // The worker count is not stored: it is re-attached like the pool.
        assert_eq!(sched.config().search.workers, 0);
        sched.config_mut().search.workers = workers;
        for delta in &stream[half..] {
            sched.apply(delta).unwrap();
        }
        let (schedule, stats) = sched.repair();
        assert_eq!(
            schedule, ref_schedule,
            "{workers}-worker restored run diverged from the uninterrupted one"
        );
        assert_eq!(sched.assignment(), &ref_procs[..]);
        assert!(stats.final_cost <= stats.incumbent_cost + 1e-9);
        // The final checkpoints agree byte-for-byte: they hold no worker count.
        assert_eq!(sched.checkpoint(), ref_blob);
    }
}

/// A session on the default shard count stores `num_shards: 0`, restores it,
/// and resolves it per search: its repair after a restart is byte-identical
/// to the uninterrupted one.
#[test]
fn a_default_shard_count_round_trips_and_is_resolved_per_search() {
    let inst = instance();
    let mut config = repair_config(0);
    config.search.num_shards = 0;
    let mut live =
        IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), seed_procs(&inst), config);
    live.full_repair();
    let stream = MutationStreamConfig {
        ops: 8,
        ..Default::default()
    };
    for delta in mutation_stream(live.dag(), &stream, 0x0D5F) {
        live.apply(&delta).unwrap();
    }
    let blob = live.checkpoint();
    let mut restored = IncrementalScheduler::restore(&blob).expect("clean restore");
    assert_eq!(restored.config().search.num_shards, 0);
    assert_eq!(restored.checkpoint(), blob);

    let (schedule, stats) = live.repair();
    let (back, back_stats) = restored.repair();
    assert_eq!(back, schedule);
    assert_eq!(back_stats.shards, 1, "a paper-scale DAG searches one shard");
    assert_eq!(format!("{back_stats:?}"), format!("{stats:?}"));
    assert_eq!(restored.checkpoint(), live.checkpoint());
}

/// A checkpoint taken mid-stream restores with the pending set intact: the
/// restored session's next repair drains exactly what the live one would.
#[test]
fn pending_state_survives_the_round_trip() {
    let mut sched = session(1);
    sched.full_repair();
    let v = mbsp_dag::NodeId::new(1);
    let mut w = sched.dag().weights(v);
    w.memory += 1.0;
    sched
        .apply(&DagDelta::Reweight {
            node: v,
            weights: w,
        })
        .unwrap();
    assert_eq!(sched.num_pending(), 1);
    let blob = sched.checkpoint();
    let mut restored = IncrementalScheduler::restore(&blob).expect("restore");
    assert_eq!(restored.num_pending(), 1);
    let (live, live_stats) = sched.repair();
    let (back, back_stats) = restored.repair();
    assert_eq!(live, back);
    assert_eq!(live_stats.evaluations, back_stats.evaluations);
    assert_eq!(restored.num_pending(), 0);
}

/// The served search budget (`iterations = 1`, four weighted shards) at a
/// small move budget; `workers: 0` so CI's `MBSP_BENCH_THREADS` sweep reaches
/// it.
fn served_config() -> ShardedSearchConfig {
    ShardedSearchConfig {
        num_shards: 4,
        max_rounds: 3,
        moves_per_round: 8,
        ..Default::default()
    }
}

fn served_session(inst: mbsp_gen::NamedInstance) -> IncrementalScheduler {
    let inst = MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0);
    let config = RepairConfig {
        search: served_config(),
        cone_radius: 2,
    };
    IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), seed_procs(&inst), config)
}

/// A `schedule` request on the session's own DAG, from a fresh greedy
/// baseline.
fn served_schedule(session: &mut IncrementalScheduler) -> (MbspSchedule, u64, u64, TieOrder) {
    let baseline = GreedyBspScheduler::new().schedule(session.dag(), session.arch());
    let (schedule, stats) = session.schedule(&served_config(), &baseline, None);
    let cost = stats.final_cost.to_bits();
    (schedule, cost, stats.evaluations, stats.tie_order)
}

/// The same session as a daemon would have it after `kill -9`: rebuilt from
/// its checkpoint.
fn restarted(session: &IncrementalScheduler) -> IncrementalScheduler {
    IncrementalScheduler::restore(&session.checkpoint()).expect("a session's own checkpoint")
}

/// The `tenants_small` request pattern — per pass one `schedule`, one batch of
/// eight seeded deltas, one `repair` — on a warm session and on one restored
/// from its checkpoint before every request: schedules, cost bits, evaluation
/// counts, tie orders and checkpoint bytes agree after every request. The
/// checkpoint stores no tie order; a restored session chooses it again from
/// its DAG and assignment, and both orders are chosen along the way.
#[test]
fn a_warm_session_equals_one_restarted_before_every_request() {
    // Searches that ran depth-first, of all searches.
    let (mut depth_first, mut searches) = (0usize, 0usize);
    let mut instances = mbsp_gen::tiny_dataset(42);
    instances.push(mbsp_gen::small_dataset_sample(42).swap_remove(5)); // CG_N7_K2
    let stream = MutationStreamConfig {
        ops: 8,
        ..Default::default()
    };
    for inst in instances {
        let name = inst.name.clone();
        let mut warm = served_session(inst);
        let mut cold = restarted(&warm);
        for pass in 0..6u64 {
            let what = format!("{name} pass {pass}");
            let w = served_schedule(&mut warm);
            depth_first += (w.3 == TieOrder::DepthFirst) as usize;
            cold = restarted(&cold);
            assert_eq!(w, served_schedule(&mut cold), "{what}: schedule");
            assert_eq!(warm.checkpoint(), cold.checkpoint(), "{what}: schedule");

            for delta in mutation_stream(warm.dag(), &stream, 0xD17A + pass) {
                warm.apply(&delta).unwrap();
                cold.apply(&delta).unwrap();
            }
            let (w, w_stats) = warm.repair();
            cold = restarted(&cold);
            let (c, c_stats) = cold.repair();
            assert_eq!(w, c, "{what}: repair");
            assert_eq!(w_stats.final_cost.to_bits(), c_stats.final_cost.to_bits());
            assert_eq!(w_stats.evaluations, c_stats.evaluations, "{what}");
            assert_eq!(w_stats.dirty_shards, c_stats.dirty_shards, "{what}");
            assert_eq!(w_stats.tie_order, c_stats.tie_order, "{what}");
            assert_eq!(warm.checkpoint(), cold.checkpoint(), "{what}: repair");
            depth_first += (w_stats.tie_order == TieOrder::DepthFirst) as usize;
            searches += 2;
        }
    }
    assert!(
        0 < depth_first && depth_first < searches,
        "{depth_first} of {searches} searches ran depth-first"
    );
}

#[test]
fn a_rejected_delta_leaves_the_checkpoint_unchanged() {
    let mut sched = session(1);
    sched.full_repair();
    let before = sched.checkpoint();
    // Node 0 has children: removing it is refused, nothing is touched.
    let refused = sched.apply(&DagDelta::RemoveNode {
        node: NodeId::new(0),
    });
    assert!(refused.is_err());
    assert_eq!(sched.checkpoint(), before);
}

/// FNV-1a over a checkpoint's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The checkpoint format is pinned: a seeded session's bytes before and after
/// one repair hash to recorded `(length, FNV-1a)` pairs. A change to what any
/// section holds moves them; such a change belongs with a bump of
/// `mbsp_io::VERSION` or, for one session section, a new tag (as `CONF` →
/// `CNF2`).
#[test]
fn the_checkpoint_bytes_of_a_seeded_session_are_pinned() {
    let mut sched = session(1);
    let before = sched.checkpoint();
    let config = MutationStreamConfig {
        ops: 4,
        ..Default::default()
    };
    for delta in mutation_stream(sched.dag(), &config, 0xF0A7) {
        sched.apply(&delta).unwrap();
    }
    sched.repair();
    let after = sched.checkpoint();
    assert_eq!(
        [(before.len(), fnv1a(&before)), (after.len(), fnv1a(&after))],
        [(3583, 0x01B5_03BB_F6DA_4EB8), (3638, 0x700D_9F07_73EF_5F60)]
    );
}

/// The payload of `blob`'s `tag` section and the blob offset it starts at.
fn section_payload(blob: &[u8], tag: u32) -> (usize, &[u8]) {
    let (_, start, end) = section_spans(blob)
        .into_iter()
        .find(|&(t, ..)| t == tag)
        .unwrap_or_else(|| panic!("a checkpoint has section {tag:#x}"));
    (start + 16, &blob[start + 16..end])
}

/// `blob` with the payload of its `tag` section passed through `edit` and the
/// section's length and CRC re-sealed: a well-formed checkpoint carrying other
/// values, which only restore's value checks can refuse.
fn resealed(blob: &[u8], tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (at, payload) = section_payload(blob, tag);
    let mut payload = payload.to_vec();
    let end = at + payload.len();
    edit(&mut payload);
    let mut out = blob[..at - 12].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&mbsp_io::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&blob[end..]);
    out
}

/// `blob` with the `tag` payload bytes at `at` replaced by `bytes`, re-sealed.
fn with_section_bytes(blob: &[u8], tag: u32, at: usize, bytes: &[u8]) -> Vec<u8> {
    resealed(blob, tag, |p| {
        p[at..at + bytes.len()].copy_from_slice(bytes)
    })
}

/// Restores `blob`, which must fail with a [`DecodeError::InvalidValue`]
/// whose message contains `says`.
fn assert_invalid_value(blob: &[u8], says: &str) {
    match IncrementalScheduler::restore(blob) {
        Err(DecodeError::InvalidValue { what, .. }) if what.contains(says) => {}
        Err(other) => panic!("expected an invalid value saying {says:?}, got {other}"),
        Ok(_) => panic!("a checkpoint that should fail with {says:?} was accepted"),
    }
}

/// The `CNF2` section keeps its layout. Its cost-model byte (the section's
/// first) names the synchronous cost, `0`, or the asynchronous one, `1`. The
/// earlier layout, tag `CONF`, also held a worker count, a deadline and the
/// salvage cap: a checkpoint that carries it is refused by its tag.
#[test]
fn a_config_section_with_another_cost_model_or_the_old_tag_is_rejected() {
    let blob = session(1).checkpoint();
    assert_eq!(with_section_bytes(&blob, SEC_CONFIG, 0, &[0]), blob);
    let err = IncrementalScheduler::restore(&with_section_bytes(&blob, SEC_CONFIG, 0, &[2]))
        .err()
        .unwrap_or_else(|| panic!("cost-model byte 2 was accepted"));
    assert!(matches!(err, DecodeError::InvalidValue { .. }), "{err}");

    // The same settings in the `CONF` layout: workers after the shard count,
    // the deadline (`Duration::MAX`) after the moves per round, the salvage
    // cap after the iterations.
    let old_tag = u32::from_le_bytes(*b"CONF");
    let mut old = resealed(&blob, SEC_CONFIG, |p| {
        let new = std::mem::take(p);
        p.extend_from_slice(&new[..11]);
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&new[11..27]);
        p.extend_from_slice(&u64::MAX.to_le_bytes());
        p.extend_from_slice(&999_999_999u32.to_le_bytes());
        p.extend_from_slice(&new[27..51]);
        p.extend_from_slice(&4u64.to_le_bytes());
        p.extend_from_slice(&new[51..]);
    });
    let (at, payload) = section_payload(&old, SEC_CONFIG);
    assert_eq!(
        payload.len(),
        section_payload(&blob, SEC_CONFIG).1.len() + 28
    );
    old[at - 16..at - 12].copy_from_slice(&old_tag.to_le_bytes());
    match IncrementalScheduler::restore(&old) {
        Err(DecodeError::BadSectionTag { tag, .. }) => assert_eq!(tag, old_tag),
        Err(other) => panic!("expected the `CONF` tag to be refused, got {other}"),
        Ok(_) => panic!("a checkpoint with the `CONF` layout was restored"),
    }
}

/// An asynchronous session writes cost-model byte `1` and nothing else
/// differently, round-trips through its checkpoint to equal bytes, and a
/// restored copy repairs exactly like the uninterrupted session — under the
/// asynchronous cost.
#[test]
fn an_asynchronous_session_round_trips_through_its_checkpoint() {
    let inst = instance();
    let mut config = repair_config(1);
    config.search.cost_model = CostModel::Asynchronous;
    let mut sched =
        IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), seed_procs(&inst), config);
    let blob = sched.checkpoint();
    assert_eq!(
        with_section_bytes(&blob, SEC_CONFIG, 0, &[0]),
        session(1).checkpoint()
    );
    let mut restored = IncrementalScheduler::restore(&blob).expect("an asynchronous checkpoint");
    assert_eq!(restored.config().search.cost_model, CostModel::Asynchronous);
    assert_eq!(restored.checkpoint(), blob);

    let (schedule, stats) = sched.full_repair();
    let (again, again_stats) = restored.full_repair();
    assert_eq!(schedule, again);
    assert_eq!(stats.final_cost.to_bits(), again_stats.final_cost.to_bits());
    assert_eq!(stats.evaluations, again_stats.evaluations);
    assert_eq!(sched.checkpoint(), restored.checkpoint());
    schedule.validate(inst.dag(), inst.arch()).unwrap();
    let recost = CostModel::Asynchronous.evaluate(&schedule, inst.dag(), inst.arch());
    assert!(
        (recost - stats.final_cost).abs() < 1e-9,
        "{recost} vs {stats:?}"
    );
}

/// Little-endian `u64` at `at` of a payload.
fn u64_at(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

/// Every value check `restore` makes after the CRCs, reached through a whole
/// re-sealed checkpoint. The `CNF2` offsets follow its layout: cost model 0,
/// strategy 1, shard-local seed 2, mass tolerance 59; `ARCH` is `P` 0, `r` 8,
/// `g` 16, `L` 24; `PROC` and `PEND` are a count and then one `u32` per
/// entry.
#[test]
fn every_value_check_of_restore_is_reached_through_a_whole_checkpoint() {
    use mbsp_io::{SEC_ARCH, SEC_PENDING, SEC_PROCS};
    let sched = session(1);
    let blob = sched.checkpoint();
    let n = sched.dag().num_nodes();
    let r0 = sched.dag().minimal_cache_size();
    let rewrites: [(u32, usize, Vec<u8>, &str); 7] = [
        (SEC_CONFIG, 1, vec![2], "is not a shard strategy"),
        (SEC_CONFIG, 2, vec![2], "is not a bool"),
        (
            SEC_CONFIG,
            59,
            (-0.5f64).to_le_bytes().to_vec(),
            "mass tolerance -0.5",
        ),
        (SEC_ARCH, 0, 0u64.to_le_bytes().to_vec(), "zero processors"),
        (SEC_ARCH, 16, (-1.0f64).to_le_bytes().to_vec(), "g -1"),
        (
            SEC_ARCH,
            8,
            (r0 / 2.0).to_le_bytes().to_vec(),
            "below the DAG's minimal cache size",
        ),
        (
            SEC_PROCS,
            8,
            (sched.arch().processors as u32).to_le_bytes().to_vec(),
            "references processor",
        ),
    ];
    for (tag, at, bytes, says) in rewrites {
        let (_, payload) = section_payload(&blob, tag);
        let unchanged = payload[at..at + bytes.len()].to_vec();
        assert_eq!(with_section_bytes(&blob, tag, at, &unchanged), blob);
        assert_invalid_value(&with_section_bytes(&blob, tag, at, &bytes), says);
    }
    let pending_at_n = resealed(&blob, SEC_PENDING, |p| {
        p.clear();
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&(n as u32).to_le_bytes());
    });
    assert_invalid_value(&pending_at_n, "pending node");
    let one_short = resealed(&blob, SEC_PROCS, |p| {
        p.truncate(p.len() - 4);
        p[..8].copy_from_slice(&(n as u64 - 1).to_le_bytes());
    });
    assert_invalid_value(&one_short, &format!("{} assignments for {n} nodes", n - 1));
}

/// The `ORDR` section (the high-water mark, then the counted values) through
/// a whole checkpoint: it round-trips, and a wrong length, a duplicate value
/// and a value at the high-water mark are each refused.
#[test]
fn an_order_section_round_trips_and_its_checks_reject_a_whole_checkpoint() {
    use mbsp_io::SEC_ORDER;
    let sched = session(1);
    let blob = sched.checkpoint();
    let (_, payload) = section_payload(&blob, SEC_ORDER);
    let next_value = u64_at(payload, 0);
    let n = u64_at(payload, 8);
    assert_eq!(n as usize, sched.dag().num_nodes());
    let back = IncrementalScheduler::restore(&blob).expect("restore");
    assert_eq!(section_payload(&back.checkpoint(), SEC_ORDER).1, payload);

    let one_short = resealed(&blob, SEC_ORDER, |p| {
        p.truncate(p.len() - 8);
        p[8..16].copy_from_slice(&(n - 1).to_le_bytes());
    });
    assert_invalid_value(&one_short, &format!("order covers {} nodes", n - 1));
    let duplicate = with_section_bytes(&blob, SEC_ORDER, 24, &payload[16..24]);
    assert_invalid_value(&duplicate, "duplicate order value");
    let at_mark = with_section_bytes(&blob, SEC_ORDER, 16, &next_value.to_le_bytes());
    assert_invalid_value(&at_mark, "not below the high-water mark");
}

/// Each counted section refuses, at its count, a count one element past what
/// the rest of its payload can hold: the guard that keeps a corrupt count from
/// driving an allocation knows each section's element size.
#[test]
fn every_count_guard_knows_its_element_size() {
    use mbsp_io::{SEC_EDGES, SEC_LABELS, SEC_ORDER, SEC_PENDING, SEC_PROCS, SEC_WEIGHTS};
    let mut sched = session(1);
    // One pending node, so `PEND` carries an element too.
    let v = NodeId::new(1);
    let mut w = sched.dag().weights(v);
    w.memory += 1.0;
    sched
        .apply(&DagDelta::Reweight {
            node: v,
            weights: w,
        })
        .unwrap();
    let blob = sched.checkpoint();
    // (section, offset of the count in its payload, element size)
    let guards = [
        (SEC_WEIGHTS, 0, 16),
        (SEC_EDGES, 0, 8),
        (SEC_LABELS, 0, 8),
        (SEC_ORDER, 8, 8),
        (SEC_PROCS, 0, 4),
        (SEC_PENDING, 0, 4),
    ];
    for (tag, count_at, size) in guards {
        let (at, payload) = section_payload(&blob, tag);
        let available = payload.len() - count_at - 8;
        let count = available / size + 1;
        let bad = with_section_bytes(&blob, tag, count_at, &(count as u64).to_le_bytes());
        assert_eq!(
            IncrementalScheduler::restore(&bad).err(),
            Some(DecodeError::Truncated {
                offset: at + count_at,
                needed: count * size,
                available,
            }),
            "section {tag:#x}"
        );
    }
}
