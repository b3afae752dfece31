//! Metric names and units (the same lists `BENCHMARK.json` declares — a
//! package test compares them) and the end-to-end numbers of one run.

use crate::check::Verdict;
use crate::driver::RunLog;
use crate::workloads::Kind;

/// The end-to-end metrics `BENCHMARK.json` declares, each with a bound: the
/// ones that integrate a whole run. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("daemon_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cost_ratio", "ratio"),
    ("repair_cost_ratio", "ratio"),
];

/// End-to-end latencies per request kind: printed with every run, but without
/// a bound. On the hosts this runs on, a median over the one to a hundred
/// requests of a kind that fit into a run does not repeat within any bound the
/// harness allows (README.md, *Steadiness*); a regression in one of them shows
/// in `requests_per_s` and `daemon_cpu_s` of the workload made of that kind.
/// `schedule_p90_ms` is printed only with at least ten samples beyond it.
pub const INFORMATIONAL: [(&str, &str); 7] = [
    ("register_p50_ms", "ms"),
    ("schedule_p50_ms", "ms"),
    ("first_improve_p50_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("repair_p50_ms", "ms"),
    ("restart_p50_ms", "ms"),
    ("schedule_p90_ms", "ms"),
];

/// Per-layer metrics of the traced pass; the prefix is the crate the timed
/// public call lives in.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("serve.parse_register_ms", "ms"),
    ("serve.json_parse_mb_s", "MB/s"),
    ("serve.hex_decode_mb_s", "MB/s"),
    ("io.decode_dag_ms", "ms"),
    ("serve.rtt_floor_ms", "ms"),
    ("serve.queued_noop_ms", "ms"),
    ("serve.parse_mutate_us", "us"),
    ("dag.apply_delta_us", "us"),
    ("io.checkpoint_encode_ms", "ms"),
    ("io.checkpoint_bytes", "bytes"),
    ("io.checkpoint_write_ms", "ms"),
    ("io.state_dir_bytes", "bytes"),
    ("serve.frame_write_ms", "ms"),
    ("serve.frame_bytes", "bytes"),
    ("gen.family_ms", "ms"),
    ("model.min_cache_ms", "ms"),
    ("sched.greedy_ms", "ms"),
    ("dag.clone_ms", "ms"),
    ("ilp.session_new_ms", "ms"),
    ("dag.pk_build_ms", "ms"),
    ("ilp.search_ms", "ms"),
    ("ilp.search_1w_ms", "ms"),
    ("ilp.search_evaluations", "count"),
    ("ilp.evals_per_s", "1/s"),
    ("ilp.accept_ratio", "ratio"),
    ("ilp.salvaged_moves", "count"),
    ("cache.arena_build_ms", "ms"),
    ("cache.convert_ms", "ms"),
    ("ilp.engine_build_ms", "ms"),
    ("ilp.eval_candidate_ms", "ms"),
    ("model.sync_cost_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("ilp.partition_ms", "ms"),
    ("ilp.topo_partition_ms", "ms"),
    ("lpsolve.partition_ilp_ms", "ms"),
    ("ilp.repair_ms", "ms"),
    ("ilp.repair_evaluations", "count"),
    ("ilp.dirty_shards", "count"),
    ("ilp.cone_nodes", "count"),
    ("dag.cone_ms", "ms"),
    ("io.restore_ms", "ms"),
    ("pool.batch_overhead_us", "us"),
    ("pool.workers", "count"),
    ("serve.register_unattributed_ms", "ms"),
    ("serve.schedule_unattributed_ms", "ms"),
    ("serve.mutate_unattributed_ms", "ms"),
    ("serve.repair_unattributed_ms", "ms"),
    ("serve.restart_unattributed_ms", "ms"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub n: usize,
}

/// Nearest-rank percentile (`q` in `(0, 1]`); with fewer than ten samples
/// beyond it, a high percentile is simply the largest sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Latencies (ms) of the answered requests of one kind.
pub fn latencies_ms(log: &RunLog, kind: Kind) -> Vec<f64> {
    log.exchanges
        .iter()
        .filter(|x| x.op.kind == kind)
        .filter_map(|x| x.reply.as_ref().ok())
        .map(|r| r.latency_ms())
        .collect()
}

pub fn restart_ms(log: &RunLog) -> Vec<f64> {
    log.restarts
        .iter()
        .map(|r| r.replied.duration_since(r.reaped).as_secs_f64() * 1e3)
        .collect()
}

/// Looks `name` up in one of the tables above.
pub fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

fn summarise(
    table: &[(&'static str, &'static str)],
    name: &str,
    samples: &[f64],
    summary: fn(&[f64]) -> f64,
) -> Result<Metric, String> {
    if samples.is_empty() {
        return Err(format!("no samples for {name}"));
    }
    let (name, unit) = unit_of(table, name);
    Ok(Metric {
        name,
        value: summary(samples),
        unit,
        n: samples.len(),
    })
}

/// A per-layer metric summarised from its samples.
pub fn layer(name: &str, samples: &[f64], summary: fn(&[f64]) -> f64) -> Result<Metric, String> {
    summarise(&PER_LAYER, name, samples, summary)
}

/// The bounded end-to-end metrics of one run.
pub fn end_to_end(log: &RunLog, verdict: &Verdict) -> Result<Vec<Metric>, String> {
    let e2e = |name, samples: &[f64], summary| summarise(&END_TO_END, name, samples, summary);
    let answered = log.exchanges.iter().filter(|x| x.reply.is_ok()).count() as f64;
    Ok(vec![
        e2e("setup_s", &log.setup_s, median)?,
        Metric {
            n: answered as usize,
            ..e2e("requests_per_s", &[answered / log.measured_wall_s], median)?
        },
        e2e("daemon_cpu_s", &[log.usage.cpu_s], median)?,
        e2e("peak_rss_mb", &[log.usage.peak_rss_mb], median)?,
        e2e("cost_ratio", &verdict.cost_ratios, geomean)?,
        e2e("repair_cost_ratio", &verdict.repair_cost_ratios, geomean)?,
    ])
}

/// The [`INFORMATIONAL`] latencies of one run. A kind without a single
/// answered request is an error: such a run is not a measurement.
pub fn informational(log: &RunLog, verdict: &Verdict) -> Result<Vec<Metric>, String> {
    let info = |name, samples: &[f64], summary| summarise(&INFORMATIONAL, name, samples, summary);
    let schedules = latencies_ms(log, Kind::Schedule);
    let mut out = vec![
        info(
            "register_p50_ms",
            &latencies_ms(log, Kind::Register),
            median,
        )?,
        info("schedule_p50_ms", &schedules, median)?,
        info("first_improve_p50_ms", &verdict.first_improve_ms, median)?,
        info("mutate_p50_ms", &latencies_ms(log, Kind::Mutate), median)?,
        info("repair_p50_ms", &latencies_ms(log, Kind::Repair), median)?,
        info("restart_p50_ms", &restart_ms(log), median)?,
    ];
    if schedules.len() >= 100 {
        out.push(info("schedule_p90_ms", &schedules, |s| percentile(s, 0.9))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&s), 5.5);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
