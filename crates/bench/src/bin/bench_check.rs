//! The CI bench-regression gate: parses the quick-mode `BENCH_*_quick.json`
//! files that the seven benchmark smokes (`bench_solver`, `bench_improver`,
//! `bench_dag`, `bench_shard`, `bench_delta`, `bench_io`, `bench_serve` with
//! their `MBSP_BENCH_*_QUICK=1` contracts)
//! wrote earlier in the run, and **fails** if any fast-vs-reference speedup
//! dropped below 1.0 or any agreement flag shows the compared paths diverged.
//! Every violation names the offending file, instance and metric; a missing or
//! unreadable quick-JSON is itself a violation. Only the [`REGISTERED`] report
//! list is gated: a `BENCH_*_quick.json` in the working directory that no gate
//! knows about is reported as a **named warning** (a new smoke was added
//! without registering it here, or a stale artifact is lying around) rather
//! than silently ignored or spuriously failed.
//! (The shard smoke is gated on its agreement flags only: on the tiny smoke
//! instances the weighted sharding's partition-ILP overhead is not amortised,
//! so its speedup bar is asserted by the full `bench_shard` run instead. The
//! shard smoke must cover both sharding modes — legacy topological and
//! weighted-iterated — and additionally gates the weighted mode's
//! equal-or-better-than-legacy flag. The io smoke gates checkpoint
//! byte-identity and corruption rejection; its 50 ms encode/decode budget is
//! production-scale by definition, so it is asserted by the full `bench_io`
//! run on the 100k-node instances.)
//!
//! This is the last CI step (`cargo run -p mbsp_bench --bin bench_check`), so a
//! performance regression that makes an optimised path slower than its
//! reference oracle — or a silent behavioural divergence that slips past the
//! in-binary assertions — turns the build red instead of rotting quietly.
//! Locally it runs as part of `make ci` after the smokes.

use serde::Deserialize;
use std::process::ExitCode;

/// The per-instance subset shared by every benchmark report: a fast-vs-reference
/// speedup plus the benchmark-specific agreement flags (deserialization reads
/// fields by name, so each report's extra fields are simply ignored).
#[derive(Debug, Deserialize)]
struct SolverInstance {
    name: String,
    speedup: f64,
    objectives_match: bool,
}

#[derive(Debug, Deserialize)]
struct ImproverInstance {
    name: String,
    speedup: f64,
    costs_match: bool,
}

#[derive(Debug, Deserialize)]
struct DagInstance {
    name: String,
    speedup: f64,
    costs_match: bool,
}

/// Flags shared by both sharded modes (`legacy` topological and `weighted`
/// iterated) in the `bench_shard` report.
#[derive(Debug, Deserialize)]
struct ShardModeGate {
    identical_across_workers: bool,
    not_worse_than_baseline: bool,
}

#[derive(Debug, Deserialize)]
struct ShardWeightedGate {
    base: ShardModeGate,
    equal_or_better_than_legacy: Option<bool>,
}

#[derive(Debug, Deserialize)]
struct ShardInstance {
    name: String,
    not_worse_than_baseline: bool,
    identical_across_workers: bool,
    /// `null` when the smoke ran in `weighted`-only mode.
    legacy: Option<ShardModeGate>,
    /// `null` when the smoke ran in `legacy`-only mode.
    weighted: Option<ShardWeightedGate>,
}

#[derive(Debug, Deserialize)]
struct DeltaInstance {
    name: String,
    speedup: f64,
    not_worse_than_incumbent: bool,
    identical_across_workers: bool,
}

#[derive(Debug, Deserialize)]
struct SolverReport {
    quick: bool,
    instances: Vec<SolverInstance>,
    geomean_speedup: f64,
}

#[derive(Debug, Deserialize)]
struct ImproverReport {
    quick: bool,
    instances: Vec<ImproverInstance>,
    geomean_speedup: f64,
}

#[derive(Debug, Deserialize)]
struct DagReport {
    quick: bool,
    instances: Vec<DagInstance>,
    geomean_speedup: f64,
}

#[derive(Debug, Deserialize)]
struct ShardReport {
    quick: bool,
    instances: Vec<ShardInstance>,
    geomean_speedup: f64,
}

#[derive(Debug, Deserialize)]
struct DeltaReport {
    quick: bool,
    instances: Vec<DeltaInstance>,
    geomean_speedup: f64,
}

#[derive(Debug, Deserialize)]
struct IoInstance {
    name: String,
    encode_seconds: f64,
    decode_seconds: f64,
    byte_identical: bool,
    corrupt_rejected: bool,
}

#[derive(Debug, Deserialize)]
struct IoReport {
    quick: bool,
    instances: Vec<IoInstance>,
}

#[derive(Debug, Deserialize)]
struct ServeScenario {
    name: String,
    total_seconds: f64,
    incumbents_monotone: bool,
    final_byte_identical: bool,
}

#[derive(Debug, Deserialize)]
struct ServeReport {
    quick: bool,
    scenarios: Vec<ServeScenario>,
}

/// Every quick report this gate knows how to check. A `BENCH_*_quick.json`
/// not on this list produces a named warning, never a silent pass.
const REGISTERED: [&str; 7] = [
    "BENCH_solver_quick.json",
    "BENCH_improver_quick.json",
    "BENCH_dag_quick.json",
    "BENCH_shard_quick.json",
    "BENCH_delta_quick.json",
    "BENCH_io_quick.json",
    "BENCH_serve_quick.json",
];

/// Collected gate violations; empty means the gate is green.
#[derive(Default)]
struct Gate {
    problems: Vec<String>,
    checked: usize,
}

impl Gate {
    fn parse<T: Deserialize>(&mut self, path: &str) -> Option<T> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                self.problems.push(format!(
                    "{path}: missing or unreadable ({e}) — run the bench smokes first"
                ));
                return None;
            }
        };
        match serde_json::from_str::<T>(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                self.problems.push(format!("{path}: failed to parse: {e}"));
                None
            }
        }
    }

    fn require(&mut self, path: &str, name: &str, what: &str, ok: bool) {
        self.checked += 1;
        if !ok {
            self.problems.push(format!("{path}: {name}: {what}"));
        }
    }

    fn check_common(&mut self, path: &str, quick: bool, name: &str, speedup: f64) {
        self.require(
            path,
            name,
            "quick flag is false — the smoke must run with the quick-mode env var",
            quick,
        );
        self.require(
            path,
            name,
            &format!("fast-vs-reference speedup {speedup:.3}x dropped below 1.0"),
            speedup >= 1.0,
        );
    }
}

fn main() -> ExitCode {
    let mut gate = Gate::default();

    if let Some(r) = gate.parse::<SolverReport>("BENCH_solver_quick.json") {
        let path = "BENCH_solver_quick.json";
        for i in &r.instances {
            gate.check_common(path, r.quick, &i.name, i.speedup);
            gate.require(
                path,
                &i.name,
                "dense and sparse objectives diverged",
                i.objectives_match,
            );
        }
        println!(
            "solver   geomean {:>7.2}x over {} instances",
            r.geomean_speedup,
            r.instances.len()
        );
    }
    if let Some(r) = gate.parse::<ImproverReport>("BENCH_improver_quick.json") {
        let path = "BENCH_improver_quick.json";
        for i in &r.instances {
            gate.check_common(path, r.quick, &i.name, i.speedup);
            gate.require(
                path,
                &i.name,
                "engine and reference costs diverged",
                i.costs_match,
            );
        }
        println!(
            "improver geomean {:>7.2}x over {} instances",
            r.geomean_speedup,
            r.instances.len()
        );
    }
    if let Some(r) = gate.parse::<DagReport>("BENCH_dag_quick.json") {
        let path = "BENCH_dag_quick.json";
        for i in &r.instances {
            gate.check_common(path, r.quick, &i.name, i.speedup);
            gate.require(
                path,
                &i.name,
                "fast and reference pipelines diverged",
                i.costs_match,
            );
        }
        println!(
            "dag      geomean {:>7.2}x over {} instances",
            r.geomean_speedup,
            r.instances.len()
        );
    }
    if let Some(r) = gate.parse::<ShardReport>("BENCH_shard_quick.json") {
        // The shard smoke is gated on its agreement and never-worse flags
        // only: the weighted mode's partition-ILP overhead is not amortised on
        // the tiny smoke instances, so its speedup bar is asserted by the full
        // `bench_shard` run instead.
        let path = "BENCH_shard_quick.json";
        gate.require(
            path,
            "report",
            "quick flag is false — the smoke must run with the quick-mode env var",
            r.quick,
        );
        for i in &r.instances {
            gate.require(
                path,
                &i.name,
                "sharded final cost fell behind the shared baseline incumbent",
                i.not_worse_than_baseline,
            );
            gate.require(
                path,
                &i.name,
                "sharded search diverged across worker counts",
                i.identical_across_workers,
            );
            gate.require(
                path,
                &i.name,
                "CI smoke must exercise BOTH sharding modes (run with \
                 MBSP_BENCH_SHARD_MODE=both or unset)",
                i.legacy.is_some() && i.weighted.is_some(),
            );
            if let Some(l) = &i.legacy {
                gate.require(
                    path,
                    &i.name,
                    "legacy/topo mode fell behind the shared baseline incumbent",
                    l.not_worse_than_baseline,
                );
                gate.require(
                    path,
                    &i.name,
                    "legacy/topo mode diverged across worker counts",
                    l.identical_across_workers,
                );
            }
            if let Some(w) = &i.weighted {
                gate.require(
                    path,
                    &i.name,
                    "weighted-iterated mode fell behind the shared baseline incumbent",
                    w.base.not_worse_than_baseline,
                );
                gate.require(
                    path,
                    &i.name,
                    "weighted-iterated mode diverged across worker counts",
                    w.base.identical_across_workers,
                );
                gate.require(
                    path,
                    &i.name,
                    "weighted-iterated mode fell behind the legacy sharding at equal \
                     candidate budget",
                    w.equal_or_better_than_legacy.unwrap_or(true),
                );
            }
        }
        println!(
            "shard    geomean {:>7.2}x over {} instances (both sharding modes gated)",
            r.geomean_speedup,
            r.instances.len()
        );
    }
    if let Some(r) = gate.parse::<DeltaReport>("BENCH_delta_quick.json") {
        let path = "BENCH_delta_quick.json";
        for i in &r.instances {
            gate.check_common(path, r.quick, &i.name, i.speedup);
            gate.require(
                path,
                &i.name,
                "dirty-cone repair regressed past its stale incumbent",
                i.not_worse_than_incumbent,
            );
            gate.require(
                path,
                &i.name,
                "dirty-cone repair diverged across worker counts",
                i.identical_across_workers,
            );
        }
        println!(
            "delta    geomean {:>7.2}x over {} instances",
            r.geomean_speedup,
            r.instances.len()
        );
    }

    if let Some(r) = gate.parse::<IoReport>("BENCH_io_quick.json") {
        let path = "BENCH_io_quick.json";
        gate.require(
            path,
            "report",
            "quick flag is false — the smoke must run with the quick-mode env var",
            r.quick,
        );
        for i in &r.instances {
            gate.require(
                path,
                &i.name,
                "restored session re-checkpointed to different bytes",
                i.byte_identical,
            );
            gate.require(
                path,
                &i.name,
                "a corrupted checkpoint was accepted",
                i.corrupt_rejected,
            );
            // No wall-clock bar on the smoke (tiny instances, noisy runners) —
            // the 50 ms encode/decode budget is asserted by the full
            // `bench_io` run on the 100k-node instances. The timings just have
            // to be real measurements.
            gate.require(
                path,
                &i.name,
                "checkpoint codec timings are not finite positive seconds",
                i.encode_seconds > 0.0
                    && i.encode_seconds.is_finite()
                    && i.decode_seconds > 0.0
                    && i.decode_seconds.is_finite(),
            );
        }
        println!(
            "io       byte-identical over {} instances",
            r.instances.len()
        );
    }

    if let Some(r) = gate.parse::<ServeReport>("BENCH_serve_quick.json") {
        // The serve smoke is gated on its determinism flags only: fan-out
        // wall-clock on tiny instances is dominated by session spin-up, so
        // the latency story belongs to the full `bench_serve` run.
        let path = "BENCH_serve_quick.json";
        gate.require(
            path,
            "report",
            "quick flag is false — the smoke must run with the quick-mode env var",
            r.quick,
        );
        for s in &r.scenarios {
            gate.require(
                path,
                &s.name,
                "a client observed a non-monotone incumbent stream",
                s.incumbents_monotone,
            );
            gate.require(
                path,
                &s.name,
                "a served schedule diverged from the direct library run",
                s.final_byte_identical,
            );
            gate.require(
                path,
                &s.name,
                "fan-out timing is not finite positive seconds",
                s.total_seconds > 0.0 && s.total_seconds.is_finite(),
            );
        }
        println!(
            "serve    byte-identical over {} fan-out scenarios",
            r.scenarios.len()
        );
    }

    // Anything matching the quick-report shape that no gate above knows about
    // gets called out by name — a forgotten registration must not pass green.
    let mut warnings = 0usize;
    if let Ok(dir) = std::fs::read_dir(".") {
        let mut extras: Vec<String> = dir
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| {
                n.starts_with("BENCH_")
                    && n.ends_with("_quick.json")
                    && !REGISTERED.contains(&n.as_str())
            })
            .collect();
        extras.sort();
        for name in extras {
            warnings += 1;
            eprintln!(
                "bench_check: WARNING: {name} is not a registered quick report — \
                 register it in bench_check's REGISTERED list (or delete the stale file)"
            );
        }
    }

    if gate.problems.is_empty() {
        println!(
            "bench_check: {} checks passed across {} registered quick reports ({} warning(s))",
            gate.checked,
            REGISTERED.len(),
            warnings
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_check: {} violation(s):", gate.problems.len());
        for p in &gate.problems {
            eprintln!("  - {p}");
        }
        ExitCode::FAILURE
    }
}
