//! `bench_e2e` — the served-request benchmark of `mbsp_serve`.
//!
//! ```text
//! bench_e2e run   [--workload NAME] [--seed N] [--seconds S] [--trace] [--smoke]
//! bench_e2e aa    [--workload NAME] [--seed N] [--seconds S] [--smoke]
//! bench_e2e list
//! bench_e2e bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `run` prints every metric as `workload metric value unit n=<samples>` and
//! one JSON document; `aa` runs the untraced suite twice and compares the two
//! against the bounds in `BENCHMARK.json`; `list` prints the workload and
//! metric names; `bench` is the form `BENCHMARK.json`'s `command` invokes (one
//! workload, one pass, one result object on the last line). The hidden
//! `daemon` subcommand is this binary serving as the daemon under test.
//! See README.md for what is measured and why.

mod check;
mod client;
mod daemon;
mod driver;
mod json;
mod metrics;
mod shadow;
mod trace;
mod workloads;

use metrics::Metric;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Shape, REFERENCE_SECONDS, SHAPES};

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything one pass over one workload produced.
struct Pass {
    clients: usize,
    attempted: usize,
    failures: Vec<String>,
    validated_schedules: usize,
    end_to_end: Vec<Metric>,
    /// Printed, but without a bound in `BENCHMARK.json`.
    informational: Vec<Metric>,
    /// Traced passes only.
    per_layer: Vec<Metric>,
    /// Traced passes only: per request kind, the shadow chain's layers by
    /// total time, largest first.
    contributors: Vec<(&'static str, Vec<(&'static str, f64)>)>,
}

fn run_pass(shape: &Shape, opts: driver::Options) -> Result<Pass, String> {
    let mut tracer = trace::Tracer::new();
    let (log, host) = driver::run(shape, opts, &out_dir())?;
    let verdict = check::check(&log);
    let summaries = metrics::end_to_end(&log, &verdict)
        .and_then(|bounded| Ok((bounded, metrics::informational(&log, &verdict)?)));
    // Without samples there is no report to carry the reasons.
    let (end_to_end, informational) =
        summaries.map_err(|e| format!("{e}; failed operations: {:#?}", verdict.failures))?;
    let mut pass = Pass {
        clients: log.clients,
        attempted: verdict.attempted,
        failures: verdict.failures,
        validated_schedules: verdict.validated_schedules,
        end_to_end,
        informational,
        per_layer: Vec::new(),
        contributors: Vec::new(),
    };
    if opts.traced {
        let scratch = host.scratch_dir("shadow").map_err(|e| e.to_string())?;
        let replay = shadow::replay(&log, &scratch, &mut tracer)?;
        pass.failures.extend(replay.mismatches.iter().cloned());
        pass.per_layer = shadow::layer_metrics(&log, &tracer, &replay)?;
        pass.contributors = shadow::contributors(&tracer);
        // Smoke runs (`cargo test`) must not overwrite a recorded trace.
        let suffix = if opts.smoke { ".smoke" } else { "" };
        let path = out_dir().join(format!("{}{suffix}.trace.jsonl", shape.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(pass)
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
}

fn print_failures(workload: &str, pass: &Pass) {
    let share = pass.failures.len() as f64 / pass.attempted as f64;
    println!("{workload} failed_share {share} ratio n={}", pass.attempted);
    for failure in &pass.failures {
        eprintln!("{workload}: FAILED {failure}");
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: REFERENCE_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds needs a whole number >= 1")?
            }
            "--smoke" => parsed.smoke = true,
            // A bare flag for people, `--trace 0|1` for the harness.
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn selected(workload: &Option<String>) -> Result<Vec<&'static Shape>, String> {
    match workload {
        None => Ok(SHAPES.iter().collect()),
        Some(name) => workloads::shape(name)
            .map(|s| vec![s])
            .ok_or_else(|| format!("unknown workload `{name}` (see `list`)")),
    }
}

fn options(args: &Args, traced: bool) -> driver::Options {
    driver::Options {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced,
    }
}

/// A JSON object from `(key, value)` pairs.
fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn metrics_value(metrics: &[Metric], with_n: bool) -> Value {
    object(metrics.iter().map(|m| {
        let value = ("value", Value::Float(m.value));
        let unit = ("unit", Value::Str(m.unit.to_string()));
        let n = ("n", Value::UInt(m.n as u64));
        let entry = if with_n {
            object([value, unit, n])
        } else {
            object([value, unit])
        };
        (m.name, entry)
    }))
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `run`: every selected workload, untraced; with `--trace` a second, traced
/// pass whose end-to-end timings give `trace_overhead_pct`.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let mut clean = true;
    let mut document = Vec::new();
    for shape in selected(&args.workload)? {
        let pass = run_pass(shape, options(args, false))?;
        print_metrics(shape.name, &pass.end_to_end);
        print_metrics(shape.name, &pass.informational);
        print_failures(shape.name, &pass);
        clean &= pass.failures.is_empty();
        let mut entry = vec![
            ("clients", Value::UInt(pass.clients as u64)),
            ("attempted", Value::UInt(pass.attempted as u64)),
            ("failed", Value::UInt(pass.failures.len() as u64)),
            (
                "validated_schedules",
                Value::UInt(pass.validated_schedules as u64),
            ),
            ("end_to_end", metrics_value(&pass.end_to_end, true)),
            ("informational", metrics_value(&pass.informational, true)),
        ];
        if args.traced {
            let traced = run_pass(shape, options(args, true))?;
            print_metrics(shape.name, &traced.per_layer);
            let mut overhead = Vec::new();
            // The per-kind latencies of the two passes, side by side.
            for (off, on) in pass.informational.iter().zip(&traced.informational) {
                let pct = (on.value - off.value) / off.value * 100.0;
                let name = off.name;
                println!("{} trace_overhead_pct.{name} {pct} % n=1", shape.name);
                overhead.push((name, Value::Float(pct)));
            }
            for (kind, layers) in &traced.contributors {
                let total: f64 = layers.iter().map(|(_, ms)| ms).sum();
                let top: Vec<String> = layers
                    .iter()
                    .take(2)
                    .map(|(name, ms)| format!("{name} {:.1} %", ms / total * 100.0))
                    .collect();
                println!(
                    "{} largest_contributors.{kind} {} of {total:.1} ms",
                    shape.name,
                    top.join(", ")
                );
            }
            print_failures(shape.name, &traced);
            clean &= traced.failures.is_empty();
            entry.push(("per_layer", metrics_value(&traced.per_layer, true)));
            entry.push(("trace_overhead_pct", object(overhead)));
        }
        document.push((shape.name, object(entry)));
    }
    let document = object([
        ("benchmark", Value::Str("bench_e2e".to_string())),
        (
            "commit",
            Value::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_output("rustc", &["--version"]))),
        ("nproc", Value::UInt(driver::nproc() as u64)),
        (
            "pool_workers",
            Value::UInt(mbsp_pool::resolve_workers(0) as u64),
        ),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("workloads", object(document)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&document).map_err(|e| e.to_string())?
    );
    Ok(clean)
}

/// `bench`: the harness's form — one workload, one pass, one result object on
/// the last line of standard output.
fn cmd_bench(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_ref().ok_or("bench needs --workload")?;
    let shape = workloads::shape(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let pass = run_pass(shape, options(args, args.traced))?;
    let metrics = if args.traced {
        &pass.per_layer
    } else {
        &pass.end_to_end
    };
    print_metrics(shape.name, metrics);
    if !args.traced {
        print_metrics(shape.name, &pass.informational);
    }
    print_failures(shape.name, &pass);
    let result = object([
        ("correct", Value::Bool(pass.failures.is_empty())),
        ("attempted", Value::UInt(pass.attempted as u64)),
        ("failed", Value::UInt(pass.failures.len() as u64)),
        ("metrics", metrics_value(metrics, false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(pass.failures.is_empty())
}

/// The `(name, better, bound)` rows of `BENCHMARK.json`'s `end_to_end`.
fn declared_bounds() -> Result<Vec<(String, String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let rows = json::get(&doc, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json lacks `end_to_end`")?;
    rows.iter()
        .map(|row| {
            Some((
                json::get_str(row, "name")?.to_string(),
                json::get_str(row, "better")?.to_string(),
                json::get_f64(row, "bound")?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed `end_to_end` row".to_string())
}

/// `aa`: the untraced suite twice on the same build. Two runs of the same
/// code must agree within each metric's bound, and the quality ratios — pure
/// functions of (instance, config, seed) — must repeat exactly.
fn cmd_aa(args: &Args) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let mut clean = true;
    for shape in selected(&args.workload)? {
        let first = run_pass(shape, options(args, false))?;
        let second = run_pass(shape, options(args, false))?;
        for pass in [&first, &second] {
            print_failures(shape.name, pass);
            clean &= pass.failures.is_empty();
        }
        for (a, b) in first.end_to_end.iter().zip(&second.end_to_end) {
            let (_, better, bound) = bounds
                .iter()
                .find(|(name, _, _)| name == a.name)
                .ok_or_else(|| format!("{} is not in BENCHMARK.json", a.name))?;
            // How much worse the second run reads than the first.
            let worse = if better == "lower" {
                (b.value - a.value) / a.value
            } else {
                (a.value - b.value) / a.value
            };
            let exact = matches!(a.name, "cost_ratio" | "repair_cost_ratio");
            let (bound, agrees) = if exact {
                (0.0, a.value == b.value)
            } else {
                (*bound, worse.abs() <= *bound)
            };
            let verdict = if agrees { "ok" } else { "DISAGREES" };
            println!(
                "{} {} first={} second={} worse={worse:+.4} bound={bound} {verdict}",
                shape.name, a.name, a.value, b.value
            );
            clean &= agrees;
        }
        for (a, b) in first.informational.iter().zip(&second.informational) {
            let worse = (b.value - a.value) / a.value;
            println!(
                "{} {} first={} second={} worse={worse:+.4} bound=none informational",
                shape.name, a.name, a.value, b.value
            );
        }
    }
    Ok(clean)
}

fn cmd_list() {
    for shape in &SHAPES {
        println!("workload {} {}", shape.name, shape.why);
    }
    for (name, unit) in metrics::END_TO_END {
        println!("end_to_end {name} {unit}");
    }
    for (name, unit) in metrics::INFORMATIONAL {
        println!("informational {name} {unit}");
    }
    for (name, unit) in metrics::PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

fn cmd_daemon(args: &[String]) -> Result<bool, String> {
    match args {
        [flag_a, state_dir, flag_b, addr_file]
            if flag_a == "--state-dir" && flag_b == "--addr-file" =>
        {
            daemon::serve(Path::new(state_dir), Path::new(addr_file)).map(|()| true)
        }
        _ => Err("usage: daemon --state-dir DIR --addr-file FILE".to_string()),
    }
}

fn main() -> ExitCode {
    // The shadow replay must size its pool like the daemon does.
    std::env::remove_var("MBSP_BENCH_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = match command {
        "daemon" => cmd_daemon(rest),
        "list" => {
            cmd_list();
            Ok(true)
        }
        "run" => parse_args(rest).and_then(|a| cmd_run(&a)),
        "bench" => parse_args(rest).and_then(|a| cmd_bench(&a)),
        "aa" => parse_args(rest).and_then(|a| cmd_aa(&a)),
        _ => Err(
            "usage: bench_e2e run|aa|list|bench [--workload NAME] [--seed N] [--seconds S] [--trace] [--smoke]"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
