//! # mbsp-bench — the recorded reports: the paper's reproduction and six fast-path baselines
//!
//! Seven recorders write one `BENCH_<name>.json` each through one skeleton: a
//! `Recorder` supplies instances, one `measure` and the names of its gated row
//! fields; `record` owns the loop, the report and the gate; the `bench_record`
//! binary ([`record_main`]) is the only entry point and its exit status is the
//! gate.
//!
//! * `repro` regenerates the paper's evaluation — Tables 1–4, Figure 4, the
//!   single-processor experiment and the Theorem 4.1 / Lemma 5.3 / 5.4 / 6.1
//!   gadgets — and asserts each of the paper's claims about them as a named
//!   boolean (see [`recorders::repro`] and the README section "Reproducing the
//!   paper's tables and figures"). Its budgets are counts, so its report has
//!   no timings and a second run reproduces it byte for byte.
//! * `solver`, `improver`, `dag`, `shard`, `delta` and `io` each measure a
//!   fast path against its ground-truth reference.
//!
//! `MBSP_BENCH_THREADS` overrides the worker count of every search (`1` forces
//! serial runs); results do not depend on it. What a served request costs from
//! one commit to the next is not measured here but by `bench_e2e`
//! (`benchmark/`, `BENCHMARK.json`).

use mbsp_gen::NamedInstance;
use mbsp_model::{Architecture, MbspInstance};
use serde::{Serialize, Value};
use std::process::ExitCode;

/// The seven recorders behind `bench_record`, one module each. A module supplies
/// what it measures — instances, one `measure`, a row struct, the names of its
/// gated fields, its full-run bars — and nothing else: arguments, the instance
/// loop, report assembly, the `BENCH_<name>.json` write and the gate are
/// `record` and [`record_main`].
pub mod recorders {
    pub mod dag;
    pub mod delta;
    pub mod improver;
    pub mod io;
    pub mod repro;
    pub mod shard;
    pub mod solver;
}

/// Report fields a recorder contributes around `instances`, in file order.
pub(crate) type Fields = Vec<(String, Value)>;

/// One report field.
pub(crate) fn field(key: &str, value: impl Serialize) -> (String, Value) {
    (key.to_string(), value.to_value())
}

/// One recorder: a fixed instance list, one measurement per instance and the
/// row fields the run is gated on. Field paths in [`FLAGS`](Self::FLAGS),
/// [`SPEEDUPS`](Self::SPEEDUPS) and [`TIMINGS`](Self::TIMINGS) address the
/// serialised row, with `.` descending into nested objects.
pub(crate) trait Recorder {
    /// What one measurement runs on; carries whatever quick mode shrinks
    /// (budgets, repetitions), so `measure` needs no mode.
    type Instance;
    /// One measured row. Its serialised field names are the schema of the
    /// `instances` array of `BENCH_<NAME>.json`.
    type Row: Serialize + Default;
    /// Selects the recorder on the command line and names its baseline file.
    const NAME: &'static str;
    /// The report's `benchmark` headline.
    const BENCHMARK: &'static str;
    /// Boolean row fields that must be `true` on every row, quick or full.
    const FLAGS: &'static [&'static str];
    /// Fast-vs-reference ratios that must be at least 1.0 on every row.
    const SPEEDUPS: &'static [&'static str] = &[];
    /// Measurements that must be finite and positive on every row.
    const TIMINGS: &'static [&'static str] = &[];
    /// Boolean [`summary`](Self::summary) fields that must be `true`, quick or
    /// full.
    const SUMMARY_FLAGS: &'static [&'static str] = &[];

    /// The full instance list, or the small smoke list when `quick`.
    fn instances(&self, quick: bool) -> Vec<Self::Instance>;
    /// The instance's name: what `--only` matches and violations cite.
    fn name(instance: &Self::Instance) -> &str;
    /// Measures one instance.
    fn measure(&self, instance: &Self::Instance) -> Self::Row;
    /// Report fields between `quick` and `instances`.
    fn header(&self) -> Fields {
        Vec::new()
    }
    /// Aggregate report fields after `instances`.
    fn summary(&self, _rows: &[Self::Row]) -> Fields {
        Vec::new()
    }
    /// The acceptance bars of the recorded baseline, as violations. Called
    /// only on an unfiltered full run: they are stated for production-scale
    /// instances and for the dataset as a whole.
    fn full_bars(&self, _rows: &[Self::Row]) -> Vec<String> {
        Vec::new()
    }
}

/// What one recorder run produced.
#[derive(Debug)]
pub(crate) struct Outcome {
    /// Rows measured (instances that passed `--only`).
    rows: usize,
    /// The assembled report, in the layout of `BENCH_<name>.json`.
    report: Value,
    /// Gate violations, each naming recorder, instance and field; empty means
    /// green.
    violations: Vec<String>,
}

/// Geometric mean of positive ratios (1.0 for an empty list), the headline of
/// every speedup report.
pub(crate) fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(sum, count), v| {
        (sum + v.max(1e-9).ln(), count + 1)
    });
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

/// The `large_dataset` instances of a full run, or — quick — two small layered
/// random DAGs `(layers, width, edge_probability, seed)`.
pub(crate) fn large_or_quick(
    quick: bool,
    small: [(usize, usize, f64, u64); 2],
) -> Vec<NamedInstance> {
    if !quick {
        return mbsp_gen::large_dataset(42);
    }
    let layered = |(layers, width, edge_probability, seed)| NamedInstance {
        name: format!("rand_L{layers}_W{width}_quick"),
        family: "random",
        dag: mbsp_gen::random::random_layered_dag(
            &mbsp_gen::random::RandomDagConfig {
                layers,
                width,
                edge_probability,
                ..Default::default()
            },
            seed,
        ),
    };
    small.map(layered).into()
}

/// The instance every recorder schedules a named DAG on: the paper's default
/// architecture with `r = 3·r₀`.
pub(crate) fn paper_instance(named: &NamedInstance) -> MbspInstance {
    MbspInstance::with_cache_factor(named.dag.clone(), Architecture::paper_default(0.0), 3.0)
}

fn lookup<'a>(row: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.')
        .try_fold(row, |v, key| serde::map_get(v.as_map()?, key))
}

/// The number at `path`, NaN when it is missing or not a number — which fails
/// every bound the gate states.
fn number(row: &Value, path: &str) -> f64 {
    match lookup(row, path) {
        Some(Value::Float(f)) => *f,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Int(n)) => *n as f64,
        _ => f64::NAN,
    }
}

/// JSON text of a row or summary; a value JSON cannot carry (NaN) is shown in
/// debug form so the line still names it.
fn render(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{value:?} ({e})"))
}

/// Runs one recorder: measures every instance whose name contains `only`,
/// prints each row as one JSON line, checks the row against the recorder's
/// declared flags, speedups and timings, and — on an unfiltered full run —
/// applies its full-run bars. Writes nothing; [`record_main`] does.
pub(crate) fn record<R: Recorder>(recorder: &R, quick: bool, only: Option<&str>) -> Outcome {
    let mut rows = Vec::new();
    let mut values = Vec::new();
    let mut violations = Vec::new();
    for instance in recorder.instances(quick) {
        let name = R::name(&instance);
        if only.is_some_and(|only| !name.contains(only)) {
            continue;
        }
        eprintln!("== {}: {name}", R::NAME);
        let row = recorder.measure(&instance);
        let value = row.to_value();
        println!("{:<8} {}", R::NAME, render(&value));
        let mut require = |ok: bool, path: &str, what: &str| {
            if !ok {
                violations.push(format!("{}: {name}: `{path}` {what}", R::NAME));
            }
        };
        for path in R::FLAGS {
            let flag = lookup(&value, path) == Some(&Value::Bool(true));
            require(flag, path, "is not true");
        }
        for path in R::SPEEDUPS {
            let x = number(&value, path);
            require(x >= 1.0, path, &format!("= {x:.3} is below 1.0"));
        }
        for path in R::TIMINGS {
            let x = number(&value, path);
            let real = x.is_finite() && x > 0.0;
            require(
                real,
                path,
                &format!("= {x} is not a finite positive measurement"),
            );
        }
        rows.push(row);
        values.push(value);
    }
    if !quick && only.is_none() {
        violations.extend(recorder.full_bars(&rows));
    }
    let summary = recorder.summary(&rows);
    if !summary.is_empty() {
        let summary = Value::Map(summary.clone());
        println!("{:<8} {}", R::NAME, render(&summary));
        for path in R::SUMMARY_FLAGS {
            if lookup(&summary, path) != Some(&Value::Bool(true)) {
                violations.push(format!("{}: summary: `{path}` is not true", R::NAME));
            }
        }
    }
    let mut report = vec![field("benchmark", R::BENCHMARK), field("quick", quick)];
    report.extend(recorder.header());
    report.push(field("instances", values));
    report.extend(summary);
    Outcome {
        rows: rows.len(),
        report: Value::Map(report),
        violations,
    }
}

/// A recorder's command-line name and its [`record`] instantiation.
type Entry = (&'static str, fn(bool, Option<&str>) -> Outcome);

fn entry<R: Recorder + Default>() -> Entry {
    (R::NAME, |quick, only| record(&R::default(), quick, only))
}

const USAGE: &str =
    "usage: bench_record <solver|improver|dag|shard|delta|io|repro|all> [--quick] [--only <substr>]";

/// The recorders `which` selects — one by name, or every one for `all`, in
/// the order `all` runs them (cheapest first); empty for an unknown name.
fn select(which: &str) -> Vec<Entry> {
    let mut all = vec![
        entry::<recorders::solver::Solver>(),
        entry::<recorders::improver::Improver>(),
        entry::<recorders::dag::Dag>(),
        entry::<recorders::shard::Shard>(),
        entry::<recorders::delta::Delta>(),
        entry::<recorders::io::Io>(),
        entry::<recorders::repro::Repro>(),
    ];
    all.retain(|(name, _)| which == "all" || *name == which);
    all
}

/// The exit status of a run: failure when any gate was violated or nothing
/// was measured, with every violation listed on stderr.
fn finish(outcomes: &[Outcome]) -> ExitCode {
    let violations: Vec<&String> = outcomes.iter().flat_map(|o| &o.violations).collect();
    let rows: usize = outcomes.iter().map(|o| o.rows).sum();
    if rows == 0 {
        eprintln!("bench_record: no instance was measured");
        return ExitCode::FAILURE;
    }
    if violations.is_empty() {
        println!("bench_record: {rows} rows, every gate green");
        return ExitCode::SUCCESS;
    }
    eprintln!("bench_record: {} violation(s):", violations.len());
    for violation in violations {
        eprintln!("  - {violation}");
    }
    ExitCode::FAILURE
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Option<(Vec<Entry>, bool, Option<String>)> {
    let selected = select(&args.next()?);
    if selected.is_empty() {
        return None;
    }
    let (mut quick, mut only) = (false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => only = Some(args.next().filter(|s| !s.is_empty())?),
            _ => return None,
        }
    }
    Some((selected, quick, only))
}

/// `bench_record <name>|all [--quick] [--only <substr>]`: runs the selected
/// recorders and returns the gate as the exit status. An unfiltered full run
/// that passed its gate writes `BENCH_<name>.json` to the working directory;
/// quick and filtered runs print their rows and write nothing, so neither can
/// clobber a recorded baseline.
pub fn record_main(args: impl Iterator<Item = String>) -> ExitCode {
    let Some((selected, quick, only)) = parse_args(args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut outcomes = Vec::new();
    for (name, run) in selected {
        let mut outcome = run(quick, only.as_deref());
        if !quick && only.is_none() && outcome.violations.is_empty() {
            let path = format!("BENCH_{name}.json");
            let written = serde_json::to_string(&outcome.report)
                .map_err(|e| e.to_string())
                .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()));
            match written {
                Ok(()) => println!("{name:<8} baseline -> {path}"),
                Err(e) => outcome
                    .violations
                    .push(format!("{name}: {path} not written: {e}")),
            }
        }
        outcomes.push(outcome);
    }
    finish(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick `repro` experiment, measured through the skeleton; `cost`
    /// has validated every schedule behind a number in it.
    fn quick_repro(experiment: &str) -> Value {
        let outcome = record(&recorders::repro::Repro, true, Some(experiment));
        assert_eq!((outcome.rows, &outcome.violations), (1, &Vec::new()));
        let rows = lookup(&outcome.report, "instances").and_then(Value::as_seq);
        rows.expect("an `instances` array")[0].clone()
    }

    /// The per-instance costs of a row, one `Vec` per dataset instance.
    fn costs_of(row: &Value) -> Vec<Vec<f64>> {
        let costs = lookup(row, "costs").and_then(Value::as_seq).expect("costs");
        let numbers = |entry: &Value| -> Vec<f64> {
            let list = lookup(entry, "costs")
                .and_then(Value::as_seq)
                .expect("costs");
            let float = |v: &Value| match v {
                Value::Float(f) => *f,
                other => panic!("a cost is a float, got {other:?}"),
            };
            list.iter().map(float).collect()
        };
        costs.iter().map(numbers).collect()
    }

    #[test]
    fn baseline_and_holistic_run_on_one_instance() {
        let costs = costs_of(&quick_repro("table1"));
        assert!(!costs.is_empty());
        for pair in costs {
            let [base, holistic] = pair[..] else {
                panic!("table1 has two columns, got {pair:?}");
            };
            assert!(base > 0.0);
            assert!(holistic <= base + 1e-9);
        }
    }

    #[test]
    fn cilk_lru_and_dfs_pipelines_produce_valid_schedules() {
        for (experiment, column) in [("table3", "cilk_lru"), ("pebbling_p1", "dfs_clairvoyant")] {
            let row = quick_repro(experiment);
            let columns = lookup(&row, "columns")
                .and_then(Value::as_seq)
                .expect("columns");
            let at = columns
                .iter()
                .position(|c| *c == Value::Str(column.to_string()))
                .unwrap_or_else(|| panic!("{experiment} has no `{column}` column"));
            for costs in costs_of(&row) {
                assert!(costs[at].is_finite() && costs[at] > 0.0, "{experiment}");
            }
        }
    }

    /// A recorder whose rows are handed in, so each gate rule can be driven
    /// with the one value that breaks it.
    struct Toy(Vec<ToyRow>);

    #[derive(Debug, Clone, Default, Serialize)]
    struct ToyInner {
        ok: bool,
    }

    #[derive(Debug, Clone, Default, Serialize)]
    struct ToyRow {
        name: String,
        seconds: f64,
        speedup: f64,
        agree: bool,
        inner: ToyInner,
    }

    fn toy_row(name: &str) -> ToyRow {
        ToyRow {
            name: name.to_string(),
            seconds: 0.5,
            speedup: 1.5,
            agree: true,
            inner: ToyInner { ok: true },
        }
    }

    impl Recorder for Toy {
        type Instance = ToyRow;
        type Row = ToyRow;
        const NAME: &'static str = "toy";
        const BENCHMARK: &'static str = "toy";
        const FLAGS: &'static [&'static str] = &["agree", "inner.ok"];
        const SPEEDUPS: &'static [&'static str] = &["speedup"];
        const TIMINGS: &'static [&'static str] = &["seconds"];

        fn instances(&self, _quick: bool) -> Vec<ToyRow> {
            self.0.clone()
        }
        fn name(row: &ToyRow) -> &str {
            &row.name
        }
        fn measure(&self, row: &ToyRow) -> ToyRow {
            row.clone()
        }
        fn full_bars(&self, rows: &[ToyRow]) -> Vec<String> {
            vec![format!("toy: aggregate bar over {} rows", rows.len())]
        }
    }

    #[test]
    fn gate_names_each_broken_rule_and_fails_the_run() {
        let green = record(&Toy(vec![toy_row("a"), toy_row("b")]), true, None);
        assert_eq!((green.rows, green.violations.len()), (2, 0));
        assert_eq!(finish(&[green]), ExitCode::SUCCESS);

        type Breakage = fn(&mut ToyRow);
        let broken: [(Breakage, &str); 6] = [
            (|r| r.agree = false, "toy: b: `agree` is not true"),
            (|r| r.inner.ok = false, "toy: b: `inner.ok` is not true"),
            (
                |r| r.speedup = 0.99,
                "toy: b: `speedup` = 0.990 is below 1.0",
            ),
            (
                |r| r.speedup = f64::NAN,
                "toy: b: `speedup` = NaN is below 1.0",
            ),
            (
                |r| r.seconds = f64::NAN,
                "toy: b: `seconds` = NaN is not a finite positive measurement",
            ),
            (
                |r| r.seconds = 0.0,
                "toy: b: `seconds` = 0 is not a finite positive measurement",
            ),
        ];
        for (breakage, violation) in broken {
            let mut row = toy_row("b");
            breakage(&mut row);
            let outcome = record(&Toy(vec![toy_row("a"), row]), true, None);
            assert_eq!(outcome.violations, [violation]);
            assert_eq!(finish(&[outcome]), ExitCode::FAILURE);
        }
        // Measuring nothing is not a pass.
        let empty = record(&Toy(vec![toy_row("a")]), true, Some("zzz"));
        assert!(empty.violations.is_empty());
        assert_eq!(finish(&[empty]), ExitCode::FAILURE);
    }

    #[test]
    fn only_suppresses_full_run_bars_but_not_row_flags() {
        let rows = || {
            let mut bad = toy_row("bad");
            bad.agree = false;
            Toy(vec![toy_row("good"), bad])
        };
        let flag = "toy: bad: `agree` is not true".to_string();
        let bar = "toy: aggregate bar over 2 rows".to_string();
        // Unfiltered full run: the row flag and the bar.
        assert_eq!(record(&rows(), false, None).violations, [flag.clone(), bar]);
        // Filtered full run: the bar is off, the row flag is not.
        let filtered = record(&rows(), false, Some("bad"));
        assert_eq!(
            (filtered.rows, &filtered.violations),
            (1, &vec![flag.clone()])
        );
        assert!(record(&rows(), false, Some("good")).violations.is_empty());
        // Quick run: no bar either.
        assert_eq!(record(&rows(), true, None).violations, [flag]);
    }

    #[test]
    fn all_visits_the_seven_recorders_in_a_fixed_order() {
        let names =
            |which| -> Vec<&str> { select(which).into_iter().map(|(name, _)| name).collect() };
        assert_eq!(
            names("all"),
            ["solver", "improver", "dag", "shard", "delta", "io", "repro"]
        );
        assert_eq!(names("shard"), ["shard"]);
        assert!(select("serve").is_empty());

        let args = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        let (selected, quick, only) = args("all --quick --only rand_L200").expect("valid");
        assert_eq!(
            (selected.len(), quick, only.as_deref()),
            (7, true, Some("rand_L200"))
        );
        let (selected, quick, only) = args("io").expect("valid");
        assert_eq!((selected.len(), quick, only), (1, false, None));
        for bad in ["", "--quick", "pool", "io --fast", "io --only", "io dag"] {
            assert!(args(bad).is_none(), "{bad:?} must be a usage error");
        }
    }

    /// The key structure of a JSON value: nested objects by sorted key, every
    /// other value opaque.
    fn shape(value: &Value) -> String {
        let Some(map) = value.as_map() else {
            return "_".to_string();
        };
        let mut keys: Vec<String> = map
            .iter()
            .map(|(key, value)| format!("{key}:{}", shape(value)))
            .collect();
        keys.sort();
        format!("{{{}}}", keys.join(","))
    }

    /// The committed baselines are not re-recorded when a recorder changes
    /// shape-preservingly, so every recorder's row and report header must
    /// still carry exactly the keys of its committed `BENCH_<name>.json`.
    fn assert_schema<R: Recorder>(recorder: &R) {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            R::NAME
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let committed: Value = serde_json::from_str(&text).expect("committed baseline parses");
        let instances = lookup(&committed, "instances").and_then(Value::as_seq);
        let first = &instances.expect("an `instances` array")[0];
        assert_eq!(
            shape(&R::Row::default().to_value()),
            shape(first),
            "{path}: row"
        );

        // A report nothing was measured for (no name contains NUL) still
        // carries every top-level key.
        let empty = record(recorder, true, Some("\0")).report;
        let top = |report: &Value| -> Vec<String> {
            let mut keys: Vec<String> = report
                .as_map()
                .expect("a report is an object")
                .iter()
                .map(|(key, _)| key.clone())
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(top(&empty), top(&committed), "{path}: report header");
        for path in R::FLAGS.iter().chain(R::SPEEDUPS).chain(R::TIMINGS) {
            assert!(
                lookup(first, path).is_some(),
                "{}: gated `{path}` is not a row field",
                R::NAME
            );
        }
    }

    #[test]
    fn every_recorder_keeps_the_schema_of_its_committed_baseline() {
        assert_schema(&recorders::solver::Solver);
        assert_schema(&recorders::improver::Improver);
        assert_schema(&recorders::dag::Dag);
        assert_schema(&recorders::shard::Shard);
        assert_schema(&recorders::delta::Delta);
        assert_schema(&recorders::io::Io);
        assert_schema(&recorders::repro::Repro);
    }
}
