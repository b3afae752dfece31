//! Runs the full experiment suite (all tables and figures) and writes the combined
//! markdown report to stdout. Individual experiments are available as separate
//! binaries (`table1` … `sync_vs_async`), listed in the README section "Reproducing
//! the paper's tables and figures".

use mbsp_bench::{
    geometric_mean_ratio, render_table, run_small_dataset_comparison, run_tiny_comparison,
    ExperimentParams,
};
use mbsp_model::CostModel;

fn main() {
    let base = ExperimentParams::base();
    println!("# MBSP scheduling — experiment report\n");
    println!(
        "time budget per instance: {:?} (override with MBSP_BENCH_SECONDS)\n",
        base.time_limit
    );

    // Table 1.
    let rows = run_tiny_comparison(&base);
    println!(
        "{}",
        render_table("Table 1 — base setting (P=4, r=3·r0, L=10)", &rows)
    );

    // Table 4 / Figure 4 settings.
    let settings: Vec<(&str, ExperimentParams)> = vec![
        (
            "r = 5·r0",
            ExperimentParams {
                cache_factor: 5.0,
                ..base
            },
        ),
        (
            "r = r0",
            ExperimentParams {
                cache_factor: 1.0,
                ..base
            },
        ),
        (
            "P = 8",
            ExperimentParams {
                processors: 8,
                ..base
            },
        ),
        (
            "L = 0",
            ExperimentParams {
                latency: 0.0,
                ..base
            },
        ),
        (
            "async",
            ExperimentParams {
                latency: 0.0,
                cost_model: CostModel::Asynchronous,
                ..base
            },
        ),
    ];
    for (name, params) in &settings {
        let rows = run_tiny_comparison(params);
        println!(
            "{}",
            render_table(&format!("Table 4 / Figure 4 — {name}"), &rows)
        );
    }

    // Table 2 (divide and conquer on the larger sample).
    let params2 = ExperimentParams {
        cache_factor: 5.0,
        ..base
    };
    let rows2 = run_small_dataset_comparison(&params2);
    println!(
        "{}",
        render_table("Table 2 — divide-and-conquer on the larger dataset", &rows2)
    );
    println!(
        "overall divide-and-conquer geo-mean ratio: {:.2}x",
        geometric_mean_ratio(&rows2)
    );
}
