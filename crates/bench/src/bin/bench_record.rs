//! `bench_record <solver|improver|dag|shard|delta|io|all> [--quick] [--only <substr>]`
//! — the one benchmark-baseline binary: runs the selected recorders of
//! [`mbsp_bench::recorders`] through the shared skeleton, and its exit status is
//! the regression gate (see [`mbsp_bench::record_main`]).

fn main() -> std::process::ExitCode {
    mbsp_bench::record_main(std::env::args().skip(1))
}
