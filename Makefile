# Developer entry points; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test doc fmt lint bench bench-compile bench-json smokes bench-check serve-smoke loc ci

build:
	cargo build --release --workspace --all-targets

test:
	cargo test -q --workspace

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

fmt:
	cargo fmt --all --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

bench:
	cargo bench -p mbsp_bench

# CI's criterion compile gate: benches must keep building even when not run.
bench-compile:
	cargo bench --workspace --no-run

# Records the benchmark baselines: the solver comparison (sparse warm-started
# branch-and-bound vs the dense oracle) into BENCH_solver.json, the improver
# comparison (incremental evaluation engine vs clone-and-recost) into
# BENCH_improver.json, the DAG-substrate comparison (CSR/bitset/scratch
# pipeline vs nested-Vec reference paths on 10k-100k-node instances) into
# BENCH_dag.json, the sharded-search comparison (sharded holistic search
# over zero-copy sub-DAG views vs the single-incumbent search at equal move
# budget) into BENCH_shard.json, and the incremental-repair comparison
# (dirty-cone repair vs from-scratch re-schedule after localized DAG mutation)
# into BENCH_delta.json, the checkpoint-codec baseline (session encode/decode
# wall-clock with byte-identity and corruption-rejection flags, <50 ms each
# way on the 100k-node instances) into BENCH_io.json, and the serving
# baseline (mbsp_serve fan-out latency/throughput with monotone-incumbent
# and served-vs-direct byte-identity flags) into BENCH_serve.json. Set
# MBSP_BENCH_SOLVER_QUICK=1 / MBSP_BENCH_IMPROVER_QUICK=1 /
# MBSP_BENCH_DAG_QUICK=1 / MBSP_BENCH_SHARD_QUICK=1 /
# MBSP_BENCH_DELTA_QUICK=1 / MBSP_BENCH_IO_QUICK=1 /
# MBSP_BENCH_SERVE_QUICK=1 for the fast CI smoke variants. Each compares a
# fast path with its ground-truth reference; what a request costs from one
# commit to the next is bench_e2e's job (benchmark/, BENCHMARK.json).
bench-json:
	cargo run --release -p mbsp_bench --bin bench_solver
	cargo run --release -p mbsp_bench --bin bench_improver
	cargo run --release -p mbsp_bench --bin bench_dag
	cargo run --release -p mbsp_bench --bin bench_shard
	cargo run --release -p mbsp_bench --bin bench_delta
	cargo run --release -p mbsp_bench --bin bench_io
	cargo run --release -p mbsp_bench --bin bench_serve

# The seven CI benchmark smokes (quick mode, writing BENCH_*_quick.json).
smokes:
	MBSP_BENCH_SOLVER_QUICK=1 cargo run --release -p mbsp_bench --bin bench_solver
	MBSP_BENCH_IMPROVER_QUICK=1 cargo run --release -p mbsp_bench --bin bench_improver
	MBSP_BENCH_DAG_QUICK=1 cargo run --release -p mbsp_bench --bin bench_dag
	MBSP_BENCH_SHARD_QUICK=1 cargo run --release -p mbsp_bench --bin bench_shard
	MBSP_BENCH_DELTA_QUICK=1 cargo run --release -p mbsp_bench --bin bench_delta
	MBSP_BENCH_IO_QUICK=1 cargo run --release -p mbsp_bench --bin bench_io
	MBSP_BENCH_SERVE_QUICK=1 cargo run --release -p mbsp_bench --bin bench_serve

# The bench-regression gate: parses the BENCH_*_quick.json smoke outputs and
# fails on any sub-1.0 speedup or fast/reference divergence.
bench-check:
	cargo run --release -p mbsp_bench --bin bench_check

# The serving smoke: boot a real mbsp_serve daemon, drive a scripted client
# session (register / schedule / mutate / graceful shutdown), restart it on
# the same state directory and assert the checkpointed session restored.
serve-smoke:
	cargo run --release -p mbsp_serve -- --help >/dev/null
	sh scripts/serve_smoke.sh

# "Less code" as a printed number: the counted production lines per crate and
# in total (every .rs file under crates/*/src up to its first #[cfg(test)],
# blank and // lines skipped) and the byte size of the release daemon (build
# first). Compare two commits by running it in both checkouts.
loc:
	@find crates/*/src -name '*.rs' | sort | xargs awk ' \
	  FNR == 1 { stop = 0; split(FILENAME, path, "/"); crate = path[2] } \
	  /^#\[cfg\(test\)\]/ { stop = 1 } \
	  !stop { s = $$0; sub(/^[ \t]+/, "", s); \
	          if (s != "" && substr(s, 1, 2) != "//") { lines[crate]++; total++ } } \
	  END { for (c in lines) printf "%-8s %6d\n", c, lines[c] | "sort"; close("sort"); \
	        printf "%-8s %6d\n", "total", total }'
	@wc -c target/release/mbsp_serve

# Everything CI checks, in CI's order: build, test, doc, formatting, clippy,
# the seven benchmark smokes, the criterion compile gate, the
# bench-regression gate and the serving smoke. Contributors can reproduce a
# red CI run locally with this single target.
ci: build test doc fmt lint smokes bench-compile bench-check serve-smoke
