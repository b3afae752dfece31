# Developer entry points; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test doc fmt lint bench-json smokes serve-smoke loc ci

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

# Records the six benchmark baselines through the one recorder skeleton
# (`crates/bench/src/lib.rs`): `solver` (sparse warm-started branch-and-bound
# vs the dense oracle), `improver` (incremental evaluation engine vs
# clone-and-recost), `dag` (CSR/bitset/scratch pipeline vs nested-Vec reference
# paths on 10k-100k-node instances), `shard` (sharded holistic search vs the
# single-incumbent search at equal move budget), `delta` (dirty-cone repair vs
# full re-search after localized DAG mutation) and `io` (session checkpoint
# encode/decode, <50 ms each way on the 100k-node instances), each into its
# BENCH_<name>.json (~1 h; one recorder: `bench_record <name>`, a few
# instances: `--only <substr>`, which prints rows and writes nothing). Each
# compares a fast path with its ground-truth reference and the exit status is
# the gate; what a request costs from one commit to the next is bench_e2e's
# job (benchmark/, BENCHMARK.json).
bench-json:
	cargo run --release -p mbsp_bench --bin bench_record -- all

# The CI benchmark smoke: every recorder on its small instances (seconds).
# Prints the rows, writes nothing, and fails on any false agreement flag,
# sub-1.0 speedup or unreal timing.
smokes:
	cargo run --release -p mbsp_bench --bin bench_record -- all --quick

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
# the benchmark smoke (whose exit status is the regression gate) and the
# serving smoke. Contributors can reproduce a red CI run locally with this
# single target.
ci: build test doc fmt lint smokes serve-smoke
