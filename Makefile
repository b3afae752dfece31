# Developer entry points; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test doc fmt lint bench-json smokes serve-smoke determinism \
	fault-soak bench-e2e-smoke loc ci

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

# Records the four reports through the one recorder skeleton
# (`crates/bench/src/lib.rs`): `shard` (sharded holistic search vs the
# single-incumbent search at equal move budget), `delta` (dirty-cone repair vs
# full re-search after localized DAG mutation), `io` (session checkpoint
# encode/decode, <50 ms each way on the 100k-node instances) and `repro` (the
# paper's tables, Figure 4 and gadget lemmas, every claim a gated boolean;
# count budgets only, so a second run rewrites the same bytes), each into its
# BENCH_<name>.json (one recorder: `bench_record <name>`, a few instances:
# `--only <substr>`, which prints rows and writes nothing). No recorder times
# a fast path against its ground-truth reference — the differential tests
# assert that agreement; the exit status is the gate; what a request costs
# from one commit to the next is bench_e2e's job (benchmark/, BENCHMARK.json).
bench-json:
	cargo run --release -p mbsp_bench --bin bench_record -- all

# The CI benchmark smoke: every recorder on its small instances (most of it
# `repro`'s divide-and-conquer partitions). Prints the rows, writes nothing,
# and fails on any false flag, sub-1.0 speedup, unreal timing or claim of the
# paper that does not hold.
smokes:
	cargo run --release -p mbsp_bench --bin bench_record -- all --quick

# The serving smoke: boot a real mbsp_serve daemon, drive a scripted client
# session (register / schedule / mutate / graceful shutdown), restart it on
# the same state directory and assert the checkpointed session restored.
serve-smoke:
	cargo run --release -p mbsp_serve -- --help >/dev/null
	sh scripts/serve_smoke.sh

# Worker-count determinism: the search and the daemon must produce
# byte-identical schedules whatever MBSP_BENCH_THREADS says — the determinism
# suites pinned to an undersubscribed (2) and an oversubscribed (8) lane
# permit count. CI runs one count per matrix job: `make determinism WORKERS=2`.
WORKERS ?= 2 8
determinism:
	@set -e; for workers in $(WORKERS); do \
	  echo "== MBSP_BENCH_THREADS=$$workers"; \
	  MBSP_BENCH_THREADS=$$workers cargo test -q -p mbsp_ilp --test shard_determinism --test repair_determinism --test cancellation --test checkpoint_session --test golden_identity --test suffix_conversion; \
	  MBSP_BENCH_THREADS=$$workers cargo test -q -p mbsp_serve --test serve_e2e; \
	  MBSP_BENCH_THREADS=$$workers cargo test -q -p mbsp_pool --test panic_recovery; \
	done

# The fault-injection soak: a mutation-stream repair session under a seeded
# FaultPlan (worker panics, corrupted checkpoints, invalid deltas) must never
# abort, surface every failure as a typed error and never regress past its
# pre-fault incumbent. CI runs one seed per matrix job: `make fault-soak
# SEEDS=7`.
SEEDS ?= 62487 7 20250809
fault-soak:
	@set -e; for seed in $(SEEDS); do \
	  echo "== MBSP_FAULT_SEED=$$seed"; \
	  MBSP_FAULT_SEED=$$seed cargo test -q -p mbsp_ilp --test fault_soak -- --nocapture; \
	done

# The served-request benchmark's smoke: `benchmark/` is a package of its own,
# so nothing above builds it. Its tests drive the smoke-sized workloads
# through a real daemon and assert structure and `failed == 0`, never timings;
# the traced run leaves the per-layer table of the search-bound workload in
# layer_table.txt (CI uploads it).
bench-e2e-smoke:
	cargo test --offline --manifest-path benchmark/Cargo.toml
	cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
	  run --smoke --trace --workload sched_large > layer_table.txt
	cat layer_table.txt

# "Less code" as a printed number: the counted production lines per crate and
# in total (every .rs file under crates/*/src up to its first #[cfg(test)],
# blank and // lines skipped), `pub-items` — the counted lines outside
# crates/bench that open with `pub fn|struct|enum|trait|const|type|static`, an
# informational count of the public surface with no gate — and the byte size
# of the release daemon when one has been built. "Fewer options" likewise: `switches` counts what can be set
# independently — the `pub` fields of every `pub struct *Config` / `*Limits`
# under crates/*/src outside crates/bench, the distinct `MBSP_*` names passed
# to `env::var` anywhere under crates/, the arms of `EvalPath`, and the `--`
# flags `bench_record` matches on — and the target fails when it exceeds 39,
# the count once every setting no caller changes had become a constant, the
# evaluation path had lost its reference arm, the single-incumbent
# front-end's config had gone (its cost model moved into the sharded search's
# config, its per-part budget into divide-and-conquer's own fields), the
# mutation stream's weight ranges and footprint cap had become fixed and the
# search config's wall-clock deadline had gone (a deadline belongs to a job's
# cancel token, not to a session): a new switch replaces an old one or lowers
# nothing but this gate. "No clock in the
# library" likewise: `clocks` counts the production lines (same cut at the
# first #[cfg(test)], comments skipped) under crates/*/src outside crates/bench
# that read the wall clock (`Instant::now` or `.elapsed()`), and the target
# fails when one of them is outside crates/pool/src (the stop signal) and
# crates/serve/src (the daemon): every other budget is a count. Compare two
# commits by running it in both checkouts.
loc:
	@find crates/*/src -name '*.rs' | sort | xargs awk ' \
	  FNR == 1 { stop = 0; split(FILENAME, path, "/"); crate = path[2] } \
	  /^#\[cfg\(test\)\]/ { stop = 1 } \
	  !stop { s = $$0; sub(/^[ \t]+/, "", s); \
	          if (s != "" && substr(s, 1, 2) != "//") { lines[crate]++; total++; \
	            if (crate != "bench" && s ~ /^pub (fn|struct|enum|trait|const|type|static) /) pubs++; \
	            if (crate != "bench" && s ~ /Instant::now|\.elapsed\(\)/) { clocks++; \
	              if (crate != "pool" && crate != "serve") { stray++; print FILENAME ": " s } } } } \
	  END { for (c in lines) printf "%-8s %6d\n", c, lines[c] | "sort"; close("sort"); \
	        printf "%-8s %6d\n", "total", total; \
	        printf "pub-items %5d\n", pubs; \
	        printf "%-8s %6d  (%d outside crates/pool/src and crates/serve/src)\n", "clocks", clocks, stray; \
	        exit stray > 0 }'
	@fields=$$(find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | xargs awk ' \
	  /^pub struct [A-Za-z]*(Config|Limits) / { inside = 1; next } \
	  /^}/ { inside = 0 } \
	  inside && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }'); \
	env=$$(grep -rhoE 'env::var\("MBSP_[A-Z_]+"' --include='*.rs' crates | sort -u | wc -l); \
	arms=$$(awk '/^pub enum EvalPath / { inside = 1; next } /^}/ { inside = 0 } \
	  inside && /^    [A-Z][A-Za-z]*,/ { n++ } END { print n + 0 }' crates/ilp/src/engine.rs); \
	flags=$$(grep -cE '^ +"--[a-z-]+" =>' crates/bench/src/lib.rs); \
	switches=$$((fields + env + arms + flags)); \
	printf "%-8s %6d  (%d config fields, %d env vars, %d EvalPath arms, %d bench_record flags)\n" \
	  switches $$switches $$fields $$env $$arms $$flags; \
	if [ $$switches -gt 39 ]; then echo "switches: $$switches exceed the gate of 39"; exit 1; fi
	@if [ -f target/release/mbsp_serve ]; then wc -c target/release/mbsp_serve; \
	  else echo "target/release/mbsp_serve: not built (run \`make build\` for its size)"; fi

# Everything CI checks — each of its seven jobs runs these targets, so every
# command is written once, here: build, test, doc and the line count; the
# benchmark smoke (whose exit status is the gate); worker-count determinism;
# the fault soak; the serving smoke; the bench_e2e smoke; formatting and
# clippy. Contributors can reproduce a red CI run locally with this single
# target.
ci: build test doc loc smokes determinism fault-soak serve-smoke bench-e2e-smoke fmt lint
