#!/usr/bin/env bash
# Full local CI: format, lint, build, test, model-conformance scan.
# Mirrors what a hosted pipeline would run; fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
# Keeps intra-doc links from dangling when an item they name is deleted
# or made private.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> chaos suite (fault injection + recovery, pinned seeds)"
cargo test -q -p csmpc-mpc --test chaos

echo "==> supervision suite (transport faults, speculation, quarantine, backoff)"
cargo test -q -p csmpc-mpc --test supervision

echo "==> job-service durability suites (crash recovery, journal pins, codec, determinism)"
# Live scheduling and journal replay share one record-transition function;
# these suites pin what it must preserve: every kill point, torn tail and
# duplicated frame recovers to the uninterrupted report, refused histories
# stay refused, the one-worker journal is pinned byte for byte, and the
# codec survives every truncation and bit flip.
cargo test -q -p csmpc-service --test crash_chaos --test dispatch_order \
    --test journal_prop --test determinism

echo "==> engine golden ledgers (both fault layers, pinned digests)"
# Pins the exact engine's and the accounted driver's ledgers, recovery and
# supervision logs, taint sets and provenance over a fixed plan x policy x
# supervisor matrix; threads are forced so the parallel column runs on
# real worker threads.
RAYON_NUM_THREADS=4 cargo test -q -p csmpc-mpc --test engine_golden

echo "==> degradation theorem gate (PartialOutput contract, pinned seeds)"
cargo test -q --test degradation

echo "==> model-conformance scan (token lints + interprocedural passes)"
# Machine-readable output goes to files under target/conformance/, never
# through a pipe: some runner images print shell-init noise on login
# shells (this one emits "WARNING conda.cli.condarc:set_key(484): Key
# auto_activate_base is an alias of auto_activate" because ~/.bashrc runs
# `conda config --set auto_activate_base false` on every init — that file
# is outside this repository, so it cannot be fixed at source here).
# Writing artifacts directly keeps the JSON/SARIF byte-clean regardless.
# Any finding fails the build (exit 1 = findings, 2 = tool error); a
# reviewed exception is a `csmpc-allow(<lint>): <reason>` annotation. The
# SARIF log is the CI-uploadable artifact form.
mkdir -p target/conformance
cargo run -q --release -p csmpc-conformance --bin conformance -- \
    --format json --sarif-out target/conformance/conformance.sarif \
    > target/conformance/conformance.json
test -s target/conformance/conformance.json
test -s target/conformance/conformance.sarif
echo "    JSON artifact:  target/conformance/conformance.json"
echo "    SARIF artifact: target/conformance/conformance.sarif"

echo "==> parallel equivalence suite (forced worker threads)"
# Force real worker threads even on single-core runners so the parallel
# code path is exercised for the bit-identity assertions.
RAYON_NUM_THREADS=4 cargo test -q --test parallel_equivalence

echo "==> worker-pool suite (forced worker threads)"
# The pool's own tests (index order over every chunk plan, panic
# propagation, nested sweeps, pool reuse), on real worker threads even on
# single-core runners.
RAYON_NUM_THREADS=4 cargo test -q -p csmpc-parallel

echo "==> routing-equivalence suite (counting-sort fabric vs sort oracle)"
# Property proof that the engine's counting-sort scatter groups messages
# element-for-element identically to the retired sort-based router, over
# random machine counts and message multisets.
cargo test -q -p csmpc-mpc --test routing_equivalence

echo "==> scale-, cc- and stream-equivalence suites (frontier kernels, both cc paths and streamed CSR vs oracles)"
# Property proof that the active-list MIS and coloring kernels produce the
# same output vectors, return values and Stats ledgers as the full-sweep
# kernels they replaced, over every StreamFamily member and random seeds,
# sequential and parallel; and that both cc-labels paths match their
# oracles, on shared warm workspaces in every kernel order, with the
# two-cycles iteration counts pinned. Threads are forced so the parallel
# column runs on real worker threads even on single-core runners: 4
# workers cut the cc hook's block walk into 16 blocks, so block
# boundaries fall inside every input of more than 16 nodes. The same 16
# blocks split the streamed CSR's row sort (in parallel from 2^14 directed
# edges), which stream_csr checks against a builder-loop oracle for every
# family.
RAYON_NUM_THREADS=4 cargo test -q -p csmpc-mpc --test scale_equivalence --test cc_labels_equivalence \
    -p csmpc-graph --test stream_csr

echo "==> steady-state allocation suite + scale memory gate (alloc-count build)"
# The counting-allocator test behind the alloc-count feature: warm engine
# rounds and warm scale repetitions (cycle and random tree) allocate
# nothing, and the memory gate bounds the heap high-water mark of a warm
# stream->labels pass of each scale kernel at n = 2^16 in bytes per
# vertex (workspace + CSR + ingest temporaries). Compiled out of the
# plain workspace test run.
cargo test -q -p csmpc-mpc --features alloc-count --test steady_state_alloc

echo "==> perfbench self-tests (metric lists match BENCHMARK.json)"
# perfbench is its own workspace, so the workspace test run above never
# builds it; its unit tests pin the reported metric names to the
# BENCHMARK.json declaration.
# An offline build may rewrite perfbench/Cargo.lock (dropping stale
# entries), so the committed file is copied aside and put back.
mkdir -p target
cp perfbench/Cargo.lock target/perfbench-Cargo.lock
perfbench_status=0
cargo test -q --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
cp target/perfbench-Cargo.lock perfbench/Cargo.lock
test "$perfbench_status" -eq 0

echo "==> job-service soak smoke + determinism + crash-recovery gates"
# Pushes a 1200-job mixed batch (faults, poison jobs, shedding) through
# the multi-tenant scheduler, writes BENCH_service_smoke.json (the
# committed full-size BENCH_service.json is left untouched), and asserts
# zero wedged queue states. --check-determinism then runs the SAME batch
# with the SAME seeds through two services CONCURRENTLY and fails unless
# every per-job output digest and Stats ledger is bit-identical — the
# scheduler-interleaving-independence contract. --crash-every 400 then
# re-runs the batch through a JOURNALED service that is killed after
# every 400 journal records and recovered from the write-ahead log until
# the batch completes (~10 recoveries): the gate fails unless the
# crash-riddled run's fingerprint is bit-identical to the uninterrupted
# run's — recovery is replay, not re-guessing. Threads are forced so
# both gates exercise real worker contention even on small runners.
RAYON_NUM_THREADS=4 cargo run -q --release -p csmpc-bench --bin soak -- \
    --smoke --check-determinism --crash-every 400
test -s BENCH_service_smoke.json

echo "==> bench smoke + perf-regression gate (vs committed BENCH_mpc_smoke.json)"
# Writes BENCH_mpc_smoke.json (the committed full-size BENCH_mpc.json is
# left untouched) and fails on gross per-workload regressions against the
# committed smoke baseline. The gate is phase-aware: each row's route
# phase is compared against the baseline's (warn above 1.5x, fail above
# 3x past the noise floor), so a fabric regression trips even when step
# time hides it in the wall-time tolerance. Threads are forced to 4 so
# the run exercises the parallel dispatch path; per-row accounting books
# effective workers as min(threads, cores), the sequential column (whose
# wall time and phases do the gating) always runs one worker, and the
# speedup gates still arm themselves only on genuinely multi-core
# runners. It runs last, so a failing speedup check on a small host
# cannot keep the allocation and determinism gates above from running.
RAYON_NUM_THREADS=4 cargo run -q --release -p csmpc-bench --bin perf -- \
    --smoke --gate BENCH_mpc_smoke.json
test -s BENCH_mpc_smoke.json

echo "CI green."
