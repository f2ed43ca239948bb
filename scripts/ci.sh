#!/usr/bin/env bash
# CI gate for the workspace: formatting, lints, and the tier-1 verify
# (release build + full test suite) from ROADMAP.md. Run from anywhere;
# fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: a broken or stale intra-doc link (one to
# a deleted item, or to a private one) fails here instead of rotting in
# the rendered docs.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tier-1 verify: cargo build --release"
cargo build --release

echo "==> tier-1 verify: cargo test -q --workspace"
cargo test -q --workspace

# The benchmark crate is not a workspace member, so nothing above compiles
# it: a crates/* API change that breaks it would otherwise surface only
# when the benchmark runs. Its tests include a smoke run of every workload.
# --locked: a crates/* dependency change that would rewrite the benchmark's
# own Cargo.lock fails here instead of changing it silently.
echo "==> benchmark crate: cargo test --offline --locked --manifest-path perfbench/Cargo.toml"
cargo test --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run (benches must keep building)"
cargo bench --no-run --workspace

# Small scale points of the legalize_scale curve, run unconditionally:
# every iteration asserts zero failed cells, so this is a correctness
# smoke at 1k/10k cells, not a timing gate (the snapshot goes to target/
# to keep the tracked BENCH_legalize.json a full-suite artifact).
echo "==> legalize scale smoke: cargo bench -p rlleg-bench -- --only-scale --cells 10k"
cargo bench -p rlleg-bench --bench legalize -- --only-scale --cells 10k \
  --out "$PWD/target/BENCH_scale_smoke.json"

# Global-placement smoke at 1k cells, run unconditionally: wall time plus
# QoR scalars for the gplace -> legalize pipeline vs the synthetic
# baseline. The bench asserts zero failed cells on both paths, so this is
# a correctness gate, not a timing one (snapshot goes to target/ like the
# scale smoke). GpConfig's default seed makes the run fixed-seed.
echo "==> gplace smoke: cargo bench -p rlleg-bench -- --only-gplace --cells 1k"
cargo bench -p rlleg-bench --bench legalize -- --only-gplace --cells 1k \
  --out "$PWD/target/BENCH_gplace_smoke.json"

# Fixed-seed fuzz smoke: 50 iterations of the differential oracles
# (legalize configurations, DEF/LEF round-trip + mutation, grid ops,
# trainer invariants). Deterministic, budgeted well under 30 s in
# release. RLLEG_FUZZ_LONG=1 runs the deeper sweep.
echo "==> fuzz smoke: rlleg-fuzz --iters 50 --seed 1"
cargo run -q --release -p rlleg-fuzz -- --iters 50 --seed 1

# Loopback serving smoke: start an in-process server, run one job over
# the binary protocol end to end, verify the result DEF is legal, and
# drain gracefully. Catches wire-format or event-loop regressions that
# unit tests on the codec alone would miss.
echo "==> serve smoke: rlleg-serve --smoke"
cargo run -q --release -p rlleg-serve -- --smoke

# Fixed-seed protocol fuzz smoke: 100 iterations of the proto oracle
# alone (frame round-trips, adversarial reassembly, truncation, CRC
# flips, splices, garbage, cap enforcement). Deterministic and fast.
echo "==> protocol fuzz smoke: rlleg-fuzz --iters 100 --seed 1 --only proto"
cargo run -q --release -p rlleg-fuzz -- --iters 100 --seed 1 --only proto

# Fixed-seed grid fuzz smoke: 200 iterations of the grid oracle alone
# (random place/remove/check/search op sequences against the per-pixel
# reference, and window-restricted searches on a loaded Gcell window
# against the full grid). Deterministic; well under a second in release.
echo "==> grid fuzz smoke: rlleg-fuzz --iters 200 --seed 1 --only grid"
cargo run -q --release -p rlleg-fuzz -- --iters 200 --seed 1 --only grid

# Fixed-seed fault-injection smoke: 200 iterations of the fault oracle
# alone (solver panics, corrupted checkpoints, NaN weights, inference
# stalls). Every injected fault must end in a completed run — a process
# abort fails this stage by construction.
echo "==> fault-injection smoke: rlleg-fuzz --iters 200 --seed 7 --only fault"
cargo run -q --release -p rlleg-fuzz -- --iters 200 --seed 7 --only fault

# Fixed-seed parameter-store smoke: 200 iterations of the params oracle
# alone (ParamStore under writer/reader contention: torn snapshots,
# epoch/stamp coherence, monotone epochs). The store carries the
# asynchronous trainer, so this runs unconditionally.
echo "==> param-store fuzz smoke: rlleg-fuzz --iters 200 --seed 3 --only params"
cargo run -q --release -p rlleg-fuzz -- --iters 200 --seed 3 --only params

# Fixed-seed WAL fuzz smoke: 100 iterations of the wal oracle alone
# (crash-point differential replay of the write-ahead job journal: torn
# tails, garbage tails, mid-rotation kills), plus the sampled real-SIGKILL
# child-process check every 16th iteration. Deterministic in the seed.
echo "==> wal fuzz smoke: rlleg-fuzz --iters 100 --seed 1 --only wal"
cargo run -q --release -p rlleg-fuzz -- --iters 100 --seed 1 --only wal

# Small load smoke of all three loadgen phases, run unconditionally (about
# 3 s): every closed-loop job completes, overload sheds and loses nothing,
# and the kill/restart audit of a server child loses and diverges nothing.
# Overload never answers QUEUE_FULL, since a queued job stays charged to
# admission's ~2-job budget; the e2e test backpressure_rejects_with_queue_full
# pins QUEUE_FULL. The snapshot goes to target/ like the other smokes.
echo "==> serve load smoke: rlleg-serve --loadgen --sessions 8 --jobs 2"
cargo run -q --release -p rlleg-serve -- --loadgen --sessions 8 --jobs 2 \
  --rc-sessions 2 --rc-jobs 2 --out target/BENCH_serve_smoke.json

# Fixed-seed global-placer fuzz smoke: 100 iterations of the gplace
# oracle alone (finite on-die output, fixed cells pinned, non-increasing
# overflow, bit-determinism, and zero-failed legalization on spec
# scenarios). Runs unconditionally like the proto/fault/params smokes.
echo "==> gplace fuzz smoke: rlleg-fuzz --iters 100 --seed 1 --only gplace"
cargo run -q --release -p rlleg-fuzz -- --iters 100 --seed 1 --only gplace

# The placer runs its X/Y solves and finalist re-spreads in pairs on a
# scoped helper only when more than one lane is available, so a default
# run takes the one-lane path on a 1-core host and the two-lane path on
# any other. Run the pinned place() digests and the gplace fuzz smoke on
# both paths, so each meets the same constants on every host.
for lanes in 1 2; do
  echo "==> gplace lanes: RLLEG_THREADS=$lanes digests + rlleg-fuzz --only gplace"
  RLLEG_THREADS=$lanes cargo test -q -p rlleg-gplace --test digests
  RLLEG_THREADS=$lanes cargo run -q --release -p rlleg-fuzz -- --iters 100 --seed 1 --only gplace
done

if [[ "${RLLEG_FUZZ_LONG:-0}" == "1" ]]; then
  echo "==> fuzz long: rlleg-fuzz --iters 1000, seeds 1-4"
  for s in 1 2 3 4; do
    cargo run -q --release -p rlleg-fuzz -- --iters 1000 --seed "$s"
  done
  echo "==> fault-injection long: rlleg-fuzz --iters 1000 --only fault, seeds 5-8"
  for s in 5 6 7 8; do
    cargo run -q --release -p rlleg-fuzz -- --iters 1000 --seed "$s" --only fault
  done
  echo "==> param-store long: rlleg-fuzz --iters 2000 --only params, seeds 9-10"
  for s in 9 10; do
    cargo run -q --release -p rlleg-fuzz -- --iters 2000 --seed "$s" --only params
  done
  echo "==> distributional sweep: async vs round-robin cost bands (wide)"
  cargo test -q --release -p rl-legalizer --test distributional -- --ignored
fi

# Opt-in performance gate (bench runs are too noisy for shared CI machines
# unless requested): regenerate both snapshots, then check the legalize one
# with bench_guard, which requires gcell_parallel2 < flat, batched < per-state
# values, a monotone scale curve, parallel <= 1.05x flat at every point,
# falling gplace overflow with 0 failed cells and lower HPWL at 10k, and
# async training <= 1.05x round-robin; when the snapshot header says nproc
# >= 2, also parallel >= 2x faster than flat at 100k and async <= round-robin.
if [[ "${RLLEG_BENCH_GUARD:-0}" == "1" ]]; then
  echo "==> bench snapshot: cargo bench -p rlleg-bench"
  cargo bench -p rlleg-bench
  echo "==> serve load snapshot: rlleg-serve --loadgen"
  cargo run -q --release -p rlleg-serve -- --loadgen --sessions 64 --jobs 4 \
    --out BENCH_serve.json
  echo "==> bench guard: cargo run -q --release -p rlleg-bench --bin bench_guard"
  cargo run -q --release -p rlleg-bench --bin bench_guard
fi

echo "==> ci: all stages passed"
