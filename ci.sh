#!/usr/bin/env bash
# CI gate: build, full test suite, lints, static analysis, model check.
# Run from the repo root.
#
#   ./ci.sh            — the full deterministic gate below
#   ./ci.sh --sanitize — sanitizer battery over the threaded datapath /
#                        pool / relay test subset: AddressSanitizer,
#                        ThreadSanitizer (instrumented std), and Miri on
#                        the pool/buffer/seqno units. Each leg prints a
#                        visible SKIP when its toolchain prerequisite
#                        (nightly, rust-src, miri) is missing.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--sanitize" ]]; then
  if ! rustup run nightly rustc --version >/dev/null 2>&1; then
    echo "sanitize: SKIP all (nightly toolchain not installed)"
    exit 0
  fi
  host="$(rustc -vV | sed -n 's/^host: //p')"

  # ASan works against the precompiled std (it changes no ABI): the
  # whole threaded subset runs instrumented.
  echo "sanitize: AddressSanitizer (udt pool/mmsg/mux + udt-chaos + the linkemu relay)"
  RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/san-asan \
    cargo +nightly test -q -p udt --lib -- pool:: mmsg:: mux::
  RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/san-asan \
    cargo +nightly test -q -p udt-chaos -p linkemu --lib

  # TSan needs every crate (std included) instrumented, or it reports
  # false races inside uninstrumented sync primitives — hence -Zbuild-std,
  # which requires the rust-src component.
  if rustup component list --toolchain nightly --installed 2>/dev/null | grep -q rust-src; then
    echo "sanitize: ThreadSanitizer (udt pool/mmsg/mux + the linkemu relay, -Zbuild-std)"
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/san-tsan \
      cargo +nightly test -q -Zbuild-std --target "$host" -p udt --lib -- pool:: mmsg:: mux::
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/san-tsan \
      cargo +nightly test -q -Zbuild-std --target "$host" -p linkemu --lib
  else
    echo "sanitize: SKIP ThreadSanitizer (rust-src not installed; TSan needs an instrumented std)"
  fi

  # Miri: aliasing/UB check on the allocation-free pool and the wrap
  # arithmetic. The mmsg FFI is cfg(not(miri))-gated, so the udt crate
  # builds clean under the interpreter.
  if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "sanitize: Miri (udt::pool, udt::buffer, udt-proto::seqno)"
    CARGO_TARGET_DIR=target/san-miri \
      cargo +nightly miri test -p udt --lib -- pool:: buffer::
    CARGO_TARGET_DIR=target/san-miri \
      cargo +nightly miri test -p udt-proto --lib -- seqno::
  else
    echo "sanitize: SKIP Miri (miri component not installed for nightly)"
  fi
  echo "sanitize: done"
  exit 0
fi

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Rustdoc over the crates/* members with warnings denied: intra-doc links
# are how a public item that moved between crates rots (a dangling link, a
# public page pointing at a private item), and nothing else reads them.
# shellcheck disable=SC2046
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
  $(for d in crates/*/; do printf -- '-p %s ' "$(basename "$d")"; done)

# Workspace-native static analysis: denies raw sequence-number comparisons,
# wall-clock reads in deterministic layers, unwrap/panic in library code,
# narrowing casts on seq/timestamp values, and lock-order violations.
# Deny-by-default: any unannotated finding fails the build.
cargo run --release -p udt-lint

# Bounded model check: exhaustive DFS over small delivery and timer schedules
# through the real buffers and the protocol event core (udt_algo::conn), at
# initial sequence numbers 0, SEQ_MAX and SEQ_MAX-2 (~580k states; violations
# print a replayable seed).
timeout 120 cargo run --release -p udt-verify -- --quick

# Every experiment leg below is the one harness binary: `bench exp <id>`
# over bench::experiments::TABLE. A leg exits non-zero when a gating SHAPE
# check fails.
bench=./target/release/bench

# Simulator leg: the netsim experiments whose shape checks all hold, through
# the same event core (Figs 3, 5-8, the ablations, the multi-bottleneck
# topology; ~2 min). Not here: fig2 and fig4 each carry one check that does
# not hold (EXPERIMENTS.md says which), and cmp_protocols takes two minutes
# alone.
timeout 600 "$bench" exp \
  fig3 fig5 fig6 fig7 fig8 abl_syn abl_bwe abl_naks abl_sabul abl_pacing multibottleneck

# Resilience soak, CI-sized: a real-socket upload through a flapping link
# must reconnect, resume and land byte-identical (time-boxed; the full
# soak is `bench exp soak` without --quick).
timeout 120 "$bench" exp soak --quick

# Flight recorder: a seeded chaos blackout must leave a parseable dump with
# faults and NAK/EXP/Broken reactions on one timeline.
timeout 120 "$bench" exp flightrec

# Multipath bonding, CI-sized: bonded goodput on asymmetric simulated links
# must strictly beat the best single path (and reproduce under the same
# seed), and a seeded linkemu blackout must fail over with zero
# session-level reconnects and less receiver stall than the
# reconnect-resume baseline. Emits BENCH_multipath.json.
timeout 300 "$bench" exp multipath --quick

# Batched datapath, CI-sized: the median raw-pump msgs/s over interleaved
# pairs must be 2x the legacy per-packet datapath (gate auto-skips where
# recvmmsg/sendmmsg are unavailable — the fallback *is* the per-packet
# path), the receive pool must recycle (hits > misses), and the tbl3-style
# UDP-syscall CPU share must shrink with batching on. Emits
# BENCH_datapath.json.
timeout 300 "$bench" exp datapath --quick

# Overhead legs, CI-sized. Each gates here only on what is not a noisy
# number: auth on its security checks (a seeded on-path adversary — forged
# DATA/ACK/Shutdown, replays, tag bit flips — must leave the stream
# byte-identical with every forgery counted), tracing and metrics on having
# actually observed the blast. The goodput cost of each (median of
# interleaved pairs, alternating order: bench::ab) is written to
# BENCH_{auth,trace_overhead,metrics_overhead}.json and has exactly one
# gate: its `bench regress` row below. The design bounds (10 % / 5 % / 5 %)
# are printed as holding or not; EXPERIMENTS.md records which.
timeout 300 "$bench" exp auth trace_overhead metrics_overhead --quick

# Perf-regression gate: compare the BENCH_*.json artifacts the experiment
# legs above just wrote against the committed baselines in
# crates/bench/baselines/ (noise-tolerant, data-driven gate set — see
# bench::regress). Fails CI on a regression beyond tolerance.
"$bench" regress --quick

# The repository benchmark (benchmark/) is a stand-alone package outside
# this workspace, so nothing above compiles it: a changed `pub` item or
# thread name it keys on would otherwise only fail at the driver. Its unit
# tests, then every workload end to end at smoke size. `close()` sends one
# `Shutdown` and returns (the repeats are the timer thread's): a sleep or a
# wait for the answer on that path reads as tens of ms on some workload.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke --trace 0 | tee /dev/stderr | awk '
  $1 == "close_p50_ms" && $2 >= 5 { print "ci: close_p50_ms " $2 " ms (>= 5 ms)"; bad = 1 }
  END { exit bad }'

# One release-codegen pass with the runtime invariant hooks compiled in
# (conn/buffer/losslist check_invariants fire on the live data path).
# Kept last: the different RUSTFLAGS rebuild replaces target/release
# binaries, so the experiment legs above must run first.
RUSTFLAGS="-C debug-assertions" cargo test --release -q
