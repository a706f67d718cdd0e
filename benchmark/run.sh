#!/usr/bin/env bash
# The benchmark's one command: build both binaries from source, then run.
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Builds into $CARGO_TARGET_DIR when set, else benchmark/target. Fails, and
# prints no result, where the repository's crates are not beside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/benchmark" run "$@"
