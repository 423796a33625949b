#!/usr/bin/env bash
# Builds the xlda-serve daemon and the benchmark from source, then runs
# one benchmark workload:
#
#   bash perfbench/run.sh --workload dse_sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own output goes to stderr so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/serve" ]; then
    echo "perfbench: no xlda workspace at $root" >&2
    exit 2
fi

cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p xlda-serve --bin xlda-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/perfbench" \
    --serve-bin "$target/release/xlda-serve" \
    --work-dir "$target/perfbench-work" \
    "$@"
