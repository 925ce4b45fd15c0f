#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last stdout line is the result
#       JSON (this is what BENCHMARK.json's `command` invokes)
#   benchmark/run.sh [--seed N] [--quick]
#       every workload, each in its own process, untraced then traced;
#       prints every metric by name with its unit
#
# Exits non-zero if the build fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: stdout belongs to the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
bin="$target/release/mamdr-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --out-dir "$here/out" "$@"
    fi
done

seed=42
seconds=15
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        # One-second repetitions: exercises every path, measures nothing.
        --quick) seconds=3; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

status=0
for workload in $("$bin" --list-workloads); do
    for trace in 0 1; do
        # Keep the result JSON line out of the human-readable listing; it
        # is in out/<workload>.trace<t>.seed<n>.json.
        "$bin" --out-dir "$here/out" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | grep -v '^{' || status=1
    done
done
exit "$status"
