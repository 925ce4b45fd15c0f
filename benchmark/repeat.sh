#!/usr/bin/env bash
# Runs N full sets of untraced runs (every workload, one process each) and
# prints, per end-to-end metric × workload, the median, the quartiles and
# the relative spread (interquartile distance ÷ median, as Python's
# statistics.quantiles(values, n=4) gives the quartiles) beside the
# metric's bound in BENCHMARK.json — the same arithmetic the driver applies.
#
#   benchmark/repeat.sh N [--seed BASE] [--same-seed] [--seconds S]
#
# Set i runs with seed BASE+i (the driver varies the seed too); with
# --same-seed every set uses BASE, which is what comparing two sets of the
# same inputs needs. Used once to set the bounds, and again whenever
# someone doubts them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [--seed BASE] [--same-seed] [--seconds S]}"
shift
base=42
same=0
seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$here/../BENCHMARK.json")"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) base="$2"; shift 2 ;;
        --same-seed) same=1; shift ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$here/out"
log="$here/out/repeat.$$.jsonl"
: > "$log"
workloads="$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$here/../BENCHMARK.json")"
for i in $(seq 0 $((n - 1))); do
    seed=$((same == 1 ? base : base + i))
    for workload in $workloads; do
        echo "repeat.sh: set $((i + 1))/$n  $workload  seed $seed" >&2
        # A run that fails its checks still prints its result line and is
        # counted as incorrect below; one that prints none stops the script.
        line="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 || true)"
        case "$line" in '{'*) ;; *) echo "repeat.sh: $workload seed $seed printed no result" >&2; exit 1 ;; esac
        printf '{"workload": "%s", "seed": %s, "result": %s}\n' "$workload" "$seed" "$line" >> "$log"
    done
done

python3 - "$log" "$here/../BENCHMARK.json" <<'PY'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
print(f"{'workload':<16}{'metric':<20}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'bound':>7}  verdict")
worst = 0.0
for w in [w["name"] for w in bench["workloads"]]:
    mine = [r["result"] for r in runs if r["workload"] == w]
    bad = [r for r in mine if not r["correct"] or r["failed"]]
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in mine]
        if len(values) < 2:
            print(f"{w:<16}{name:<20}{values[0]:>16.4f}{'':>16}{'':>16}{'':>9}{bound:>7}  one run: no spread")
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        # setup_s is exempt from the spread rule (only its medians compare).
        ok = name == "setup_s" or spread <= bound
        worst = max(worst, 0.0 if name == "setup_s" else spread / bound)
        verdict = "ok" if ok else "TOO WIDE"
        if ok and name != "setup_s" and spread > bound / 3:
            verdict = "ok (above a third of the bound)"
        print(f"{w:<16}{name:<20}{q2:>16.4f}{q1:>16.4f}{q3:>16.4f}{spread:>9.4f}{bound:>7}  {verdict}")
    if bad:
        print(f"{w:<16}{len(bad)} of {len(mine)} runs incorrect or with failed operations")
print(f"widest spread is {worst:.2f} of its bound; raw lines in {sys.argv[1]}")
sys.exit(1 if worst > 1.0 or any(not r["result"]["correct"] for r in runs) else 0)
PY
