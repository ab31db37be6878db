#!/usr/bin/env sh
# bench_snapshot.sh — run the tracked perf benchmarks and write them as
# JSON so the repo accumulates a perf trajectory PR over PR.
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# The default output name is derived from the snapshots already checked
# in: highest BENCH_PR<n>.json plus one, so each PR's run lands in a
# fresh file instead of overwriting a stale hardcoded name.
#
# The JSON is a flat list of records:
#   {"bench": name, "ns_per_op": float, "bytes_per_op": int,
#    "allocs_per_op": int, "extra": {"packets/s": float, ...}}
# Run it on quiet, consistent hardware when recording numbers that land
# in EXPERIMENTS.md; the CI invocation only guards against bit rot.
set -eu

out="${1:-}"
bench_re='Pipeline|Dissect|Replay|Scenario|Table1Floods|Streaming'
benchtime="${BENCHTIME:-1x}"

cd "$(dirname "$0")/.."

if [ -z "$out" ]; then
    best=0
    for f in BENCH_PR*.json; do
        [ -e "$f" ] || continue
        n="${f#BENCH_PR}"
        n="${n%.json}"
        case "$n" in '' | *[!0-9]*) continue ;; esac
        [ "$n" -gt "$best" ] && best="$n"
    done
    out="BENCH_PR$((best + 1)).json"
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# -cpu 1 keeps benchmark names suffix-free so they line up with the
# checked-in baselines regardless of the runner's core count (on a
# multi-core host `go test` would append -N and every comparison in
# bench_diff.sh would silently become "new ... not gated"). The second
# pass records the replay ingest benchmarks at GOMAXPROCS=8 — the
# multi-core numbers land as distinct -8 entries. The third records the
# streaming pipeline at GOMAXPROCS=2, where Workers: 0 resolves to two
# shards and Offer takes the slab dispatch path the daemon runs (at
# -cpu 1 it processes inline); it lands as a distinct -2 entry.
go test -run '^$' -bench "$bench_re" -benchmem -benchtime "$benchtime" -cpu 1 ./... | tee "$raw" >&2
go test -run '^$' -bench 'Replay' -benchmem -benchtime "$benchtime" -cpu 8 . | tee -a "$raw" >&2
go test -run '^$' -bench '^BenchmarkStreamingPipeline$' -benchmem -benchtime "$benchtime" -cpu 2 . | tee -a "$raw" >&2

awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")       ns = $(i-1)
        else if ($(i) == "B/op")   bytes = $(i-1)
        else if ($(i) == "allocs/op") allocs = $(i-1)
        else if ($(i) ~ /\// && $(i) != "ns/op") {
            # custom metrics like packets/s or MB/s
            if (extra != "") extra = extra ","
            extra = extra "\"" $(i) "\":" $(i-1)
        }
    }
    if (ns == "") next
    if (!first) print ","
    first = 0
    printf "  {\"bench\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (extra != "")  printf ", \"extra\": {%s}", extra
    printf "}"
}
END { print "" ; print "]" }
' "$raw" > "$out"

echo "wrote $out" >&2
