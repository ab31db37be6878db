#!/usr/bin/env sh
# test_bench_scripts.sh — regression tests for the perf-tooling shell
# scripts. The load-bearing case is numeric baseline selection:
# bench_diff.sh once picked its baseline with `ls | sort | tail -1`,
# which freezes at BENCH_PR9.json forever once BENCH_PR10.json exists
# (lexically "10" < "9"), silently gating every later PR against a
# stale snapshot. Run from anywhere: scripts/test_bench_scripts.sh
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"

fails=0
check() { # check NAME CONDITION...
    name="$1"
    shift
    if "$@"; then
        echo "ok   $name"
    else
        echo "FAIL $name"
        fails=$((fails + 1))
    fi
}

# not CMD... — POSIX sh has no `!` builtin for `check` to forward to.
not() {
    if "$@"; then return 1; fi
    return 0
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A miniature repo root holding only the scripts and some snapshot
# fixtures, so the tests never touch the real checked-in baselines.
mkdir -p "$tmp/scripts"
cp scripts/bench_diff.sh scripts/bench_snapshot.sh "$tmp/scripts/"

record() { # record FILE NS ALLOCS
    printf '[\n  {"bench": "BenchmarkReplay", "ns_per_op": %s, "allocs_per_op": %s, "extra": {"packets/s":100}}\n]\n' \
        "$2" "$3" > "$tmp/$1"
}

# --- bench_diff.sh baseline selection -------------------------------

# PR2/PR9/PR10 fixtures: numeric order must pick PR10, where lexical
# order picks PR9.
record BENCH_PR2.json 300 30
record BENCH_PR9.json 200 20
record BENCH_PR10.json 100 10
record fresh.json 100 10

baseline_of() { # baseline_of → prints the baseline bench_diff chose
    (cd "$tmp" && ./scripts/bench_diff.sh fresh.json 2>&1 >/dev/null || true) |
        sed -n 's/^bench_diff: baseline \([^,]*\),.*/\1/p'
}

check "baseline is numerically-latest (PR10 over PR9)" \
    [ "$(baseline_of)" = "BENCH_PR10.json" ]

rm "$tmp/BENCH_PR10.json"
check "baseline falls back to PR9 without PR10" \
    [ "$(baseline_of)" = "BENCH_PR9.json" ]

# Non-PR-numbered snapshots only: lexical fallback still finds one.
mv "$tmp/BENCH_PR2.json" "$tmp/BENCH_manual.json"
rm "$tmp/BENCH_PR9.json"
check "baseline falls back to lexical order for non-PR names" \
    [ "$(baseline_of)" = "BENCH_manual.json" ]

# --- bench_diff.sh gating -------------------------------------------

record BENCH_PR9.json 100 10
rm "$tmp/BENCH_manual.json"

gate() { # gate NS ALLOCS → exit status of bench_diff
    record fresh.json "$1" "$2"
    (cd "$tmp" && ./scripts/bench_diff.sh fresh.json >/dev/null 2>&1)
}

check "no-change run passes the gate" gate 100 10
check "alloc regression beyond tolerance fails the gate" not gate 100 13
check "time regression beyond tolerance fails the gate" not gate 130 10
check "regression within tolerance passes the gate" gate 110 11

# --- bench_diff.sh gating of -cpu suffixed entries ------------------

# The multi-core passes record entries such as
# BenchmarkStreamingPipeline-2 next to the suffix-free -cpu 1 entry.
# Once a baseline holds the suffixed entry it must be gated on its own,
# not shadowed by (or mistaken for) the -cpu 1 one.
record_pair() { # record_pair FILE ALLOCS_CPU1 ALLOCS_CPU2
    printf '[\n  {"bench": "BenchmarkStreamingPipeline", "ns_per_op": 100, "allocs_per_op": %s},\n  {"bench": "BenchmarkStreamingPipeline-2", "ns_per_op": 100, "allocs_per_op": %s}\n]\n' \
        "$2" "$3" > "$tmp/$1"
}

gate_pair() { # gate_pair ALLOCS_CPU1 ALLOCS_CPU2 → exit status of bench_diff
    record_pair fresh.json "$1" "$2"
    (cd "$tmp" && ./scripts/bench_diff.sh fresh.json >/dev/null 2>&1)
}

rm -f "$tmp"/BENCH_*.json
record_pair BENCH_PR9.json 10 1000
check "suffixed entry unchanged passes the gate" gate_pair 10 1000
check "suffixed entry alloc regression fails the gate" not gate_pair 10 1300
check "suffix-free entry alloc regression still fails the gate" not gate_pair 13 1000

# Before any baseline holds the suffixed entry it is reported, not gated.
record BENCH_PR9.json 100 10
printf '[\n  {"bench": "BenchmarkReplay", "ns_per_op": 100, "allocs_per_op": 10},\n  {"bench": "BenchmarkStreamingPipeline-2", "ns_per_op": 100, "allocs_per_op": 1000}\n]\n' > "$tmp/fresh.json"
new_out="$(cd "$tmp" && ./scripts/bench_diff.sh fresh.json 2>/dev/null || true)"
check "suffixed entry without a baseline is reported as new" \
    sh -c 'printf "%s\n" "$1" | grep -q "^new  *BenchmarkStreamingPipeline-2/allocs_per_op"' _ "$new_out"
rm -f "$tmp"/BENCH_*.json "$tmp/fresh.json"

# --- bench_snapshot.sh default output name --------------------------

# The default must be highest-checked-in + 1 (it was once hardcoded to
# BENCH_PR8.json, silently overwriting PR 8's snapshot forever after).
# Only the name derivation is under test, so stub the `go` binary to
# emit one fake benchmark line instead of running the real suite.
mkdir -p "$tmp/bin"
cat > "$tmp/bin/go" <<'EOF'
#!/usr/bin/env sh
# The -cpu 2 pass names its entry the way go test does on that pass.
case " $* " in
*" -cpu 2 "*) echo "BenchmarkStreamingPipeline-2 	       1	       100 ns/op	       0 B/op	       0 allocs/op" ;;
*) echo "BenchmarkStub 	       1	       100 ns/op	       0 B/op	       0 allocs/op" ;;
esac
EOF
chmod +x "$tmp/bin/go"

snapshot_default() { # snapshot_default → prints the derived name
    (cd "$tmp" && PATH="$tmp/bin:$PATH" ./scripts/bench_snapshot.sh 2>&1 >/dev/null || true) |
        sed -n 's/^wrote \(.*\)$/\1/p'
}

rm -f "$tmp"/BENCH_*.json "$tmp/fresh.json"
record BENCH_PR2.json 100 10
record BENCH_PR9.json 100 10
record BENCH_PR10.json 100 10
check "snapshot default is PR11 after PR10" \
    [ "$(snapshot_default)" = "BENCH_PR11.json" ]
check "snapshot default landed on disk" [ -s "$tmp/BENCH_PR11.json" ]
check "snapshot records the -cpu 2 streaming entry" \
    grep -q '"bench": "BenchmarkStreamingPipeline-2"' "$tmp/BENCH_PR11.json"

rm "$tmp"/BENCH_*.json
check "snapshot default starts at PR1 in an empty repo" \
    [ "$(snapshot_default)" = "BENCH_PR1.json" ]

cd "$repo"
if [ "$fails" -gt 0 ]; then
    echo "test_bench_scripts: $fails failure(s)" >&2
    exit 1
fi
echo "test_bench_scripts: all checks passed" >&2
