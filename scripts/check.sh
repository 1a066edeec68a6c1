#!/bin/sh
# Tier-1 gate: gofmt, build, vet, the test suite with and without the
# race detector, fuzz smoke, binary-level determinism checks and a paired
# host-time gate. Mirrors `make check` for
# environments without make. Any failing chaos/differential test prints
# the reproducing seed in its failure message — replay with
#   go test -run <TestName> ./internal/...
# after plugging that seed into the test, or
#   go run ./cmd/mixtlb -exp chaos -seed <seed>
# for experiment-level failures. A failing experiment cell prints a
# `reproduce: mixtlb -exp <name> -cell "<cell>" ...` line — run exactly
# that to replay the one simulation that failed.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt -l lists unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...

# Telemetry is file-only: every export is written once the run ends, so
# no binary may link a network stack or a live debug endpoint.
echo "== no network stack in ./cmd/..."
netdeps=$(go list -deps ./cmd/... | grep -x -E 'net|net/http|net/http/pprof|expvar' || true)
if [ -n "$netdeps" ]; then
    echo "FAIL: go list -deps ./cmd/... lists:" >&2
    echo "$netdeps" >&2
    exit 1
fi
# The suite without -race is tier-1's own command. Only it runs the checks
# that skip under the race detector: the zero-alloc pins of the translate
# loop, the MIX TLB, the workload cursors and the ledger, and the
# qualitative goldens. It also runs every digest (op streams, walks,
# workload and kernel streams, memhog allocations) and size pin (a TLB
# lookup Result stays within 40 bytes).
echo "== go test ./..."
go test -count=1 ./...
echo "== go test -race ./..."
go test -race -timeout 20m ./...

# The benchmark (cmd/mixbench) is its own Go module, so the root ./...
# patterns above skip it. Its smoke test pins SHA-256 digests of
# mmu.Stats, so it also guards the shape of the simulator's public API.
echo "== cmd/mixbench vet + test"
(cd cmd/mixbench && go vet ./... && go test ./...)

# Fuzz smoke: run each fuzz target briefly beyond its seed corpus. The
# corpora under testdata/fuzz/ already ran as regular test cases above;
# this adds a short mutation pass to catch fresh encode/decode breakage.
# The targets are listed from the code, one package at a time.
echo "== go test -fuzz (10s per target)"
for pkg in $(go list ./...); do
    targets=$(go test -list '^Fuzz' "$pkg")
    for fz in $(echo "$targets" | grep '^Fuzz' || true); do
        go test "$pkg" -fuzz "^$fz\$" -fuzztime 10s -run '^$'
    done
done

# Parallel determinism: the same experiment at -jobs 1 and -jobs 4 must
# produce byte-identical tables (cell seeds derive from cell identity,
# never from scheduling).
echo "== mixtlb -jobs determinism"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/mixtlb" ./cmd/mixtlb
"$tmpdir/mixtlb" -exp fig12 -quick -csv -jobs 1 > "$tmpdir/jobs1.csv"
"$tmpdir/mixtlb" -exp fig12 -quick -csv -jobs 4 > "$tmpdir/jobs4.csv"
if ! cmp -s "$tmpdir/jobs1.csv" "$tmpdir/jobs4.csv"; then
    echo "FAIL: -jobs 4 output differs from -jobs 1" >&2
    diff "$tmpdir/jobs1.csv" "$tmpdir/jobs4.csv" >&2 || true
    exit 1
fi

# Crash-safe resume: run with a checkpoint journal, kill the process
# after 2 of fig12's 3 cells (the engine journals each cell before
# reporting progress, so exactly 2 records are durable), then resume at
# -jobs 1 and again at -jobs 8. Both resumed tables must be
# byte-identical to the uninterrupted jobs1.csv above; the second
# resume replays every cell without simulating anything.
echo "== crash-safe journal resume"
rc=0
"$tmpdir/mixtlb" -exp fig12 -quick -csv -jobs 4 -journal "$tmpdir/crash.journal" \
    -kill-after-cells 2 > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "FAIL: -kill-after-cells 2 exited $rc, want 137" >&2
    exit 1
fi
"$tmpdir/mixtlb" -exp fig12 -quick -csv -jobs 1 \
    -journal "$tmpdir/crash.journal" -resume > "$tmpdir/resume1.csv"
if ! cmp -s "$tmpdir/jobs1.csv" "$tmpdir/resume1.csv"; then
    echo "FAIL: resumed run (-jobs 1) differs from uninterrupted run" >&2
    diff "$tmpdir/jobs1.csv" "$tmpdir/resume1.csv" >&2 || true
    exit 1
fi
"$tmpdir/mixtlb" -exp fig12 -quick -csv -jobs 8 \
    -journal "$tmpdir/crash.journal" -resume > "$tmpdir/resume8.csv"
if ! cmp -s "$tmpdir/jobs1.csv" "$tmpdir/resume8.csv"; then
    echo "FAIL: resumed run (-jobs 8) differs from uninterrupted run" >&2
    diff "$tmpdir/jobs1.csv" "$tmpdir/resume8.csv" >&2 || true
    exit 1
fi

# Harness timeout: every simulation loop checks its context, so an
# experiment past its -timeout returns at once with exit 4 (timeout
# truncation) instead of simulating on. fig17's GPU cells would run for
# minutes at -refs 20000000; `timeout 3` stops the run with status 124
# if it is still going after 3s. The chaos sweep must also print the
# rows of the cells that beat its deadline; at -refs 600000 it needs
# about 2s, well past its 700ms deadline (at 200000 a fast build could
# finish inside it).
echo "== harness timeout"
rc=0
timeout 3 "$tmpdir/mixtlb" -exp fig17 -quick -refs 20000000 -timeout 300ms \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "FAIL: fig17 -timeout 300ms exited $rc, want 4 within 3s (124 = still running)" >&2
    exit 1
fi
rc=0
"$tmpdir/mixtlb" -chaos -quick -refs 600000 -timeout 700ms \
    > "$tmpdir/chaos-partial.txt" 2>&1 || rc=$?
if [ "$rc" -ne 4 ] || ! grep -q 'msg="partial results"' "$tmpdir/chaos-partial.txt"; then
    echo "FAIL: chaos -timeout 700ms exited $rc, want 4 with partial rows:" >&2
    cat "$tmpdir/chaos-partial.txt" >&2
    exit 1
fi

# Design registry: every registered design (builtin and the shipped
# example file, including the victim-level specs) must validate and
# construct, and the hierarchy comparison over file-loaded designs must
# be jobs-invariant like every experiment.
echo "== design registry"
"$tmpdir/mixtlb" -design-file examples/designs.json -list > /dev/null
"$tmpdir/mixtlb" -exp hierarchy -quick -csv -jobs 1 \
    -design-file examples/designs.json -designs split+pwc,mix-as-l2,mix+pwc > "$tmpdir/hier1.csv"
"$tmpdir/mixtlb" -exp hierarchy -quick -csv -jobs 8 \
    -design-file examples/designs.json -designs split+pwc,mix-as-l2,mix+pwc > "$tmpdir/hier8.csv"
if ! cmp -s "$tmpdir/hier1.csv" "$tmpdir/hier8.csv"; then
    echo "FAIL: hierarchy -jobs 8 output differs from -jobs 1" >&2
    diff "$tmpdir/hier1.csv" "$tmpdir/hier8.csv" >&2 || true
    exit 1
fi

# Front ends no test drives: mixtrace must record, inspect and replay a
# short trace and reject an unknown design with a non-zero exit, and the
# four library examples must run to completion.
echo "== mixtrace and examples"
go build -o "$tmpdir/mixtrace" ./cmd/mixtrace
"$tmpdir/mixtrace" record -workload mcf -footprint-mb 64 -refs 50000 \
    -o "$tmpdir/mcf.trace" > /dev/null
"$tmpdir/mixtrace" info "$tmpdir/mcf.trace" > /dev/null
"$tmpdir/mixtrace" run -design mix -trace "$tmpdir/mcf.trace" > /dev/null
if "$tmpdir/mixtrace" run -design nope -trace "$tmpdir/mcf.trace" > /dev/null 2>&1; then
    echo "FAIL: mixtrace run -design nope exited 0" >&2
    exit 1
fi
for ex in quickstart fragmentation gpu virtualized; do
    go run "./examples/$ex" > /dev/null
done

# Victim level: the reach study must be jobs-invariant like every
# experiment, including the file-loaded mix+victima-xl design.
echo "== victim level"
"$tmpdir/mixtlb" -exp reach -quick -csv -jobs 1 \
    -design-file examples/designs.json \
    -designs split,victima,mix+victima-xl > "$tmpdir/reach1.csv"
"$tmpdir/mixtlb" -exp reach -quick -csv -jobs 8 \
    -design-file examples/designs.json \
    -designs split,victima,mix+victima-xl > "$tmpdir/reach8.csv"
if ! cmp -s "$tmpdir/reach1.csv" "$tmpdir/reach8.csv"; then
    echo "FAIL: reach -jobs 8 output differs from -jobs 1" >&2
    diff "$tmpdir/reach1.csv" "$tmpdir/reach8.csv" >&2 || true
    exit 1
fi

# Telemetry smoke: a quick instrumented run must write all three
# exporter files, and its result table must be byte-identical to an
# uninstrumented run (telemetry never feeds back into the simulation).
# That each format parses back and carries the core metric families is
# checked by runTelemetry in the experiments package tests above.
echo "== telemetry exporters"
"$tmpdir/mixtlb" -exp fig15r -quick -csv -jobs 4 \
    -metrics-out "$tmpdir/metrics.prom" \
    -trace-events "$tmpdir/trace.json" \
    -events-out "$tmpdir/events.jsonl" > "$tmpdir/tel-on.csv"
for f in metrics.prom trace.json events.jsonl; do
    test -s "$tmpdir/$f" || { echo "FAIL: telemetry export $f is empty" >&2; exit 1; }
done
"$tmpdir/mixtlb" -exp fig15r -quick -csv -jobs 4 > "$tmpdir/tel-off.csv"
if ! cmp -s "$tmpdir/tel-on.csv" "$tmpdir/tel-off.csv"; then
    echo "FAIL: result table differs with telemetry on vs off" >&2
    diff "$tmpdir/tel-on.csv" "$tmpdir/tel-off.csv" >&2 || true
    exit 1
fi

# Micro-benchmark smoke: every layer's micro-benchmarks must still run,
# 100 iterations each (3 for the stream builds), as a smoke run, not a
# timing gate.
echo "== micro-benchmarks"
go test -run '^$' -bench . -benchtime 100x ./internal/core ./internal/cachesim \
    ./internal/pwc ./internal/tlb ./internal/lru ./internal/mmu ./internal/pagetable \
    ./internal/ledger ./internal/journal ./internal/physmem > /dev/null
go test -run '^$' -bench . -benchtime 3x ./internal/workload ./internal/simrand > /dev/null

# The breakdown experiment (the ledger's table readout, audited in-cell)
# must be jobs-invariant like every experiment, and match its checked-in
# golden byte for byte.
echo "== breakdown attribution table"
"$tmpdir/mixtlb" -exp breakdown -quick -csv -jobs 1 > "$tmpdir/breakdown1.csv"
"$tmpdir/mixtlb" -exp breakdown -quick -csv -jobs 8 > "$tmpdir/breakdown8.csv"
if ! cmp -s "$tmpdir/breakdown1.csv" "$tmpdir/breakdown8.csv"; then
    echo "FAIL: breakdown -jobs 8 output differs from -jobs 1" >&2
    diff "$tmpdir/breakdown1.csv" "$tmpdir/breakdown8.csv" >&2 || true
    exit 1
fi
# (-csv prints one extra trailing newline after the table; the golden
# stores the bare table, so normalize before comparing.)
cat internal/experiments/testdata/golden/breakdown.csv > "$tmpdir/breakdown.golden"
printf '\n' >> "$tmpdir/breakdown.golden"
if ! cmp -s "$tmpdir/breakdown.golden" "$tmpdir/breakdown1.csv"; then
    echo "FAIL: breakdown output differs from its golden" >&2
    diff "$tmpdir/breakdown.golden" "$tmpdir/breakdown1.csv" >&2 || true
    exit 1
fi

# Cross-ISA translation front end: the xisa experiment must be
# jobs-invariant like every experiment and byte-identical to its
# checked-in golden.
echo "== cross-ISA descriptors"
"$tmpdir/mixtlb" -exp xisa -quick -csv -jobs 1 > "$tmpdir/xisa1.csv"
"$tmpdir/mixtlb" -exp xisa -quick -csv -jobs 8 > "$tmpdir/xisa8.csv"
if ! cmp -s "$tmpdir/xisa1.csv" "$tmpdir/xisa8.csv"; then
    echo "FAIL: xisa -jobs 8 output differs from -jobs 1" >&2
    diff "$tmpdir/xisa1.csv" "$tmpdir/xisa8.csv" >&2 || true
    exit 1
fi
cat internal/experiments/testdata/golden/xisa.csv > "$tmpdir/xisa.golden"
printf '\n' >> "$tmpdir/xisa.golden"
if ! cmp -s "$tmpdir/xisa.golden" "$tmpdir/xisa1.csv"; then
    echo "FAIL: xisa output differs from its golden" >&2
    diff "$tmpdir/xisa.golden" "$tmpdir/xisa1.csv" >&2 || true
    exit 1
fi

# Host-time gate: HEAD's mixtlb against the working tree's, and the
# tree's against itself with journaling and with the cycle ledger and
# tail recorder armed. One cell of one unchanged command spreads up to
# 1.6x across runs on a shared host, so each of the four arms runs the
# same fig15r command once per round for 20 rounds, the arm order
# rotating each round, and benchtrend gates each comparison with its
# paired rule (see cmd/benchtrend): slower in at least 18 of 20 pairs,
# which noise alone reaches in one cell with chance 211/1048576 (at 10
# rounds, 9 of 10 pairs: 11/1024, over 18 cell tests per block). HEAD is
# built from `git archive` with the module proxy and toolchain downloads
# off.
rounds=20
echo "== host-time gate ($rounds rounds of 4 arms)"
mkdir "$tmpdir/head"
git archive HEAD | tar -x -C "$tmpdir/head"
(cd "$tmpdir/head" && GOPROXY=off GOTOOLCHAIN=local go build -o "$tmpdir/mixtlb-head" ./cmd/mixtlb)
go build -o "$tmpdir/benchtrend" ./cmd/benchtrend
fig15r="-exp fig15r -quick -refs 300000 -jobs 1"
time_arm() { # ARM ROUND
    out=$tmpdir/bench-$1/round$(printf %02d "$2").json
    case $1 in
    head) "$tmpdir/mixtlb-head" $fig15r -bench-out "$out" ;;
    tree) "$tmpdir/mixtlb" $fig15r -bench-out "$out" ;;
    journal) "$tmpdir/mixtlb" $fig15r -journal "$tmpdir/gate.journal" -bench-out "$out" ;;
    ledger) "$tmpdir/mixtlb" $fig15r -ledger-audit -tail 8 -bench-out "$out" ;;
    esac > "$tmpdir/arm.log" 2>&1 || {
        echo "FAIL: host-time arm $1 failed in round $2:" >&2
        cat "$tmpdir/arm.log" >&2
        exit 1
    }
}
mkdir "$tmpdir/bench-head" "$tmpdir/bench-tree" "$tmpdir/bench-journal" "$tmpdir/bench-ledger"
round=0
while [ "$round" -lt "$rounds" ]; do
    case $((round % 4)) in
    0) order="head tree journal ledger" ;;
    1) order="tree journal ledger head" ;;
    2) order="journal ledger head tree" ;;
    3) order="ledger head tree journal" ;;
    esac
    for arm in $order; do
        time_arm "$arm" "$round"
    done
    round=$((round + 1))
done
for pair in "head tree" "tree journal" "tree ledger"; do
    set -- $pair
    if ! "$tmpdir/benchtrend" "$tmpdir/bench-$1" "$tmpdir/bench-$2" > "$tmpdir/trend.txt" 2>&1; then
        echo "FAIL: host time $1 -> $2 (benchtrend bench-$1 bench-$2):" >&2
        cat "$tmpdir/trend.txt" >&2
        exit 1
    fi
    echo "$1 -> $2: $(grep '^geomean' "$tmpdir/trend.txt")"
done

# Bench history: with CHECK_ARCHIVE_BENCH=1 the tree's last timing run is
# archived under bench_history/ for long-term trend tracking, after an
# informational comparison of the history with the tree's runs.
if [ "${CHECK_ARCHIVE_BENCH:-0}" = "1" ]; then
    echo "== bench history archive"
    "$tmpdir/benchtrend" bench_history/ "$tmpdir/bench-tree" || true
    cp "$tmpdir/bench-tree/round$(printf %02d $((rounds - 1))).json" "bench_history/$(date -u +%Y%m%dT%H%M%SZ).json"
fi
echo "== OK"
