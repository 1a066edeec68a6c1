#!/bin/sh
# Tier-1 gate: gofmt, build, vet, race-enabled tests, fuzz-corpus
# smoke, and a parallel-determinism check. Mirrors `make check` for
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
echo "== go test -fuzz (10s per target)"
go test ./internal/trace/ -fuzz 'FuzzRoundTrip' -fuzztime 10s -run '^$'
go test ./internal/trace/ -fuzz 'FuzzReader' -fuzztime 10s -run '^$'
go test ./internal/addr/ -fuzz 'FuzzAddrArithmetic' -fuzztime 10s -run '^$'
go test ./internal/addr/ -fuzz 'FuzzSpaceArithmetic' -fuzztime 10s -run '^$'
go test ./internal/pagetable/ -fuzz 'FuzzPTE' -fuzztime 10s -run '^$'
go test ./internal/journal/ -fuzz 'FuzzJournalDecode' -fuzztime 10s -run '^$'
go test ./internal/tlb/ -fuzz 'FuzzVictimBundle' -fuzztime 10s -run '^$'

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
go test ./internal/mmu/ -run 'TestRegistryBuiltinsConstruct|TestDesignSpecValidationErrors|TestParseSpecs' -count=1 > /dev/null
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

# Host-time gates: bench_gate NAME PCT OLD NEW compares two -bench-out
# files with benchtrend, which fails on any cell more than PCT% slower
# than OLD or an overall geomean speedup below its 0.85x floor. On
# failure it prints the whole comparison, so the log names the cells
# that regressed.
go build -o "$tmpdir/benchtrend" ./cmd/benchtrend
bench_gate() {
    if ! "$tmpdir/benchtrend" -max-regression "$2" "$3" "$4" > "$tmpdir/$1.txt" 2>&1; then
        echo "FAIL: $1 host-time gate (benchtrend -max-regression $2 $3 $4):" >&2
        cat "$tmpdir/$1.txt" >&2
        exit 1
    fi
}

# benchtrend identity: the gates below read files this mixtlb just
# wrote, so first check, free of timing noise, that benchtrend reads
# that format at all: a file compared with itself must join its cells
# at 1.00x and pass even at a 0% per-cell limit.
echo "== benchtrend identity"
"$tmpdir/mixtlb" -exp fig15r -quick -jobs 1 -bench-out "$tmpdir/bench.json" > /dev/null
bench_gate identity 0 "$tmpdir/bench.json" "$tmpdir/bench.json"

# Journaling overhead: checkpointing must be cheap relative to the
# simulation itself. Quick cells run ~60ms each, where scheduler noise
# alone exceeds 15%, so this gate runs longer cells (-refs 300000, after
# a warmup pass) and checks the geomean: journaling-on must stay within
# 15% of journaling-off overall, with a loose 40% per-cell backstop
# against pathological regressions.
echo "== journaling overhead"
"$tmpdir/mixtlb" -exp fig15r -quick -refs 300000 -jobs 1 > /dev/null # warmup
"$tmpdir/mixtlb" -exp fig15r -quick -refs 300000 -jobs 1 \
    -bench-out "$tmpdir/nojournal.json" > /dev/null
"$tmpdir/mixtlb" -exp fig15r -quick -refs 300000 -jobs 1 \
    -journal "$tmpdir/overhead.journal" -bench-out "$tmpdir/journal.json" > /dev/null
bench_gate journaling 40 "$tmpdir/nojournal.json" "$tmpdir/journal.json"

# Victim level: the cache-backed victim designs must satisfy the
# metamorphic/differential layer (deeper hierarchies never change the
# translation function; demotion conserves entries), and the reach study
# must be jobs-invariant like every experiment — including the
# file-loaded mix+victima-xl design.
echo "== victim level"
go test ./internal/mmu/ -run 'TestDeeperHierarchyPreservesTranslation|TestVictimInvariants|TestVictimShootdownConsistency' -count=1 > /dev/null
go test ./internal/tlb/ -run 'TestVictimDemotionConservation|TestEvictionSinkConservation' -count=1 > /dev/null
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

# Zero-cost-when-absent: designs without a victim level must not pay for
# the subsystem. The AllocsPerRun pin keeps the victimless translate
# loop at zero heap allocations, and re-timing fig15r (whose designs are
# all victimless) against the journaling-off baseline above bounds any
# slow-path regression at the same 0.85x geomean floor.
echo "== victim zero-cost-when-absent"
go test ./internal/mmu/ -run 'TestTranslateZeroAlloc$' -count=1 > /dev/null
"$tmpdir/mixtlb" -exp fig15r -quick -refs 300000 -jobs 1 \
    -bench-out "$tmpdir/absent.json" > /dev/null
bench_gate victim-absent 40 "$tmpdir/nojournal.json" "$tmpdir/absent.json"

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

# Zero-alloc guard: the disabled-telemetry translate loop must not
# allocate (nil-sink fast path). Run without -race, which inflates counts.
echo "== telemetry zero-alloc guard"
go test ./internal/mmu/ -run 'TestTranslateZeroAllocTelemetry' -count=1 > /dev/null

# MIX TLB layer: the op-stream digests pin every value a MixTLB returns,
# bit for bit, whatever its storage layout; the warm Fill/Promote/Lookup
# paths must not allocate (without -race, like the guard above); and the
# layer's own micro-benchmarks must still run, 100 iterations each (a
# smoke run, not a timing gate).
echo "== MIX TLB digests, zero-alloc guard and micro-benchmarks"
go test ./internal/core/ -run 'TestMixOpStreamDigest|TestMixZeroAlloc' -count=1 > /dev/null
go test ./internal/core/ -run '^$' -bench 'Mix' -benchtime 100x > /dev/null

# Shared LRU storage: the op-stream digests pin every value the data
# caches, paging-structure caches and non-MIX TLBs return, bit for bit,
# whatever their storage layout; the reference tests check the shared
# array against the last-free scans it replaced; the size pin keeps a TLB
# lookup result within 48 bytes, since every component probe of a split
# TLB copies one; and the storage layers'
# micro-benchmarks must still run, 100 iterations each (a smoke run, not
# a timing gate).
echo "== LRU storage digests and micro-benchmarks"
go test ./internal/cachesim/ -run 'TestAccessStreamDigest|TestCacheMatchesLastFreeReference' -count=1 > /dev/null
go test ./internal/pwc/ -run 'TestOpStreamDigest|TestCacheMatchesLastFreeReference' -count=1 > /dev/null
go test ./internal/tlb/ -run 'TestOpStreamDigest|TestResultSize' -count=1 > /dev/null
go test -run '^$' -bench . -benchtime 100x ./internal/cachesim ./internal/pwc ./internal/tlb ./internal/lru > /dev/null

# Workload layer: the catalog and GPU kernel digests pin every reference
# every workload and kernel core generates, bit for bit; the reference
# tests check Uint64n and the block-drawing Shuffle against the forms they
# replaced, values and generator state both; the chase pins hold its
# period and its one array per stream; the cursor pins check that every
# Fork yields what a fresh build does and copies no chase order (under
# 4 KiB per fork); and the layer's micro-benchmarks must still run,
# 3 iterations each (a smoke run, not a timing gate).
echo "== workload stream digests and micro-benchmarks"
go test ./internal/workload/ -run 'TestCatalogStreamDigest|TestChaseVisitsFullCycle|TestChaseBuildBytes|TestNextBatchZeroAlloc|TestForkMatchesFreshBuild|TestForkBytes' -count=1 > /dev/null
go test ./internal/gpu/ -run 'TestKernelStreamDigest' -count=1 > /dev/null
go test ./internal/simrand/ -run 'TestUint64nMatchesReference|TestShuffleMatchesReference' -count=1 > /dev/null
go test -run '^$' -bench . -benchtime 3x ./internal/workload ./internal/simrand > /dev/null

# Page-table walker: the per-descriptor walk digests pin every value a
# walk returns and the accessed bits it leaves, bit for bit; its
# per-descriptor micro-benchmark must still run, 100 iterations each (a
# smoke run, not a timing gate).
echo "== page-table walk digests and micro-benchmarks"
go test ./internal/pagetable/ -run 'TestWalkDigest' -count=1 > /dev/null
go test -run '^$' -bench . -benchtime 100x ./internal/pagetable > /dev/null

# Ledger tail recorder and journal appends: their micro-benchmarks must
# still run, 100 iterations each (a smoke run, not a timing gate).
echo "== ledger and journal micro-benchmarks"
go test -run '^$' -bench . -benchtime 100x ./internal/ledger ./internal/journal > /dev/null

# Physical memory: the memhog digests pin every allocation decision the
# buddy allocator and the memhog fragmenter make, and the state they
# leave, bit for bit; the reference test checks free counts, maximal free
# blocks per order and single-frame frees inside blocks claimed by
# address against a bitmap; and the layer's micro-benchmarks must still
# run, 100 iterations each (a smoke run, not a timing gate).
echo "== physmem digests and micro-benchmarks"
go test ./internal/physmem/ -run 'TestMemhogDigest|TestBuddyInvariants' -count=1 > /dev/null
go test -run '^$' -bench . -benchtime 100x ./internal/physmem > /dev/null

# Cycle book and ledger: per-access results, Stats.Cycles and the MMU's
# Attribution must be one number for every registry design and for nested
# MMUs; the ledger's closed accesses must conserve per cell (chaos retries
# and shootdowns included); attribution must be an observer (armed vs
# disarmed tables byte-identical); and the translate loop must stay
# zero-alloc with the ledger attached and detached, native and nested.
echo "== cycle book and ledger conservation"
go test ./internal/ledger/ -count=1 > /dev/null
go test ./internal/mmu/ -run 'TestCycleConservation|TestLedgerConservation|TestAttributionFoldsRetries|TestLedgerObserverOnly|TestTranslateZeroAllocLedger|TestTranslateZeroAllocNested|TestStatsAddSumsEveryField' -count=1 > /dev/null
go test ./internal/smp/ -run 'TestLedgerConservationUnderShootdowns' -count=1 > /dev/null
go test ./internal/virt/ -run 'TestNestedSetDirtyLineMatchesTwoStep' -count=1 > /dev/null
go test ./internal/perfmodel/ -count=1 > /dev/null

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

# Ledger overhead: arming attribution on fig15r must keep the geomean
# within the same 0.85x floor as the journaling/victim gates, against the
# journaling-off baseline timed above.
echo "== ledger overhead"
"$tmpdir/mixtlb" -exp fig15r -quick -refs 300000 -jobs 1 -ledger-audit -tail 8 \
    -bench-out "$tmpdir/ledger.json" > /dev/null
bench_gate ledger 40 "$tmpdir/nojournal.json" "$tmpdir/ledger.json"

# Cross-ISA translation front end: descriptor packages and conformance
# (LA57 vs 4-level, Sv39 vs Sv48 differential; typed ISA validation on
# design specs and run specs), then the xisa experiment — jobs-invariant like
# every experiment and byte-identical to its checked-in golden.
echo "== cross-ISA descriptors"
go test ./internal/isa/ -count=1 > /dev/null
go test ./internal/mmu/ -run 'TestISAConformance|TestSpecISAValidation' -count=1 > /dev/null
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

# Descriptor indirection must stay free on the hot path: the
# descriptor-parameterized translate loop (deep radixes, NAPOT/contig
# block detection, 16-entry extended walk lines) allocates nothing in
# steady state, and the default-descriptor perf group stays within the
# same 0.85x geomean floor of the committed pre-descriptor seed snapshot
# (bench_history/0001-seed.json). The per-cell backstop is loose (75%) because
# the snapshot predates this session's scheduler noise; the geomean is
# the real gate.
echo "== descriptor indirection overhead"
go test ./internal/mmu/ -run 'TestTranslateZeroAllocISA' -count=1 > /dev/null
"$tmpdir/mixtlb" -exp perf -quick -jobs 1 -bench-out "$tmpdir/isa-perf.json" > /dev/null
bench_gate descriptor 75 bench_history/0001-seed.json "$tmpdir/isa-perf.json"

# Bench history: with CHECK_ARCHIVE_BENCH=1 the newest snapshot is
# archived under bench_history/ for long-term trend tracking.
if [ "${CHECK_ARCHIVE_BENCH:-0}" = "1" ]; then
    echo "== bench history archive"
    mkdir -p bench_history
    cp "$tmpdir/absent.json" "bench_history/$(date -u +%Y%m%dT%H%M%SZ).json"
    "$tmpdir/benchtrend" bench_history/ || true # informational on real history
fi
echo "== OK"
