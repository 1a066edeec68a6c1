GO ?= go
JOBS ?= 0

.PHONY: check fmt build vet test race bench bench-experiments benchdiff fuzz golden chaos loc

# The full tier-1 gate: gofmt, build, vet, and the test suite without and
# with the race detector (zero-alloc pins and qualitative goldens skip
# under -race). Test failures print the reproducing seed — rerun the named
# test with that seed to replay the exact fault sequence.
check: fmt build vet test race

# Fail when gofmt would reformat any file (it lists them).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

bench: bench-experiments
	$(GO) test -bench=. -benchtime=1x -run=^$$ . ./internal/core \
		./internal/cachesim ./internal/pwc ./internal/tlb ./internal/lru \
		./internal/workload ./internal/simrand ./internal/pagetable \
		./internal/gpu ./internal/ledger ./internal/journal ./internal/physmem \
		./internal/mmu

# Wall-clock timings for the parallel experiment engine: runs the perf
# group at quick scale and writes per-cell and per-experiment timings to
# BENCH_experiments.json. Override the pool size with JOBS=N (0 =
# GOMAXPROCS); re-run at JOBS=1 vs JOBS=8 to measure the speedup —
# the tables themselves are byte-identical either way.
bench-experiments:
	$(GO) run ./cmd/mixtlb -exp perf -quick -jobs $(JOBS) \
		-bench-out BENCH_experiments.json > /dev/null

# Compare the archived snapshots in bench_history/ with a fresh
# `make bench` run (override with NEW=/path/b.json or a directory). The
# history comes from other hosts and is not paired run for run with NEW,
# so this is informational and never fails; the host-time gate is
# scripts/check.sh's round-robin of same-host runs.
NEW ?= BENCH_experiments.json
benchdiff:
	-$(GO) run ./cmd/benchtrend bench_history/ $(NEW)

# Short mutation pass over each fuzz target (seed corpora also run as
# plain test cases in `make test`), listed from the code per package.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for fz in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "$(GO) test $$pkg -fuzz ^$$fz\$$"; \
			$(GO) test $$pkg -fuzz "^$$fz\$$" -fuzztime 10s -run '^$$' || exit 1; \
		done; \
	done

# Regenerate the golden experiment tables after an intentional change in
# simulator behavior (records at -jobs=1; the test verifies at -jobs=8).
golden:
	$(GO) test ./internal/experiments/ -run TestGoldenTables -update-golden

# Quick fault-injection sweep: every design under TLB/PTE corruption,
# lost IPIs, and transient OOM. The unrecovered column must be zero.
chaos:
	$(GO) run ./cmd/mixtlb -chaos -quick

# Added, removed and net non-test Go lines of the working tree against
# BASE, the count every change reports: make loc BASE=<commit>.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' | \
		awk '{a += $$1; r += $$2} END {printf "added %d removed %d net %+d\n", a, r, a - r}'
