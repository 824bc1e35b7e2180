# mindetail — Minimizing Detail Data in Data Warehouses (EDBT 1998), in Go.

GO ?= go
GOFMT ?= gofmt

.PHONY: all verify ci build fmt-check vet test race race-all faultinject fuzz-smoke bench-smoke bench-test bench-e2e bench-ab cover bench bench-json obs-bench harness examples clean

all: build vet test faultinject race

# verify is the one-stop pre-merge gate and the single source of truth for
# CI: .github/workflows/ci.yml runs exactly these targets, one per job.
verify: fmt-check build vet test race faultinject fuzz-smoke bench-smoke bench-test cover

# ci is an alias so `make ci` reproduces the pipeline locally.
ci: verify

build:
	$(GO) build ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the concurrent layers: the maintenance engine (the staging
# coordinator), the warehouse (propagation, lock-free reads, online
# backfill, the group-commit batch pipeline), the write-ahead log, the
# lock-free observability primitives, the wire server (concurrent sessions,
# admission control, disconnect drain), and the pager (buffer-pool
# pin/unpin and eviction under shared stores).
#
# The staging pool is GOMAXPROCS wide, so the coordinator's two sides —
# inline serial staging and fanned-out staging — depend on the runner's
# cores. RACE_CPU packages therefore run twice, at -cpu 1 and -cpu 4, so
# both sides run under the detector on any runner.
#
# The package set is derived from `go list` so a NEW package is race-
# checked by default; RACE_SKIP only excludes the serial drivers whose
# suites are long (the experiment harness, the simulators, the examples)
# and internal/faultinject, whose sweeps run under -race in their own
# target below.
RACE_SKIP := examples/|cmd/benchharness|cmd/dwsim|cmd/dwshell|internal/experiments|internal/faultinject
RACE_CPU := ./internal/maintain ./internal/warehouse
race:
	$(GO) test -race $$($(GO) list ./... | grep -Ev '$(RACE_SKIP)|/internal/(maintain|warehouse)$$')
	$(GO) test -race -cpu 1,4 $(RACE_CPU)

race-all:
	$(GO) test -race ./...

# Run the failure-atomicity and crash-recovery suite explicitly (also part
# of `test`): every injection point of every corpus statement — DML and
# the online CREATE/DROP MATERIALIZED VIEW backfill — must roll back to
# bit-identical state, and, with a WAL attached, recover to it from the
# on-disk bytes, under the race detector. Covers multi-row bulk applies,
# the group-commit batch pipeline, the torn-write sweeps (batch commits,
# mid-backfill deltas, drops), and the out-of-core stores (page-codec
# fuzz corpus, eviction-boundary rollback, paged recovery sweeps).
#
# The package set comes from `go list ./internal/...`: packages without a
# matching -run test compile and exit in milliseconds, so a new package's
# crash tests are picked up the moment they exist.
FAULT_RUN := FaultInjection|Malformed|Rekey|Hook|Fuzz|Recover|Torn|Checkpoint|Dangling|Paged
faultinject:
	$(GO) test -race -run '$(FAULT_RUN)' $$($(GO) list ./internal/...)

# fuzz-smoke replays each decoder's committed corpus, then fuzzes it for a
# short budget — enough to catch a decode regression on every push without
# turning CI into a fuzz farm. New findings land in testdata/fuzz/ for
# committing.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodePayload -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodePage -fuzztime $(FUZZTIME) ./internal/pager/

# bench-smoke re-measures a fast subset of the recorded hot-path
# benchmarks and fails if any ns/op regressed more than 3x against the
# committed BENCH_maintain.json.
bench-smoke:
	$(GO) run ./cmd/benchharness -smoke BENCH_maintain.json

# bench-test runs the repo benchmark's own tests (every workload at test
# scale, oracle-checked over the wire). bench/ is a module of its own, so
# `go test ./...` from the root does not reach it.
bench-test:
	cd bench && $(GO) test .

# bench-e2e is the repo benchmark itself (BENCHMARK.json's command) on all
# four workloads: minutes of wall clock, so manual — not part of verify.
bench-e2e:
	bash bench/run.sh --workload all

# bench-ab compares the repo benchmark between BASE and this checkout as
# alternating pairs — seed i on both sides of pair i, odd pairs BASE first —
# and prints the parent-vs-change tables EXPERIMENTS.md records, with each
# metric's direction read from BENCHMARK.json. It stops at any incorrect
# run or failed operation, and appends every result to benchab.jsonl.
# BASE and CHANGE are git tree-ishes exported with git archive; an empty
# CHANGE measures the checkout itself. Minutes per pair, so manual — not
# part of verify. Example: make bench-ab BASE=HEAD~1 WORKLOADS=feed-append
BASE ?= HEAD
CHANGE ?=
PAIRS ?= 4
WORKLOADS ?= all
bench-ab:
	$(GO) run ./cmd/benchab -base '$(BASE)' -change '$(CHANGE)' -pairs $(PAIRS) -workloads '$(WORKLOADS)'

# cover enforces a total-statement-coverage floor. The floor sits below
# the measured total (88.6% when set) by a margin wide enough for honest
# refactors, narrow enough that landing an untested subsystem fails CI.
COVER_FLOOR := 85.0
cover:
	$(GO) test -coverpkg=./internal/...,. -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# Measure the maintenance hot-path benchmarks and write machine-readable
# results (ns/op, B/op, allocs/op) next to the recorded seed baseline.
bench-json:
	$(GO) run ./cmd/benchharness -json BENCH_maintain.json

# Micro-benchmarks of the observability primitives themselves (counter
# adds, histogram observes, trace-ring records), sequential and parallel.
obs-bench:
	$(GO) test -bench=. -benchmem ./internal/obs/

# Regenerate every paper table/figure and the ablations.
harness:
	$(GO) run ./cmd/benchharness -scale 20000 -deltas 300

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/retail -scale 20000 -deltas 200
	$(GO) run ./examples/snowflake
	$(GO) run ./examples/minmax
	$(GO) run ./examples/evolution

clean:
	rm -f cover.out test_output.txt bench_output.txt
