GO ?= go

.PHONY: all build test race vet fmt check smoke identity unreached benchmod report bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	test -z "$$(gofmt -l .)"

check: build vet fmt test race smoke identity unreached benchmod

# Smoke gate for what no test runs: the VM, workload-install, sim
# kernel, excise and wire-crossing microbenchmark bodies at a token
# iteration count, and the window/streaming sweep end to end on a
# two-workload subset (no test calls Pipeline).
smoke:
	$(GO) test -count=1 -run xxx -bench . -benchtime 100x ./internal/vmbench/ ./internal/workload/ ./internal/sim/ ./internal/core/
	$(GO) run ./cmd/migsim -exp pipeline -kinds Minprog,Lisp-Del > /dev/null

# The benchmark of record is its own module under bench/, importing
# internal/ through a replace directive; nothing else compiles it, so an
# internal API change that breaks it would otherwise go unnoticed.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Identity gate: migsim's output must not move. `-exp all` must match
# testdata/exp_all.golden byte for byte, and every configuration listed
# in testdata/identity.txt must reproduce its committed digests of
# stdout, stderr and exit status (scripts/identity.sh).
identity:
	@d=$$(mktemp -d) && $(GO) build -o "$$d/migsim" ./cmd/migsim && sh scripts/identity.sh "$$d/migsim"; s=$$?; rm -rf "$$d"; exit $$s

# Reachability gate (about 30 s): build migsim, migreport, the examples
# and the benchmark with coverage, run them all, and check the functions
# in internal/ that no run reaches against testdata/unreached.txt, which
# gives each its reason (scripts/unreached.sh).
unreached:
	sh scripts/unreached.sh

# Regenerate the measured side of EXPERIMENTS.md.
report:
	$(GO) run ./cmd/migreport > EXPERIMENTS.md

# Regenerate BENCH_grid.json: per-cell wall-clock, sequential-vs-engine
# and disk-cache sweep timings, and the shard sweep. The engine sweep
# pins four workers so the parallel measurement exercises real
# contention even on single-core runners. The VM microbenchmarks run
# under `go test -bench ./internal/vmbench`, and the 1 MB transfer's
# simulated results are pinned by TestTransfer1MBPinned.
bench:
	$(GO) run ./cmd/migbench -parallel 4 -o BENCH_grid.json

clean:
	$(GO) clean ./...
