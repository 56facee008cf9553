GO ?= go

.PHONY: all build test race vet fmt check smoke identity benchmod report bench clean

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

check: build vet fmt test race smoke identity benchmod

# Smoke gate for what no test runs: the VM microbenchmark bodies at a
# token iteration count, and the window/streaming sweep end to end on a
# two-workload subset (no test calls Pipeline).
smoke:
	$(GO) test -count=1 -run xxx -bench . -benchtime 100x ./internal/vmbench/
	$(GO) run ./cmd/migsim -exp pipeline -kinds Minprog,Lisp-Del > /dev/null

# The benchmark of record is its own module under bench/, importing
# internal/ through a replace directive; nothing else compiles it, so an
# internal API change that breaks it would otherwise go unnoticed.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Stop-and-wait identity gate: the default configuration must produce
# byte-identical experiment output to the committed golden.
identity:
	$(GO) run ./cmd/migsim -exp all > /tmp/identity.out
	cmp /tmp/identity.out testdata/exp_all.golden
	@echo "identity: default-path output matches testdata/exp_all.golden"

# Regenerate the measured side of EXPERIMENTS.md.
report:
	$(GO) run ./cmd/migreport > EXPERIMENTS.md

# Regenerate the simulator-performance baselines: per-cell wall-clock
# plus sequential-vs-engine sweep timings (BENCH_grid.json), the
# VM-layer microbenchmarks (BENCH_vm.json), and the transport window
# sweep (BENCH_wire.json). The engine sweep pins four workers so the
# parallel measurement exercises real contention even on single-core
# runners.
bench:
	$(GO) run ./cmd/migbench -parallel 4 -o BENCH_grid.json -vm BENCH_vm.json -wire BENCH_wire.json

clean:
	$(GO) clean ./...
