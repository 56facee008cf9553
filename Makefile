GO ?= go

.PHONY: all build test race vet fmt check smoke identity unreached benchmod fuzz report bench clean

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
# iteration count. The window/streaming sweep, which no test calls
# either, runs on all seven workloads in identity's `-exp pipeline` line.
smoke:
	$(GO) test -count=1 -run xxx -bench . -benchtime 100x ./internal/vmbench/ ./internal/workload/ ./internal/sim/ ./internal/core/

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

# Fuzz each of the module's four decoders for 10 s, starting from its
# seed corpus in testdata/fuzz: fault-plan JSON, disk-cache entries, wire
# frames and core message bodies. `make test` runs the seeds alone; CI
# runs this after `make check`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 10s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBody$$' -fuzztime 10s ./internal/core/

# Regenerate the measured side of EXPERIMENTS.md.
report:
	$(GO) run ./cmd/migreport > EXPERIMENTS.md

# The two parallel-speedup checks (bench_test.go): the paper grid through
# a four-worker engine must beat the sequential sweep, and the 32-machine
# shard stress must run at least 2x faster at 4 and 8 lanes, each only
# on a host with more than one CPU. They are wall-clock ratios, so
# neither `make check` nor `go test ./...` runs them; bench/ is the
# benchmark of record.
bench:
	$(GO) test -run '^$$' -bench 'GridSpeedup|ShardSweep' -benchtime 1x .

clean:
	$(GO) clean ./...
