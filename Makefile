# Tier-1 verification plus the race-detector pass over the packages with
# concurrent traversal code, the fault-injection robustness suite, and the
# documentation gate.

RACE_PKGS := ./internal/bound ./internal/pareto ./internal/fusion \
             ./internal/traverse ./internal/mapping \
             ./internal/multilevel ./internal/simba \
             ./internal/shard ./internal/supervise ./internal/serve \
             ./internal/workload ./internal/fleet ./internal/cliutil \
             ./internal/store

# The fault-injection suites: every scripted I/O failure, kill and
# cancellation must end in a successful retry or a named, resumable
# error — never a corrupt artifact. Backoffs in these tests are already
# shortened to milliseconds. The supervision suite (in-process shard
# coordination: retries, quarantine, interrupt-and-resume, degraded
# merges) runs with the coordinator in ./internal/fleet, under `make
# fleet` with -race; ./internal/supervise keeps the retry-schedule test.
ROBUST_PKGS := ./internal/shard ./internal/supervise ./internal/traverse

.PHONY: all vet build test race robust flake serve fleet chaos store perfbench-smoke bench-smoke bench-json docs ci

all: ci

vet:
	go vet ./...

# Documentation gate: formatting, vet, and doc-comment coverage (package
# docs everywhere; full exported-identifier docs in the core packages —
# see internal/tools/doccheck). It also keeps durability in one
# fault-tested place: every atomic write, quarantine and temp sweep goes
# through the primitives in internal/shard/fs.go, so no other non-test
# code under internal/ or cmd/ may call os.Rename, os.WriteFile or
# os.CreateTemp (internal/tools/ holds developer utilities, exempt).
docs:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@raw=$$(grep -rnE 'os\.(Rename|WriteFile|CreateTemp)\(' --include='*.go' internal cmd \
		| grep -v '_test\.go:' | grep -v '^internal/shard/fs\.go:' | grep -v '^internal/tools/'); \
	if [ -n "$$raw" ]; then echo "durable-file calls outside internal/shard/fs.go:"; \
		printf "%s\n" "$$raw"; exit 1; fi
	go vet ./...
	go run ./internal/tools/doccheck

build:
	go build ./...

test:
	go test ./...

race:
	go test -race $(RACE_PKGS)

robust:
	go test -race -count=1 $(ROBUST_PKGS)

# Flake gate: the concurrent traversal package repeated across GOMAXPROCS
# settings, and the elapsed-time checkpoint schedule tests (fake clock,
# no sleeps) repeated. A test that fails one run in fifty fails here.
flake:
	go test -count=50 -cpu 1,2,4,8 ./internal/traverse
	go test -count=20 -run '^TestSchedule' ./internal/shard

# The derivation-server suite under the race detector: deadlines,
# cache-stampede single-flight, saturation shedding, panic containment,
# drain, and kill-and-resume through the spool directory.
serve:
	go test -race -count=1 ./internal/serve

# The shard-coordinator suite under the race detector, both transports:
# in-process supervision (transient-fault parity, interrupt-and-resume,
# corrupt-slot quarantine, non-retryable inner cancellation, attempt
# timeouts), HTTP dispatch and allocation, bounded retries with
# retry-elsewhere, digest quarantine, speculative re-execution,
# kill-a-worker and kill-the-coordinator parity, cross-transport resume,
# and degraded merges (see docs/fleet-protocol.md).
fleet:
	go test -race -count=1 ./internal/fleet

# The transport-chaos robustness matrix under the race detector: scripted
# hangs, connection refusals, mid-body partitions, 5xx flaps, slow drips
# and Retry-After storms injected per worker (internal/fleet/chaos); every
# fault class must end in a byte-identical merge or a correctly annotated
# degraded envelope, open breakers must shed load, and faster workers
# must receive more shards (docs/fleet-protocol.md, "Health, membership
# & breakers").
chaos:
	go test -race -count=1 -run '^TestChaos' ./internal/fleet

# The durable curve-store suite under the race detector: checksummed
# content-addressed persistence, the storage fault matrix (torn writes,
# kill-mid-write, zeroed tails, flipped digests, stale engines, ENOSPC,
# concurrent writers), quarantine-and-re-derive, LRU GC, restart warmth
# and the server/warmer shared-directory paths (docs/curve-store.md).
store:
	go test -race -count=1 ./internal/store
	go test -race -count=1 ./internal/cliutil -run 'Store|Warm'
	go test -race -count=1 ./internal/serve -run 'Store|Restart|Warmer|Corrupt|Degraded206'

# The repository benchmark (perfbench/) is its own Go module, so
# `go test ./...` never compiles it. Its smoke test builds it against the
# current tree and runs every workload on small inputs, so an API change
# that breaks the benchmark fails here.
perfbench-smoke:
	cd perfbench && go test -count=1 .

# Benchmark smoke: every Go benchmark under internal/ run once, so a
# benchmark that no longer compiles, panics or fails its own checks fails
# here rather than when someone next measures with it (about 8 s on 2
# cores). One iteration says nothing about speed; perfbench measures that.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./internal/...

# Machine-readable benchmark artifact: the paper-figure benchmark suite
# (root package) parsed into $(BENCH_OUT) by internal/tools/benchjson,
# followed by a delta report against the tracked $(BENCH_PREV) artifact
# so regressions are visible in the CI log. BENCHTIME=1x (the default)
# runs each benchmark once — a smoke-level artifact for CI; raise it
# (e.g. BENCHTIME=2s) for stable numbers.
BENCHTIME ?= 1x
BENCH ?= .
BENCH_OUT ?= BENCH_PR13.json
BENCH_PREV ?= BENCH_PR10.json

bench-json:
	go test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem . \
		| go run ./internal/tools/benchjson -out $(BENCH_OUT)
	@if [ -f $(BENCH_PREV) ]; then \
		go run ./internal/tools/benchjson -delta $(BENCH_PREV) $(BENCH_OUT); \
	fi

ci: vet build test race robust flake serve fleet chaos store perfbench-smoke bench-smoke docs
