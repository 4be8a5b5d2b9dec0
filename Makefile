# Tier-1 verification plus the race-detector pass over the packages with
# concurrent traversal code, the fault-injection robustness suite, and the
# documentation gate.

RACE_PKGS := ./internal/bound ./internal/pareto ./internal/fusion \
             ./internal/traverse ./internal/mapping \
             ./internal/multilevel ./internal/simba \
             ./internal/shard ./internal/supervise ./internal/serve \
             ./internal/workload ./internal/fleet ./internal/cliutil \
             ./internal/store

# The fault-injection and supervision suites: every scripted I/O failure,
# kill and cancellation must end in a successful retry or a named,
# resumable error — never a corrupt artifact. Backoffs in these tests are
# already shortened to milliseconds.
ROBUST_PKGS := ./internal/shard ./internal/supervise ./internal/traverse

.PHONY: all vet build test race robust serve fleet chaos store perfbench-smoke bench-json docs ci

all: ci

vet:
	go vet ./...

# Documentation gate: formatting, vet, and doc-comment coverage (package
# docs everywhere; full exported-identifier docs in the core packages —
# see internal/tools/doccheck).
docs:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
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

# The derivation-server suite under the race detector: deadlines,
# cache-stampede single-flight, saturation shedding, panic containment,
# drain, and kill-and-resume through the spool directory.
serve:
	go test -race -count=1 ./internal/serve

# The distributed-fleet suite under the race detector: coordinator
# dispatch and allocation, bounded retries with retry-elsewhere, digest
# quarantine, speculative re-execution, kill-a-worker and
# kill-the-coordinator parity, and degraded merges (see
# docs/fleet-protocol.md).
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

# Machine-readable benchmark artifact: the paper-figure benchmark suite
# (root package) parsed into BENCH_PR9.json by internal/tools/benchjson,
# followed by a delta report against the previous PR's artifact so
# regressions are visible in the CI log. BENCHTIME=1x (the default) runs
# each benchmark once — a smoke-level artifact for CI; raise it (e.g.
# BENCHTIME=2s) for stable numbers.
BENCHTIME ?= 1x
BENCH ?= .

bench-json:
	go test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem . \
		| go run ./internal/tools/benchjson -out BENCH_PR10.json
	@if [ -f BENCH_PR9.json ]; then \
		go run ./internal/tools/benchjson -delta BENCH_PR9.json BENCH_PR10.json; \
	fi

ci: vet build test race robust serve fleet chaos store perfbench-smoke docs
