# Development entry points. `make check` is the tier-1 verification flow
# (gofmt gate, build, vet, tests); `make race` adds the race detector over
# the concurrency-sensitive packages and the benchmark's smoke test; `make torture` runs the exhaustive
# crash-state enumeration, bit-flip and differential sweeps (the strided
# versions already run inside `make test`); `make fuzz` gives each fuzz
# target a short coverage-guided session on top of the checked-in corpora;
# `make bench` produces the fast-path benchmark artifact BENCH_1.json
# (with BENCH_0.json, the pre-fast-path seed measurements, embedded as the
# baseline), the cold-open artifact BENCH_2.json, the
# instrumentation-overhead artifact BENCH_3.json, the detached-pool
# multi-core scaling artifact BENCH_4.json, the MVCC snapshot-read /
# group-commit contention artifact BENCH_5.json, the networked-server
# artifact BENCH_6.json, the replication read-scaling artifact
# BENCH_7.json, the failover artifact BENCH_8.json (quorum-commit
# latency vs async, promotion downtime), and the rule-churn artifact
# BENCH_9.json (raise throughput under catalog churn, selective vs
# global consumer-cache invalidation); `make bench-smoke` is a
# one-iteration CI-sized pass over the same code paths plus a scrape of
# the live /metrics endpoint; `make bench-gate` checks the checked-in
# benchmark artifacts against the floors in dev/bench/thresholds.json
# (CI runs this, so a PR that regenerates a BENCH_*.json with a
# regression fails); `make golden` regenerates the checked-in golden
# firing traces under internal/sim/testdata/golden/ (the matrix test
# fails CI on any unexplained drift — regenerate deliberately and commit
# the diff); `make loc` prints the code-size numbers (lines per package,
# Database mutexes, Options fields) that simplification PRs quote.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all fmt build vet test check race torture fuzz bench bench-smoke bench-gate golden loc clean

all: check

# Fails listing every file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check: fmt build vet test

race:
	$(GO) test -race ./internal/core/... ./internal/rule/... ./internal/event/... ./internal/txn/... ./internal/obs/... ./internal/sim/... ./internal/vfs/... ./internal/wal/... ./internal/wire/... ./internal/server/... ./internal/client/... ./internal/repl/... ./internal/heap/... ./internal/buffer/... ./internal/page/... ./benchmark/

# Exhaustive crash-state torture: every journal op boundary in every crash
# mode, every WAL bit position, and a widened differential-seed matrix.
# The fixed seeds make failures reproducible; the strided versions of the
# same sweeps run in the ordinary test suite.
torture:
	SENTINEL_TORTURE=full $(GO) test -count=1 -run 'TestCrashStateEnumeration|TestDifferentialStreams|TestRecoveryAtEveryBitFlip|TestRecoveryAtEveryTruncationPoint|TestGroupCommitTorture|TestSnapshotDiffer|TestReplTortureSweep|TestReplDiffSeeds|TestFailoverSweep|TestChurnDifferential|TestGlobalRefOnModelSeeds' -v ./internal/sim/ ./internal/core/

# Coverage-guided fuzzing on top of the checked-in seed corpora. `go test`
# accepts one -fuzz pattern per package invocation, hence one line each.
fuzz:
	$(GO) test -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzDecodePayload -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzParseScript -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzParseEventExpr -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzDecodeReplBatch -fuzztime $(FUZZTIME) ./internal/wire/

# Raise-path benchmarks: P1 (N rules), P8 (event-interface selectivity),
# P11 (parallel sends), plus the machine-readable JSON suite.
bench:
	$(GO) test -bench 'BenchmarkP1SubscriptionVsCentralized|BenchmarkP8InterfaceSelectivity|BenchmarkP11ParallelSend' -benchmem -run '^$$' .
	$(GO) run ./cmd/sentinel-bench -json BENCH_1.json -baseline BENCH_0.json
	$(GO) run ./cmd/sentinel-bench -json2 BENCH_2.json
	$(GO) run ./cmd/sentinel-bench -json3 BENCH_3.json
	$(GO) run ./cmd/sentinel-bench -json4 BENCH_4.json
	$(GO) run ./cmd/sentinel-bench -json5 BENCH_5.json
	$(GO) run ./cmd/sentinel-bench -json6 BENCH_6.json
	$(GO) run ./cmd/sentinel-bench -json7 BENCH_7.json
	$(GO) run ./cmd/sentinel-bench -json8 BENCH_8.json
	$(GO) run ./cmd/sentinel-bench -json9 BENCH_9.json

# One-iteration pass over every benchmark entry point: catches bit-rot in
# the bench harness without benchmark-grade runtimes (CI runs this).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench BenchmarkInsert -benchtime 1x -run '^$$' ./internal/heap/
	$(GO) run ./cmd/sentinel-bench -json2 /tmp/bench2-smoke.json -pop 2000 -resident 256
	$(GO) run ./cmd/sentinel-bench -json3 /tmp/bench3-smoke.json
	$(GO) run ./cmd/sentinel-bench -json4 /tmp/bench4-smoke.json -quick
	$(GO) run ./cmd/sentinel-bench -json5 /tmp/bench5-smoke.json -quick
	$(GO) run ./cmd/sentinel-bench -json6 /tmp/bench6-smoke.json -quick
	$(GO) run ./cmd/sentinel-bench -json7 /tmp/bench7-smoke.json -quick
	$(GO) run ./cmd/sentinel-bench -json8 /tmp/bench8-smoke.json -quick
	$(GO) run ./cmd/sentinel-bench -json9 /tmp/bench9-smoke.json -quick

# Enforce the performance floors in dev/bench/thresholds.json over the
# checked-in benchmark artifacts.
bench-gate:
	$(GO) run ./cmd/bench-gate

# Regenerate the golden firing-trace matrix (operator x coupling x
# strategy) under internal/sim/testdata/golden/. The matrix test refuses
# to regenerate when the engine and the reference model disagree, so a
# golden can only change once both implementations agree on the new
# semantics; commit the diff with its justification.
golden:
	SENTINEL_GOLDEN_REGEN=1 $(GO) test -count=1 -run TestGoldenMatrix ./internal/sim/

# Size of the system as numbers: non-test, non-comment Go lines per
# internal/* package, the mutexes Database declares and the fields Options
# has. A PR that claims to simplify quotes this before and after.
loc:
	@sh dev/loc.sh

clean:
	$(GO) clean
	rm -f sentinel.test
