# Development entry points. `make check` is the tier-1 verification flow
# (gofmt gate, build, vet, tests); `make race` adds the race detector over
# the concurrency-sensitive packages and the benchmark's smoke test; `make torture` runs the exhaustive
# crash-state enumeration, bit-flip and differential sweeps (the strided
# versions already run inside `make test`); `make fuzz` gives each fuzz
# target a short coverage-guided session on top of the checked-in corpora;
# `make bench` runs the one benchmark (benchmark/, declared in BENCHMARK.json);
# `make bench-smoke` runs each of its four workloads for one second through
# benchmark/run.sh plus one iteration of every Go benchmark (CI runs this);
# `make bench-gate BASE=<rev>` compares BASE against the working tree and
# fails on a REGRESSION; `make golden` regenerates the checked-in golden
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
# mode, every WAL bit position, a widened differential-seed matrix and the
# pipelined-session oracle's widened seed sweep. The fixed seeds make
# failures reproducible; the strided versions of the same sweeps run in the
# ordinary test suite.
torture:
	SENTINEL_TORTURE=full $(GO) test -count=1 -run 'TestCrashStateEnumeration|TestDifferentialStreams|TestRecoveryAtEveryBitFlip|TestRecoveryAtEveryTruncationPoint|TestGroupCommitTorture|TestDependentChainTorture|TestSnapshotDiffer|TestReplTortureSweep|TestReplDiffSeeds|TestFailoverSweep|TestMarkCells|TestMarkCrashSweep|TestChurnDifferential|TestGlobalRefOnModelSeeds|TestPipelineOracle' -v ./internal/sim/ ./internal/core/ ./internal/server/

# Coverage-guided fuzzing on top of the checked-in seed corpora. `go test`
# accepts one -fuzz pattern per package invocation, hence one line each.
fuzz:
	$(GO) test -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzDecodePayload -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzParseScript -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzParseEventExpr -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzBlockTransparency -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzDecodeReplBatch -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzLoadIndex -fuzztime $(FUZZTIME) ./internal/heap/

# Every workload once at BENCHMARK.json's run_seconds, untraced.
bench:
	$(GO) run ./benchmark

# Each workload for one second through benchmark/run.sh, the command
# BENCHMARK.json declares, then one iteration of every testing.B benchmark.
bench-smoke:
	for w in raise_mem commit_durable paged_mixed remote_push; do \
		bash benchmark/run.sh --workload $$w --seconds 1 --trace 0 || exit 1; \
	done
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/...

# A/B run of BASE against the working tree (PAIRS alternating sets per side,
# default 3), judged by `go run ./benchmark -compare`; see dev/bench/gate.sh.
BASE ?= HEAD
bench-gate:
	bash dev/bench/gate.sh $(BASE)

# Regenerate the golden firing-trace matrix (operator x coupling x
# strategy) under internal/sim/testdata/golden/. The matrix test refuses
# to regenerate when the engine and the reference model disagree, so a
# golden can only change once both implementations agree on the new
# semantics; commit the diff with its justification.
golden:
	SENTINEL_GOLDEN_REGEN=1 $(GO) test -count=1 -run TestGoldenMatrix ./internal/sim/

# Size of the system as numbers: non-test, non-comment Go lines per
# internal/* package, per cmd/* command, for benchmark/ and in total, the
# mutexes Database declares and the fields Options has. A PR that claims to simplify quotes this before and after.
loc:
	@sh dev/loc.sh

clean:
	$(GO) clean
	rm -f sentinel.test
