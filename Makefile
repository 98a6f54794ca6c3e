# Developer entry points. `make check` is the full pre-merge gate:
# vet + build + race-enabled tests + a fuzz smoke pass over the wire
# codec. Tier-1 CI runs `make test`.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race determinism bench-build fuzz-smoke bench-smoke corpus corpus-check cover check clean

all: build

build:
	$(GO) build ./...

# The second pass type-checks the non-amd64 build: the portable kernels
# (internal/nn, internal/simdpack kernels_generic.go) compile nowhere else.
# The last step fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists: $$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The harness package replays every experiment; under the race detector
# it needs more than `go test`'s default 10-minute package timeout.
#
# `race` and `cover` both run every test, so the gate tests need no
# targets of their own: the overload sweep (harness TestOverloadSweepSmoke),
# observability over a live fixture (rpc TestObsSmoke), the seeded chaos
# schedule on the replicated twin (harness TestChaosSmoke), the
# autoscaling and hedging curves (harness TestAutoscaleSweepCurves,
# TestHedgingSweepCurves), tail anatomy and burn-rate paging (harness
# TestAnatomy*, internal/obs/...), and data integrity under rot, quarantine
# and repair (harness TestIntegritySmoke, TestIntegrityDeterministic).
race:
	$(GO) test -race -timeout 45m ./...

# Every golden test (TestReplayGolden, TestBuildShardsGolden,
# TestGenerateGolden, TestPredictTraceGolden, TestTrainGolden,
# TestExtrasGolden, TestSnapshotGolden: output digests pinned before an
# optimization or refactor) runs twice in one process, at one P and at
# the default, so run-to-run or scheduling nondeterminism (a map-order
# dependence, a racy reduction) fails here instead of needing a hand
# diff of cottage-bench output to find it.
determinism:
	GOMAXPROCS=1 $(GO) test -count=2 -run 'Golden$$' ./...
	$(GO) test -count=2 -run 'Golden$$' ./...

# The repository benchmark (bench/, BENCHMARK.json) is its own module
# with `replace cottage => ../`, so the root ./... patterns skip it. It
# is frozen between benchmark PRs and calls internal/rpc's exported API
# directly: vetting and testing it here makes an API change that breaks
# it fail the gate instead of the next benchmark run.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Each fuzz target gets a short budget; any panic in the frame reader or
# the wire decoder behind it (internal/rpc frame.go, codec.go) is a
# remote crash, so this runs on every check. The model decoders' seeds
# are kilobytes of gob, and Go's minimizer spends up to a minute on each
# new input of that size (quadratic subset removal), so their targets
# cap minimization at 1 s to leave the budget for mutation.
fuzz-smoke:
	$(GO) test ./internal/rpc/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rpc/ -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rpc/ -run '^$$' -fuzz FuzzValidateRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replica/ -run '^$$' -fuzz FuzzReplicaSelect -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run '^$$' -fuzz FuzzAnytimeDeadline -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run '^$$' -fuzz FuzzShardDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run '^$$' -fuzz FuzzPackedPostingsDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/predict/ -run '^$$' -fuzz FuzzDecodeISNPredictor -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# Quick perf sanity on the two predictor hot paths (the ones with hard
# ns/op acceptance bars), on one pass of fleet inference over a trace
# (internal/predict BenchmarkPredictTrace, where a Cottage twin replay
# spends most of its CPU), on one twin replay under Cottage and one under
# exhaustive search (internal/core, the work twin_qps times) and one
# replayed query (internal/engine), and on a live Cottage query with and without
# its predictions remembered (internal/rpc, loopback fixture; the pair
# asserts it really timed hits and misses), and on the build path: one
# quick-scale setup (internal/harness: corpus, parallel shard builds,
# training) and one corpus synthesis (internal/textgen); keeps check fast
# while catching gross regressions. End-to-end numbers come from the
# socket-level benchmark (bench/run.sh, BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig7QualityPredictor|Fig9BudgetDetermination' \
		-benchmem -benchtime 1x -timeout 10m .
	$(GO) test -run '^$$' -bench '^BenchmarkPredictTrace$$' -benchmem -benchtime 1x ./internal/predict
	$(GO) test -run '^$$' -bench 'RunCottage|RunExhaustive' -benchmem -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkRunQuery$$' -benchmem -benchtime 1x ./internal/engine
	$(GO) test -run '^$$' -bench 'SearchCottageMemo' -benchmem -benchtime 200x ./internal/rpc
	$(GO) test -run '^$$' -bench '^BenchmarkQuickBuild$$' -benchmem -benchtime 1x ./internal/harness
	$(GO) test -run '^$$' -bench '^BenchmarkGenerate$$' -benchmem -benchtime 1x ./internal/textgen

# Regenerate the checked-in fuzz seed corpus after wire-format changes.
corpus:
	$(GO) run ./tools/gencorpus

# The checked-in corpus is what gencorpus writes: regenerate it and fail
# on any difference from the git index (a wire change with stale seeds).
# The shard seeds used to churn on every run, because Builder.Add ranges
# over a map and terms were numbered in first-seen order; Finalize now
# numbers them in lexical order, so two builds encode the same bytes.
corpus-check: corpus
	git diff --exit-code --stat -- '*/testdata/fuzz/*'
	@untracked=$$(git ls-files --others --exclude-standard -- '*/testdata/fuzz/*'); \
		if [ -n "$$untracked" ]; then echo "untracked corpus files: $$untracked"; exit 1; fi

# Per-package statement coverage with a hard floor on the query
# evaluation core, the capacity planner, and the integrity supervisor:
# the anytime/block-max machinery is exactness-critical, the SIMD
# unpack kernels feed every evaluator, the autoscale loop sizes the
# fleet, and the scrub/quarantine/repair plane is the last line
# against serving rotted postings, so
# internal/{search,index,simdpack,autoscale,integrity} must stay at
# >= $(COVERFLOOR)%.
COVERFLOOR ?= 85
cover:
	$(GO) test -cover ./... | $(GO) run ./tools/covergate -floor $(COVERFLOOR) \
		-require cottage/internal/search,cottage/internal/index,cottage/internal/simdpack,cottage/internal/autoscale,cottage/internal/integrity

check: vet build bench-build corpus-check determinism race fuzz-smoke bench-smoke cover

clean:
	$(GO) clean ./...
