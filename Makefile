# SummitScale build targets. Everything is stdlib-only Go; no external
# dependencies are fetched.

GO ?= go

.PHONY: all tier1 build vet fmt test race cross bench bench-json bench-check bench-floors trace chaos fuzz-smoke repro examples figures clean help

all: build vet test

help:
	@echo "Targets:"
	@echo "  all        build + vet + test"
	@echo "  tier1      build + vet + gofmt check + test + race + arm64 cross-build"
	@echo "             (the CI gate)"
	@echo "  bench      every benchmark with -benchmem"
	@echo "  bench-json hot-path benchmarks (RunAll, DAGSchedule, MDForces,"
	@echo "             TrainStepAlloc, TrainStepPhases, LAMBStep, Gemm, ObsHotPath, ChaosHotPath,"
	@echo "             ServeHotPath, ServeRun, ForestPredict, LatticeSweep,"
	@echo "             Sweep, CampaignHotPath, CheckpointDrain, SmallCNNLayers,"
	@echo "             AllReduceRing2x1330) at -cpu 1 -> BENCH_hotpath.json"
	@echo "  trace      RS2 campaign trace -> out.json (Chrome trace-event)"
	@echo "  chaos      every builtin adversarial scenario + invariant suite"
	@echo "  fuzz-smoke short fuzz pass over the scenario parser, the"
	@echo "             fault-trace generator, the serving admission queue,"
	@echo "             and the checkpoint loader"
	@echo "  bench-check rerun hot-path benchmarks at -cpu 1 and fail on >30%"
	@echo "             regression vs the committed BENCH_hotpath.json"
	@echo "  bench-floors kernel floor rules only (MDForces 1.2x,"
	@echo "             ServeHotPath batching 2x, CampaignHotPath 1.2x,"
	@echo "             CheckpointDrain async 1.5x at >=4 cores;"
	@echo "             GemmSIMD 3x and TrainStep allocs <=39 always),"
	@echo "             no baseline"
	@echo "  repro      full reproduction report (cmd/summit-repro)"
	@echo "  examples   run every example once"
	@echo "  figures    regenerate the paper figures and scaling curves as SVG"
	@echo "  clean      remove generated figures"

# Tier-1 gate: what CI (and the growth driver) holds the repo to.
tier1: build vet fmt test race cross

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt cleanliness: fail listing the offending files, fix nothing.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every amd64 runner takes the assembly GEMM and LAMB kernels, so only a
# build for another architecture compiles and vets the pure-Go fallbacks
# (internal/tensor/gemm_other.go, internal/optim/lamb_other.go), and the
# packages whose loops round each product on its own so that arm64 does
# not fuse multiply-adds (autograd's BatchNorm2D, data's ClimateImages).
cross:
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/optim/ ./internal/autograd/ ./internal/data/
	GOARCH=arm64 $(GO) build ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path numbers as JSON: the flat-vs-DAG experiment engine (plus the
# DAGSchedule cold/warm ablation), the sharded MD force kernel, the
# training-step allocation ceiling, train-wide's step split into its
# phases (forward, backward, gradient exchange, optimizer) and its LAMB
# step alone, each SmallCNN layer op's forward and forward+backward at
# train-cnn's shape, the GEMM kernel ablation (naive, row-stream, AVX2)
# and train-wide's dX product (transpose then multiply, or MatMulTB's
# strips), the obs instrumentation
# overhead, one full chaos scenario pass (compile the perfect-storm spec
# + drive every subsystem probe), the serving layer (the
# batched-vs-unbatched inference hot path plus a full simulated serving
# run), the two §V surrogate/simulation kernels under S6 and W1 (one
# random-forest prediction, one alloy Monte-Carlo sweep), RS1's Kurth
# checkpoint-interval sweep (BenchmarkSweep, named in full so that
# BenchmarkPlatformScalingSweep stays out), the benchmark-campaign
# evaluation pair, and train-cnn's latency-bound 2-rank ring allreduce.
# Both targets run at -cpu 1, the width BENCH_hotpath.json is recorded
# at: summit-bench refuses to compare runs at different widths.
BENCH_HOT = RunAll|DAGSchedule|MDForces|TrainStepAlloc|TrainStepPhases|LAMBStep|SmallCNNLayers|Gemm|ObsHotPath|ChaosHotPath|ServeHotPath|ServeRun|ForestPredict|LatticeSweep|BenchmarkSweep|CampaignHotPath|CheckpointDrain|AllReduceRing2x1330
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -cpu 1 ./... \
		| $(GO) run ./cmd/summit-bench > BENCH_hotpath.json
	@echo "wrote BENCH_hotpath.json"

# Regression gate: rerun the hot-path benchmarks at -cpu 1 and diff
# against the committed baseline; exits 1 beyond +-30% ns/op or
# allocs/op, or when a within-run floor breaks: the warm DAG engine must
# beat a cold run (RunAllParallel) >=100x at any core count, and the cold
# engine at -j 4 must beat -j 1 (RunAllSequential) >=1.5x from 4 recorded
# cores. Timings on shared runners are noisy, so CI runs this job
# non-blocking.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -cpu 1 ./... \
		| $(GO) run ./cmd/summit-bench -check BENCH_hotpath.json

# Kernel floor rules without a baseline: ratios within one fresh run
# (MD forces parallel >= 1.2x serial, serving micro-batch >= 2x
# single-row dispatch, campaign evaluation parallel >= 1.2x serial,
# async checkpoint drain >= 1.5x the synchronous stall — all only
# enforced when the run recorded >= 4 cores), the single-thread AVX2
# GEMM >= 3x the serial row-stream at any core count (skipped on hosts
# without AVX2), plus the deterministic TrainStepAlloc/scratch <= 39
# allocs/op ceiling. This is what CI's perf-smoke job runs: it works on
# any runner, even one whose core count differs from the committed
# baseline's.
bench-floors:
	$(GO) test -run '^$$' -bench 'Gemm|MDForces|TrainStepAlloc|ServeHotPath|CampaignHotPath|CheckpointDrain' -benchmem \
		./internal/tensor/ ./internal/md/ ./internal/ddl/ ./internal/serve/ ./internal/bench/ ./internal/checkpoint/ \
		| $(GO) run ./cmd/summit-bench -floors

# The §V resilience campaign's simulated-clock trace, viewable in
# chrome://tracing or Perfetto. Byte-deterministic across runs and -j.
trace:
	$(GO) run ./cmd/summit-repro -experiment RS2 -trace out.json -metrics >/dev/null
	@echo "wrote out.json"

# Every builtin adversarial scenario through all simulators, with the
# invariant suite (replay determinism, byte conservation, monotone
# degradation, policies load-bearing) after each run.
chaos:
	$(GO) run ./cmd/summit-chaos -scenario all -check

# Short native-fuzz pass over the inputs untrusted text reaches — the
# chaos scenario DSL parser, the fault-trace generator, and the
# checkpoint loader (arbitrary bytes must never load silently wrong) —
# plus the serving admission queue's bookkeeping invariants under
# arbitrary offer/release interleavings.
fuzz-smoke:
	$(GO) test ./internal/chaos/ -run '^$$' -fuzz FuzzParseScenario -fuzztime 10s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz FuzzTraceGenerate -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzAdmissionQueue -fuzztime 10s
	$(GO) test ./internal/checkpoint/ -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 10s

# Full reproduction report: every table/figure/study, paper vs measured.
repro:
	$(GO) run ./cmd/summit-repro

# One-shot run of every example.
examples:
	for d in examples/*/; do \
		[ -f $$d/main.go ] || continue; \
		echo "== $$d =="; \
		$(GO) run ./$$d || exit 1; \
	done

# Regenerate the paper's figures and the S1-S5 scaling curves as SVG
# under ./figures/.
figures:
	$(GO) run ./cmd/summit-report -svg figures

clean:
	rm -rf figures
