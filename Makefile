GO ?= go

.PHONY: build cross test test-386 vet vet-386 fmt-check staticcheck race bench bench-kernels bench-fleet bench-precision bench-compare bench-coop bench-scenarios bench-pressure fuzz-smoke deps-check layerbench-check check

build:
	$(GO) build ./...

# Cross-compile smoke for the 32-bit Arm edge targets the paper deploys
# to (Pi Pico toolchains, armv7 Linux). Catches 64-bit-only assumptions
# — int-sized constants, alignment — that amd64 CI would never see.
cross:
	GOOS=linux GOARCH=arm $(GO) build ./...

test:
	$(GO) test ./...

# 32-bit tests, run natively (amd64 executes 386 binaries): the wire
# parser's bounds checks against int wrap-around, the serving tier
# behind it, and the pure-Go mat kernels every non-amd64 target falls
# back to. `cross` only builds for 32-bit Arm; this runs. The root
# package is left out: its golden fingerprints are pinned to amd64's
# assembly math.Exp, and 386's portable Go Exp differs in the last bits
# (DESIGN.md §8).
test-386:
	GOARCH=386 $(GO) test ./internal/... ./cmd/...

vet:
	$(GO) vet ./...

# vet as a 32-bit target: catches constants that overflow a 32-bit int.
vet-386:
	GOARCH=386 $(GO) vet ./...

# Fails on any file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Deeper static analysis. Gated on the binary being installed so the
# gate still runs on boxes without it (CI installs it explicitly):
# `go install honnef.co/go/tools/cmd/staticcheck@latest`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The packages with concurrency: the worker pool (workpool) behind the
# concurrent experiments (eval) and the sharded multi-stream fleet.
# model and core are the state every concurrent member owns; the root
# package holds the concurrent Fleet integration tests. wire/shard/router
# are the distributed serve tier — the router test is the end-to-end
# shard migration integration test, so it runs under the detector too.
# pressure holds the governor that ticks inside the shard's loop.
race:
	$(GO) test -race ./internal/workpool/... ./internal/model/... ./internal/eval/... ./internal/core/... ./internal/fleet/... ./internal/wire/... ./internal/shard/... ./internal/router/... ./internal/pressure/... .

# Kernel and hot-path micro-benchmarks at the detector's real shapes.
bench-kernels:
	$(GO) test -bench=. -benchmem ./internal/mat/ ./internal/model/ ./internal/oselm/

# Paper-table macro benchmarks (regenerates every artifact end to end).
bench:
	$(GO) test -bench=. -benchmem .

# Multi-stream fleet throughput: NSL-KDD replayed as K interleaved
# streams, exercising the parallel path and a non-default shard count.
bench-fleet:
	$(GO) run ./cmd/driftbench fleet -streams 64 -shards 16 -parallel 0
	$(GO) run ./cmd/driftbench fleet -streams 8 -shards 4 -parallel 4

# Numeric-backend comparison: f64/f32/q16 scoring throughput and
# retained memory over the same replay, per-sample and through the
# batched GEMM path (batch 1/8/64), written as the BENCH_6 artifact.
# `go test -bench=ScorePrecision .` is the benchstat-friendly twin.
bench-precision:
	$(GO) run ./cmd/driftbench precision -json BENCH_6.json

# Before/after comparison of the scoring hot path for perf PRs:
# benchmarks the working tree against BENCH_BASE (default HEAD) with
# -count=$(BENCH_COUNT) repetitions and diffs via benchstat. Warn-only
# by design — a missing benchstat binary, an unbenchmarkable base, or a
# regression all print rather than fail, because micro-benchmark noise
# on shared CI runners must never block a merge; read the report.
# Outputs land in $(BENCH_DIR) (bench-old.txt, bench-new.txt,
# benchstat.txt) for artifact upload.
BENCH_BASE ?= HEAD
BENCH_COUNT ?= 10
BENCH_PATTERN ?= 'BenchmarkScoreBatch|BenchmarkScorePrecision'
BENCH_DIR ?= bench-out
bench-compare:
	@mkdir -p $(BENCH_DIR)
	@$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -count=$(BENCH_COUNT) \
		./internal/oselm/ . > $(BENCH_DIR)/bench-new.txt || \
		{ cat $(BENCH_DIR)/bench-new.txt; echo "bench-compare: head bench failed (warn-only)"; }
	@base=$$(mktemp -d) && \
	if git worktree add -q $$base/tree $(BENCH_BASE) 2>/dev/null; then \
		( cd $$base/tree && $(GO) test -run '^$$' -bench $(BENCH_PATTERN) -count=$(BENCH_COUNT) \
			./internal/oselm/ . > $(CURDIR)/$(BENCH_DIR)/bench-old.txt ) || \
			echo "bench-compare: base bench failed (warn-only; base may predate these benches)"; \
		git worktree remove --force $$base/tree; \
	else \
		echo "bench-compare: cannot materialise base $(BENCH_BASE) (warn-only)"; \
	fi; \
	rm -rf $$base
	@if command -v benchstat >/dev/null 2>&1 && [ -s $(BENCH_DIR)/bench-old.txt ]; then \
		benchstat $(BENCH_DIR)/bench-old.txt $(BENCH_DIR)/bench-new.txt | tee $(BENCH_DIR)/benchstat.txt; \
	else \
		echo "benchstat unavailable or no base run; raw results in $(BENCH_DIR)/ (go install golang.org/x/perf/cmd/benchstat@latest)" | tee $(BENCH_DIR)/benchstat.txt; \
	fi

# Cooperative vs per-stream drift recovery on the cooling-fan
# scenarios: cold rebuild against warm-seeding from the closed-form
# merge of adapted cohort peers, written as the BENCH_8 artifact. Exits
# non-zero if warm recovery converged slower than cold (both-zero
# passes: nothing left to beat when cold is already instantaneous).
bench-coop:
	$(GO) run ./cmd/driftbench coop -json BENCH_8.json

# Label-delay scenario matrix: {delay × budget × drift type × detector
# mode} on the cooling-fan streams — unsupervised baseline, hybrid
# DDM fusion fed late labels, and the reoccurring-drift model pool —
# written as the BENCH_9 artifact. Exits non-zero unless the pooled
# restore beats the cold rebuild on reoccurring drift and stays a
# bystander on sudden drift.
bench-scenarios:
	$(GO) run ./cmd/driftbench scenarios -json BENCH_9.json

# Adaptive-capacity forced-degradation matrix: each Table 2/3 stream
# replayed at every degradation level the governor can force (f64
# baseline, demoted-f32, demoted-q16), reporting throughput and
# detection-quality deltas as the BENCH_10 artifact. Exits non-zero if
# the golden gate fails — a demote→promote excursion must leave the
# full-precision path bit-exactly untouched.
bench-pressure:
	$(GO) run ./cmd/driftbench pressure -json BENCH_10.json

# Short fuzz passes over every deserialiser: corrupt or truncated
# artifacts must fail with ErrBadFormat, never panic; untrusted wire
# payloads must fail with ErrProtocol, never panic. `go test -fuzz`
# takes one target per invocation, hence one run per format. Input
# minimisation is capped at 1s so a new interesting input cannot eat the
# run's budget.
FUZZ = $(GO) test -fuzztime=10s -fuzzminimizetime=1s
fuzz-smoke:
	$(FUZZ) -fuzz=FuzzLoad ./internal/oselm/
	$(FUZZ) -fuzz=FuzzLoadState ./internal/core/
	$(FUZZ) -fuzz=FuzzLoadPool ./internal/pool/
	$(FUZZ) -fuzz=FuzzLoadQ16 ./internal/fixed/
	$(FUZZ) -fuzz=FuzzMergeStates ./internal/model/
	$(FUZZ) -fuzz=FuzzLoadMonitor .
	$(FUZZ) -fuzz=FuzzLoadFleet .
	$(FUZZ) -fuzz=FuzzParseBatch ./internal/wire/
	$(FUZZ) -fuzz=FuzzParseResults ./internal/wire/
	$(FUZZ) -fuzz=FuzzParseControl ./internal/wire/

# The serving tier must not link the research harness: fails if the
# shard, router or fleet packages depend on the experiment drivers,
# dataset surrogates, baseline detectors, device model, stream
# generators or model pool.
SERVE_PKGS := ./internal/shard ./internal/router ./internal/fleet
HARNESS_PKGS := internal/eval internal/datasets internal/detectors internal/device internal/stream internal/pool
deps-check:
	@bad=$$($(GO) list -deps $(SERVE_PKGS) | grep -E "^edgedrift/($$(echo $(HARNESS_PKGS) | tr ' ' '|'))(/|$$)"); \
	if [ -n "$$bad" ]; then echo "serving tier links the research harness:"; echo "$$bad"; exit 1; fi

# layerbench is a module of its own (`replace edgedrift => ../`), so
# the root build, vet and test never compile it. It calls internal
# APIs directly (model, oselm, core, shard, router, wire): vet it and
# run its short tests so a signature change breaks here, not only in a
# benchmark run.
layerbench-check:
	cd layerbench && $(GO) vet ./... && $(GO) test -short ./...

# The full pre-merge gate: tier-1 plus gofmt, the 32-bit Arm
# cross-compile, vet on amd64 and 386, the native 32-bit test run,
# static analysis, the race detector over the concurrent packages, a
# fuzz smoke over the artifact loaders and the wire parsers, the
# serving tier's dependency gate, and the layerbench module's vet and
# short tests.
check: build fmt-check cross vet vet-386 staticcheck deps-check layerbench-check test test-386 race fuzz-smoke
