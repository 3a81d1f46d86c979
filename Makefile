GO ?= go

.PHONY: build vet test race race-sched short bench bench-malid bench-smoke figures lint trace-smoke trace-golden serve-smoke fuzz-smoke verify

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 30s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# The parallel engine executes work-groups concurrently; the race
# detector must stay green. -short skips only the paper-scale shape
# regression (already covered by `make test`), which under the race
# detector outlasts the default test timeout on small hosts.
race:
	$(GO) test -race -short -timeout 30m ./...

# The command-DAG scheduler is the concurrency hot spot: run its full
# test suite (not -short) under the race detector on every verify.
race-sched:
	$(GO) test -race -count=1 ./internal/sched

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) test -run xxx -bench BenchmarkEngine -benchtime 200x -count 3 ./internal/vm \
		| $(GO) run ./cmd/benchjson > BENCH_vm_v2.json
	@echo "wrote BENCH_vm_v2.json (three-tier VM engine baseline; diff against the committed copy)"

# Cheap benchmark smoke for CI: one iteration of the VM engine
# benchmarks under all three engines, of the compiled engine's
# per-kernel compile cost and of the observed device benchmarks (whole
# RunWith enqueues with the cache models attached), so a broken bench
# harness fails verify rather than the next baseline refresh.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkCompileKernel' -benchtime 1x ./internal/vm >/dev/null
	$(GO) test -run xxx -bench BenchmarkRunWith -benchtime 1x ./internal/cpu ./internal/mali >/dev/null

# Static checks: Go hygiene, the repository self-lint (no unexplained
# map iteration or time.Now in deterministic paths — cmd/repolint),
# and the kernel linter over every tracked .cl file. The golden corpus
# under testdata/analysis is excluded — it intentionally contains
# positive findings and is locked down by the analyzer's golden tests
# instead. The nine benchmarks' kernels are embedded in Go and linted
# by TestKernelsLintClean.
lint: vet
	@fmtout="$$(gofmt -l . 2>/dev/null)"; \
	if [ -n "$$fmtout" ]; then echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) run ./cmd/repolint
	@for f in $$(git ls-files '*.cl' | grep -v '^testdata/analysis/' | grep -v '^internal/clc/opt/testdata/'); do \
		echo "clc -analyze -Werror $$f"; \
		$(GO) run ./cmd/clc -analyze -Werror -D REAL=float "$$f" || exit 1; \
	done

figures:
	$(GO) run ./cmd/figures

# Observability smoke test: run one small benchmark with trace +
# metrics export and validate the JSON with tracecheck.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/malisim -bench vecop -scale 0.05 -trace "$$tmp/trace.json" -metrics-out "$$tmp/metrics.json" >/dev/null && \
	$(GO) run ./cmd/tracecheck -metrics "$$tmp/metrics.json" "$$tmp/trace.json" && \
	$(GO) run ./cmd/malisim -bench vecop -scale 0.05 -async -trace "$$tmp/trace_async.json" >/dev/null && \
	$(GO) run ./cmd/tracecheck "$$tmp/trace_async.json"

# Serving-layer smoke test: drive an in-process malid daemon with the
# nine-benchmark mix over real HTTP under the race detector. The
# driver exits non-zero on any failed job, any served body that is not
# byte-identical to the in-process run, or a repeat-traffic cache hit
# rate at or below 90%.
serve-smoke:
	$(GO) run -race ./cmd/malid-load -n 360 -c 8 -tenants 3 -min-hit-rate 0.9 >/dev/null

# Refresh the committed malid throughput baseline (larger stream, no
# race detector — this one is about the numbers).
bench-malid:
	$(GO) run ./cmd/malid-load -n 1800 -c 16 -tenants 4 -min-hit-rate 0.9 \
		| $(GO) run ./cmd/benchjson > BENCH_malid.json
	@echo "wrote BENCH_malid.json (malid serving baseline; diff against the committed copy)"

# Validate the committed golden multi-queue trace (two out-of-order
# queues with cross-queue wait-lists; locked byte-exact by
# TestTraceMultiQueueGolden).
trace-golden:
	$(GO) run ./cmd/tracecheck internal/cl/testdata/trace_multiqueue.json

# Short native-fuzzing pass over every fuzz target ($(FUZZTIME) each):
# the 3-way engine differential (interp oracle vs compiled vs lanes),
# the command-DAG scheduler vs its serial oracle, the profile algebra
# and the kernel analyzer.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzEngineEquivalence$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run xxx -fuzz '^FuzzCommandDAG$$' -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run xxx -fuzz '^FuzzProfileAddCommutes$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run xxx -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME) ./internal/clc/analysis
	$(GO) test -run xxx -fuzz '^FuzzSolver$$' -fuzztime $(FUZZTIME) ./internal/clc/analysis/dataflow
	$(GO) test -run xxx -fuzz '^FuzzTransformEquivalence$$' -fuzztime $(FUZZTIME) ./internal/clc/opt
	$(GO) test -run xxx -fuzz '^FuzzAutotune$$' -fuzztime $(FUZZTIME) ./internal/tune

# Full verification: what CI runs. The -short race pass includes the
# engine differential cross-section; `make test` runs the full 3-way
# matrix (interp oracle vs compiled vs lanes) plus the codegen backend
# snapshot tests.
verify: build lint test race race-sched trace-smoke trace-golden serve-smoke bench-smoke fuzz-smoke
