# Verification entry points. `make verify` is the gate every change
# must pass: vet, the project's own static-analysis suite (bomwvet),
# build, the full test suite, and the race detector over the concurrent
# packages (serving pipeline + HTTP server + the fault-injecting
# simulated runtime).

GO ?= go

.PHONY: verify build test vet lint lint-json lint-sarif race flake-sweep loc bench bench-json bench-guard smoke-cluster smoke-scenario smoke-chaos soak soak-deadline soak-cluster soak-chaos fuzz

verify: vet lint build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants go vet cannot see: virtual-clock
# discipline, lock scope, guarded counters, sentinel errors, context
# placement, atomic-access consistency, pool lifecycle, goroutine
# ownership, lock ordering. See internal/lint and DESIGN.md "Static
# analysis".
lint:
	$(GO) run ./cmd/bomwvet ./...

# Machine-readable findings for editors and CI annotations.
lint-json:
	$(GO) run ./cmd/bomwvet -json ./...

# SARIF 2.1.0 log for GitHub code-scanning annotations. The log is
# written even when findings exist (the `|| true` is NOT here: the
# target preserves bomwvet's exit code so `make lint-sarif` can gate
# too; CI redirects and uploads the file in a separate step).
lint-sarif:
	$(GO) run ./cmd/bomwvet -sarif ./... > bomwvet.sarif

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/cluster/... ./internal/server/... ./internal/trace/... ./internal/opencl/... ./internal/workload/...

# Flake sweep: the full suite ten times at 1, 2 and 8 procs, then the
# race gate. A test that fails here is flaky; fix its clock discipline
# or the bug it exposes. CI runs it on a schedule (flake-sweep.yml).
flake-sweep:
	$(GO) test -count=10 -cpu 1,2,8 ./...
	$(MAKE) race

# Non-test Go line count, the size figure the ROADMAP tracks: every
# *.go file except tests, testdata and the perfbench module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' \
		-not -path './perfbench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

BENCHTIME ?= 2s
bench:
	$(GO) test -run=NONE -bench=BenchmarkPipelineServe -benchtime=$(BENCHTIME) ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkClusterServe -benchtime=$(BENCHTIME) ./internal/cluster/

# Machine-readable throughput artifact (BENCH_pipeline.json): the same
# closed-loop workloads as the serve benchmarks, emitted as JSON for
# dashboards and regression tracking.
bench-json:
	$(GO) run ./cmd/benchjson

# Bench-regression gate: re-measure the 16-client closed-loop pipeline
# point and fail if it drops >20% below the committed baseline. On
# hardware other than the baseline's (CI runners), run with
# BENCHGUARD_FLAGS=-warn to report without failing.
BENCHGUARD_FLAGS ?=
bench-guard:
	$(GO) run ./cmd/benchguard $(BENCHGUARD_FLAGS)

# Cluster smoke drill (CI): an 8-node fleet under load survives one
# mid-run node kill — eviction, failover, no dropped futures.
smoke-cluster:
	$(GO) test -race -count=1 -run 'TestClusterSmoke' -v ./internal/cluster/

# Scenario smoke drill (CI): the MLPerf-style Server scenario offered
# open-loop to a live 4-node cluster under the race detector — every
# offered query accounted for, attainment sane.
smoke-scenario:
	$(GO) test -race -count=1 -run 'TestScenarioSmoke' -v ./internal/workload/scenario/

# Chaos smoke drill (CI): a 16-node fleet rides a seeded incident — 2
# flapping crash-window nodes + 2 scripted stragglers — under the race
# detector with hedging and straggler probation armed; every admitted
# future must resolve and the crash windows must be observed.
smoke-chaos:
	$(GO) test -race -count=1 -run 'TestChaosSmoke' -v ./internal/cluster/

# Failure-domain soak: overload + persistent device faults + mid-run
# recovery under the race detector (skipped by -short elsewhere).
soak:
	$(GO) test -race -count=1 -run 'TestSoak' -v ./internal/core/

# Deadline/overload soak: ≥2× saturation with mixed SLOs under the race
# detector — feasible SLOs must keep ≥95% attainment while infeasible
# and expired work is shed or culled.
soak-deadline:
	$(GO) test -race -count=1 -run 'TestSoakDeadlineOverload' -v ./internal/core/

# Fleet acceptance soak: 64 nodes, two mid-run kills, SLO attainment
# within 5 points of the no-fault baseline.
soak-cluster:
	$(GO) test -count=1 -run 'TestSoakClusterTwoKills' -v ./internal/cluster/

# Chaos acceptance soak: the same 16-node seeded incident at full
# horizon, no race detector — feasible-SLO attainment must stay within
# 5 points of the no-fault baseline with nonzero hedge wins and
# straggler migrations, and zero lost futures.
soak-chaos:
	$(GO) test -count=1 -run 'TestSoakChaos' -v ./internal/cluster/

# Short-budget fuzzing of the binary decoders (state files, traces).
# Seeds always run in plain `make test`; this target mutates beyond them.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadState -fuzztime $(FUZZTIME) ./internal/core/
	for pkg in ./internal/trace/ ./internal/workload/; do \
		for f in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz $$f -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done
