# Developer / CI entry points. `make check` is the gate: vet, build, the
# full test suite under the race detector — the race flag exercises the DP's
# parallel relaxation, the departure-sweep pool, the minibatch sharding and
# the fleet planner — plus a one-iteration benchmark smoke pass so the
# figure harness and micro-benchmarks cannot silently rot.

GO ?= go

.PHONY: check vet lint build test race bench bench-smoke bench-fleet bench-dp bench-verify chaos chaos-cluster

check: vet lint build race bench-smoke bench-fleet bench-dp bench-verify chaos chaos-cluster

vet:
	$(GO) vet ./...

# Custom static-analysis suite (internal/lint via cmd/evlint), twelve
# analyzers: context plumbing on the request path, unit-suffix hygiene,
# float equality, atomicity of shared counters, the flow-aware
# determinism/concurrency layer (detcheck, lockheld, goleak, errflow —
# DESIGN.md §14), and the interprocedural layer on call-graph summaries
# (puritycert, lockorder, ctxprop, hotalloc — DESIGN.md §15;
# `evlint -summaries` dumps the summary table). Exits non-zero on any
# unwaived finding; //lint:allow waivers are summarized on stderr.
# -max-wall keeps the suite honest about its own latency budget
# (exit 3 on breach).
lint:
	$(GO) run ./cmd/evlint -max-wall 180s ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Reproduction harness: every paper figure as a benchmark metric.
bench:
	$(GO) test -bench . -benchmem -run xxx .

# One iteration of every benchmark in the module: catches benchmarks that
# no longer compile or crash without paying for real measurements.
bench-smoke:
	$(GO) test -run - -bench . -benchtime 1x ./...

# Fleet-serving smoke: drive a simulated fleet through cmd/evload against
# an in-process 3-node cloudd cluster and emit the BENCH_fleet.json
# trajectory (per-node latency quantiles, DP-solve reuse from segment
# tables, and the cluster forward/fetch/failover counters — DESIGN.md
# §11, §13).
bench-fleet:
	$(GO) run ./cmd/evload -requests 96 -vehicles 12 -nodes 3 -out BENCH_fleet.json

# DP solver bench: time the Fig-6 queue-aware solve across the serving
# modes (scalar, AVX2 kernels, coarse-to-fine fast path, DESIGN.md §12)
# and emit the BENCH_dp.json artifact with speedups and parity evidence.
bench-dp:
	$(GO) run ./cmd/evbench -out BENCH_dp.json dp

# Serving benchmark self-tests: servebench is its own module (it pins the
# repo through a replace directive), so ./... above never reaches it. Its
# tests run the benchmark's input generator and plan verifier against the
# live dp and cloud packages, so a change that would break the benchmark
# fails here first.
bench-verify:
	cd servebench && $(GO) vet . && $(GO) test .

# Robustness smoke: the fault-injected chaos tests (degradation ladder,
# shedding + client retry, panic recovery, coalescing under cancellation)
# plus the DP cancellation contract, all under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Ctx|Cancel|Shed|Degrade|Graceful|Drain' \
		./internal/cloud ./internal/dp ./cmd/cloudd

# Cluster robustness smoke (DESIGN.md §13): the membership primitives
# (ring, failure detector, breaker) plus the multi-node partition/kill
# chaos tests and the readiness/drain lifecycle, under the race detector.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'Cluster|Ready|Retry' \
		./internal/cloud ./cmd/cloudd ./cmd/evload
