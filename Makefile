# Developer / CI entry points. `make check` is the gate: gofmt, vet, build, the
# full test suite under the race detector — the race flag exercises the DP's
# parallel relaxation, the departure-sweep pool, the minibatch sharding and
# the fleet planner — plus a one-iteration benchmark smoke pass so the
# figure harness and micro-benchmarks cannot silently rot.

GO ?= go

.PHONY: check fmt vet kernel-fma lint build test race bench bench-smoke bench-dp bench-verify chaos chaos-cluster fuzz

# The DP solver bench runs here too, so its parity and ε checks gate, but it
# writes under the git-ignored .bench_build/: only a deliberate
# `make bench-dp` rewrites the committed BENCH_dp.json.
check: fmt vet lint build race bench-smoke bench-verify chaos chaos-cluster fuzz
	mkdir -p .bench_build
	$(GO) run ./cmd/evbench -out .bench_build/BENCH_dp.json dp

# Formatting gate: fails listing every file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# The second pass type-checks the non-amd64 build (kernels_noasm.go's
# stubs must track every asm kernel's name and signature); kernel-fma then
# checks that build's code for fused multiply-adds.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(MAKE) --no-print-directory kernel-fma

# The lane kernels' Go references promise separate roundings, never a fused
# multiply-add (kernels.go): the AVX2 kernels round every product, and so
# must the reference on every architecture. The rest of the solver keeps
# the same promise, and so does every in-module package it calls (`go list
# -deps ./internal/dp`: the EV model, queue windows, profiles), so an arm64
# node builds the same tables, windows, fingerprints and plans as an amd64
# one. arm64 fuses x*y+z unless an explicit float64 conversion rounds the
# product, so this fails on any FMADD/FMSUB/FNMADD/FNMSUB in any function
# of the arm64 build of those packages, naming each function, and if either
# lane-kernel symbol (relaxEvalGo, improveFilterGo) is missing from the
# disassembly.
kernel-fma:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for p in $$($(GO) list -deps -f '{{if .Module}}{{.ImportPath}}{{end}}' ./internal/dp); do \
		GOARCH=arm64 $(GO) build -o "$$tmp/pkg.a" "$$p" && $(GO) tool objdump "$$tmp/pkg.a" >> "$$tmp/dis" || exit 1; \
	done; \
	grep -q 'TEXT.*dp\.relaxEvalGo(SB)' "$$tmp/dis" && grep -q 'TEXT.*dp\.improveFilterGo(SB)' "$$tmp/dis" || \
		{ echo "kernel-fma: could not disassemble the arm64 lane kernels"; exit 1; }; \
	if awk '/^TEXT/ { fn = $$2 } /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[DS][[:space:]]/ { print fn, $$1; n++ } END { exit n == 0 }' "$$tmp/dis"; then \
		echo "kernel-fma: fused multiply-add in the arm64 build of internal/dp or a package it imports"; exit 1; fi

# Custom static-analysis suite (internal/lint via cmd/evlint), six
# analyzers: context plumbing on the request path (ctxcheck), unit-suffix
# hygiene (unitcheck), float equality (floateq), map-order/rand/clock
# determinism and wire-boundary errors (detcheck, errflow — DESIGN.md
# §14), and solver purity certified over call-graph summaries (puritycert
# — DESIGN.md §15; `evlint -summaries` dumps the summary table). Exits
# non-zero on any unwaived finding; //lint:allow waivers are summarized
# on stderr.
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

# DP solver bench: time the Fig-6 queue-aware solve across the serving
# modes (scalar, AVX2 kernels, the coarse-grid ladder rung's
# dp.OptimizeCoarseCtx at factor 3 and corridor 2·3·Δv, and a warm
# segment-table stitch; DESIGN.md §12) and rewrite the committed
# BENCH_dp.json with speedups and parity evidence.
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
# shedding + client retry, panic recovery, coalescing under cancellation,
# racing first hits on one cache entry's encoded-hit memo) plus the DP
# cancellation contract, all under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Ctx|Cancel|Shed|Degrade|Graceful|Drain|FirstHit' \
		./internal/cloud ./internal/dp ./cmd/cloudd

# Cluster robustness smoke (DESIGN.md §13): the membership primitives
# (ring, failure detector) plus the multi-node partition/kill chaos tests,
# a hedged fetch delivering past a slow owner link, single-versus-batch
# servedBy parity, the rule that self-cancelled fetches are not failed
# fetches, heartbeat validation and the readiness/drain lifecycle, under
# the race detector.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'Cluster|Ready|Retry' \
		./internal/cloud ./cmd/cloudd

# Fuzz for 10 s each: the one decoder that takes a payload from a peer
# (decodeTables: gob + dp.ImportRouteTables), the flat table codec inside
# it (dp.TablesWire's UnmarshalBinary: decode and re-encode to the same
# bytes, allocation bounded by the input), and the improvement filter
# kernel (improveFilter: AVX2 against the Go reference and the written
# definition, penalty floor included). Their seed corpora also run in every
# plain `go test`. Minimizing a new input is capped at 1 s: the minimizer
# tries cuts quadratic in the input's length and holds a worker while it
# does, which could otherwise eat the whole 10 s window.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTables$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cloud
	$(GO) test -run '^$$' -fuzz '^FuzzTablesWire$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/dp
	$(GO) test -run '^$$' -fuzz '^FuzzImproveFilter$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/dp
