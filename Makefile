# CoStar-Go development targets. `make race` is part of tier-1 verification:
# the concurrent SLL DFA cache and session API are continuously raced.

GO ?= go

.PHONY: all build test race short-race stress bench perf-gate serve-smoke alloc-guard fuzz-smoke vet lint lint-baseline vet-grammars

all: build test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector (GOMAXPROCS raised so single-core CI
# still interleaves goroutines aggressively).
race:
	GOMAXPROCS=8 $(GO) test -race ./...

# Quick raced smoke for pre-commit: the packages that own concurrent state.
short-race:
	GOMAXPROCS=8 $(GO) test -race -short . ./internal/prediction ./internal/parser

# Robustness stress: the fault-injection differential suite, cancellation
# and batch-drain tests, and the governor tests, all under the race
# detector with aggressive GOMAXPROCS (DESIGN.md §5e).
stress:
	GOMAXPROCS=16 $(GO) test -race -count=2 \
		-run 'Fault|Cancel|Context|Limits|Panic|Sticky|Governor|Drain|Admission' \
		. ./internal/faultinject ./internal/machine ./internal/parser ./internal/source ./internal/serve

bench:
	$(GO) test -bench=. -benchmem .

# The wall-clock gates, kept out of `go test ./...` because a ratio of two
# clocks on a shared host is not a deterministic check. The perfgate build
# tag selects the test files that hold them (never under -race); -p 1 keeps
# the packages from timing each other. Each gate logs its measured ratio
# next to its bound. Performance numbers themselves
# come from perfbench: bash perfbench/run.sh --workload W (perfbench/README.md).
perf-gate:
	$(GO) test -tags perfgate -count=1 -p 1 -v \
		-run '^(TestFasterThanVerified|TestScalingSmoke|TestColdStartGate|TestRecoverOverheadGate|TestFig9Linearity|TestFig10Slowdown|TestFig11WarmUp)$$' \
		./internal/allstar ./internal/languages ./internal/bench

# End-to-end daemon smoke: boot the real binary on a compiled artifact,
# fire concurrent clean + broken + oversized requests, assert the
# health/metrics surface, and verify SIGTERM drains to exit 0.
serve-smoke:
	sh scripts/serve-smoke.sh

# Allocation-regression guards: warm parses must stay under their fixed
# allocs/token ceilings (plain build), and the pooled-reuse lifetime tests
# must stay clean under the race detector (where the ceilings self-skip).
alloc-guard:
	$(GO) test -run 'TestAllocGuard' -count=1 .
	GOMAXPROCS=8 $(GO) test -race -count=1 \
		-run 'TestAllocGuard|TestPooled|TestAborted|TestArena|TestSlab' \
		. ./internal/parser ./internal/arena

# Short fuzz smoke. One invocation per target because -fuzz must match
# exactly one: the stream/slice equivalence contract (chunked reads through
# the incremental lexer agree with batch lexing on arbitrary bytes), the
# static grammar verifier (never panics, deterministic, Certify agrees with
# the report's Certifiable verdict), and the fault-injection pipeline
# (fuzzer-chosen fault schedules always yield a well-formed result), and the
# artifact decoder (arbitrary bytes never panic; valid decodes re-encode
# canonically and never realize silently uncertified), and the recovery
# driver (fuzzer-mutated inputs: recover-off stays bit-identical, recovered
# results partition the input and respect the repair budget).
fuzz-smoke:
	$(GO) test -fuzz=FuzzStreamEquivalence -fuzztime=20s -run=FuzzStreamEquivalence .
	$(GO) test -fuzz=FuzzGrammarLint -fuzztime=20s -run=FuzzGrammarLint .
	$(GO) test -fuzz=FuzzFaultInjection -fuzztime=20s -run=FuzzFaultInjection .
	$(GO) test -fuzz=FuzzArtifactDecode -fuzztime=20s -run=FuzzArtifactDecode ./internal/artifact
	$(GO) test -fuzz=FuzzRecover -fuzztime=20s -run=FuzzRecover .

vet:
	$(GO) vet ./...

# Repo-specific static analyzers (tools/analyzers) bundled in cmd/costar-lint:
# the syntactic table guards (immutablecompiled, cowedges, diagliterals) and
# the typed contract checkers (scratchescape, windowalias, governortick,
# lockorder) that prove the DESIGN.md §5 lifetime/aliasing/tick/lock
# invariants. Two passes: the standalone run is the strict gate (full source
# type resolution, baseline-filtered, exits non-zero on any fresh finding);
# the `go vet -vettool` pass exercises the unitchecker protocol CI editors
# use. The checked-in lint.baseline must stay empty — fix or
# `//costar:allow <analyzer> -- <why>` new findings instead of baselining
# them (lint-baseline exists for incremental adoption of future analyzers).
lint:
	$(GO) build -o bin/costar-lint ./cmd/costar-lint
	./bin/costar-lint -baseline=lint.baseline ./...
	COSTAR_LINT_BASELINE=$(CURDIR)/lint.baseline $(GO) vet -vettool=$(CURDIR)/bin/costar-lint ./...

# Regenerate lint.baseline from current findings. For bootstrapping a new
# analyzer only; the committed baseline is expected to be empty and CI
# guards that.
lint-baseline:
	$(GO) build -o bin/costar-lint ./cmd/costar-lint
	./bin/costar-lint -baseline=lint.baseline -write-baseline ./...

# Statically verify every bundled grammar: the four built-in languages and
# the example grammars must all be diagnostic-free and certify.
vet-grammars:
	$(GO) run ./cmd/costar vet -lang json
	$(GO) run ./cmd/costar vet -lang xml
	$(GO) run ./cmd/costar vet -lang dot
	$(GO) run ./cmd/costar vet -lang python
	$(GO) run ./cmd/costar vet examples/grammars/calc.g4 examples/grammars/lists.bnf
