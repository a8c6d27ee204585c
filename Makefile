# Build and verification targets. tier1 is the gate the roadmap tracks;
# tier2 adds vet, gofmt, the house static-analysis suite (nescheck, see
# DESIGN.md "Static analysis"), the race detector (the observability
# layer's concurrent ring buffer and histograms are exercised under -race, as
# is the cross-core eviction/shootdown test in internal/core), the
# depth-6 exhaustive-exploration smoke, and the benchmark/ module's smoke
# test (`benchmark-smoke`); tier3 is the differential
# model-checking pass: 5000 randomized schedules against the reference
# oracle, the full depth-8 exhaustive enumeration (`make modelcheck`), a
# short native-fuzz smoke over every Fuzz target in the module (see
# `fuzz-smoke`), plus a chaos-soak smoke (fault injection + self-healing
# supervision, see `make chaos`). See TESTING.md.

GO ?= go
SIMTEST_SCHEDULES ?= 5000
MODELCHECK_DEPTH ?= 8
FUZZTIME ?= 10s
CHAOS_SEED ?= 0xC0FFEE
CHAOS_OPS ?= 2000

ADVERSARY_SEED ?= 0xad5eed

.PHONY: all build tier1 vet lint fmt-check race tier2 tier3 fuzz-smoke chaos chaos-smoke adversary adversary-smoke modelcheck modelcheck-smoke perf-gate baselines bench benchmark-smoke clean

all: tier1

build:
	$(GO) build ./...

tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs nescheck, the house static-analysis suite: seven analyzers
# (determinism, boundary, errcheck, spanpair, plus the interprocedural
# secretflow, atomicsafety, and lockgraph rules over the module-wide call
# graph) that enforce the simulator's own invariants at
# compile time. -stale-allows additionally fails on //nescheck:allow
# directives that no longer suppress anything. `go run ./cmd/nescheck -rules`
# prints the catalog; suppress a finding with //nescheck:allow <rule> <reason>.
lint:
	$(GO) run ./cmd/nescheck -stale-allows ./...

# fmt-check fails (listing the offenders) when any tracked Go file is not
# gofmt-clean; it never rewrites files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

tier2: vet fmt-check lint perf-gate modelcheck-smoke adversary-smoke bench benchmark-smoke
	$(GO) test -race ./...

# benchmark-smoke vets and tests the nested benchmark/ module, which
# `go test ./...` skips: its TestWorkloads runs every workload briefly and
# checks that no request fails and that the simulated metrics repeat run to
# run. The module builds against this checkout (its go.mod replaces
# nestedenclave with ../), so a change to an exported name it uses fails here.
benchmark-smoke:
	cd benchmark && export GOWORK=off GOPROXY=off && $(GO) vet . && $(GO) test -count=1 .

# perf-gate re-runs the headline experiments (table2, sqlservice, mlservice,
# switchless) and compares their simulated-cycle metrics — histogram
# means/counts, walk and paging counters, total cycles, and the gated extras
# (per-op ocall cycles on both paths, allocations per nested walk, ring
# occupancy) — against the committed baselines/ snapshots. Gated metrics are
# deterministic functions of the cost model and workloads, so the default 5%
# tolerance is pure headroom for intentional drift; regenerate baselines with
# `make baselines` when a cost-model change is deliberate (see
# EXPERIMENTS.md).
perf-gate:
	$(GO) run ./cmd/repro -gate baselines

baselines:
	$(GO) run ./cmd/repro -only table2,sqlservice,mlservice,switchless -json baselines

tier3:
	$(GO) vet ./...
	SIMTEST_SCHEDULES=$(SIMTEST_SCHEDULES) $(GO) test ./internal/simtest -run TestLockstepSchedules -v -count=1
	$(MAKE) modelcheck
	$(MAKE) fuzz-smoke
	$(MAKE) chaos-smoke
	$(MAKE) adversary

# modelcheck exhaustively enumerates every schedule at the 2-core x 2-slot
# scope up to MODELCHECK_DEPTH ops (default 8, ~1.5 minutes): each
# interleaving is diffed against the oracle and audited against the §VII-A
# invariants. Fails on any divergence (printing the ddmin-minimal schedule
# in the regress_test.go replay format) or if pruning falls below 50% of the
# branch candidates. See TESTING.md "Exhaustive model checking".
modelcheck:
	$(GO) run ./cmd/repro -exhaustive -mc-depth $(MODELCHECK_DEPTH)

# modelcheck-smoke is the depth-6 slice of the same enumeration (~10s),
# folded into tier2 alongside the explorer's own unit tests.
modelcheck-smoke:
	MODELCHECK_DEPTH=6 $(GO) test ./internal/simtest -run 'TestModelCheckSmoke$$' -count=1 -v

# fuzz-smoke runs every native fuzz target in the module for FUZZTIME each,
# found with `go test -list '^Fuzz'` rather than listed by hand, so a new
# fuzzer joins the smoke by existing.
fuzz-smoke:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list"; exit 1; }; \
	targets="$$(echo "$$list" | awk '/^Fuzz/ { names = names " " $$1 } /^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print $$2, a[i]; names = "" }')"; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	echo "$$targets" | while read -r pkg name; do \
		echo "fuzz-smoke: $$name ($$pkg)"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# chaos runs the deterministic fault-injection soak: the nested SQL service
# under DRAM bit flips, EPC-allocation failures, IPC loss/duplication/
# corruption, interrupt storms, and core stalls, with supervised self-healing
# recovery. Override CHAOS_SEED/CHAOS_OPS to replay or lengthen a run.
chaos:
	$(GO) run ./cmd/repro -chaos -seed $(CHAOS_SEED) -ops $(CHAOS_OPS)

# chaos-smoke is the short soak folded into tier3: ~30 seconds of wall clock
# spread across several seeds, each run asserting zero data loss and a clean
# invariant audit.
chaos-smoke:
	CHAOS_OPS=2000 $(GO) test ./internal/bench -run 'TestChaosSoak$$' -count=1 -v
	for seed in 0x1 0x2 0x3; do \
		$(GO) run ./cmd/repro -chaos -seed $$seed -ops 1500 || exit 1; \
	done

# adversary runs the malicious-kernel campaign: every attack strategy in
# internal/adversary's catalog executed end to end, each required to finish
# defended (invariants hold, data correct) or detected (typed error before
# wrong data). The scoreboard lists strategy x verdict x detection latency;
# replay any row with `repro -adversary -strategy S -seed N -ops K`. See
# TESTING.md "Adversarial kernel".
adversary:
	$(GO) run ./cmd/repro -adversary -seed $(ADVERSARY_SEED)
	for seed in 0x1 0x2 0x3; do \
		$(GO) run ./cmd/repro -adversary -seed $$seed || exit 1; \
	done

# adversary-smoke is the single-seed slice folded into tier2: the campaign,
# the byte-identical replay check, and the recorded golden scoreboard and
# transcripts, as Go tests.
adversary-smoke:
	$(GO) test ./internal/bench -run 'TestAttackCampaign$$|TestAttackReplayDeterminism$$|TestCampaignGolden$$' -count=1 -v

# bench runs the paper-experiment benchmarks (root package) once each, and
# the host-cost microbenchmarks (internal/bench: ECall, OCall, NECall,
# PageWalk, SwitchlessOCall, EPCFault — one evict-and-reload round trip —
# EPCFaultUnderPressure — one demand fault through the paging daemon's
# victim search, EWB and ELDU, with an enclave heap twice the EPC —
# LLCMiss — one 256 B write whose four lines all miss and evict dirty
# victims through the MEE — SQLQuery — one nested YCSB-A query through
# Table VI's service — and NewMachine — one sgx.New of SmallConfig and of
# DefaultConfig, whose B/op is a machine's host memory before it runs
# anything) with ns/op and allocs/op reporting.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='ECall|OCall|PageWalk|EPCFault|LLCMiss|SQLQuery|NewMachine' -benchtime=200x -run=^$$ ./internal/bench

clean:
	$(GO) clean ./...
