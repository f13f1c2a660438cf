# BookLeaf-in-Go build and test entry points.
#
# tier1 is the correctness gate every change must keep green. It
# includes bench-check: the benchmark harness under bench/ is a module of
# its own that go build ./... does not compile, so tier1 compiles, vets
# and tests it too — a change that deletes an exported internal/ name
# the harness calls fails here, not in the benchmark.
# tier2-fault runs the parallel / fault-injection / checkpoint matrix
# under the race detector — slower, but it is the tier that exercises
# the abort paths, rollback-retry and the checkpoint and preemption
# parks with real goroutine interleavings. The one-rank tests
# (Serial, OneRank, History) are in it: a one-rank run is a goroutine
# rank, a typhon.Comm and the status reduction like any other.
# tier2-par races the threading substrate and the hydro kernels at
# several GOMAXPROCS settings, so the persistent worker pool's
# spin-then-park handshake is exercised under a starved scheduler
# (GOMAXPROCS=1: workers never spin), the host's, and an
# oversubscribed one. The hydro package's reference battery
# (rewritten kernels vs the verbatim old loop bodies, the limiter-reuse
# and stale-limiter checks, at pools {1,2,4}) runs in it.
# tier2-ale races the parallel remap: the ale package's kernel suite
# (the bitwise comparison against the pre-rewrite reference bodies over
# mode x order x threads, whole-mesh and through a two-rank split's
# exchange hooks, the failure contract, CSR round-trip, smoothed
# rank-independence, zero-alloc pins at several pool sizes) plus the
# driver-level seed-fidelity thread sweep, the remap failure path
# across ranks and the rollback-across-remap recovery regression.
# tier2-supervise races the rank-supervision layer: the supervise
# package's classification/ladder unit suite plus the end-to-end
# fault-class x ranks {1,2,4,7} sweep — replacement from the
# in-memory Memento, transient epoch retry, ladder exhaustion with a
# final checkpoint, and online elastic repartitioning (grow, shrink
# and same-count re-decomposition of the moved mesh).
# tier2-equiv races the equivalence matrix (equivalence_test.go): every
# thread, rank x partitioner, renumbering, fuse, scatter, checkpoint
# cadence and resume cell on Lagrangian, Eulerian and smoothed decks,
# and the decompositions where a rank owns elements and no node, each
# held to its contract by one comparator.
# tier2-fuse races the hydro zero-alloc and timer pins at a 4-thread
# scheduler — the suite that guards the default fused step path (the
# fused-vs-unfused cells are in tier2-equiv).
# tier2-order races the mesh-locality layer: the order package's
# permutation property suite (round-trip, first-touch node renumbering,
# Hilbert/RCM validity) and the set-up pipeline under it — connectivity
# derivation and the decomposition against their map-based references —
# and, ten times, the per-rank concurrent fleet construction against a
# serial build. The driver-level renumbering cells are in tier2-equiv.
# tier2-serve races the serving layer end to end: the bleaf-served job
# API over httptest — submit→poll→result bitwise parity with a direct
# run, malformed-deck 400s, cancel slot reclamation, N concurrent jobs
# on two workers with a whitebox worker-count probe,
# priority preemption with bitwise-identical resume (serial and
# ranks=2 decks), admission-control boundary arithmetic and the
# streaming metrics endpoint.
# tier2-durable races the durability layer: the restart-recovery
# matrix (crash mid-run after a periodic spill, crash with queued
# work, graceful-shutdown park — serial and ranks=2, all bitwise
# against uninterrupted runs), calibration and terminal-state
# persistence (done results served byte-identical from their result
# files across a restart), damaged result files, result-file cleanup
# on eviction, the flat memory of retained done jobs,
# journal-corruption recovery, the per-leg spill cadence, per-client
# quota 429s, fair queue ordering and a rejected submit's fair tag.
# tier2-list guards the name filters of the targets above: it lists
# the tests of each filtered package set once (go test -list) and fails
# on any alternative of a -run pattern that selects no test, so a
# deleted or renamed test cannot leave a target that passes by running
# nothing.
# tier2-race runs the FULL tier-1 suite under the race detector at a
# starved and an oversubscribed scheduler — the whole-program
# complement to tier2-fault's targeted matrix, catching races in code
# the fault-injection name filter never reaches (obs counters, probe
# reductions, trace writers).
# shape asks the compiler whether the scalar helpers the per-element
# sweeps are built from still fit its inline budget (TestCompilerShape's
# committed list, keyed to the toolchain it was read from): an edit that
# pushes one out of line fails here, with the cost, before it reaches a
# benchmark. Tier 2: it shells out to go build -gcflags=-m=2.
# paper-scale runs the paper's problem size once: Sod on a 1024x1024
# mesh (Table II's million elements), Hilbert-reordered and unfused, for
# a fixed step count at ranks 1 and 2, each in a fresh process, and logs
# wall time, peak RSS, bytes per element and the per-kernel shares
# EXPERIMENTS.md sets beside Table II. Tier 2: under a minute, up to
# ~1 GB resident.
# tables-all runs bleaf-tables -all and checks it prints every
# artefact's header (TestTablesAll). Tier 2: -all includes -real, whose
# host runs take seconds; tier1 checks each other flag's header alone.
# bench-check vets and tests the benchmark harness under bench/ (about
# 2 s); tier1 depends on it, so it runs before any change to internal/
# lands.
# fuzz gives the deck-parser and HTTP-submission fuzz targets a short
# budget each; lengthen with FUZZTIME=5m for a real session.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet tier1 tier2-fault tier2-par tier2-ale tier2-supervise tier2-equiv tier2-fuse tier2-order tier2-serve tier2-durable tier2-list tier2-race shape paper-scale tables-all test bench-check fuzz clean

# The -run filters of the tier-2 targets, shared with tier2-list.
RUN_FAULT    := Parallel|Serial|OneRank|History|Rollback|Checkpoint|Resume|Abort|Injected|Truncated|Dropped|Delayed|Corrupted
RUN_ALE      := RemapSeedFixture|RollbackAcrossRemapStepRecovers|ParallelFailureWithRemap
RUN_SUP      := Supervise
RUN_EQUIV    := EquivalenceMatrix
RUN_FUSE_HY  := StepZeroAllocs|Timers
RUN_FLEET    := FleetConstruction
RUN_DURABLE  := Durable|Quota|FairOrdering|BadClient|TerminalJobPins|WatchHostile|DoneStatus|ResultFileDamage|ResultFilesFollowRetention|DoneJobMemoryFlat
RUN_CALIB    := Calibrator
RUN_SHAPE    := CompilerShape
RUN_PAPER    := PaperScale
RUN_TABLES   := TablesAll

all: build

build:
	$(GO) build ./...

# Static gate: vet plus gofmt drift. Part of tier1 so a formatting or
# vet regression fails the same gate a broken test does.
vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
	  echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

tier1: build vet bench-check
	$(GO) test ./...

tier2-fault:
	$(GO) test -race ./... -run '$(RUN_FAULT)' -count=1

tier2-par:
	GOMAXPROCS=1 $(GO) test -race ./internal/par ./internal/hydro -count=1
	GOMAXPROCS=2 $(GO) test -race ./internal/par ./internal/hydro -count=1
	GOMAXPROCS=8 $(GO) test -race ./internal/par ./internal/hydro -count=1

tier2-ale:
	$(GO) test -race ./internal/ale -count=1
	$(GO) test -race . -run '$(RUN_ALE)' -count=1

tier2-supervise:
	$(GO) test -race ./internal/supervise -count=1
	$(GO) test -race . -run '$(RUN_SUP)' -count=1

tier2-equiv:
	$(GO) test -race . -run '$(RUN_EQUIV)' -count=1

tier2-fuse:
	GOMAXPROCS=4 $(GO) test -race ./internal/hydro -run '$(RUN_FUSE_HY)' -count=1

tier2-order:
	$(GO) test -race ./internal/order ./internal/mesh ./internal/partition -count=1
	$(GO) test -race . -run '$(RUN_FLEET)' -count=10

tier2-serve:
	$(GO) test -race ./internal/serve -count=1

tier2-durable:
	$(GO) test -race ./internal/serve -run '$(RUN_DURABLE)' -count=1
	$(GO) test -race ./internal/machine -run '$(RUN_CALIB)' -count=1

# Each spec is packages=pattern; every |-alternative must name a test.
tier2-list:
	@status=0; \
	for spec in './...=$(RUN_FAULT)' '.=$(RUN_ALE)|$(RUN_SUP)|$(RUN_EQUIV)|$(RUN_FLEET)|$(RUN_SHAPE)|$(RUN_PAPER)' \
	    './internal/hydro=$(RUN_FUSE_HY)' './internal/serve=$(RUN_DURABLE)' './internal/machine=$(RUN_CALIB)' './cmd/bleaf-tables=$(RUN_TABLES)'; do \
	  pkgs=$${spec%%=*}; names=$$($(GO) test -list . $$pkgs | grep -E '^(Test|Example|Fuzz)') || status=1; \
	  for alt in $$(echo "$${spec#*=}" | tr '|' ' '); do \
	    echo "$$names" | grep -qE "$$alt" || { echo "tier2-list: -run '$$alt' selects no test in $$pkgs"; status=1; }; \
	  done; \
	done; exit $$status

tier2-race:
	GOMAXPROCS=1 $(GO) test -race ./... -count=1
	GOMAXPROCS=8 $(GO) test -race ./... -count=1

shape:
	BOOKLEAF_SHAPE=1 $(GO) test . -run '$(RUN_SHAPE)' -count=1 -v

paper-scale:
	BOOKLEAF_PAPER_SCALE=1 $(GO) test . -run '^Test$(RUN_PAPER)$$' -count=1 -v -timeout 30m

tables-all:
	BOOKLEAF_TABLES_ALL=1 $(GO) test ./cmd/bleaf-tables -run '$(RUN_TABLES)' -count=1 -v

test: tier1 tier2-list tier2-fault tier2-par tier2-ale tier2-supervise tier2-equiv tier2-fuse tier2-order tier2-serve tier2-durable tier2-race shape tables-all

# Native fuzzing: the deck parser (seed corpus: decks/ plus the
# regression inputs under internal/config/testdata/fuzz), the
# bleaf-served HTTP submission path (AdmitOnly server, so the fuzzer
# explores the parse/predict/admit surface — headers included —
# without running hydro), durable-journal replay (arbitrary bytes
# as the on-disk journal: recover what parses, never panic), and
# checkpoint reads (any single-bit flip of a valid dump is an error).
fuzz:
	$(GO) test -fuzz=FuzzParseDeck -fuzztime=$(FUZZTIME) ./internal/config
	$(GO) test -fuzz=FuzzSubmitDeck -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -fuzz=FuzzCheckpointRead -fuzztime=$(FUZZTIME) ./internal/checkpoint

bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

clean:
	$(GO) clean ./...
