GO ?= go

.PHONY: all check build vet fmt-check lint lint-stats test bench bench-record bench-canonical-smoke fabric-smoke faultline-smoke fuzz-smoke world-smoke configs-smoke live-smoke route-smoke race cover experiments examples clean

all: build vet lint test

check: build vet fmt-check lint test race examples bench-canonical-smoke fabric-smoke faultline-smoke fuzz-smoke world-smoke configs-smoke live-smoke route-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file (fixtures included) is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repo-specific invariant suite; see DESIGN.md's invariant catalog.
lint:
	$(GO) run ./cmd/gosenseilint -stats

# Per-rule finding/suppression counts as JSON (lint-stats.json, uploaded as
# a CI artifact): a suppression count drifting up is the early signal that
# "intentional" exceptions are multiplying. TestModuleIsLintClean pins two of
# them exactly: lock-blocking at 1 and unreferenced at 9.
lint-stats:
	$(GO) run ./cmd/gosenseilint -rule-stats | tee lint-stats.json

# -shuffle=on randomizes test order within each package, so accidental
# order dependencies (shared globals, leaked state) fail loudly.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/...

# The canonical benchmark (BENCHMARK.json, cmd/bench/README.md): four
# paper-shaped workloads, eight end-to-end metrics, a per-layer ledger.
bench:
	$(GO) run ./cmd/bench

# One point of the benchmark's trajectory (ROADMAP item 3a): the full -out
# report — header, every repetition's values — of each of the four canonical
# workloads' timed pass, joined into BENCH_<PR>.json under the commit it was
# measured on. The binary is built first, not run through `go run`, so that
# each report's own header carries the build's vcs.revision.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; sep=""; \
	commit=$$(git rev-parse HEAD 2>/dev/null || echo unknown); \
	if [ -n "$$(git status --porcelain 2>/dev/null)" ]; then commit="$$commit+uncommitted"; fi; \
	$(GO) build -o "$$tmp/bench" ./cmd/bench; \
	printf '{\n"id": "BENCH_%s",\n"commit": "%s",\n"workloads": {\n' "$(PR)" "$$commit" > "$$tmp/record"; \
	for w in insitu-stats insitu-render-tcp intransit-delta live-fanout; do \
		"$$tmp/bench" -workload $$w -out "$$tmp/$$w.json" > "$$tmp/log" 2>&1 || { cat "$$tmp/log"; exit 1; }; \
		tail -n 1 "$$tmp/log"; \
		printf '%s"%s": ' "$$sep" "$$w" >> "$$tmp/record"; cat "$$tmp/$$w.json" >> "$$tmp/record"; sep=","; \
	done; \
	printf '}\n}\n' >> "$$tmp/record"; mv "$$tmp/record" BENCH_$(PR).json; \
	echo "bench-record: wrote BENCH_$(PR).json"

# The four canonical workloads at smoke length. Each checks its output bit
# for bit against the serial reference, so this is a cross-stack test of the
# session under staging, live and world — not a timing.
bench-canonical-smoke:
	for w in insitu-stats insitu-render-tcp intransit-delta live-fanout; do \
		$(GO) run ./cmd/bench -quick -workload $$w || exit 1; \
	done

# The fan-out scale contract end to end over real connections: 200 wire
# viewers (10% read-delayed) against a paced publish sequence; enforces flat
# publish cost, universal convergence on the final frame, and server-side
# credit gating of slow viewers (skip-to-newest, not backlog).
live-smoke:
	$(GO) run ./cmd/live-load -viewers 200 -frames 20 -check
	$(GO) run ./cmd/live-load -viewers 200 -frames 20 -network tcp -check

# The multi-process deployment end to end: gosensei-run spawns N single-rank
# OS processes over TCP (and N goroutine ranks over loopback) and runs a
# configuration on them — a histogram + autocorrelation pair at 4 ranks, a
# catalyst slice (binary-swap compositing) at 3 and 4 — and each must print
# the stdout and write the files of the in-process run, byte for byte; the
# rankkill leg kills a rank mid-run and requires exit code 3 plus a
# replayable fault token.
world-smoke:
	$(GO) test -race -count=1 ./internal/world/
	$(GO) test -count=1 -run 'TestWorldSmoke' .

# Every shipped configuration that needs no second process, run by the
# launcher from a scratch directory on goroutine ranks and on a loopback
# world (3 ranks: the non-power-of-two shapes of every compositor and
# aggregator): what configs/ ships must load strictly, run to exit 0, and
# print the same stdout on both. routed-histogram.xml is exempt from the
# comparison: the router's decision log prints wall-clock estimates.
configs-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; root=$$(pwd); \
	$(GO) build -o "$$tmp/gosensei-run" ./cmd/gosensei-run; \
	for f in $$(grep -L 'transport="flexpath"' configs/*.xml); do \
		for t in proc loopback; do \
			mkdir -p "$$tmp/$$t"; \
			(cd "$$tmp/$$t" && "$$tmp/gosensei-run" -np 3 -cells 12 -steps 4 -transport $$t -config "$$root/$$f" > stdout.txt 2> stderr.txt) \
				|| { cat "$$tmp/$$t/stdout.txt" "$$tmp/$$t/stderr.txt"; echo "configs-smoke: $$f failed on $$t"; exit 1; }; \
		done; \
		[ "$$f" = configs/routed-histogram.xml ] || cmp "$$tmp/proc/stdout.txt" "$$tmp/loopback/stdout.txt" \
			|| { echo "configs-smoke: $$f printed different stdout on proc and loopback"; exit 1; }; \
	done; \
	echo "configs-smoke: $$(grep -L 'transport="flexpath"' configs/*.xml | wc -l) configurations ran on proc and loopback"

# The wire end to end under the race detector: staging fan-in, backpressure,
# endpoint restart, and the two-executable TCP deployment — `gosensei-run
# -deck decks/endpoint.deck -config …` serving `gosensei-run -config
# configs/intransit-writer.xml` (itself a tcp world), an endpoint killed
# mid-run by its -faults schedule and restarted, a retry window that expires,
# the post hoc replay deck against the in situ histogram — plus the
# refusals the launcher owes a bad command line or deck.
fabric-smoke:
	$(GO) test -race -count=1 -run 'TestClientHubStagingFanIn|TestClientBackpressure|TestClientRidesOutEndpointRestart' ./internal/fabric/
	$(GO) test -count=1 -run 'TestCmdEndpointSmoke|TestCmdEndpointTwoProcessTCP|TestCmdEndpointReconnect|TestCmdEndpointRetryWindowExpires|TestCmdPosthocSmoke|TestCmdRefusals' .

# The metamorphic fault-injection suite under the race detector: 13 seeded
# schedules per pipeline (staging + post hoc = 26 total), each required to
# produce bit-identical analysis output to the fault-free run. Any failure
# prints a GOSENSEI_FAULT_SCHEDULE=<seed:spec> token that replays it. Then
# the launcher's own fault plumbing: a library plan fires its io faults,
# refuses fabric faults it has no wire for, and shares no fault state with
# a plan running beside it.
faultline-smoke:
	GOSENSEI_FAULT_N=13 $(GO) test -race -count=1 -run 'TestMetamorphic|TestRepro|TestFatal' ./internal/faultline/
	$(GO) test -race -count=1 -run 'TestIOFaultsReachALibraryPlan|TestFabricFaultsNeedThisPlansWire|TestConcurrentPlansShareNoFaults' ./internal/launch/

# The adaptive-routing contract end to end: the workload-shift experiment
# with -check requires the router to switch at least once, finish with zero
# post-switch budget violations, and strictly beat every static backend on
# total violations. Calibration is pinned off so the decision log is a pure
# function of the model.
route-smoke:
	$(GO) run ./cmd/experiments -shift -check -calibrate=false

# A short fuzz pass over the seven wire- and file-facing decoders — fabric
# frames and codecs, BP containers and staged payloads, extracts, live frame
# payloads, mpi envelopes — and the launcher's deck front door, seeded from
# the checked-in corpora under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzFrameDecode -fuzztime 10s ./internal/fabric/
	$(GO) test -run XXX -fuzz FuzzCodecDecode -fuzztime 10s ./internal/fabric/
	$(GO) test -run XXX -fuzz FuzzDecode -fuzztime 10s ./internal/adios/
	$(GO) test -run XXX -fuzz FuzzStagedPayloadSniff -fuzztime 10s ./internal/adios/
	$(GO) test -run XXX -fuzz FuzzExtractSniff -fuzztime 10s ./internal/extracts/
	$(GO) test -run XXX -fuzz FuzzFramePayloadDecode -fuzztime 10s ./internal/live/
	$(GO) test -run XXX -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/mpi/
	$(GO) test -run XXX -fuzz FuzzLoadDeck -fuzztime 10s ./cmd/gosensei-run/

cover:
	$(GO) test -cover ./...

experiments:
	$(GO) run ./cmd/experiments -run all

# Every example end to end, from a scratch directory so that nothing lands in
# the tree: the two example programs, and the four deck + config pairs on
# the launcher, each run from a copy of its inputs (deck and XML, no frames
# left by an earlier run) so that its session= and output-dir= resolve there.
# Each must exit 0, and together they must write exactly the 45 PNGs they
# write today (Catalyst structured and unstructured, Libsim TML, Nyx, and the
# live hub's frames all go through the shared image tail), whose digest —
# sha256 over the sorted per-file sha256s — is pinned.
examples:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for e in live-steering quickstart; do \
		$(GO) build -o "$$tmp/bin/$$e" ./examples/$$e; \
		(cd "$$tmp" && ./bin/$$e > $$e.log 2>&1) || { cat "$$tmp/$$e.log"; echo "examples: $$e failed"; exit 1; }; \
	done; \
	$(GO) build -o "$$tmp/bin/gosensei-run" ./cmd/gosensei-run; \
	deck() { d=$$1; shift; mkdir "$$tmp/$$d"; cp examples/$$d/sim.deck examples/$$d/*.xml "$$tmp/$$d"; \
		(cd "$$tmp/$$d" && ../bin/gosensei-run -deck sim.deck -config sensei.xml "$$@" > run.log 2>&1) \
			|| { cat "$$tmp/$$d/run.log"; echo "examples: $$d failed"; exit 1; }; }; \
	deck oscillator-insitu -np 4 -cells 32 -steps 12; \
	deck phasta-slice -np 4 -cells 26 -steps 16; \
	deck leslie-rendering -np 4 -cells 24 -steps 25; \
	deck nyx-histogram -np 4 -cells 24 -steps 8; \
	n=$$(find "$$tmp" -name '*.png' | wc -l); \
	if [ "$$n" -ne 45 ]; then echo "examples: $$n PNGs written, want 45"; exit 1; fi; \
	digest=$$(find "$$tmp" -name '*.png' -exec sha256sum {} + | cut -d' ' -f1 | sort | sha256sum | cut -d' ' -f1); \
	if [ "$$digest" != 7909eeb1b2645938e13f2bab7e93a48d08613267a847573e9c6a724aa431a00f ]; then \
		echo "examples: PNG digest $$digest, want 7909eeb1b2645938e13f2bab7e93a48d08613267a847573e9c6a724aa431a00f"; exit 1; fi; \
	echo "examples: 2 programs and 4 decks ran, $$n PNGs, digest $$digest"

clean:
	rm -rf frames bp-out cinema-store blocks replay-blocks live-frames examples/*/*-frames
	rm -f lint-stats.json
