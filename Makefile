# Standard entry points; `make ci` is what a pre-merge check should run.
# The race detector matters here: the training/evaluation layer fans work
# out across goroutines (internal/parallel) and the serving layer hot-swaps
# models under live traffic.

GO ?= go

.PHONY: all build vet test race fuzz-smoke lint lint-baseline lint-selfcheck bench-pr3 bench-workers bench-smoke loadgen-smoke chaos-smoke soak-smoke pack-smoke fleet-smoke soak ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector. Slower (the detector costs ~5-10x),
# but it is the only gate that exercises the concurrent feature cache,
# parallel forest training and the serving hot-swap path for real races.
race:
	$(GO) test -race ./...

# Fuzz smoke: 15 s of native fuzzing per target.
# FuzzDetect decodes raw float64 bit patterns (NaN payloads, ±Inf, -0,
# subnormals) and checks Detect and HasChange against the sort-per-split
# reference kernel. FuzzForestFromBinary feeds arbitrary bytes to the
# SFF1 forest decoder and checks that an accepted forest predicts and
# explains without panicking, that its batch answers equal PredictProb's
# bit for bit, and that it re-encodes to a fixed point. Minimizing each
# newly interesting input is capped at 5 s (the default 60 s would spend
# the whole budget shrinking inputs). A failing input lands in the
# package's testdata/fuzz/<target> directory; commit it as a seed before
# fixing the bug it found.
# FuzzScoutpack and FuzzPackEnvelope reseal each mutated blob with a
# fresh sha256, so mutations reach the parsers behind the checksum: the
# SCPK sections, META and the SFF1 decoders (an accepted scoutpack must
# restore, predict under a full monitoring blackout and re-snapshot to a
# fixed point), and the SDP1 disk envelope (an accepted file must carry
# a valid scoutpack at the requested version and re-encode to the same
# Model).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDetect$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/ml/cpd
	$(GO) test -run '^$$' -fuzz '^FuzzForestFromBinary$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/ml/forest
	$(GO) test -run '^$$' -fuzz '^FuzzScoutpack$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPackEnvelope$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/serving

# The PR 3 kernel benchmarks (split finder, featurization, window
# aggregates, flat vs pointer inference, serving predict paths), kept
# runnable; results land in BENCH_PR3.json as before.
bench-pr3:
	( $(GO) test -bench 'BestSplit|Featurize|WindowStats' -benchtime 3x -run '^$$' . ; \
	  $(GO) test -bench 'PredictFlat$$|PredictPointer$$|PredictFlatSingle$$' -benchtime 200x -run '^$$' . ; \
	  $(GO) test -bench 'ServingPredict' -benchtime 20x -run '^$$' ./internal/serving ) \
		| $(GO) run ./cmd/benchjson > BENCH_PR3.json
	@cat BENCH_PR3.json

# Worker-count sweeps: compare ns/op between workers=1 and workers=4+ for
# the parallel-layer speedup (single-core machines will show parity).
bench-workers:
	$(GO) test -bench 'Workers' -benchtime 1x -run '^$$'

# Bench smoke: one iteration of every kernel benchmark, no output files —
# catches bitrot in the benchmark code itself without timing anything.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BestSplit|WindowStats|PredictFlat$$|PredictPointer$$' -benchtime 1x .

# Loadgen smoke: runs the load generator's request/report path in both
# modes against an in-process httptest server (no sockets, no timing) —
# catches drift between loadgen's payloads and the serving API.
loadgen-smoke:
	$(GO) test -run 'TestLoadgenSmoke' -count 1 ./cmd/loadgen

# Chaos smoke: bounded fault-injection pass under the race detector. The
# loadgen chaos rotation (malformed JSON, oversized bodies, mid-body
# disconnects) must draw zero 5xx, and the serving chaos tests (50%
# monitoring blackout, shedding, deadlines, panic recovery, deterministic
# degraded answers) must hold with the detector watching. The breaker
# state machine runs its transition table through both wrappers
# (faults.Breaker, faults.ReqBreaker), and a healthy world featurized
# through a hair-trigger per-dataset breaker must trip nothing.
chaos-smoke:
	$(GO) test -race -run 'TestLoadgenChaos' -count 1 ./cmd/loadgen
	$(GO) test -race -run 'TestChaos|TestShedding|TestPanicRecovery|TestRequestDeadline|TestDegradationOverHTTP' -count 1 ./internal/serving
	$(GO) test -race -run 'TestMachine|TestFeaturizeThroughBreaker' -count 1 ./internal/faults ./internal/core

# Soak smoke: a ~2s sustained run against an in-process server with
# sub-second /metrics scrapes — proves the soak loop, the Prometheus
# scrape parser and the SLO verdict math against the live exposition
# format, without booting a real daemon.
soak-smoke:
	$(GO) test -run 'TestLoadgenSoak|TestParseProm' -count 1 ./cmd/loadgen

# End-to-end soak: boots a real scoutd, drives sustained -soak traffic
# at it, and writes the SLO-judged report — client-side latency
# percentiles plus the server's own /metrics counters — to
# BENCH_PR6.json. Deliberately not part of `make ci` (it trains a model
# and times a real server); soak-smoke covers the plumbing there.
soak:
	$(GO) build -o /tmp/scouts-soak-scoutd ./cmd/scoutd
	@set -e; \
	/tmp/scouts-soak-scoutd -addr 127.0.0.1:8093 -days 30 -rate 6 -access-log & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8093/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	$(GO) run ./cmd/loadgen -url http://127.0.0.1:8093 -soak -mode batch -batch 32 \
		-seed 7 -days 30 -rate 6 -c 4 -duration 10s -scrape 1s -slo-p99 250 -out BENCH_PR6.json
	@cat BENCH_PR6.json

# Pack/inspect smoke: boots a tiny scoutd against an empty -store (it
# trains and publishes a scoutpack), then drives scoutctl inspect at the
# published file — the CLI surface of the DESIGN.md §12 model format,
# exercised end to end.
pack-smoke:
	$(GO) build -o /tmp/scouts-pack-scoutd ./cmd/scoutd
	$(GO) build -o /tmp/scouts-pack-scoutctl ./cmd/scoutctl
	@set -e; dir=$$(mktemp -d); \
	/tmp/scouts-pack-scoutd -addr 127.0.0.1:8094 -days 5 -rate 4 -store $$dir & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true; rm -rf $$dir" EXIT; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8094/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	/tmp/scouts-pack-scoutctl inspect $$dir/model-000001.pack

# Fleet smoke: the resilient-gateway kill test with real processes. The
# in-process halves (loadgen -fleet plumbing, the gateway's own kill
# test) run first under the race detector; then three scoutd replicas
# share one -store (the first boot trains and publishes, the other two
# load the same scoutpack), scoutgw fronts them, and loadgen -fleet
# SIGTERMs the middle replica two seconds into a six-second burst. The
# SLO is zero failed non-shed requests: every client answer is a 200, a
# 4xx, or an honored 429 — never a transport error or 5xx — with the
# gateway's retries/hedges/breaker trips reported in FLEET_SMOKE.json.
fleet-smoke:
	$(GO) test -race -run 'TestDriveHonors429|TestDriveSheds|TestJudgeFleet|TestLoadgenFleet' -count 1 ./cmd/loadgen
	$(GO) test -race -run 'TestFleetSurvivesReplicaKillMidBurst' -count 1 ./internal/gateway
	$(GO) build -o /tmp/scouts-fleet-scoutd ./cmd/scoutd
	$(GO) build -o /tmp/scouts-fleet-scoutgw ./cmd/scoutgw
	$(GO) build -o /tmp/scouts-fleet-loadgen ./cmd/loadgen
	@set -e; dir=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 $$pg 2>/dev/null || true; rm -rf $$dir' EXIT; \
	/tmp/scouts-fleet-scoutd -addr 127.0.0.1:8101 -days 5 -rate 4 -store $$dir & p1=$$!; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8101/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	/tmp/scouts-fleet-scoutd -addr 127.0.0.1:8102 -days 5 -rate 4 -store $$dir & p2=$$!; \
	/tmp/scouts-fleet-scoutd -addr 127.0.0.1:8103 -days 5 -rate 4 -store $$dir & p3=$$!; \
	for port in 8102 8103; do \
		for i in $$(seq 1 120); do \
			curl -fsS http://127.0.0.1:$$port/v1/health >/dev/null 2>&1 && break; \
			sleep 1; \
		done; \
	done; \
	/tmp/scouts-fleet-scoutgw -addr 127.0.0.1:8104 \
		-replica r1=phynet=http://127.0.0.1:8101 \
		-replica r2=phynet=http://127.0.0.1:8102 \
		-replica r3=phynet=http://127.0.0.1:8103 & pg=$$!; \
	for i in $$(seq 1 120); do \
		curl -fsS http://127.0.0.1:8104/v1/health >/dev/null 2>&1 && break; \
		sleep 1; \
	done; \
	/tmp/scouts-fleet-loadgen -url http://127.0.0.1:8104 -fleet -seed 7 -days 5 -rate 4 \
		-c 4 -duration 6s -kill-pid $$p2 -kill-after 2s -out FLEET_SMOKE.json
	@cat FLEET_SMOKE.json

# Project-specific static analysis (cmd/scoutlint): determinism, map
# iteration order, reflective sorts, hot-path allocations, lock hygiene,
# HTTP input hardening, plus the flow-sensitive suite (ctxflow, leak,
# atomicity, fsyncrename). Emits lint.sarif as a CI artifact and diffs
# findings against the committed lint.baseline.json: grandfathered
# findings are tracked, any NEW finding exits 1 and fails `make ci`.
lint:
	$(GO) run ./cmd/scoutlint -sarif lint.sarif -baseline lint.baseline.json ./...

# Regenerate the baseline (after fixing or deliberately grandfathering
# findings). Review the diff before committing: every entry is a defect
# the ratchet stops tracking as new.
lint-baseline:
	$(GO) run ./cmd/scoutlint -write-baseline lint.baseline.json ./...

# The linter linting itself: the CFG builder, dataflow engine and
# analyzers must come out clean under their own rules.
lint-selfcheck:
	$(GO) run ./cmd/scoutlint internal/lint

ci: vet lint lint-selfcheck build race fuzz-smoke bench-smoke loadgen-smoke chaos-smoke soak-smoke pack-smoke fleet-smoke

clean:
	$(GO) clean ./...
