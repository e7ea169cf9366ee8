# BehavIoT build/test/verify entry points. CI (.github/workflows/ci.yml)
# runs every target below; `make check` is the full local equivalent.

GO ?= go

.PHONY: all build test race vet lint fmt-check check clean \
	bench bench-json bench-ratchet bench-e2e loc experiments-quick \
	experiments-expectations fuzz-smoke \
	fleet-soak fault-soak crash-soak-fleet

# Date stamp for benchmark artifacts (UTC, override with BENCH_DATE=).
BENCH_DATE ?= $(shell date -u +%F)

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the unit and integration test suite
test:
	$(GO) test ./...

## race: run the test suite under the race detector (includes the
## dnsdb/behaviotd concurrency stress tests and the parallel
## dataset/experiment pipeline; the experiments replay is slow under
## -race, hence the generous timeout)
race:
	$(GO) test -race -timeout 45m ./...

## vet: run go vet's standard checks
vet:
	$(GO) vet ./...

## lint: run behaviotlint, the project static-analysis suite
## (determinism, floateq, errcheck, lockguard, maprange);
## exit 1 on findings, 2 when a package does not type-check. Packages
## load one after another and the stdlib is type-checked from
## $GOROOT/src on every run (about 3 s).
lint:
	$(GO) run ./cmd/behaviotlint ./...

## fmt-check: fail if any file is not gofmt-formatted
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## bench: run every benchmark once (smoke: one iteration each, with
## allocation stats)
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem ./...

## bench-json: run the benchmark smoke pass and archive the results as
## BENCH_<date>.json via cmd/benchjson
bench-json:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem ./... | \
		$(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json

## bench-ratchet: run the checkpoint-bytes benchmark at a fixed
## iteration count (it writes real store generations to disk) and the
## period detector's with -benchmem, and ratchet both against the
## committed BENCH_baseline.json: ckptB/op for the first, allocs/op for
## the second (one reused dsp.Detector; only what every call allocates
## is left). Both metrics are constants on every machine and the
## comparison is exact: one byte of delta-chain growth fails, as would
## an allocs/op increase or a benchmark vanishing.
## The fresh report lands in BENCH_ratchet.json for CI to archive.
## After a deliberate change, re-baseline with:
## cp BENCH_ratchet.json BENCH_baseline.json
BENCH_CKPT_ITERS ?= 64
bench-ratchet:
	{ $(GO) test -run '^$$' -bench '^BenchmarkCheckpointBytes$$' \
		-benchtime=$(BENCH_CKPT_ITERS)x ./internal/modelstore/; \
	  $(GO) test -run '^$$' -bench '^BenchmarkDetectPeriods$$' -benchmem \
		-benchtime=20x ./internal/dsp/; } | \
		$(GO) run ./cmd/benchjson -out BENCH_ratchet.json -compare BENCH_baseline.json

## bench-e2e: smoke-run the end-to-end load rig (bench/, the repo's
## benchmark): build cmd/behaviotd, launch it as a -fleet child, pace
## all three workloads at it at smoke size for 2 s each and check every
## event-log and feed line against the in-process reference. Exit code
## is the rig's own (0 valid run, 1 invalid run or failed check, 2
## usage); the full result lands in .bench_build/bench-e2e.json for CI
## to archive. It proves the rig and the daemon still fit together — the
## numbers from a 2 s smoke on a shared runner are not measurements;
## see bench/README.md for how to take those.
bench-e2e:
	$(GO) run ./bench --quick --seconds 2 --out .bench_build/bench-e2e.json

## loc: non-test, non-testdata Go lines per top-level directory and in
## total — the count every [simplicity] PR quotes
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[2] : "."; by[d] += $$1; all += $$1 } \
			END { for (d in by) printf "%7d %s\n", by[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", all }'

## experiments-quick: regenerate every table and figure at reduced scale
## with deterministic stdout (timings go to stderr; the recipe is
## silenced so `make experiments-quick > out.txt` captures only the
## tables, which is exactly what the CI diff job does). Training the
## quick-scale lab is part of the run (a few seconds).
experiments-quick:
	@$(GO) run ./cmd/experiments -run all -quick

## experiments-expectations: refresh the checked-in reduced-scale
## expectations that CI diffs against
experiments-expectations:
	$(GO) run ./cmd/experiments -run all -quick > internal/experiments/testdata/quick_expected.txt

## fuzz-smoke: run every native fuzz target briefly. The targets are
## found, not listed: every `func Fuzz...` declared in a _test.go file,
## one invocation each (go test -fuzz accepts one target per run), so a
## new fuzzer runs in CI without a Makefile edit. Longer local runs:
## go test -fuzz=FuzzDecode -fuzztime=60s ./internal/netparse/
FUZZTIME ?= 20s
fuzz-smoke:
	@set -e; \
	for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzzing $$t ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) $$(dirname $$f); \
		done; \
	done

## fleet-soak: the multi-tenant soak gate, all under -race. Two halves:
## the in-process oracles (100 tenants replaying concurrently must
## produce byte-identical event logs and snapshots to single-tenant
## runs, across shard counts 1/4/NumCPU; 16 tenants sharing one trained
## model through 5 ms checkpoints, a Restart and a Remove must too, and
## leave the model unwritten), and a real behaviotd
## subprocess hosting 120 homes over a unix socket that gets SIGTERMed
## while half its sources are mid-stream — it must sever ingest, drain
## every accepted record, land a final checkpoint per tenant, exit 0,
## and reconcile its counter sums with what the sources sent. -count=1
## forces fresh runs.
fleet-soak:
	$(GO) test -race -run 'TestFleetSoak' -count=1 -timeout 20m -v \
		./internal/fleet/ ./cmd/behaviotd/

## fault-soak: the fleet supervision gate, all under -race. Injected
## storage faults (a path-scoped write-failing store) must degrade only
## the faulted tenant, surface on /metrics and /healthz, and heal
## through the housekeeper's backoff-paced retry once the disk comes
## back — with the store's CRC manifest walk showing no lost
## generations. An induced panic inside one tenant's feed path must
## quarantine exactly that tenant (every neighbor byte-identical to its
## single-tenant reference run), reject its ingest distinctly, and
## recover through POST /tenants/{id}/restart from the last durable
## checkpoint, with the crash-loop budget capping repeated restarts.
## Set BEHAVIOT_SOAK_DIR to keep artifacts (event logs, stores) from
## failing runs for upload; -count=1 forces fresh runs.
fault-soak:
	$(GO) test -race -run 'TestFaultSoak' -count=1 -timeout 20m -v \
		./internal/fleet/

## crash-soak-fleet: the whole-fleet SIGKILL durability gate, under
## -race. A 50-tenant behaviotd with differential checkpoints
## (-store-full-every 4) is SIGKILLed twice mid-ingest — once while a
## fault injector tears the fleet's first delta-payload write — and
## restarted with -resume; sources recover their cursor from each
## tenant's /status and resend the remainder. Every relaunch must load
## the stored model instead of training. Event logs and materialized
## streaming state must come out byte-identical to an uninterrupted
## reference fleet, -verify-store must find every newest delta chain and
## the model intact, and no tenant may take a resume fallback. The
## in-process half checks that the same workload checkpointed
## differentially writes deltas that materialize byte-identical to
## full-every-time. The same gate covers the fleet of one: a single-home
## behaviotd replaying a capture is SIGKILLed mid-write between
## checkpoints, and another SIGTERMed mid-capture; each restarted with
## -resume must end with an event log and final snapshots byte-identical
## to an uninterrupted run, and a feeder stopped mid-feed must checkpoint
## a cursor equal to what its monitor consumed. Set BEHAVIOT_SOAK_DIR to
## keep artifacts from failing runs for upload; -count=1 forces fresh
## runs.
crash-soak-fleet:
	$(GO) test -race -run 'TestCrashSoakFleet|TestDeltaCheckpointBytesBudget|TestCrashRecoveryEquivalence|TestSigtermResumeEquivalence|TestShutdownDrainsFinalCheckpoint' \
		-count=1 -timeout 20m -v ./cmd/behaviotd/ ./internal/fleet/

## check: everything CI runs
check: build vet fmt-check lint test race

clean:
	$(GO) clean ./...
	rm -f BENCH_ratchet.json
