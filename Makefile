# Local targets mirror .github/workflows/ci.yml step for step, so a green
# `make ci` means a green pipeline.

GO ?= go

.PHONY: build examples test bench bench-1x bench-smoke bench-sweep plan-smoke feedback-smoke diff-smoke inject-smoke remote-smoke crash-smoke obs-smoke daemon-smoke fuzz-smoke xmlint lint vulncheck fmt ci

build:
	$(GO) build ./...

# The four example programs are part of the module; building them
# explicitly keeps them from rotting even if the main build list changes.
examples:
	$(GO) build ./examples/...

# The race run, then the engine's stop, resume and feedback tests and
# the remote client's connection tests repeated under the race
# detector: workers, their delivery, a stop, and leases taking, dropping
# and dialling connections interleave differently on each pass, and a
# single pass can miss the one that breaks. The whole-fleet outage test
# stays out of the loop: it spends ~7 s in backoff per pass. CI runs
# this.
test:
	$(GO) test -race ./...
	$(GO) test -race -count 20 -run 'Cancel|Abort|Resume|Feedback' ./internal/campaign
	$(GO) test -race -count 20 -run 'WorkerDeath|MergeByteIdentical|ClosesRemoteConnections|GracefulShutdown|ObsSmoke|Mismatched|Cancel|Fault' ./internal/remote

# Full benchmark run with allocation stats.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: keeps benchmark code compiling and
# executing without paying for stable numbers. CI runs this.
bench-1x:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The perf trajectory: xmbench measures steady-state engine throughput
# on sim (shared target, warm pool, fixed-seed plan), writes the
# measurement to BENCH_smoke.json, and gates tests/sec and allocs/test
# against the committed BENCH_1.json baseline at ±15%. BENCH_0.json is
# the pre-snapshot-pool seed — the committed pair records the speedup
# instead of claiming it. The gated run leases 16 tests per slot, the
# shipped default; first a lease of one test is recorded ungated to
# BENCH_smoke_lease1.json. CI runs this and uploads both JSON artifacts.
bench-smoke: bench-1x
	$(GO) run ./cmd/xmbench -reps 10 -batch 1 -o BENCH_smoke_lease1.json \
		-note "ci smoke: one test per lease, recorded, not gated"
	$(GO) run ./cmd/xmbench -reps 10 -o BENCH_smoke.json -baseline BENCH_1.json -gate 15 \
		-note "ci smoke: gated against the committed BENCH_1.json at ±15%"

# The scaling trajectory: one measurement per workers count (1/2/4/8)
# plus a loopback remote: point over two in-process worker servers (the
# full wire round-trip). The gate requires the workers=8 point to beat
# workers=1 by ×3, clamped to 0.6·min(workers, NumCPU) so a small CI
# machine enforces "parallelism must not collapse" instead of a speedup
# its cores cannot produce, and fails the sweep when the remote point's
# allocs/test rises more than 15% above the committed BENCH_3.json.
# BENCH_3.json is the committed sweep measured by this protocol at
# -reps 10 (BENCH_2.json its predecessor). CI runs this.
bench-sweep:
	$(GO) run ./cmd/xmbench -reps 5 -sweep 1,2,4,8 -remote-workers 2 -min-scale 3 \
		-baseline BENCH_3.json -gate 15 -o BENCH_sweep_smoke.json -note "ci sweep smoke"

# A full pairwise-plan campaign through the streaming engine: exercises
# plan generation, coverage reporting and the sharded log end to end, and
# fails on harness errors. Then the one-report invariant at the CLI: the
# same campaign run in memory and with -stream must print byte-identical
# summaries (one worker keeps the machine-pool line deterministic). CI
# runs this.
plan-smoke:
	rm -rf /tmp/xmplan-smoke && mkdir -p /tmp/xmplan-smoke
	$(GO) build -o /tmp/xmplan-smoke/xmfuzz ./cmd/xmfuzz
	@set -e; d=/tmp/xmplan-smoke; \
	$$d/xmfuzz -plan pairwise -stream $$d/csv -csv > /dev/null; \
	$$d/xmfuzz -plan pairwise -workers 1 > $$d/mem.txt; \
	$$d/xmfuzz -plan pairwise -workers 1 -stream $$d/stream > $$d/stream.txt; \
	cmp $$d/mem.txt $$d/stream.txt; \
	echo "plan-smoke: pairwise summaries in memory and with -stream are byte-identical"
	rm -rf /tmp/xmplan-smoke

# A short seeded feedback campaign against a rand campaign of the same
# budget and seed: the coverage-guided loop must discover strictly more
# kernel edges, or the feedback subsystem has regressed. CI runs this.
feedback-smoke:
	@fb=$$($(GO) run ./cmd/xmfuzz -plan feedback:300 -seed 1 \
		| awk '/^kernel edges discovered:/{print $$4}'); \
	rd=$$($(GO) run ./cmd/xmfuzz -plan rand:300 -seed 1 -cover-stats \
		| awk '/^kernel edges discovered:/{print $$4}'); \
	echo "feedback:300 -> $$fb edges, rand:300 -> $$rd edges"; \
	test -n "$$fb" && test -n "$$rd" && test "$$fb" -gt "$$rd"

# A short diff:sim,phantom campaign through the streaming engine: the
# model-vs-simulation divergence oracle must stay deterministic at a
# fixed seed — 11 of 40 tests diverge on the legacy kernel. A changed
# count means the simulated kernel or the phantom model changed
# behaviour; update the expectation only for an intended change. CI
# runs this.
diff-smoke:
	rm -rf /tmp/xmdiff-smoke
	@out=$$($(GO) run ./cmd/xmfuzz -plan rand:40 -seed 7 -mafs 1 \
		-target diff:sim,phantom -stream /tmp/xmdiff-smoke \
		| grep '^target diff:sim,phantom:'); \
	echo "$$out"; \
	test "$$out" = "target diff:sim,phantom: 11 of 40 tests diverged"
	rm -rf /tmp/xmdiff-smoke

# A fixed-seed SEU fault-injection campaign through the streaming engine:
# the schedule, the flip sites and the outcome classification must stay
# byte-deterministic — the pinned line is the campaign-wide outcome tally
# of inject:sim at rand:200 seed 1. A changed tally means the schedule,
# a flip site or the kernel changed behaviour; update the expectation
# only for an intended change. The race run over the injection subsystem
# rides along. CI runs this.
inject-smoke:
	$(GO) test -race ./internal/inject ./internal/target
	rm -rf /tmp/xminject-smoke
	@out=$$($(GO) run ./cmd/xmfuzz -plan rand:200 -seed 1 -target inject:sim \
		-stream /tmp/xminject-smoke | grep '^injection:'); \
	echo "$$out"; \
	test "$$out" = "injection: 200 of 200 tests armed, 160 flips applied — masked 152, wrong-result 0, hm-detected 8, crash 0, hang 0"
	rm -rf /tmp/xminject-smoke

# Distributed-execution smoke: loopback xmworker processes serve the sim
# target, and the fixed-seed rand:400 campaign's merged log from each leg
# must be byte-identical to the in-process run's.
#  1. One worker dies mid-campaign (-exit-after): the client retries its
#     unanswered leases on the survivor. The doomed worker must actually
#     have died, or the retry went unexercised.
#  2. The whole fleet dies (after 100 and 150 tests): the campaign must
#     exit non-zero naming the dial failure, with nothing logged for the
#     tests it could not run. Workers restarted on the same addresses
#     then finish it with -resume.
# CI runs this.
remote-smoke:
	rm -rf /tmp/xmremote-smoke && mkdir -p /tmp/xmremote-smoke
	$(GO) build -o /tmp/xmremote-smoke/ ./cmd/xmworker ./cmd/xmfuzz
	@set -e; d=/tmp/xmremote-smoke; pids=""; \
	trap 'kill $$pids 2> /dev/null || true' EXIT; \
	addr() { for i in 1 2 3 4 5 6 7 8 9 10; do \
		a=$$(sed -n 's/^xmworker: listening on \([^ ]*\).*/\1/p' $$1); \
		test -n "$$a" && echo "$$a" && return 0; sleep 1; \
	done; return 1; }; \
	$$d/xmfuzz -plan rand:400 -seed 3 -stream $$d/ref -o $$d/ref.jsonl > /dev/null; \
	$$d/xmworker -quiet -exit-after 120 > $$d/w1.out 2>&1 & pids="$$pids $$!"; \
	$$d/xmworker -quiet > $$d/w2.out 2>&1 & pids="$$pids $$!"; \
	a1=$$(addr $$d/w1.out); a2=$$(addr $$d/w2.out); \
	$$d/xmfuzz -plan rand:400 -seed 3 -workers 2 \
		-target remote:$$a1,$$a2 -stream $$d/dist -o $$d/dist.jsonl > /dev/null; \
	grep -q 'exit-after 120 tests reached' $$d/w1.out; \
	cmp $$d/ref.jsonl $$d/dist.jsonl; \
	echo "remote-smoke: rand:400 over 2 remote workers (one killed mid-run) merged byte-identical"; \
	$$d/xmworker -quiet -exit-after 100 > $$d/w3.out 2>&1 & pids="$$pids $$!"; \
	$$d/xmworker -quiet -exit-after 150 > $$d/w4.out 2>&1 & pids="$$pids $$!"; \
	a3=$$(addr $$d/w3.out); a4=$$(addr $$d/w4.out); \
	if $$d/xmfuzz -plan rand:400 -seed 3 -workers 2 -target remote:$$a3,$$a4 \
		-stream $$d/out > /dev/null 2> $$d/out.err; then \
		echo "remote-smoke: campaign on a dead fleet exited 0"; exit 1; fi; \
	cat $$d/out.err; \
	grep -q 'remote: dial' $$d/out.err; \
	$$d/xmworker -quiet -listen $$a3 > $$d/w5.out 2>&1 & pids="$$pids $$!"; \
	$$d/xmworker -quiet -listen $$a4 > $$d/w6.out 2>&1 & pids="$$pids $$!"; \
	addr $$d/w5.out > /dev/null; addr $$d/w6.out > /dev/null; \
	$$d/xmfuzz -plan rand:400 -seed 3 -workers 2 -target remote:$$a3,$$a4 \
		-stream $$d/out -resume -o $$d/out.jsonl > /dev/null; \
	cmp $$d/ref.jsonl $$d/out.jsonl; \
	echo "remote-smoke: rand:400 stopped by a whole-fleet outage, resumed on restarted workers, merged byte-identical"
	rm -rf /tmp/xmremote-smoke

# Crash smoke: the paper campaign (-mafs 100, 2 workers, ~0.5 s) is
# killed with SIGKILL after several delays, and each killed run resumed
# with -resume must merge to the uninterrupted run's bytes. A kill may
# land before the checkpoint exists or after the last record; at least
# one must leave between 1 and 2660 records in the shards, or no resume
# was exercised mid-campaign. CI runs this.
crash-smoke:
	rm -rf /tmp/xmcrash-smoke && mkdir -p /tmp/xmcrash-smoke
	$(GO) build -o /tmp/xmcrash-smoke/ ./cmd/xmfuzz
	@set -e; d=/tmp/xmcrash-smoke; mid=0; \
	$$d/xmfuzz -mafs 100 -workers 2 -stream $$d/ref -o $$d/ref.jsonl > /dev/null; \
	for delay in 0.05 0.1 0.2 0.3 0.45; do \
		k=$$d/kill-$$delay; \
		$$d/xmfuzz -mafs 100 -workers 2 -stream $$k > /dev/null 2>&1 & pid=$$!; \
		sleep $$delay; kill -9 $$pid 2> /dev/null || true; wait $$pid 2> /dev/null || true; \
		n=$$(cat $$k/shard-*.jsonl 2> /dev/null | wc -l); \
		echo "crash-smoke: SIGKILL after $${delay}s left $$n records"; \
		if [ $$n -ge 1 ] && [ $$n -le 2660 ]; then mid=1; fi; \
		$$d/xmfuzz -mafs 100 -workers 2 -stream $$k -resume -o $$k.jsonl > /dev/null; \
		cmp $$d/ref.jsonl $$k.jsonl; \
	done; \
	if [ $$mid = 0 ]; then echo "crash-smoke: no kill landed mid-campaign"; exit 1; fi; \
	echo "crash-smoke: every killed campaign resumed to the uninterrupted bytes"
	rm -rf /tmp/xmcrash-smoke

# Observability smoke: a fixed-seed SEU campaign over two loopback
# workers with the full metrics/trace/progress spine attached, its ops
# endpoints scraped over HTTP while it runs. Asserts every layer
# (engine, lease coordinator, remote client, workers, injection
# outcomes) reported non-zero series AND that instrumentation changed
# not one byte of the merged campaign log. The graceful worker drain
# rides along. CI runs this.
obs-smoke:
	$(GO) test -race -count 1 -run 'TestObsSmoke|TestServerGracefulShutdown' ./internal/remote
	$(GO) test -count 1 ./internal/obs

# Campaign-service smoke: builds the real xmrobustd binary, submits a
# fixed-seed inject:sim campaign over HTTP with an SSE subscriber, and
# asserts the stream, the served merged log and a direct pkg/xmrobust
# run are byte-identical; then cancels a second campaign mid-run
# (DELETE), resumes its checkpoint through the library to the
# uninterrupted bytes, and SIGTERM-drains the daemon. CI runs this.
daemon-smoke:
	$(GO) test -race -count 1 -run TestDaemonSmoke ./cmd/xmrobustd
	$(GO) test -race -count 1 ./internal/serve

# Short fuzz runs over the codec round-trip property (the raw codec must
# agree with encoding/json byte for byte on arbitrary records, and its
# build-nothing check pass with its strict decoder), over the shard
# merge (FuzzMergeShards: arbitrary bytes cut into two shards fail the
# merge exactly when the codec refuses a complete line, and otherwise
# merge to decodable lines in seq order that merge again unchanged), over
# the remote worker's request-frame decoder (arbitrary bytes never panic, no
# count outruns the bytes that carry it, and what decodes re-encodes
# unchanged), over the simulated machine's memory (FuzzMachineMemory:
# the paged banks must agree with a flat reference on every read, trap,
# counter and dirty page of an arbitrary sequence of stores, loads, flips
# and resets), over the trap-free space check (FuzzSpaceCheck: Allows
# must agree with Check, and Check's trap text with its reference, on the
# EagleEye partitions' spaces) and over dictionary values (FuzzResolve:
# resolving the symbolic tokens first must give the bits and error text
# of parsing the literal first, for any raw value from user XML) and
# over trace events (FuzzTraceEvent: the tracer's encoder must write
# json.Marshal's bytes for any event, and drop exactly the events
# json.Marshal refuses): long enough to shake out encoding and paging
# regressions, short enough for every CI run. The corpus under internal/campaign/testdata stays
# checked in. CI runs this.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzJSONRecordRoundTrip$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzMergeShards$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzRequestFrame$$' -fuzztime 10s ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzMachineMemory$$' -fuzztime 10s ./internal/sparc
	$(GO) test -run '^$$' -fuzz '^FuzzSpaceCheck$$' -fuzztime 10s ./internal/sparc
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime 10s ./internal/dict
	$(GO) test -run '^$$' -fuzz '^FuzzTraceEvent$$' -fuzztime 10s ./internal/obs

# The invariant lint suite: cmd/xmlint is a go vet tool (see
# internal/lint) checking determinism, obsnil, registry and seqfield.
# Building it locally keeps the suite at the exact commit being linted.
xmlint:
	@mkdir -p bin
	$(GO) build -o bin/xmlint ./cmd/xmlint

lint: xmlint
	$(GO) vet ./...
	$(GO) vet -vettool=bin/xmlint ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Known-vulnerability scan. govulncheck lives outside the module (the
# library ships zero dependencies), so this step is advisory: it runs
# when the tool is installed and is skipped — loudly — when not. CI
# installs it and uploads the report as an artifact, non-blocking.
vulncheck:
	@if command -v govulncheck > /dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

fmt:
	gofmt -w .

ci: build examples lint test fuzz-smoke bench-smoke bench-sweep plan-smoke feedback-smoke diff-smoke inject-smoke remote-smoke crash-smoke obs-smoke daemon-smoke
