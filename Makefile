# CI entry points. `make ci` is what a pipeline should run; the stress
# and fault-injection suites are included in the plain test targets and
# must stay race-detector clean.

GO ?= go

.PHONY: ci fmtcheck vet build crossbuild test race stress onecore onecaller onewire oneslot oneasync shmtest haftest brokertest chaintest bench benchjson6 benchjson9 benchjson10 benchcheck fuzz staticcheck vulncheck

# Formatting, vet, static analysis, build, tests (plain and -race), then
# the artifact gates: the whole merge bar in one command. The gates read
# the committed failover, broker and chain artifacts (deterministic);
# regenerate one with its `make benchjsonN` target when its rig's code
# changes. The per-call numbers are `go run ./bench`'s, held to a run of
# the parent commit with `go run ./bench -compare`, not to a committed
# file. The recipe line repeats the test in which the broker's
# release-after-reply ordering used to show as a flake in plain
# `go test`, so it cannot come back silently.
ci: fmtcheck vet staticcheck vulncheck build crossbuild test race onecore onecaller onewire oneslot oneasync shmtest haftest brokertest chaintest benchcheck
	$(GO) test -count=3 -run 'TestBrokerAdmitAndCall' .

# gofmt -l prints nonconforming files; any output is a failure.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck and govulncheck run when installed and are skipped (with a
# notice) when not, so `make ci` works on a bare toolchain and tightens
# automatically on machines that have the tools.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

# The package must build and vet — tests included — where the shm plane
# is a stub (darwin), and where the TCP read probe is too (windows, no
# read(2) on a socket). Pure-Go cross-compilation, no network, no
# toolchain beyond the one already here; it is also the check that the
# stub surfaces in shm_stub.go and netprobe_other.go (newProbingReader,
# parkNext) are whole.
crossbuild:
	GOOS=darwin $(GO) build ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) build ./...
	GOOS=windows $(GO) vet ./...

test:
	$(GO) test ./...

# The resilience layer lives in the root package and internal/, the
# replicated registry and its fault schedules in registry/; all must be
# race clean, including the 100-iteration fault-injection stress mesh.
race:
	$(GO) test -race -count=1 ./internal/... ./registry .

# Just the seeded fault-injection stress suite, for quick iteration.
stress:
	$(GO) test -race -count=1 -run 'TestStress|TestNetClient' ./internal/faultinject/ .

# The structure guards live in structure_test.go (TestStructureCaps,
# Tier-1): it parses the root package and caps the call sites that would
# mean a second, hand-copied path — dispatch and admission (DESIGN
# §5.17), the rebind loop and TransparentBinding (§5.10), the TCP server
# loop and client (§5.15, §5.13), the shm slot lifecycle (§5.11). What
# stays here are the race-detector loops over the tests that pin each
# path's behaviour.
#
# onecore: the differential table that pins callAppend to the core, and
# the sampling rule every plane's metrics decide by.
onecore:
	$(GO) test -race -count=3 -run 'TestDispatch|TestMetricsSampling' .

# onecaller: the one table that holds every supervisor constructor to the
# same edges.
onecaller:
	$(GO) test -race -count=3 -run 'TestSupervisorEdges' .

# onewire: the TCP and broker suites, the route table, the every-kind
# client table and the broker's crash-restart schedules (registry/)
# included, then the run-to-completion, deadline-rule and client
# read-role tests twenty times over, the read-role tests again pinned to
# one CPU where taskset exists, since there a leading caller and the
# background reader interleave differently — and with the probing-reader
# tests, since there a TCP read's probe budget is 0. The role tests
# include the one watch's (server loops and idle connections on one
# goroutine) and the read it hands an idle connection, which parks.
ONEWIRE_ROLE = TestNetCallerReadsOwnReply|TestNetIdleConnNoticesFIN|TestNetLeaderHandsOffPendingCall|TestNetMixedCallersSettle|TestNetIdleWatchIsShared|TestNetOneWatch|TestNetProbeIdleHandoffParks
onewire:
	$(GO) test -race -count=3 -run 'TestBroker|TestNet' .
	$(GO) test -race -count=3 -run 'TestBroker' ./registry
	$(GO) test -race -count=20 -run 'TestNetExpiredCallLeavesConnection|TestNetBlockedHandlerFreesConnection|TestNetLoneCallsRunOnReader|TestNetSlowProcedureSpawns|TestNetStallWatchParks|TestNetWriteDeadlineRule|$(ONEWIRE_ROLE)' .
	if command -v taskset >/dev/null; then taskset -c 0 $(GO) test -race -count=20 -run '$(ONEWIRE_ROLE)|TestNetProbe|TestNetResetRetiresConnection' .; fi

# oneslot: the shm suite, the every-kind table included.
oneslot:
	$(GO) test -race -count=3 -run 'TestShm' .

# oneasync: the future handshake and every plane's batch and async
# tests, twenty times over, then again pinned to one CPU where taskset
# exists (Linux), since there a waiter is far more often parked before
# its completion arrives.
ONEASYNC = 'TestFuture|TestBatch|TestCallAsync|TestShmBatch|TestShmCallAsync|TestNetBatch|TestNetAsync'
oneasync:
	$(GO) test -race -count=20 -run $(ONEASYNC) .
	if command -v taskset >/dev/null; then taskset -c 0 $(GO) test -race -count=20 -run $(ONEASYNC) .; fi

# The cross-process shared-memory integration suite, race-detector on.
# The tests carry a linux build tag; on other platforms the packages
# compile against the stub surface and the run reports no tests — a
# graceful skip, not a failure.
#
# The second line repeats the reply-protocol tests (no lost wake with a
# one-yield spin window, exact reply-hint counts, a client scribbling on
# its no-hint words): they assert counts, not timings, so every
# repetition must agree. The lost-wake test gets forty runs (about 20 s):
# the store→load race it guards showed in 3 of 680 -race runs, a rate
# five repetitions never catch. Parked waiters keep no timer, so the
# close that wakes a parked demultiplexer repeats with them, and so do
# sixteen callers waiting on two slots for the lock-free free-slot stack's
# wake-up token. The third line closes a session, from either side, under
# eight callers twenty times: the reference count must drain before the
# client unmaps. The last two
# lines run the one-CPU side of the wait policy, where shm waits skip the
# load probe and go straight to sched_yield, pinned with taskset where it
# exists (Linux); the shmring line includes the park that only a wake
# ends (TestPopWaitParksUntilWoken). The batch hand-over tests ride the
# second and pinned lines: a batch waiter's window closes soonest on one
# CPU, so that is where its entries are handed over most.
SHM_HANDOVER = TestShmBatchHandOverOnSlotShortage|TestShmBatchResetHandsOver|TestShmBatchSlowHandlerParks|TestShmBatchDoneHandsOver|TestShmBatchSurvivesPeerDeath
shmtest:
	$(GO) test -race -count=1 -run 'TestShm' ./internal/faultinject/ .
	$(GO) test -race -count=5 -run 'TestShmNoHintMark|TestShmReplyHintCounts|TestShmHostileNoHintWord|TestShmCloseWakesParkedDemux|TestShmSlotWaitersAllWake|$(SHM_HANDOVER)' .
	$(GO) test -race -count=20 -run 'TestShmCloseDrainsInflight' .
	$(GO) test -race -count=40 -run 'TestShmNoLostWake' .
	if command -v taskset >/dev/null; then taskset -c 0 $(GO) test -race -count=5 -run 'TestShmNoLostWake|TestShmReplyHintCounts|TestShmNoHintMark|TestShmSlotWaitersAllWake|$(SHM_HANDOVER)' .; fi
	if command -v taskset >/dev/null; then taskset -c 0 $(GO) test -count=3 ./internal/shmring/; fi

# The high-availability suite: replicated-registry fault schedules
# (kill-leader, partition, rolling restart, lease expiry, the mesh
# invariant) and the two hostile-peer tests (out-of-range consensus
# messages against a live follower, a follower lying about its log) in
# registry/, plus the at-most-once classification tests in the root
# package. Seeded, race clean; timings are sized for a single-CPU host
# under -race.
haftest:
	$(GO) test -race -count=1 -run 'TestHA' ./registry
	$(GO) test -race -count=1 -run 'TestWrittenFrameNotRetried|TestRetryFailedCallsNeverRetriesWrittenFrame|TestNotSentClassification|TestNotExecutedVouch' .

# The multi-tenant broker suite: policy isolation (rate buckets,
# bulkheads, suspension, token auth), the hostile first-frame and
# malformed-hello tests, the async-plane breaker wiring, and, in
# registry/, the crash-restart fault schedules (SIGKILL mid-traffic,
# lease expiry, registry generation changes) with the at-most-once
# ledger audited. The last line hammers the release-before-reply pin:
# 200 back-to-back calls at MaxConcurrent: 1, twenty times over.
brokertest:
	$(GO) test -race -count=1 -run 'TestBroker|TestAsyncBreaker' .
	$(GO) test -race -count=1 -run 'TestBroker' ./registry
	$(GO) test -count=20 -run 'TestBrokerBackToBackAtBulkhead' .

# The continuation-chain suite: descriptor round-trips, the server-side
# executor's vouch semantics (panic at stage K, deadline between stages,
# Terminate mid-chain), the chain path on every transport, broker
# per-stage quota charging, and the seeded SIGKILL-mid-chain harness
# with the at-most-once ledger audited (linux).
chaintest:
	$(GO) test -race -count=1 -run 'TestChain|TestShmChain|TestBrokerChain' ./internal/faultinject/ .

# Native Go fuzzing over the wire parsers (net_fuzz_test.go), the
# failure record (failure_test.go), the broker's first frame
# (broker_fuzz_test.go) and the registry's bodies
# against a live replica (registry/wire_test.go). Short budgets so it's
# usable as a pre-commit smoke test; raise FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzBrokerFirstFrame$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseChain$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzFailureRecord$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzRegistryBodies$$' -fuzztime $(FUZZTIME) ./registry

# Full benchmark sweep with allocation counts (the wall-clock Null path
# must report 0 allocs/op), then the artifact gates. The per-call
# latencies, batching and bulk bandwidth of every plane are
# `go run ./bench`'s workloads (EXPERIMENTS.md, "One bench for the
# per-call numbers").
bench:
	$(GO) test -bench 'BenchmarkWallClock' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkTable4|BenchmarkTable5' -run '^$$' .
	$(MAKE) benchcheck

# Regenerate the failover-convergence artifact: a live three-replica
# registry with two servers, timing server-crash failover and
# leader-kill write convergence, with the at-most-once ledger recorded.
benchjson6:
	$(GO) run ./cmd/lrpcbench -json failover > BENCH_pr6.json

# Regenerate the broker-isolation artifact: victim-tenant p99 latency
# unloaded vs. under an aggressor flood the broker sheds, plus the
# crash-restart recovery time and the at-most-once ledger verdict.
benchjson9:
	$(GO) run ./cmd/lrpcbench -json broker > BENCH_pr9.json

# Regenerate the continuation-chain artifact: the depth-4 dependent
# pipeline as sequential calls and as one server-side CallChain
# submission, across in-process, shared-memory, and TCP loopback.
benchjson10:
	$(GO) run ./cmd/lrpcbench -json chain > BENCH_pr10.json

# Fail if the failover artifact records a double execution or an
# off-scale convergence time, if the broker artifact records a double
# execution, a victim p99 flood/unloaded ratio over 3x, or a restart the
# victim never reattached from, or if the depth-4 server-side chain
# fails to beat the same pipeline issued as sequential calls by 2x on
# shm or TCP. One line per committed BENCH_*.json:
# cmd/benchcheck's TestNoOrphanArtifacts holds the two lists equal.
benchcheck:
	$(GO) run ./cmd/benchcheck BENCH_pr6.json
	$(GO) run ./cmd/benchcheck BENCH_pr9.json
	$(GO) run ./cmd/benchcheck -min-chain-speedup 2 BENCH_pr10.json
