GO ?= go

.PHONY: check fmt vet build test race crash-sweep fuzz-smoke smoke doclint allocgate bench-smoke purego flake chaos-soak daemon-smoke health-smoke vulncheck metrics-demo trace-demo

# The full gate: what CI (and a pre-commit run) should execute.
check: fmt vet build test race crash-sweep smoke doclint allocgate bench-smoke purego

# Formatting is part of the gate: fail loudly with the offending files
# rather than letting gofmt drift accumulate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# TESTFLAGS lets CI pass -short, keeping the full-size stress tests and the
# 64-machine rounds out of the PR gate.
TESTFLAGS ?=

test:
	$(GO) test $(TESTFLAGS) ./...

# The concurrency-sensitive packages under the race detector. internal/core
# runs the full save/load protocol across node goroutines and internal/obs
# is the lock-free metrics layer they all record into, so both are part of
# the gate despite the longer runtime. The root package exercises the
# public SaveAsync/Close lifecycle (snapshot-and-drain, close-during-save).
# Both run their grouped-layout tests (TestGrouped*: every operation on 8
# machines as 2 × (2+2)) here too. The delta round's carry rule runs here on
# poisoned spares: TestSparseDeltaTouchesOnlyItsSegments (exact counts),
# TestDeltaRoundDoesNotLaunderCorruption, TestDeltaRoundCorruptionAtWindowGranularity
# (one flipped byte in a window or its footer sum, used or not by the round),
# TestIncrementalCorruptCacheFallsBackToFull and the sparse rounds of
# TestNoBufferIsBothStoredAndSpare. So does its base
# rule — a worker whose data chunk is on its own machine diffs against that
# segment and keeps no cache: TestOneCopyOfEachPacketPerMachine walks every
# machine's keys after every kind of round, and
# TestCrashJoinedDataSlotKeepsDeltaBase pins the delta after a crash join.
# TestHostBlobsNeverReachThePool runs every kind of round on a shape whose
# host blobs are exactly a pool class, then scribbles the pool: no segment or
# cache was ever Put.
# internal/transport runs TestTransportConformance here: both transports, bare,
# under the observer (counters and flight recorder) and under chaos, held to
# borrow-until-return, the SendOwned hand-over (the memory transport delivers
# the sender's slice itself), per-stream FIFO with concurrent senders on one
# connection, exact send and receive counters, and one flight event per
# transfer. Under the detector a payload SendOwned takes and does not deliver
# (TCP, or a wrapper that only overrides Send) is overwritten with 0xDB before
# it goes back to the pool (internal/transport/poison_race.go): a sender that
# still reads it gets 0xDB, and a read that overlaps the poison is a race.
# internal/daemon runs its HTTP handlers, fleet-wide save-slot scheduler and
# event bus concurrently across jobs.
# The enumerated crash sweep is the slowest test under the detector and has
# its own target below, so it runs once per `make check`, not twice.
race:
	$(GO) test -race -skip 'TestCrashSweep' $(TESTFLAGS) . ./internal/transport ./internal/cluster ./internal/chaos ./internal/obs ./internal/core ./internal/bufpool ./internal/ecpool ./internal/daemon

# Every crash point of a round, enumerated. Save rounds (Save, SaveAsync,
# SaveIncremental with a delta that touches every segment, and
# SaveIncrementalOneRank with one that touches three and carries the rest): a
# node is killed at each of its sends in turn, and recovery must return the
# new version or the previous one byte for byte — never a mixture — with the
# next round committing correct bytes.
# Restore rounds (Load and PrefetchChunk on a cluster that already lost a
# data machine): a basis owner is killed at each of its sends, and the
# recovery after it must return the committed version, the next save commit,
# and parity match data; plus the one landing-order cut the send sweep cannot
# reach. Membership rounds (DrainNode; AddNode taking the blobs back from the
# custodian; AddNode/CrashData and AddNode/CrashParity rebuilding in place a
# data or parity slot that was lost without a drain): the machine that ships
# the bytes — the drained node, the custodian, a basis owner of the rebuild —
# is killed at each of its sends, the join errors exactly when the kill fired,
# and once every vacated slot's join has returned nil no slot is degraded and
# the Load rebuilds nothing. Every row runs on the flat layout and on 8
# machines as 2 × (2+2). Under the race detector (~6 min); takes no
# TESTFLAGS, so -short never trims it.
crash-sweep:
	$(GO) test -race -run 'TestCrashSweep' -count=1 ./internal/core

# Native fuzzing, ten seconds each, of the decoders on the restore path — a
# manifest and a worker's (small-component blob, packet) pair, seeded from a
# real round and a blob whose metadata length prefix overruns it, the remote catalog's key parser behind LoadFromRemote's discovery
# (held to remoteKey and a grammar model) and the discovery itself on
# arbitrary catalogs of keys, stray names and torn versions (held to a model:
# the newest version with every rank present, never a torn one), the
# per-window checksum footer of every host-memory blob, the metadata and
# tensor-keys blobs on their own,
# seeded from a real decomposition, and the serialized rank blob
# LoadFromRemote reads from the remote tier — and of the TCP frame reader,
# which reads what a peer's socket sends, and the daemon's request bodies:
# job registration (decode, defaults and bounds: every rejection a 400, every
# accepted spec inside the registration bounds) and the save, load and fail
# bodies (decode and validation against the largest job shape: every
# rejection a 400, every accepted request in range).
# They must not panic or allocate by a length or count field's say-so (the
# frame reader: by a field outside its limits), and whatever decodes must
# survive a round trip. One target per invocation is a `go test -fuzz` rule.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseManifest' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzAssemblePacket' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzParseRemoteKey' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzRemoteDiscovery' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzViewSummed' -fuzztime=10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeMeta' -fuzztime=10s ./internal/statedict
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeTensorKeys' -fuzztime=10s ./internal/statedict
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshal' -fuzztime=10s ./internal/serialize
	$(GO) test -run '^$$' -fuzz 'FuzzTCPReadFrame' -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz 'FuzzJobSpec' -fuzztime=10s ./internal/daemon
	$(GO) test -run '^$$' -fuzz 'FuzzRequestBodies' -fuzztime=10s ./internal/daemon

# Seeded chaos smoke test: replication head-to-head, a mid-save kill, and
# a corruption-as-erasure recovery, all deterministic.
smoke:
	$(GO) run ./examples/faulttolerance

# The public API is the operator surface: every exported identifier in the
# root package must carry a doc comment. The reachability pass then fails on
# any function no program reaches — roots: the root API, every main and init,
# package initialisers, and other packages' tests — unless
# cmd/doclint/unreached.txt (at most 10 entries) names it with a reason. It
# lists, without failing, the functions only bench/ reaches.
doclint:
	$(GO) run ./cmd/doclint .
	$(GO) run ./cmd/doclint -reach . cmd/doclint/unreached.txt

# Allocation gate: the flight recorder must be free when disabled. Every
# emitter on a nil recorder and the phase clock's per-buffer Switch on
# the save hot path must be 0 allocs/op — these tests fail otherwise.
# Membership-quiescent state queries (Alive/Draining/State)
# sit on the same hot path and are gated too, as are a registered round's
# begin and end (round.begin/round.end) with no logger, health tracker, flight
# recorder or op deadline, and a round's phase clock with the stuck-round
# watchdog disabled. The steady-state save is gated in bytes: once
# two rounds have committed, a round assembles its segments in the buffers
# the last commit displaced and allocates under a quarter of the tensor
# payload (the coded checkpoint afresh is (k+m)/k of it) — a delta round
# that changes one worker included, its restaged own-packet cache and all.
# A worker whose packet its own machine keeps — as its data segment, or as
# its own-packet cache — is packed straight into that host blob: on a steady
# full round and a steady delta round it takes no packet-sized pooled
# buffer, and the round's pooled count is exact.
# The TCP data path is gated the same way: a steady-state 1 MiB Send + Recv
# allocates under 1 KiB and takes one pooled buffer, the receiver's payload.
# On the memory transport a steady-state 1 MiB SendOwned + Recv takes no
# pooled buffer and allocates nothing (the sender's buffer is the receiver's
# payload), and a plain Send takes exactly one, its copy — bare and through
# the observer, with the flight recorder off and on. A LoadPartial that
# decodes takes exactly one pooled buffer per decoded packet, the packet
# itself: its basis terms multiply-accumulate straight into it. The column
# products take one per output and nothing else: a save one per shipped
# (worker, window, reduction), a rebuild's basis side one per (window,
# missing chunk), and a column product over a window allocates nothing.
allocgate:
	$(GO) test -run 'TestDisabledRecorderZeroAlloc' -count=1 ./internal/obs/flight
	$(GO) test -run 'TestPhaseClockZeroAllocWithoutRecorder|TestPhaseClockZeroAllocWatchdogDisabled|TestRoundLifecycleZeroAllocWhenDisabled|TestSteadyStateSaveAllocatesNoSegments|TestPartialDecodeTakesOneBufferPerPacket|TestColumnTakesOneBufferPerProduct|TestInPlacePacketsTakeNoPooledPacket' -count=1 ./internal/core
	$(GO) test -run 'TestMembershipStateZeroAlloc' -count=1 ./internal/cluster
	$(GO) test -run 'TestTCPSendAllocatesNoFrame|TestMemorySendOwnedTakesNoBuffer' -count=1 ./internal/transport

# The repository benchmark (bench/, BENCHMARK.json) is its own module, so
# the root `go vet ./...` and `go test ./...` never compile it. Its layer
# probes call exported functions of internal packages directly; vetting and
# smoke-running it here makes a root-module change that breaks one of those
# calls fail in the gate rather than in the benchmark driver (~10 s: two
# cycles of every workload, measuring nothing).
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The coding packages on the XOR kernel's portable fallback. gf.XORSlice and
# gf.XORInto run on crypto/subtle.XORBytes, which is assembly on amd64,
# arm64, ppc64x and loong64 and a generic Go loop elsewhere; the purego tag
# selects that loop here, so the platforms without the assembly are tested.
purego:
	$(GO) test -tags purego -count=1 ./internal/gf ./internal/bitmatrix ./internal/erasure

# Repetition gate for the tests that race real timers and deadlines: the
# elastic-membership, preemption and health tests of the root package (the
# grouped-layout ones included, and both notices that expire mid-drain: under
# chaos and without it) and the fault injector twenty times each, all
# at full size. A test that passes one run in three is a bug here, not a rerun.
# The harness studies that are left assert shapes and counts, never a timing
# margin, so they run twice only to catch order dependence. The mid-window
# kill runs under the race detector: a round that returns ahead of the kill
# hook (the machine not yet failed) showed there once in thirty-two runs.
flake:
	$(GO) test -count=20 -run 'TestPreempt|TestZeroNotice|TestNoticeExpires|TestRemoveAndAdd|TestReplaceNodeFenced|TestHealthAPI|TestGrouped' .
	$(GO) test -count=20 ./internal/chaos
	$(GO) test -count=2 ./internal/harness
	$(GO) test -race -count=20 -run TestSaveKilledMidWindowKeepsPreviousCheckpoint ./internal/core

# Randomized elastic-membership churn (preempt/drain/rejoin racing saves
# and loads) under the race detector. Seeded and bounded; TESTFLAGS=-short
# shrinks the round count for a quick local run — CI runs it at full size.
chaos-soak:
	$(GO) test -race -run 'TestChaosSoakMembershipChurn' -count=1 $(TESTFLAGS) .

# End-to-end service gate for the eccheckd control plane: builds the real
# binary, boots it on a loopback port, registers two jobs over HTTP, drives
# concurrent saves through the single fleet-wide save slot (asserting the
# serialization is visible in /metrics per-job labels), injects a machine
# failure, recovers with a byte-verified load, and SIGTERMs expecting a
# clean drain. Skipped under TESTFLAGS=-short, so it needs its own target.
daemon-smoke:
	$(GO) test -run 'TestDaemonSmoke' -count=1 -v ./cmd/eccheckd

# Observability gate for the protection-health surface: boots the real
# eccheckd with JSON logging and the watchdog armed, subscribes to the
# /v1/events SSE stream, kills machines until the job's level walks
# OK -> Degraded -> AtRisk -> Unprotected, asserts /readyz flips exactly
# at AtRisk, and requires every stderr log line to parse as JSON. Runs
# under the race detector — the health tracker and event bus sit on
# every round's goroutines. Skipped under TESTFLAGS=-short, so it needs
# its own target.
health-smoke:
	$(GO) test -race -run 'TestHealthSmoke' -count=1 -v ./cmd/eccheckd
	$(GO) test -race -run 'TestHealthTransitions|TestMetricHelpCoverage|TestRouteCollisions' -count=1 ./internal/daemon

# Known-vulnerability scan over the module graph and reachable call paths.
# Uses the golang.org/x/vuln scanner; requires network access to the Go
# vulnerability database, so it runs in CI rather than in `make check`.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# One checkpoint-and-recover round with the per-phase breakdown and the
# full metric registry printed: the quickest way to see the observability
# surface in action.
metrics-demo:
	$(GO) run ./cmd/eccheck-sim -iters 5 -ckpt-every 5 -fail-at 5 -metrics

# A chaos-free simulated run with the flight recorder on, exported as
# eccheck.trace.json — drop the file on ui.perfetto.dev (or
# chrome://tracing) to browse the per-node, per-phase timeline with P2P
# flow arrows.
trace-demo:
	$(GO) run ./cmd/eccheck-sim -iters 10 -ckpt-every 5 -fail-at 7 -trace-out eccheck.trace.json
