// Package eccheck is an erasure-coded in-memory checkpointing system for
// distributed DNN training, reproducing "ECCheck: Enhancing In-Memory
// Checkpoint with Erasure Coding in Distributed DNN Training" (ICDCS 2025).
//
// Distributed training jobs checkpoint their sharded state dicts into the
// host memory of the training nodes themselves, protected by a systematic
// Cauchy Reed-Solomon code: the n nodes are split into k data nodes and m
// parity nodes, and any m concurrent machine failures are survivable — at
// the same memory redundancy where replication-based in-memory
// checkpointing (GEMINI-style) tolerates strictly fewer failure patterns.
//
// The package exposes the paper's three-call API:
//
//	sys, err := eccheck.Initialize(eccheck.Config{
//	    Nodes: 4, GPUsPerNode: 4, TPDegree: 4, PPStages: 4, K: 2, M: 2,
//	})
//	...
//	report, err := sys.Save(ctx, dicts)   // eccheck.save
//	...
//	dicts, lrep, err := sys.Load(ctx)     // eccheck.load after failures
//
// # The save protocol
//
// Save runs the serialization-free encoding protocol in five steps:
//
//  1. Decompose & offload. Each worker's state dict splits into non-tensor
//     metadata, tensor keys, and contiguous tensor payloads; the payloads
//     are copied into fixed-size host-memory packets (the DtoH offload —
//     the only step training waits for). Nothing large is ever serialized.
//  2. Broadcast. The tiny metadata and key components are broadcast so
//     every node can reassemble any worker's dict at recovery time.
//  3. Encode, reduce, place. Packets stream through pipelined buffers:
//     each worker scalar-multiplies its packet by its Cauchy generator
//     coefficients, XOR reductions across reduction groups assemble parity
//     packets on optimally chosen target workers, and P2P transfers place
//     finished data and parity chunks on their machines — fully
//     asynchronous behind training.
//  4. Commit. Every blob lands under a staged key during the round; only
//     after the all-nodes barrier is staging promoted to final, manifest
//     last, so an aborted round never damages the committed checkpoint.
//  5. Persist. Every Nth version (Config.RemotePersistEvery) additionally
//     persists to the bandwidth-limited remote tier against catastrophes
//     beyond m machines.
//
// Load runs the matching recovery workflows — pure redistribution when all
// data chunks survive, distributed decode otherwise — and then rebuilds
// the lost chunks so the full fault-tolerance capacity is restored.
// LoadPartial, PrefetchNode and LoadFromRemote are the same recovery under
// other requests: fewer ranks wanted back, one node repaired instead of
// every degraded one, the remote tier as the source. A repaired node always
// lands in one order — segments, small components, manifest last.
//
// # Asynchronous checkpointing
//
// SaveAsync splits the round at the paper's stall boundary: it blocks only
// through step 1 (the snapshot — decompose and DtoH offload into pooled
// host staging buffers) and returns a SaveHandle while steps 2-5 drain on
// background goroutines. Training resumes immediately; the previous
// checkpoint stays committed and loadable until the drain passes the
// commit barrier, so a crash mid-drain degrades to the old version:
//
//	h, err := sys.SaveAsync(ctx, dicts)   // blocks ~offload time only
//	// ... training continues; sys.Version() still reports the old version
//	report, err := h.Wait(ctx)            // or select on h.Done()
//	fmt.Println(report.StallNs, report.OverlapNs)  // stall vs overlapped drain
//
// A second save while a drain is in flight waits its turn (SaveAsync) or
// fails fast with ErrSaveInFlight (Save, SaveIncremental — a delta save is
// the same round shipping only the changed buffer windows, and with no
// usable base the same round ships them all). Close aborts
// any in-flight drain and reports the thrown-away work by wrapping
// ErrSaveAborted.
//
// # Streaming scale-out
//
// Step 3 advances per buffer window, not per phase: encode, XOR
// reduction and P2P placement for window i+1 overlap the commit of
// window i. The overlap is bounded by two constants, not options: a node
// holds at most 12 windows in flight (the paper's data-buffer count, which
// caps the pooled staging footprint at 12 × Config.BufferSize per node),
// and an XOR reduction with more than 8 source machines folds its partials
// through a deterministic 8-ary tree instead of concentrating k−1 streams
// on the target's machine. For clusters beyond tens of
// nodes, give Initialize a multiple of K+M machines — Config{Nodes: 16,
// K: 2, M: 2} is four groups of four: groups are contiguous ranges of
// K+M nodes, each an independent (K, M) code inside the same round,
// version and commit, so per-node cost stays constant as the cluster
// grows and every System operation (async and delta saves, partial
// loads, prefetch, membership, health) works as on a flat layout. The
// price is the failure budget: M machines per group, not M anywhere.
// The commit barrier attributes synchronization skew: each
// SaveReport names the round's slowest machine (StragglerNode,
// StragglerLag), and finished nodes' waiting time lands in their own
// "straggle" phase lane so every per-node partition still sums to the
// round wall.
//
// # Failure model
//
// The robustness layer covers the three failure classes an in-memory
// checkpoint meets in production. Machines crashing mid-round: Config.Chaos
// installs a deterministic fault-injection plan (link latency and jitter,
// probabilistic drops and errors, node kills scheduled by send count), and
// a kill destroys the victim's volatile host memory exactly like a machine
// crash; the staged commit guarantees the previous checkpoint stays
// loadable. Peers hanging instead of failing: Config.OpTimeout bounds every
// protocol Send/Recv. Silent host-memory corruption: every blob carries a
// footer of CRC-32C sums, one per BufferSize window (a delta save checks
// only the windows it uses), and a mismatch at load time is folded into the
// erasure model — the chunk counts as missing and is rebuilt through the
// code (see System.CorruptChunk and VerifyIntegrity).
//
// # Elastic membership
//
// Preemptible machines announce a deadline before they die. PreemptNode
// drains the doomed machine's coded blobs to a custodian node before the
// kill lands; AddNode restores them verbatim onto the replacement, with
// no erasure rebuild. A drain that loses its race against the deadline is
// reported (with a flight-recorder postmortem), not errored, and the join
// falls back to the crash path: AddNode rebuilds the slot's chunk in place
// from k survivors, the restore round PrefetchNode runs. Restored from
// custody, or rebuilt in place — either way FaultTolerance is m when
// AddNode returns, placement is what Initialize compiled, and the next
// Load rebuilds nothing.
// RemoveNode is the graceful leave; OnPreemptionNotice surfaces injected
// (Config.Chaos) preemption notices to the training loop. All membership
// mutations — including ReplaceNode — are fenced behind the save slot, so
// they serialize against in-flight SaveAsync drains.
//
// # Observability
//
// Every System carries an always-on, dependency-free metric registry.
// System.Metrics returns a Snapshot of all counters and histograms the
// system has recorded — per-phase save/load timings
// (save_phase_ns{phase,node}), transport traffic per (node, peer) pair,
// injected chaos faults by kind, host-memory and remote-tier volumes —
// renderable as Prometheus exposition text (Snapshot.WriteText) or JSON
// (Snapshot.WriteJSON). Each SaveReport and LoadReport additionally breaks
// its round's wall time into an exclusive phase partition (SaveReport.Phases
// over SavePhases: offload, serialize, encode, xor, stage, p2p, barrier,
// promote, persist) whose durations sum to the round's elapsed time. Recording is
// lock-free atomic arithmetic, so the instrumentation stays on
// unconditionally.
//
// The library also ships the complete evaluation harness of the paper —
// workload models, the three baselines, the reliability analysis, and one
// benchmark per table and figure; see the README and EXPERIMENTS.md.
package eccheck
