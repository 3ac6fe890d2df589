package eccheck

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/core"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/obs/health"
	"eccheck/internal/remotestore"
	"eccheck/internal/transport"
)

// TransportKind selects how nodes exchange checkpoint bytes.
type TransportKind int

// Supported transports.
const (
	// TransportMemory runs all nodes in-process over channels (the
	// default; used by simulations and tests).
	TransportMemory TransportKind = iota + 1
	// TransportTCP runs every node behind a real TCP socket on loopback,
	// exercising the full network stack.
	TransportTCP
)

// Config parameterises Initialize.
type Config struct {
	// Nodes is the machine count: K + M, or a multiple G·(K+M) of it for
	// group-based checkpointing (the paper's §V-F scaling scheme). Groups are
	// contiguous ranges of K+M nodes — nodes g·(K+M) through (g+1)·(K+M)−1
	// form group g — and each is an independent (K, M) code inside the same
	// round, version and commit: per-node traffic stays m·s however large the
	// cluster, and the system survives any M failures in every group at once
	// (but not M+1 in one).
	Nodes int
	// GPUsPerNode is the worker count per machine.
	GPUsPerNode int
	// TPDegree and PPStages fix the hybrid-parallel layout (data
	// parallelism is inferred).
	TPDegree int
	PPStages int
	// K data nodes and M parity nodes per group; the system tolerates any M
	// concurrent machine failures in each group.
	K, M int
	// BufferSize is the streaming window size (default 64 MB): each
	// worker's packet is encoded, reduced and placed one BufferSize window
	// at a time, so it is the granularity of pipeline overlap. A node
	// holds at most 12 windows in flight (the paper's data-buffer count),
	// which makes 12 × BufferSize its staging footprint. It is also the
	// checksum granularity: every stored blob carries one CRC-32C per
	// window, so a delta save verifies only the windows it reads.
	BufferSize int
	// RemotePersistEvery persists every Nth checkpoint to remote storage;
	// 0 keeps the default (10), negative disables.
	RemotePersistEvery int
	// RemoteBandwidth is the aggregate remote-storage bandwidth in
	// bytes/second (default 5 Gbps). Set together with WithRemote.
	RemoteBandwidth float64
	// DisableRemote turns off the remote persistence tier entirely.
	DisableRemote bool
	// Incremental enables delta checkpointing: SaveIncremental ships only
	// changed buffer slices, updating data and parity chunks in place via the
	// code's linearity. A worker diffs against its data chunk's segment when
	// that chunk is stored on its own machine; the others cache their packets,
	// one extra packet of host memory per worker whose data chunk is stored
	// on another machine.
	Incremental bool
	// Transport selects the node interconnect (default TransportMemory).
	Transport TransportKind
	// Chaos, when non-nil, wraps the transport in a fault-injection layer
	// driven by the plan: link latency/jitter, dropped or erroring sends,
	// and scheduled node kills. A killed node's volatile host memory is
	// destroyed at the instant its transport dies, exactly like a machine
	// crash. See also System.ScheduleNodeKill.
	Chaos *ChaosPlan
	// OpTimeout bounds every individual protocol Send/Recv, so a peer
	// crashing mid-save surfaces as a bounded error instead of a hang.
	// 0 selects the default (60s); negative disables deadlines.
	OpTimeout time.Duration
	// LoadBudget is the restore-latency SLO. It is observational, not a
	// hard deadline: a recovery that overruns still completes, but its
	// LoadReport comes back with DeadlineExceeded set, a postmortem event
	// tail attached (when the flight recorder is on), and the overrun
	// counted in load_budget_exceeded_total. 0 disables budgeting.
	LoadBudget time.Duration
	// FlightEvents, when positive, enables the flight recorder: a bounded
	// in-memory ring of the last FlightEvents protocol events (round
	// begin/end, phase spans, per-peer transfers, chaos injections,
	// corruption recoveries). Failed rounds attach their event tail to the
	// report as a postmortem; export the timeline with System.WriteTrace
	// or serve it live with System.ServeDebug. 0 (the default) disables
	// recording at zero cost on the save hot path.
	FlightEvents int
	// Logger receives structured logs (stdlib log/slog) of round
	// lifecycle, membership changes and chaos verdicts, with op/round/
	// node correlation attributes. Nil disables logging at zero cost on
	// the hot path.
	Logger *slog.Logger
	// WatchdogFactor arms the stuck-round watchdog: a live round whose
	// current phase exceeds this multiple of the phase's rolling p99 is
	// flagged in flight (EvStuck flight event, round_stuck_total counter,
	// a stuck health event, and a live postmortem tail) without waiting
	// for the round to fail. 0 disables the watchdog at zero cost; values
	// below 1 are rejected.
	WatchdogFactor float64
}

// System is a running ECCheck deployment: the engine plus the cluster,
// network and remote-store substrates it manages.
type System struct {
	ckpt     *core.Checkpointer
	net      transport.Network
	chaosNet *chaos.Network // non-nil when Config.Chaos is set
	clus     *cluster.Cluster
	remote   *remotestore.Store
	topo     *Topology
	metrics  *obs.Registry
	flight   *flight.Recorder // non-nil when Config.FlightEvents > 0
	health   *health.Tracker  // always non-nil: protection scoring is cheap
}

// SaveReport summarises one checkpoint round.
type SaveReport = core.SaveReport

// LoadReport summarises one recovery.
type LoadReport = core.LoadReport

// Initialize validates the configuration, selects data and parity nodes
// (sweep-line maximum-overlap pairing), fixes the Cauchy Reed-Solomon
// encoding matrix and the communication strategy, and allocates the
// system. It is the paper's eccheck.initialize.
func Initialize(cfg Config) (*System, error) {
	topo, err := NewTopology(cfg.Nodes, cfg.GPUsPerNode, cfg.TPDegree, cfg.PPStages)
	if err != nil {
		return nil, fmt.Errorf("eccheck: %w", err)
	}

	// Every system carries a metrics registry; recording is lock-free
	// atomic adds, so it stays on unconditionally.
	reg := obs.NewRegistry()

	var net transport.Network
	switch cfg.Transport {
	case 0, TransportMemory:
		net, err = transport.NewMemory(cfg.Nodes)
	case TransportTCP:
		net, err = transport.NewTCPLoopback(cfg.Nodes)
	default:
		return nil, fmt.Errorf("eccheck: unknown transport %d", cfg.Transport)
	}
	if err != nil {
		return nil, fmt.Errorf("eccheck: %w", err)
	}
	// The base transport records its own internals (TCP dial retries);
	// wire it before any wrapper hides the concrete type.
	if ms, ok := net.(transport.MetricsSetter); ok {
		ms.SetMetrics(reg)
	}

	var rec *flight.Recorder
	if cfg.FlightEvents > 0 {
		rec = flight.New(cfg.FlightEvents)
	}
	var chaosNet *chaos.Network
	if cfg.Chaos != nil {
		chaosNet, err = chaos.Wrap(net, *cfg.Chaos)
		if err != nil {
			_ = net.Close()
			return nil, fmt.Errorf("eccheck: %w", err)
		}
		// Injected faults are counted, and their verdicts land in the same
		// timeline as the wire events.
		chaosNet.SetMetrics(reg)
		chaosNet.SetFlight(rec)
		net = chaosNet
	}
	// The one observing wrapper counts every protocol send/recv per (node,
	// peer) and times it into the flight recorder. It sits outside chaos, so
	// it observes what the protocol attempted and injected latency is part
	// of each span, while the chaos counters record what the fault plan did.
	net = transport.Observe(net, reg, rec)

	clus, err := cluster.New(cfg.Nodes, cfg.GPUsPerNode)
	if err != nil {
		_ = net.Close()
		return nil, fmt.Errorf("eccheck: %w", err)
	}
	clus.SetMetrics(reg)

	var remote *remotestore.Store
	if !cfg.DisableRemote {
		rate := cfg.RemoteBandwidth
		if rate == 0 {
			rate = 5e9 / 8 // the paper's 5 Gbps aggregate
		}
		remote, err = remotestore.New(rate)
		if err != nil {
			_ = net.Close()
			return nil, fmt.Errorf("eccheck: %w", err)
		}
		remote.SetMetrics(reg)
		remote.SetFlight(rec)
	}

	persistEvery := cfg.RemotePersistEvery
	if persistEvery < 0 {
		persistEvery = 0
		remote = nil
	}
	// The health tracker exists before the engine it probes (the engine's
	// round callbacks need it at construction); SetProbe below closes the
	// cycle once the engine and cluster are live.
	tracker := health.NewTracker(nil)
	ckpt, err := core.New(core.Config{
		Topo:               topo,
		K:                  cfg.K,
		M:                  cfg.M,
		BufferSize:         cfg.BufferSize,
		RemotePersistEvery: persistEvery,
		IncrementalCache:   cfg.Incremental,
		OpTimeout:          cfg.OpTimeout,
		LoadBudget:         cfg.LoadBudget,
		Metrics:            reg,
		Flight:             rec,
		Health:             tracker,
		Logger:             cfg.Logger,
		WatchdogFactor:     cfg.WatchdogFactor,
	}, net, clus, remote)
	if err != nil {
		_ = net.Close()
		return nil, fmt.Errorf("eccheck: %w", err)
	}
	tracker.SetProbe(func() health.Probe {
		p := health.Probe{
			Version:       ckpt.Version(),
			M:             ckpt.Code().M(),
			DegradedSlots: ckpt.DegradedSlots(),
			DeadNodes:     clus.FailedNodes(),
		}
		for node := 0; node < clus.Nodes(); node++ {
			if clus.Draining(node) {
				p.DrainingNodes = append(p.DrainingNodes, node)
			}
		}
		return p
	})
	if chaosNet != nil {
		// A chaos kill models a whole-machine crash: the node's transport
		// dies and its volatile host memory — checkpoint chunks included —
		// is destroyed in the same instant. The kill is a membership
		// transition, so the protection score is recomputed on the spot.
		chaosNet.SetOnKill(func(node int) {
			_ = clus.Fail(node)
			tracker.Recompute()
		})
		chaosNet.SetLogger(cfg.Logger)
	}
	return &System{ckpt: ckpt, net: net, chaosNet: chaosNet, clus: clus, remote: remote,
		topo: topo, metrics: reg, flight: rec, health: tracker}, nil
}

// Metrics returns a point-in-time snapshot of every counter and histogram
// the system has recorded: per-phase save/load timings
// (save_phase_ns{phase,node}), transport traffic per (node, peer) pair,
// injected chaos faults by kind, host-memory and remote-tier volumes.
// Render it with Snapshot.WriteText (Prometheus exposition format) or
// Snapshot.WriteJSON, or query single series with Snapshot.Counter and
// Snapshot.Histogram.
func (s *System) Metrics() Snapshot { return s.metrics.Snapshot() }

// FlightRecorder returns the event timeline ring, or nil when
// Config.FlightEvents was 0. Snapshot/Drain it directly, or use
// WriteTrace / ServeDebug for the rendered forms.
func (s *System) FlightRecorder() *FlightRecorder { return s.flight }

// HealthTracker is the event-driven protection scorer of one system.
type HealthTracker = health.Tracker

// HealthReport is the collapsed protection score: level, redundancy
// margin, staleness, rolling success rates and reason strings.
type HealthReport = health.Report

// HealthLevel classifies protection, ordered healthy to lost.
type HealthLevel = health.Level

// HealthEvent is one record on the protection timeline (round
// lifecycle, health transition, or stuck-round flag).
type HealthEvent = health.Event

// Protection levels (see health.Level for the exact semantics).
const (
	// HealthOK: the full parity margin m stands.
	HealthOK = health.OK
	// HealthDegraded: recoverable, but part of the margin is consumed.
	HealthDegraded = health.Degraded
	// HealthAtRisk: zero margin — one more loss is unrecoverable.
	HealthAtRisk = health.AtRisk
	// HealthUnprotected: the in-memory checkpoint is already gone (or
	// nothing has committed yet).
	HealthUnprotected = health.Unprotected
)

// Health returns the system's current protection score. It is
// recomputed on membership, round and chaos transitions — never polled —
// so reading it is cheap.
func (s *System) Health() HealthReport { return s.health.Report() }

// HealthTracker exposes the underlying tracker so a control plane can
// subscribe to its event stream (SetSink) or force a recomputation. The
// tracker is always non-nil.
func (s *System) HealthTracker() *HealthTracker { return s.health }

// WatchdogPostmortem returns the flight-recorder tail captured at the
// most recent stuck-round flag — a live postmortem of a round that had
// not (yet) failed. Nil when Config.WatchdogFactor is 0, the flight
// recorder is off, or nothing has been flagged.
func (s *System) WatchdogPostmortem() []FlightEvent { return s.ckpt.WatchdogPostmortem() }

// WriteTrace renders the flight recorder's current contents as Chrome
// trace_event JSON — load the output in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each node is a process, each phase/event lane a
// thread track, and P2P transfers carry flow arrows from sender to
// receiver. The ring is not drained: repeated calls re-export the same
// window. Fails when the recorder is disabled.
func (s *System) WriteTrace(w io.Writer) error {
	if s.flight == nil {
		return fmt.Errorf("eccheck: flight recorder not enabled (set Config.FlightEvents)")
	}
	return flight.WriteTrace(w, s.flight.Snapshot())
}

// ServeDebug starts a debug HTTP server on addr (e.g. "localhost:6060")
// exposing /metrics (Prometheus exposition), /metrics.json, /trace (the
// flight recorder as Chrome trace JSON; drains the ring unless ?keep=1)
// and /debug/pprof/*. Close the returned server to stop it; it does not
// stop with System.Close.
func (s *System) ServeDebug(addr string) (*DebugServer, error) {
	return obs.ServeDebug(addr, s.metrics, s.flight)
}

// Close releases the system's resources. Any in-flight round — a SaveAsync
// drain, a concurrent Save, a Load — is cancelled and waited for before the
// network is torn down, so no protocol goroutine outlives the System. When
// in-flight work had to be thrown away, Close reports it with an error
// wrapping ErrSaveAborted (the checkpoint state is still consistent: the
// previous committed version remains loadable). A round that managed to
// commit before the cancellation landed is not an error.
func (s *System) Close() error {
	errCkpt := s.ckpt.Close()
	errNet := s.net.Close()
	return errors.Join(errCkpt, errNet)
}

// Topology returns the training topology.
func (s *System) Topology() *Topology { return s.topo }

// Version returns the latest checkpoint version (0 before the first save).
func (s *System) Version() int { return s.ckpt.Version() }

// Save checkpoints all workers' state dicts (indexed by world rank) into
// erasure-coded in-memory chunks: the paper's eccheck.save. It blocks
// through the whole round. If another save round is already in flight it
// fails fast with ErrSaveInFlight (use SaveAsync to wait instead).
func (s *System) Save(ctx context.Context, dicts []*StateDict) (*SaveReport, error) {
	return s.ckpt.Save(ctx, dicts)
}

// SaveAsync checkpoints with the snapshot-and-drain split: it blocks only
// through step 1 (the DtoH offload of every worker's tensor state into host
// staging buffers) and returns a SaveHandle while encoding, XOR reduction,
// P2P placement, commit and remote persistence drain on background
// goroutines. Training may resume — and mutate the live dicts — the moment
// SaveAsync returns. The previous checkpoint stays committed and loadable
// until the drain passes the commit barrier; a crash mid-drain degrades
// recovery to the previous version. If another save round is in flight,
// SaveAsync waits for its drain to finish before starting.
func (s *System) SaveAsync(ctx context.Context, dicts []*StateDict) (*SaveHandle, error) {
	return s.ckpt.SaveAsync(ctx, dicts)
}

// Load recovers the latest checkpoint from the surviving in-memory chunks,
// restores full fault tolerance, and returns every worker's state dict:
// the paper's eccheck.load. Failed machines must be replaced first with
// ReplaceNode.
func (s *System) Load(ctx context.Context) ([]*StateDict, *LoadReport, error) {
	return s.ckpt.Load(ctx)
}

// LoadFromRemote recovers from the remote persistence tier (catastrophic
// failures beyond M machines). Version 0 selects the newest persisted one.
// The context bounds the whole restore; each remote fetch additionally
// honors the system's configured OpTimeout, so a hung remote tier surfaces
// as a bounded error instead of a frozen recovery.
func (s *System) LoadFromRemote(ctx context.Context, version int) ([]*StateDict, error) {
	return s.ckpt.LoadFromRemote(ctx, version)
}

// LoadPartial lazily restores only the requested workers' state dicts —
// the serving-failover fast path, where the ranks hosting an MoE model's
// hot experts must come back inside the latency budget and the rest of
// the fleet can restore later. It is the recovery with nothing repaired,
// so it runs on the coordinator, moves no packet between machines and
// needs no machine alive except the ones it reads: packets are fetched
// directly from their chunk owners, and a dead or corrupt owner degrades
// its ranks to an erasure decode (workflow "partial-decode") instead of
// failing the round. Fault tolerance is NOT restored — follow up with
// Load, or warm replacements with PrefetchNode.
func (s *System) LoadPartial(ctx context.Context, ranks []int) (map[int]*StateDict, *LoadReport, error) {
	return s.ckpt.LoadPartial(ctx, ranks)
}

// PrefetchReport summarises a warm-standby parity prefetch.
type PrefetchReport = core.PrefetchReport

// PrefetchNode warms a standby: the node (typically fresh from
// ReplaceNode) gets its chunk rebuilt, the small-component broadcast set
// copied and its manifest written last, off the recovery critical path, so
// the next Load runs the pure replacement workflow with zero rebuilds and
// the next LoadPartial of its workers hits the direct-fetch fast path. It
// is a Load that wants no rank back and repairs one node: the same
// distributed rebuild over the peer transport, run only on the node, the k
// machines whose chunks it is rebuilt from and the one that re-broadcasts
// the small components — the other machines may be dead. One repairing
// round (Load or PrefetchNode) runs at a time; a second one waits.
func (s *System) PrefetchNode(ctx context.Context, node int) (*PrefetchReport, error) {
	return s.ckpt.PrefetchChunk(ctx, node)
}

// FailNode simulates a machine failure: the node's volatile host memory —
// including its checkpoint chunk — is destroyed.
func (s *System) FailNode(node int) error {
	err := s.clus.Fail(node)
	s.health.Recompute()
	return err
}

// ReplaceNode brings a failed machine back as a fresh, empty node. Under
// chaos, the replacement also gets a working transport again (a chaos kill
// only destroyed the old machine).
//
// The replacement is fenced behind the save slot: if a SaveAsync drain is
// in flight, ReplaceNode waits for it to finish (commit or abort) before
// swapping the slot. Without the fence a drain that started while the
// node was dead could observe the replacement halfway through its round —
// stage on the fresh node but commit against a manifest it never staged.
// The fence makes membership changes and save rounds strictly serial.
func (s *System) ReplaceNode(node int) error {
	return s.ckpt.WithSaveFence(context.Background(), node, func() error {
		if err := s.clus.Replace(node); err != nil {
			return err
		}
		if s.chaosNet != nil {
			return s.chaosNet.Revive(node)
		}
		return nil
	})
}

// AliveNodes lists the currently healthy machines.
func (s *System) AliveNodes() []int { return s.clus.AliveNodes() }

// NodeMemoryBytes returns a node's host-memory checkpoint footprint: the
// redundancy cost, directly comparable with replication-based designs.
func (s *System) NodeMemoryBytes(node int) int { return s.clus.MemoryBytes(node) }

// DataNodes returns the machines selected (by the sweep-line algorithm) to
// store data chunks: K per group, group by group.
func (s *System) DataNodes() []int {
	return append([]int(nil), s.ckpt.Plan().DataNodes...)
}

// ParityNodes returns the machines storing parity chunks: M per group, group
// by group.
func (s *System) ParityNodes() []int {
	return append([]int(nil), s.ckpt.Plan().ParityNodes...)
}

// FaultTolerance returns the number of additional concurrent machine
// failures the system survives right now wherever they land: the code's
// parity count m minus the slots of the worst-hit group currently unable to
// serve their chunk (dead machines, and machines swapped in by ReplaceNode
// whose chunk no AddNode, PrefetchNode or Load has landed yet). A healthy
// cluster reports m, and so does one whose every vacated slot's AddNode has
// returned — restored from custody or rebuilt in place.
func (s *System) FaultTolerance() int {
	ft := s.ckpt.Code().M() - s.ckpt.DegradedSlots()
	if ft < 0 {
		ft = 0
	}
	return ft
}

// IncrementalReport summarises a delta checkpoint round.
type IncrementalReport = core.IncrementalReport

// SaveIncremental checkpoints by updating the previous coded checkpoint
// with per-buffer deltas (requires Config.Incremental): the save round with
// only the changed buffer windows shipped, staged and committed like Save.
// When no usable previous state exists — first save, or caches lost to a
// failure — the same round ships every window (IncrementalReport.Full).
func (s *System) SaveIncremental(ctx context.Context, dicts []*StateDict) (*IncrementalReport, error) {
	return s.ckpt.SaveIncremental(ctx, dicts)
}

// VerifyReport summarises an integrity scan.
type VerifyReport = core.VerifyReport

// VerifyIntegrity recomputes parity from the stored data chunks and checks
// it against the stored parity chunks, detecting silent host-memory
// corruption before a recovery depends on it.
func (s *System) VerifyIntegrity() (*VerifyReport, error) {
	return s.ckpt.VerifyIntegrity()
}

// ScheduleNodeKill arranges for node to crash after it performs
// afterSends more transport sends (0 kills it on its very next send).
// Requires Config.Chaos; the kill destroys the node's host memory like
// FailNode and makes every subsequent transport operation on it fail
// with ErrChaosKilled.
func (s *System) ScheduleNodeKill(node, afterSends int) error {
	if s.chaosNet == nil {
		return fmt.Errorf("eccheck: chaos not enabled (set Config.Chaos)")
	}
	return s.chaosNet.ScheduleKill(node, afterSends)
}

// ChaosStats reports fault-injection counters. Requires Config.Chaos.
func (s *System) ChaosStats() (ChaosStats, error) {
	if s.chaosNet == nil {
		return ChaosStats{}, fmt.Errorf("eccheck: chaos not enabled (set Config.Chaos)")
	}
	return s.chaosNet.Stats(), nil
}

// CorruptChunk flips one bit in the middle of node's stored chunk,
// simulating silent host-memory corruption. The damage is caught by the
// blob checksum on the next Load or VerifyIntegrity and repaired through
// the erasure code.
func (s *System) CorruptChunk(node int) error {
	return s.ckpt.CorruptChunkByte(node)
}

// killNode ends a leave: under chaos the chaos network kills the node
// (destroying its host memory via the OnKill hook), otherwise the cluster
// slot fails directly. Idempotent.
func (s *System) killNode(node int) {
	if s.chaosNet != nil {
		// The chaos OnKill hook recomputes health.
		_ = s.chaosNet.KillNow(node)
		return
	}
	_ = s.clus.Fail(node)
	s.health.Recompute()
}

// finishLeave folds a drain outcome into the (report, error) contract
// shared by PreemptNode and RemoveNode: the doomed node is killed no
// matter what (the deadline is the platform's, not ours), and a drain
// that lost its race comes back as a degraded report rather than an
// error — the cluster is still recoverable through the erasure code.
// Only lifecycle errors (system closed, caller's context cancelled
// before its deadline) surface as errors.
func (s *System) finishLeave(node int, rep *DrainReport, err error) (*DrainReport, error) {
	s.killNode(node)
	if err == nil {
		return rep, nil
	}
	if errors.Is(err, ErrClosed) {
		return nil, err
	}
	if rep == nil {
		rep = &DrainReport{Node: node, Custodian: -1, Reason: err.Error()}
	}
	return rep, nil
}

// PreemptNode delivers a spot-style preemption notice for node: the node
// has `notice` time left, drains its committed checkpoint blobs to a live
// custodian (see RemoveNode), and is killed before PreemptNode returns,
// which the deadline bounds — whether or not the drain finished. With
// sufficient notice the returned report has Completed true and the slot's
// state survives; when the notice expires mid-drain the report explains the
// degradation (with a flight-recorder postmortem when enabled) and recovery
// falls back to the erasure rebuild, exactly as if the node had crashed. A zero or negative
// notice kills immediately. Under chaos the chaos network owns the
// deadline (SchedulePreemption), so a plan-scheduled notice and an
// explicit PreemptNode agree on when the kill lands.
func (s *System) PreemptNode(ctx context.Context, node int, notice time.Duration) (*DrainReport, error) {
	if notice <= 0 {
		s.killNode(node)
		return &DrainReport{Node: node, Custodian: -1, Reason: "no notice"}, nil
	}
	if err := s.clus.BeginDrain(node); err != nil {
		return nil, err
	}
	// Without chaos the drain's context is the deadline: it bounds the wait
	// for the save slot and every blob transfer, and finishLeave kills the
	// node before PreemptNode returns, finished or not.
	deadline := time.Now().Add(notice)
	if s.chaosNet != nil {
		d, err := s.chaosNet.SchedulePreemption(node, notice)
		if err != nil {
			_ = s.clus.EndDrain(node)
			return nil, err
		}
		deadline = d
	}
	dctx, cancel := context.WithDeadline(ctx, deadline)
	rep, err := s.ckpt.DrainNode(dctx, node)
	cancel()
	return s.finishLeave(node, rep, err)
}

// RemoveNode takes node out of the cluster gracefully: the node enters
// the Draining state, ships its committed checkpoint blobs to a live
// custodian (chosen in ring order), and is then killed. Unlike
// PreemptNode there is no deadline — the drain gets as long as the
// context allows. After a completed drain the next AddNode on the slot
// restores the blobs verbatim and the following Load performs ZERO
// erasure rebuilds.
func (s *System) RemoveNode(ctx context.Context, node int) (*DrainReport, error) {
	if err := s.clus.BeginDrain(node); err != nil {
		return nil, err
	}
	rep, err := s.ckpt.DrainNode(ctx, node)
	return s.finishLeave(node, rep, err)
}

// AddNode refills a vacated (dead) slot with a fresh machine and repairs
// its share of the checkpoint. If the slot left through a completed drain
// (RemoveNode, or PreemptNode with enough notice), the custodian hands
// every blob back with zero rebuilds. Otherwise — a crash leave, a drain
// that lost its race, a custodian that died since — the slot's chunk is
// rebuilt in place from k survivors, the restore round PrefetchNode runs
// (JoinReport.Rebuilt). Either way FaultTolerance is m and the slot is on
// the duty Initialize gave it when AddNode returns nil; when the rebuild
// cannot finish (fewer than k chunks survive, a survivor dies mid-round)
// AddNode returns the round's error, the slot stays an erasure and a retry
// is idempotent. The replacement itself is fenced behind the save slot like
// ReplaceNode.
func (s *System) AddNode(ctx context.Context, node int) (*JoinReport, error) {
	if err := s.ReplaceNode(node); err != nil {
		return nil, err
	}
	return s.ckpt.RepairNode(ctx, node)
}

// OnPreemptionNotice registers fn to run when a chaos-plan preemption
// notice fires (ChaosPreemption entries in the plan, or an explicit
// PreemptNode under chaos): the node has until deadline before the kill
// lands. Requires Config.Chaos. The callback runs on a transport
// goroutine in the middle of a protocol operation — do not call System
// methods from it; hand the event to your training loop (e.g. over a
// channel) and react between rounds, the way a real trainer handles a
// spot two-minute warning.
func (s *System) OnPreemptionNotice(fn func(node int, deadline time.Time)) error {
	if s.chaosNet == nil {
		return fmt.Errorf("eccheck: chaos not enabled (set Config.Chaos)")
	}
	s.chaosNet.SetOnNotice(fn)
	return nil
}
