package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eccheck/internal/serialize"
	"eccheck/internal/statedict"
)

// Asynchronous snapshot-and-drain checkpointing. The paper's central claim
// is that ECCheck stalls training only for the DtoH offload: once each
// worker's tensor state is copied into host staging buffers, training
// resumes while serialization, encoding, XOR reduction, P2P placement,
// commit and remote persistence drain in the background. SaveAsync is that
// split made explicit: it blocks through step 1 (the snapshot) and returns
// a SaveHandle while the rest of the round drains on background
// goroutines. The previous checkpoint version stays committed and loadable
// until the drain passes the commit barrier, so a crash mid-drain degrades
// to the old version exactly like a crash mid-Save.

// SaveHandle tracks one save round from the moment its snapshot stage
// returned until the background drain commits (or aborts). It is returned
// by SaveAsync; internally every round — restores and membership steps
// included — carries one, which is what Close cancels and waits for.
type SaveHandle struct {
	done chan struct{}

	// cancel cancels the round's context; aborted records that Close did.
	cancel  context.CancelFunc
	aborted atomic.Bool

	// stall is the blocking portion: the snapshot stage's wall time.
	stall time.Duration

	// The outcome, written once before done closes.
	report *SaveReport
	err    error

	// What the round ships, fixed by the snapshot stage. delta: it patches
	// the committed checkpoint (false: every window over a zero base).
	// shipped: how many of the cluster's windows buffer windows carry
	// traffic.
	delta            bool
	shipped, windows int
}

// Done returns a channel closed when the round has fully drained —
// committed or aborted. After Done, Err and the report are final.
func (h *SaveHandle) Done() <-chan struct{} { return h.done }

// Err returns nil while the drain is still running or if it committed, and
// the round's error if it aborted. Unlike Wait it never blocks.
func (h *SaveHandle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Wait blocks until the round has drained and returns its report. The
// context bounds only the waiting: cancelling it abandons the wait, not
// the drain. On an aborted round Wait returns the round's error and the
// previous checkpoint version remains committed and loadable; the
// returned report (when non-nil alongside the error) carries only
// diagnostics — timing and the flight-recorder postmortem tail.
func (h *SaveHandle) Wait(ctx context.Context) (*SaveReport, error) {
	select {
	case <-h.done:
		return h.report, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stall returns the blocking portion of the round: the wall time of the
// snapshot stage SaveAsync blocked for. Available as soon as SaveAsync
// returns.
func (h *SaveHandle) Stall() time.Duration { return h.stall }

// abort cancels the round (used by Close). Safe after the round finished.
func (h *SaveHandle) abort() {
	h.aborted.Store(true)
	h.cancel()
}

// saveMode selects the policy differences between Save, SaveAsync and
// SaveIncremental; its first two fields are how a round claims the save
// slot (see open).
type saveMode struct {
	// waitInflight makes slot acquisition wait for an in-flight round
	// (SaveAsync) instead of failing with ErrSaveInFlight (Save).
	waitInflight bool
	// detach unbinds the drain from the caller's context cancellation:
	// after SaveAsync returns, cancelling the caller's context must not
	// kill the background round. Context values (the op deadline) are
	// preserved.
	detach bool
	// delta asks for a delta round (SaveIncremental): ship only the buffer
	// windows that changed, onto a copy of the committed checkpoint. The
	// round grants it when every node still holds that base (deltaBase) and
	// otherwise ships every window over a zero base, like Save.
	delta bool
}

// op names the round on every surface: health, log, flight and watchdog.
// The save_phase_ns histograms stay keyed "save": they name the protocol,
// which a delta round shares.
func (m saveMode) op() string {
	if m.delta {
		return OpIncremental
	}
	return OpSave
}

// SaveAsync checkpoints all workers' state dicts with the snapshot-and-
// drain split: it blocks only through step 1 — the DtoH offload of every
// worker's tensor state into host staging buffers — and returns a
// SaveHandle while serialization, encoding, XOR reduction, P2P placement,
// commit and remote persistence drain on background goroutines.
//
// Training may resume (and mutate the live dicts) the moment SaveAsync
// returns: the snapshot owns private copies of all tensor bytes. The
// previous checkpoint version stays committed and loadable until the drain
// passes the commit barrier; a crash or kill mid-drain aborts the round
// and degrades recovery to the previous version. If another save round is
// in flight, SaveAsync waits for its drain to finish before starting
// (the documented policy; the non-blocking Save/SaveIncremental paths
// return ErrSaveInFlight instead). Cancelling ctx after SaveAsync returns
// does not abort the drain — use Close for that — but per-operation
// deadlines still bound every transport step of the round.
func (c *Checkpointer) SaveAsync(ctx context.Context, dicts []*statedict.StateDict) (*SaveHandle, error) {
	return c.startSave(ctx, dicts, saveMode{waitInflight: true, detach: true})
}

// startSave validates the round, claims the save slot, runs the snapshot
// stage (blocking) and spawns the drain. It is the one engine under Save,
// SaveAsync and SaveIncremental.
func (c *Checkpointer) startSave(ctx context.Context, dicts []*statedict.StateDict, mode saveMode) (*SaveHandle, error) {
	world := c.cfg.Topo.World()
	if len(dicts) != world {
		return nil, fmt.Errorf("core: got %d state dicts, want world size %d", len(dicts), world)
	}
	for rank, sd := range dicts {
		if sd == nil {
			return nil, fmt.Errorf("core: nil state dict for rank %d", rank)
		}
	}
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		if !c.clus.Alive(node) {
			return nil, fmt.Errorf("core: cannot checkpoint with node %d failed", node)
		}
	}

	// Agree on the packet size: the aligned maximum tensor payload. In the
	// real system this is part of the state synchronization that precedes
	// every checkpoint.
	packetBytes := 0
	for _, sd := range dicts {
		if b := sd.TensorBytes(); b > packetBytes {
			packetBytes = b
		}
	}
	packetBytes = c.code.ChunkAlign(packetBytes)
	if packetBytes == 0 {
		return nil, fmt.Errorf("core: all state dicts are empty")
	}

	r, ctx, err := c.open(ctx, roundSave, mode.op(), mode)
	if err != nil {
		return nil, err
	}
	ctx = r.begin(ctx, int(c.version.Load())+1)
	h := r.h
	h.delta = mode.delta && c.deltaBase(packetBytes)

	// --- Snapshot stage (blocking): step 1 on every node in parallel.
	// Pure local memory work — decompose, serialize small components, DtoH
	// packet copy — no network, so a snapshot cannot hang on a peer.
	snaps := make([]*nodeSnapshot, c.cfg.Topo.Nodes())
	// The per-node section (snapshot through drain) starts here; drainSave
	// measures synchronization skew against this mark so the phase
	// breakdown keeps summing to the round's wall time across the
	// snapshot→drain goroutine handoff.
	sectionStart := time.Now()
	snapshot := func() error {
		snapErrc := make(chan error, len(snaps))
		var snapWG sync.WaitGroup
		for node := range snaps {
			snapWG.Add(1)
			go func(node int) {
				defer snapWG.Done()
				snap, err := c.snapshotNode(r, node, packetBytes, dicts, h.delta)
				if err != nil {
					snapErrc <- fmt.Errorf("core: node %d snapshot: %w", node, err)
				}
				snaps[node] = snap
			}(node)
		}
		snapWG.Wait()
		close(snapErrc)
		err := <-snapErrc
		if err != nil {
			for _, snap := range snaps {
				if snap != nil {
					snap.release(c)
				}
			}
		}
		return err
	}
	err = snapshot()
	if errors.Is(err, errNoDeltaBase) {
		// A cache deltaBase saw is missing, mis-sized or corrupt: the same
		// round ships every window instead, which also restages every cache.
		// The first attempt gave the blobs it packed back to the spare
		// stacks, so the retry takes them again.
		h.delta = false
		err = snapshot()
	}
	if err != nil {
		// End the round as well as the slot (matching drainSave's fail path):
		// anything that already captured it as the in-flight round — Close, a
		// queued SaveAsync, a Load waiting for the drain — is blocked on
		// Done() and must see the round end.
		c.failSave(r, packetBytes, mode, err)
		return nil, err
	}
	for _, snap := range snaps {
		h.shipped += snap.shipped
	}
	h.windows = world * c.numBuffers(packetBytes)
	h.stall = time.Since(r.started)

	// --- Drain stage (background): everything after the offload.
	go c.drainSave(ctx, r, snaps, packetBytes, sectionStart, mode)
	return h, nil
}

// failSave ends a save round that failed. Its report carries diagnostics
// only: timing that preserves the StallNs+OverlapNs == Elapsed invariant
// even for a round aborted mid-drain, and the round's flight-recorder event
// tail (the postmortem), cut after the terminal event so the tail includes
// it. The error itself travels separately (SaveHandle.Err).
func (c *Checkpointer) failSave(r *round, packetBytes int, mode saveMode, err error) {
	report := &SaveReport{
		Version:     r.version,
		PacketBytes: packetBytes,
		Elapsed:     time.Since(r.started),
	}
	if mode.detach && r.h.stall > 0 {
		// The caller unblocked after the snapshot; everything since — the
		// partial drain included — overlapped resumed training.
		report.StallNs = r.h.stall
		report.OverlapNs = report.Elapsed - report.StallNs
	} else {
		// Synchronous round, or the round died before the snapshot stage
		// finished: the caller was blocked the whole time.
		report.StallNs = report.Elapsed
	}
	r.h.report = report
	r.end(err, func() { report.Postmortem = r.tail() })
}

// drainSave runs the background portion of a save round: steps 2-3 on
// every node, the commit barrier, the version bump and step 4 (remote
// persistence). It always ends the round, which releases the save slot.
func (c *Checkpointer) drainSave(ctx context.Context, r *round, snaps []*nodeSnapshot, packetBytes int, sectionStart time.Time, mode saveMode) {
	lay, tags, version := c.lay, c.roundTags(), r.version
	fail := func(err error) {
		c.discardStaged(&lay.keys)
		clear(c.spares) // what the drains did not take goes with what they did
		// Whatever this round left in flight stays under its own tags.
		c.epoch.Add(1)
		c.failSave(r, packetBytes, mode, err)
	}

	// Step 2 broadcasts every worker's small-component blob, which the
	// snapshots hold: its message less the ship-set.
	smallBytes, shipBytes := 0, shipSetBytes(c.numBuffers(packetBytes))
	for _, snap := range snaps {
		for _, msg := range snap.smalls {
			smallBytes += len(msg) - shipBytes
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	nodes := c.cfg.Topo.Nodes()
	errc := make(chan error, nodes)
	var wg sync.WaitGroup
	nodePhases := make([]map[string]time.Duration, nodes)
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			phases, err := c.nodeDrain(ctx, r, snaps[node], tags, packetBytes)
			if err != nil {
				errc <- fmt.Errorf("core: node %d save: %w", node, err)
				cancel()
				return
			}
			nodePhases[node] = phases
		}(node)
	}
	wg.Wait()
	sectionWall := time.Since(sectionStart)
	close(errc)
	if err := <-errc; err != nil {
		// Abort: drop the staged blobs so host memory holds exactly the
		// previous committed checkpoint, still fully loadable.
		fail(err)
		return
	}
	// Every node finished staging the new version; promote it. The commit
	// is local host-memory work (no network), ordered so each node's
	// manifest — the blob that announces the new version — lands last.
	commitStart := time.Now()
	c.commitMu.Lock()
	err := c.commitStaged()
	if err == nil {
		c.version.Store(int64(version))
	}
	c.commitMu.Unlock()
	if err != nil {
		fail(fmt.Errorf("core: commit v%d: %w", version, err))
		return
	}
	// From here on the round has won: the new version is committed in host
	// memory, and nothing below can fail it.
	commitTime := time.Since(commitStart)
	// The commit barrier is cluster-wide work (node -1 on the timeline).
	c.cfg.Flight.Phase(r.op, -1, version, PhasePromote, commitStart, commitTime)

	// Straggler-tolerant commit barrier accounting: each node's partition
	// covers that node's own timeline, but the round lasts as long as its
	// slowest node. Charge each fast node's wait — the section wall minus
	// its own phase total — to a per-node "straggle" lane instead of
	// inflating the round's shared barrier, so the mean partition still
	// sums to the section wall while the per-node view pins the slow
	// machine: the straggler is the node whose straggle lane is (near)
	// zero, and StragglerLag reports how far it ran behind the cluster
	// mean.
	stragglerNode, stragglerLag := chargeStraggle(nodePhases, sectionWall)
	for node, phases := range nodePhases {
		c.observePhases("save", node, phases)
	}
	phases := meanPhases(nodePhases)
	phases[PhasePromote] += commitTime

	report := &SaveReport{
		Version:       version,
		PacketBytes:   packetBytes,
		SmallBytes:    smallBytes,
		Phases:        phases,
		NodePhases:    nodePhases,
		StragglerNode: stragglerNode,
		StragglerLag:  stragglerLag,
	}

	// Step 4: low-frequency remote persistence. The blobs are rebuilt from
	// the just-committed checkpoint (data chunks + small components in
	// host memory), never from the live dicts: on an async round training
	// has resumed and may be mutating them, and a torn serialization must
	// not reach the durable tier. A persist that fails — the tier hung, or
	// Close cancelled the round — leaves RemotePersisted false and the
	// committed round a success.
	if c.remote != nil && version%c.cfg.RemotePersistEvery == 0 {
		persistStart := time.Now()
		report.RemotePersisted = c.persist(ctx, r, packetBytes)
		persistTime := time.Since(persistStart)
		phases[PhasePersist] += persistTime
		c.cfg.Flight.Phase(r.op, -1, version, PhasePersist, persistStart, persistTime)
	}
	report.Elapsed = time.Since(r.started)
	if mode.detach {
		report.StallNs = r.h.stall
		report.OverlapNs = report.Elapsed - report.StallNs
	} else {
		// Synchronous round: the caller blocked through the whole thing.
		report.StallNs = report.Elapsed
	}
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("save_rounds_total").Inc()
		reg.Counter("save_small_bytes_total").Add(int64(report.SmallBytes))
		reg.Histogram("save_round_ns").ObserveDuration(report.Elapsed)
		reg.Histogram("save_stall_ns").ObserveDuration(report.StallNs)
		reg.Histogram("save_overlap_ns").ObserveDuration(report.OverlapNs)
	}
	r.h.report = report
	r.end(nil, nil)
}

// persist is step 4: it serializes every worker's state from the committed
// checkpoint in host memory and writes it to the remote tier — the packet
// out of the worker's data chunk segment, the small components off the first
// node of the worker's code group (every node holds its group's broadcast set
// after a commit) — then garbage-collects the persisted versions beyond the
// retention bound. It reports whether the version is persisted. A failure is
// the tier's, not the round's: the ranks the attempt wrote are deleted, so no
// torn copy of the version stays behind, and it is logged and counted in
// remote_persist_failures_total.
func (c *Checkpointer) persist(ctx context.Context, r *round, packetBytes int) bool {
	lay, version, every := c.lay, r.version, c.cfg.RemotePersistEvery
	put := func(rank int) error {
		cg, j := lay.plan.GroupOfRank(rank), lay.plan.DataGroupOf[rank]
		packet, err := c.fetch(lay.plan.ChunkOwner(cg, j), lay.keys.segment[j][lay.plan.SegmentOf[rank]])
		if err != nil {
			return err
		}
		first, _ := lay.plan.NodeRange(cg)
		small, err := c.fetch(first, lay.keys.small[rank])
		if err != nil {
			return err
		}
		sd, err := assemblePacket(rank, small, packet)
		if err != nil {
			return err
		}
		blob, err := serialize.Marshal(sd)
		if err != nil {
			return err
		}
		_, err = c.remote.Put(ctx, 0, remoteKey(version, rank), blob)
		return err
	}
	for rank := 0; rank < c.cfg.Topo.World(); rank++ {
		if err := put(rank); err != nil {
			for written := 0; written <= rank; written++ {
				c.remote.Delete(remoteKey(version, written))
			}
			if reg := c.cfg.Metrics; reg != nil {
				reg.Counter("remote_persist_failures_total").Inc()
			}
			if l := c.cfg.Logger; l != nil {
				l.Warn("remote persist failed", "op", r.op, "version", version, "rank", rank, "err", err)
			}
			return false
		}
	}
	for v := version - remoteRetain*every; v > 0; v -= every {
		if !c.remote.Has(remoteKey(v, 0)) {
			break
		}
		for rank := 0; rank < c.cfg.Topo.World(); rank++ {
			c.remote.Delete(remoteKey(v, rank))
		}
	}
	return true
}
