package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"eccheck/internal/statedict"
)

// Incremental checkpointing exploits the linearity of the erasure code:
// if a worker's packet changes by Δ, every coded quantity updates by a
// scalar multiple of Δ — the data chunk's segment by Δ itself and parity
// chunk i's segment by E[k+i][j]·Δ. Workers therefore keep their previous
// packets, diff buffer-by-buffer against the new state, and ship only the
// changed windows. The code is systematic, so a worker whose data chunk is
// stored on its own node already has its previous packet there, as its
// segment; only the others cache it (keyTable.base). Between optimizer
// steps most large language model state
// (optimizer moments in particular) changes everywhere, but sparse or
// partially frozen training regimes change a small fraction, and the
// update volume becomes proportional to the changed fraction — the idea
// Check-N-Run applies to recommendation models, here generalised to coded
// checkpoints.
//
// A delta save is not a protocol of its own. It is the save round (see
// startSave, nodeDrain) with two parameters changed: each worker's ship-set
// holds the windows that differ from its delta base instead of its payload
// windows, and the chunk segments a shipped window lands in start as a copy
// of the committed ones instead of zeroes. The other segments, and the cache of
// a worker that ships nothing, are carried: the node neither reads
// nor restages them and the commit leaves them stored, so the round's
// segment-sized work follows the ship-sets. Staging, the commit under
// commitMu, phase clocks, flight events and the watchdog are the round's own.

// keyOwnPacket caches a worker's latest packet on its own node when its data
// chunk is stored on another.
func keyOwnPacket(rank int) string { return fmt.Sprintf("own/%d", rank) }

// shipSet is one worker's bitmap over the buffer windows of its packet:
// the windows that carry traffic in a save round. It is protocol state, not
// checkpoint state — it rides the step-2 broadcast behind the worker's
// metadata blob and is never stored.
type shipSet []byte

func shipSetBytes(numBuffers int) int { return (numBuffers + 7) / 8 }

func (s shipSet) has(b int) bool { return s[b>>3]&(1<<(b&7)) != 0 }
func (s shipSet) set(b int)      { s[b>>3] |= 1 << (b & 7) }

// none reports whether the set holds no window.
func (s shipSet) none() bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// or adds every window of o to s.
func (s shipSet) or(o shipSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// IncrementalReport summarises an incremental save.
type IncrementalReport struct {
	// Version is the new checkpoint version.
	Version int
	// Full reports that the round shipped every payload window (each one
	// holding any of its worker's tensor bytes) over a zero base because no
	// usable previous state existed (first save, packet-size change, or
	// missing caches after a replacement).
	Full bool
	// ChangedBuffers and TotalBuffers count the diffed windows across all
	// workers.
	ChangedBuffers int
	TotalBuffers   int
	// Elapsed is the wall time of the round.
	Elapsed time.Duration
}

// SaveIncremental checkpoints by updating the previous coded checkpoint
// with per-buffer deltas. It requires Config.IncrementalCache; when no
// usable previous state exists the same round ships every payload window
// over a zero base instead, like Save (IncrementalReport.Full). Like Save it refuses to run concurrently with
// another save round: ErrSaveInFlight when one is already draining.
func (c *Checkpointer) SaveIncremental(ctx context.Context, dicts []*statedict.StateDict) (*IncrementalReport, error) {
	if !c.cfg.IncrementalCache {
		return nil, fmt.Errorf("core: incremental saves need Config.IncrementalCache")
	}
	h, err := c.startSave(ctx, dicts, saveMode{delta: true})
	if err != nil {
		return nil, err
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		return nil, err
	}
	out := &IncrementalReport{Version: rep.Version, Full: !h.delta, Elapsed: rep.Elapsed}
	if h.delta {
		out.ChangedBuffers, out.TotalBuffers = h.shipped, h.windows
		if reg := c.cfg.Metrics; reg != nil {
			reg.Counter("save_incremental_rounds_total").Inc()
			reg.Counter("incremental_changed_buffers_total").Add(int64(out.ChangedBuffers))
			reg.Counter("incremental_total_buffers_total").Add(int64(out.TotalBuffers))
			reg.Histogram("save_incremental_ns").ObserveDuration(out.Elapsed)
		}
	}
	return out, nil
}

// errNoDeltaBase marks a snapshot stage that found a worker's delta base
// unusable after deltaBase had granted the delta round.
var errNoDeltaBase = errors.New("unusable delta base")

// deltaBase reports whether every node still holds what a delta round
// builds on: a manifest at the committed version and this packet size, and
// each local worker's base key (verified when the snapshot stage reads it).
// Before the first save, after a node that keeps caches was replaced, or when
// the packet size changed it does not, and the round ships everything.
func (c *Checkpointer) deltaBase(packetBytes int) bool {
	version := int(c.version.Load())
	if version == 0 {
		return false
	}
	g := c.cfg.Topo.GPUsPerNode()
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		blob, err := c.fetch(node, keyManifest())
		if err != nil {
			return false
		}
		if v, p, _, err := parseManifest(blob); err != nil || v != version || p != packetBytes {
			return false
		}
		for w := node * g; w < (node+1)*g; w++ {
			if !c.clus.Has(node, c.lay.keys.base[w].key) {
				return false
			}
		}
	}
	return true
}
