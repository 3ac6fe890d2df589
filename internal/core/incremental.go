package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/gf"
	"eccheck/internal/statedict"
)

// Incremental checkpointing exploits the linearity of the erasure code:
// if a worker's packet changes by Δ, every coded quantity updates by a
// scalar multiple of Δ — the data chunk's segment by Δ itself and parity
// chunk i's segment by E[k+i][j]·Δ. Workers therefore cache their previous
// packets, diff buffer-by-buffer against the new state, and ship only the
// changed slices. Between optimizer steps most large language model state
// (optimizer moments in particular) changes everywhere, but sparse or
// partially frozen training regimes change a small fraction, and the
// update volume becomes proportional to the changed fraction — the idea
// Check-N-Run applies to recommendation models, here generalised to coded
// checkpoints.

// keyOwnPacket caches a worker's latest packet on its own node.
func keyOwnPacket(rank int) string { return fmt.Sprintf("own/%d", rank) }

// Incremental update tags.
func tagDeltaFlag(rank int, dst string) string  { return fmt.Sprintf("uf/%s/%d", dst, rank) }
func tagDeltaSlice(rank int, dst string) string { return fmt.Sprintf("us/%s/%d", dst, rank) }

// IncrementalReport summarises an incremental save.
type IncrementalReport struct {
	// Version is the new checkpoint version.
	Version int
	// Full reports that the call fell back to a full save (first save,
	// packet-size change, or missing caches after a replacement).
	Full bool
	// ChangedBuffers and TotalBuffers count the diffed slices across all
	// workers.
	ChangedBuffers int
	TotalBuffers   int
	// Elapsed is the wall time of the round.
	Elapsed time.Duration
}

// SaveIncremental checkpoints by updating the previous coded checkpoint
// with per-buffer deltas. It requires Config.IncrementalCache; when no
// usable previous state exists it transparently performs a full Save.
// Like Save it refuses to run concurrently with another save round:
// ErrSaveInFlight when one is already draining.
func (c *Checkpointer) SaveIncremental(ctx context.Context, dicts []*statedict.StateDict) (*IncrementalReport, error) {
	started := time.Now()
	if !c.cfg.IncrementalCache {
		return nil, fmt.Errorf("core: incremental saves need Config.IncrementalCache")
	}
	world := c.cfg.Topo.World()
	if len(dicts) != world {
		return nil, fmt.Errorf("core: got %d state dicts, want world size %d", len(dicts), world)
	}

	// Claim the save slot before touching shared checkpoint state; the
	// handle exists so Close can cancel this round too.
	h := newSaveHandle()
	if err := c.acquireSave(ctx, false, h); err != nil {
		return nil, err
	}
	version := int(c.version.Load()) + 1
	c.roundStart(OpIncremental, version)
	h.onFinal = func(_ *SaveReport, err error) { c.roundEnd(OpIncremental, version, err) }
	rep, err := c.saveIncrementalLocked(ctx, h, started, dicts)
	c.releaseSave(h)
	h.complete(nil, err)
	return rep, err
}

// saveIncrementalLocked is SaveIncremental holding the save slot via h.
func (c *Checkpointer) saveIncrementalLocked(ctx context.Context, h *SaveHandle, started time.Time, dicts []*statedict.StateDict) (*IncrementalReport, error) {
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		if !c.clus.Alive(node) {
			return nil, fmt.Errorf("core: cannot checkpoint with node %d failed", node)
		}
	}

	// Usability check: a previous save at the same packet size, with every
	// worker's cache present.
	usable := c.version.Load() > 0
	packetBytes := 0
	for _, sd := range dicts {
		if b := sd.TensorBytes(); b > packetBytes {
			packetBytes = b
		}
	}
	packetBytes = c.code.ChunkAlign(packetBytes)
	if usable {
		for node := 0; usable && node < c.cfg.Topo.Nodes(); node++ {
			blob, err := c.fetch(node, keyManifest())
			if err != nil {
				usable = false
				break
			}
			v, p, _, err := parseManifest(blob)
			if err != nil || int64(v) != c.version.Load() || p != packetBytes {
				usable = false
				break
			}
			g := c.cfg.Topo.GPUsPerNode()
			for w := node * g; w < (node+1)*g; w++ {
				if !c.clus.Has(node, keyOwnPacket(w)) {
					usable = false
					break
				}
			}
		}
	}
	if !usable {
		// Full-save fallback: this round already holds the save slot, so it
		// hands it to startSave rather than going through Save (which would
		// see the slot occupied and fail with ErrSaveInFlight).
		fh, err := c.startSave(ctx, dicts, saveMode{guardHeld: true})
		if err != nil {
			return nil, err
		}
		rep, err := fh.Wait(ctx)
		if err != nil {
			return nil, err
		}
		return &IncrementalReport{Version: rep.Version, Full: true, Elapsed: time.Since(started)}, nil
	}

	version := int(c.version.Load()) + 1
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	h.setCancel(cancel)

	changed := make([]int, c.cfg.Topo.Nodes())
	total := make([]int, c.cfg.Topo.Nodes())
	errc := make(chan error, c.cfg.Topo.Nodes())
	var wg sync.WaitGroup
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			ch, tot, err := c.nodeIncrementalSave(ctx, node, version, packetBytes, dicts)
			if err != nil {
				errc <- fmt.Errorf("core: node %d incremental save: %w", node, err)
				cancel()
				return
			}
			changed[node], total[node] = ch, tot
		}(node)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		if ctx.Err() != nil && c.isClosed() {
			err = fmt.Errorf("%w: %v", ErrSaveAborted, err)
		}
		return nil, err
	}
	c.version.Store(int64(version))

	rep := &IncrementalReport{Version: version, Elapsed: time.Since(started)}
	for node := range changed {
		rep.ChangedBuffers += changed[node]
		rep.TotalBuffers += total[node]
	}
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("save_incremental_rounds_total").Inc()
		reg.Counter("incremental_changed_buffers_total").Add(int64(rep.ChangedBuffers))
		reg.Counter("incremental_total_buffers_total").Add(int64(rep.TotalBuffers))
		reg.Histogram("save_incremental_ns").ObserveDuration(rep.Elapsed)
	}
	return rep, nil
}

// nodeIncrementalSave runs one node's side: diff local packets, ship
// changed slices (raw Δ to the data node, coefficient-multiplied Δ to
// every parity node), apply incoming updates to the stored chunk, refresh
// caches and the manifest.
func (c *Checkpointer) nodeIncrementalSave(ctx context.Context, node, version, packetBytes int, dicts []*statedict.StateDict) (changed, total int, err error) {
	topo := c.cfg.Topo
	plan := c.layout().plan
	g := topo.GPUsPerNode()
	bufSize := c.cfg.BufferSize
	numBuffers := (packetBytes + bufSize - 1) / bufSize

	ep, err := c.endpoint(node)
	if err != nil {
		return 0, 0, err
	}
	sliceBounds := func(b int) (int, int) {
		lo := b * bufSize
		hi := lo + bufSize
		if hi > packetBytes {
			hi = packetBytes
		}
		return lo, hi
	}

	// Applier goroutines: receive per-buffer flags and slices from the
	// workers whose segments this node stores and XOR them in.
	type incomingStream struct {
		srcNode int
		rank    int
		dst     string // "d" for data updates, "p<i>" for parity index i
		seg     int
	}
	var streams []incomingStream
	myChunk := plan.ChunkOfNode[node]
	if myChunk < c.cfg.K {
		for w := 0; w < topo.World(); w++ {
			if plan.DataGroupOf[w] != myChunk {
				continue
			}
			srcNode, err := topo.NodeOf(w)
			if err != nil {
				return 0, 0, err
			}
			if srcNode == node {
				continue
			}
			streams = append(streams, incomingStream{srcNode: srcNode, rank: w, dst: "d", seg: plan.SegmentOf[w]})
		}
	} else {
		pi := myChunk - c.cfg.K
		for w := 0; w < topo.World(); w++ {
			srcNode, err := topo.NodeOf(w)
			if err != nil {
				return 0, 0, err
			}
			if srcNode == node {
				continue
			}
			streams = append(streams, incomingStream{srcNode: srcNode, rank: w, dst: fmt.Sprintf("p%d", pi), seg: plan.SegmentOf[w]})
		}
	}

	// Copy this node's chunk segments for in-place update: the deltas are
	// XORed into a private copy (stored blobs are immutable), which host
	// memory adopts back once every update is applied.
	span := topo.World() / c.cfg.K
	chunkSegs := make([][]byte, span)
	for s := 0; s < span; s++ {
		blob, err := c.fetch(node, keySegment(myChunk, s))
		if err != nil {
			return 0, 0, err
		}
		chunkSegs[s] = cluster.NewBlob(len(blob))
		copy(chunkSegs[s], blob)
	}

	var (
		applyMu  sync.Mutex
		applyErr error
		applyWG  sync.WaitGroup
	)
	fail := func(err error) {
		applyMu.Lock()
		if applyErr == nil {
			applyErr = err
		}
		applyMu.Unlock()
	}
	for _, st := range streams {
		applyWG.Add(1)
		go func(st incomingStream) {
			defer applyWG.Done()
			for b := 0; b < numBuffers; b++ {
				flag, err := ep.Recv(ctx, st.srcNode, tagDeltaFlag(st.rank, st.dst))
				if err != nil {
					fail(err)
					return
				}
				if len(flag) != 1 {
					fail(fmt.Errorf("bad delta flag length %d", len(flag)))
					return
				}
				if flag[0] == 0 {
					continue
				}
				slice, err := ep.Recv(ctx, st.srcNode, tagDeltaSlice(st.rank, st.dst))
				if err != nil {
					fail(err)
					return
				}
				lo, hi := sliceBounds(b)
				if len(slice) != hi-lo {
					fail(fmt.Errorf("delta slice length %d, want %d", len(slice), hi-lo))
					return
				}
				// Segments are updated concurrently but each (seg, slice)
				// region is written by exactly one stream per parity/data
				// relationship... parity nodes receive one stream per
				// worker and all XOR into the same segment slice, so
				// serialise with the mutex.
				applyMu.Lock()
				err = gf.XORSlice(chunkSegs[st.seg][lo:hi], slice)
				applyMu.Unlock()
				if err != nil {
					fail(err)
					return
				}
			}
		}(st)
	}

	// Sender/diff loop over local workers.
	localChanged, localTotal := 0, 0
	for w := node * g; w < (node+1)*g; w++ {
		dec, err := dicts[w].Decompose()
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d decompose: %w", w, err)
		}
		newPacket, err := buildPacket(dec, packetBytes)
		if err != nil {
			return 0, 0, err
		}
		oldPacket, err := c.fetch(node, keyOwnPacket(w))
		if err != nil {
			return 0, 0, err
		}
		if len(oldPacket) != packetBytes {
			return 0, 0, fmt.Errorf("rank %d cache has %d bytes, want %d", w, len(oldPacket), packetBytes)
		}

		j := plan.DataGroupOf[w]
		seg := plan.SegmentOf[w]
		dataNode := plan.DataNodes[j]

		for b := 0; b < numBuffers; b++ {
			lo, hi := sliceBounds(b)
			localTotal++
			delta := make([]byte, hi-lo)
			copy(delta, newPacket[lo:hi])
			if err := gf.XORSlice(delta, oldPacket[lo:hi]); err != nil {
				return 0, 0, err
			}
			if allZero(delta) {
				// Unchanged slice: flag 0 to every destination.
				if dataNode != node {
					if err := ep.Send(ctx, dataNode, tagDeltaFlag(w, "d"), []byte{0}); err != nil {
						return 0, 0, err
					}
				}
				for pi, pNode := range plan.ParityNodes {
					if pNode == node {
						continue
					}
					if err := ep.Send(ctx, pNode, tagDeltaFlag(w, fmt.Sprintf("p%d", pi)), []byte{0}); err != nil {
						return 0, 0, err
					}
				}
				continue
			}
			localChanged++

			// Data-chunk update: raw delta.
			if dataNode == node {
				applyMu.Lock()
				err := gf.XORSlice(chunkSegs[seg][lo:hi], delta)
				applyMu.Unlock()
				if err != nil {
					return 0, 0, err
				}
			} else {
				if err := ep.Send(ctx, dataNode, tagDeltaFlag(w, "d"), []byte{1}); err != nil {
					return 0, 0, err
				}
				if err := ep.Send(ctx, dataNode, tagDeltaSlice(w, "d"), delta); err != nil {
					return 0, 0, err
				}
			}
			// Parity updates: coefficient-multiplied delta per parity node.
			for pi, pNode := range plan.ParityNodes {
				coef, err := c.code.ParityCoefficient(pi, j)
				if err != nil {
					return 0, 0, err
				}
				contribution := make([]byte, len(delta))
				if err := c.scalarMulPooled(coef, contribution, delta); err != nil {
					return 0, 0, err
				}
				if pNode == node {
					applyMu.Lock()
					err := gf.XORSlice(chunkSegs[seg][lo:hi], contribution)
					applyMu.Unlock()
					if err != nil {
						return 0, 0, err
					}
					continue
				}
				dst := fmt.Sprintf("p%d", pi)
				if err := ep.Send(ctx, pNode, tagDeltaFlag(w, dst), []byte{1}); err != nil {
					return 0, 0, err
				}
				if err := ep.Send(ctx, pNode, tagDeltaSlice(w, dst), contribution); err != nil {
					return 0, 0, err
				}
			}
		}

		// Refresh the cache and the broadcast small components (metadata
		// such as the iteration counter changes every step). The diff loop
		// above only read the new packet, so it is handed over as it is.
		if err := c.adopt(node, keyOwnPacket(w), newPacket); err != nil {
			return 0, 0, err
		}
		for peer := 0; peer < topo.Nodes(); peer++ {
			if peer == node {
				continue
			}
			if err := ep.Send(ctx, peer, tagSmallMeta(w), dec.MetaBlob); err != nil {
				return 0, 0, err
			}
			if err := ep.Send(ctx, peer, tagSmallKeys(w), dec.KeysBlob); err != nil {
				return 0, 0, err
			}
		}
		if err := c.store(node, keySmallMeta(w), dec.MetaBlob); err != nil {
			return 0, 0, err
		}
		if err := c.store(node, keySmallKeys(w), dec.KeysBlob); err != nil {
			return 0, 0, err
		}
	}
	// Receive remote small components.
	for rank := 0; rank < topo.World(); rank++ {
		srcNode, err := topo.NodeOf(rank)
		if err != nil {
			return 0, 0, err
		}
		if srcNode == node {
			continue
		}
		meta, err := ep.Recv(ctx, srcNode, tagSmallMeta(rank))
		if err != nil {
			return 0, 0, err
		}
		keys, err := ep.Recv(ctx, srcNode, tagSmallKeys(rank))
		if err != nil {
			return 0, 0, err
		}
		if err := c.store(node, keySmallMeta(rank), meta); err != nil {
			return 0, 0, err
		}
		if err := c.store(node, keySmallKeys(rank), keys); err != nil {
			return 0, 0, err
		}
	}

	applyWG.Wait()
	applyMu.Lock()
	err = applyErr
	applyMu.Unlock()
	if err != nil {
		return 0, 0, err
	}

	// Persist the updated chunk and bump the manifest.
	for s := 0; s < span; s++ {
		if err := c.adopt(node, keySegment(myChunk, s), chunkSegs[s]); err != nil {
			return 0, 0, err
		}
	}
	if err := c.store(node, keyManifest(), manifestBlob(version, packetBytes, bufSize)); err != nil {
		return 0, 0, err
	}
	return localChanged, localTotal, nil
}

// allZero reports whether every byte is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
