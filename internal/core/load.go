package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/gf"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// Load recovers the latest checkpoint from the distributed in-memory
// chunks: the paper's eccheck.load. All nodes must be alive (replace failed
// machines with cluster.Replace first). It returns every worker's
// reconstructed state dict, rebuilds the missing chunks so full fault
// tolerance is restored, and reports which workflow ran.
//
// Load first waits for any in-flight save drain (started by SaveAsync) to
// settle, so it always observes a quiescent staging area: either the drain
// committed its version (Load returns it) or aborted (Load returns the
// previous one). Close interrupts a running Load.
func (c *Checkpointer) Load(ctx context.Context) ([]*statedict.StateDict, *LoadReport, error) {
	rd, err := c.restore(ctx, restoreReq{op: OpLoad, want: upTo(c.cfg.Topo.World()), repair: repairAll})
	if reg := c.cfg.Metrics; reg != nil && err == nil {
		reg.Counter("load_rounds_total").Inc()
		reg.Counter("load_rebuilt_chunks_total").Add(int64(len(rd.report.MissingChunks)))
		reg.Counter("load_corrupt_blobs_total").Add(rd.corrupt.Load())
	}
	return rd.dicts, rd.report, err
}

// PrefetchReport summarizes a warm-standby parity prefetch (PrefetchChunk).
type PrefetchReport struct {
	// Node is the prefetching node; Chunk is the chunk of its code group it
	// hosts.
	Node, Chunk int
	// Version is the checkpoint version the chunk was rebuilt at.
	Version int
	// Segments is how many segments were rebuilt and stored (0 when the
	// chunk was already intact).
	Segments int
	// SmallsCopied is how many small-component blobs were copied onto the
	// node (one per rank of its code group).
	SmallsCopied int
	// AlreadyIntact reports the node already served the latest version
	// with a complete chunk, so nothing was rebuilt.
	AlreadyIntact bool
	// BytesFetched is the total host-memory bytes read by the prefetch.
	BytesFetched int64
	// Elapsed is the wall-clock duration of the prefetch.
	Elapsed time.Duration
}

// PrefetchChunk warms a standby before recovery asks for it: the given
// node (typically freshly swapped in by ReplaceNode) has the chunk it is
// responsible for rebuilt from k surviving chunks, plus the full
// small-component broadcast set and finally the manifest, so the checkpoint
// becomes visible on the node only once it is complete. After a successful
// prefetch the next Load scans an all-intact cluster and runs the pure
// replacement workflow with zero rebuilds on the restore critical path; a
// LoadPartial for the node's workers hits the direct-fetch fast path.
//
// It is a Load that wants no rank back and repairs one node: the same
// distributed rebuild, run only on the node, the k basis owners and the
// small-component source, so it succeeds while other nodes are dead. It is
// idempotent: a node already serving the latest version returns
// AlreadyIntact without writing anything.
func (c *Checkpointer) PrefetchChunk(ctx context.Context, node int) (*PrefetchReport, error) {
	if node < 0 || node >= c.cfg.Topo.Nodes() {
		return nil, fmt.Errorf("core: node %d out of range [0, %d)", node, c.cfg.Topo.Nodes())
	}
	rd, err := c.restore(ctx, restoreReq{op: OpPrefetch, repair: node})
	if err != nil {
		return nil, err
	}
	plan := c.lay.plan
	cg := plan.GroupOfNode(node)
	gp := &rd.groups[cg]
	rep := &PrefetchReport{Node: node, Chunk: plan.ChunkOfNode[node], Version: rd.version,
		BytesFetched: rd.report.BytesFetched, Elapsed: rd.report.Elapsed}
	if len(gp.missing) > 0 {
		rep.Segments = plan.Span()
	}
	if slices.Contains(gp.needSmall, node) {
		rankLo, rankHi := plan.RankRange(cg)
		rep.SmallsCopied = rankHi - rankLo
	}
	rep.AlreadyIntact = rep.Segments+rep.SmallsCopied == 0
	if reg := c.cfg.Metrics; reg != nil && !rep.AlreadyIntact {
		reg.Counter("prefetch_rounds_total").Inc()
		reg.Counter("prefetch_segments_total").Add(int64(rep.Segments))
	}
	return rep, nil
}

// serveDistributed runs the paper's recovery protocol: one goroutine per
// participating node (plan.part) rebuilds the missing chunks, re-broadcasts
// small components and redistributes the wanted packets over the transport.
func (c *Checkpointer) serveDistributed(ctx context.Context, cancel context.CancelFunc, rd *restoreRound) error {
	rd.workflow = "replacement" // every data chunk survives: rebuilding is re-encoding
	for cg := range rd.groups {
		gp := &rd.groups[cg]
		if len(gp.missing) > 0 && gp.missing[0] < c.cfg.K {
			rd.workflow = "decode"
		}
		if err := c.transforms(gp.decode); err != nil {
			return err
		}
	}
	rd.pc.Stop() // the coordinator only waits from here on
	rd.tags = c.roundTags()
	n := c.cfg.Topo.Nodes()
	// Every node's error is kept, not just the first: a multi-node failure's
	// postmortem must attribute each failed node, and under cancellation the
	// node that caused the cancel is not necessarily the first to report.
	errs := make([]error, n)
	phases := make([]map[string]time.Duration, n)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		if !rd.part[node] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if phases[node], err = c.nodeLoad(ctx, node, rd); err != nil {
				errs[node] = fmt.Errorf("core: node %d load: %w", node, err)
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Whatever the round left in flight stays under this epoch's tags.
		c.epoch.Add(1)
		return err
	}
	for node, ph := range phases {
		if ph != nil {
			c.observePhases("load", node, ph)
			rd.nodePhases = append(rd.nodePhases, ph)
		}
	}
	return nil
}

// nodeLoad runs one node's side of recovery, delivers its local wanted
// workers' state dicts into rd.dicts and returns the goroutine's phase
// partition (see LoadPhases).
func (c *Checkpointer) nodeLoad(ctx context.Context, node int, rd *restoreRound) (map[string]time.Duration, error) {
	topo, plan, keys, tags := c.cfg.Topo, c.lay.plan, &c.lay.keys, rd.tags
	// The node's round runs inside its code group: the chunks it rebuilds
	// from and for, the small components it holds, and the wanted ranks whose
	// packets it serves or receives are the group's.
	cg := plan.GroupOfNode(node)
	gp := &rd.groups[cg]
	rankLo, rankHi := plan.RankRange(cg)
	want := rd.wantIn(rankLo, rankHi)
	pc := rd.clock(node, PhaseFetch)
	defer pc.unwatch()

	ep, err := c.net.Endpoint(node)
	if err != nil {
		return nil, err
	}
	myChunk := plan.ChunkOfNode[node]
	rebuild := slices.Contains(gp.missing, myChunk)

	// This node's chunk segments: an intact chunk is served from the views
	// the scan verified (read-only); a missing one is rebuilt into fresh —
	// and therefore zero — buffers the rebuild XOR-accumulates into, which
	// host memory adopts once it is done.
	chunkSegs := rd.scan[node].segs
	window := c.cfg.BufferSize // the checksum window
	if rebuild {
		chunkSegs = make([][]byte, len(keys.segment[myChunk]))
		for s := range chunkSegs {
			chunkSegs[s] = cluster.NewBlob(rd.packetBytes, window)
		}
	}
	pc.Switch(PhaseRebuild)

	// --- Phase R1: distributed rebuild of missing chunks. ---
	// Basis holders stream coefficient-multiplied slices to each missing
	// chunk's owner; owners XOR-accumulate k contributions per slice.
	var rebuildErr error
	var rebuildWG sync.WaitGroup
	if rebuild {
		rebuildWG.Add(1)
		go func() {
			defer rebuildWG.Done()
			for s, tag := range tags.rebuild[myChunk] {
				for lo := 0; lo < rd.packetBytes; lo += rd.bufSize {
					hi := min(lo+rd.bufSize, rd.packetBytes)
					for _, basisChunk := range gp.decode[s].basis {
						payload, err := ep.Recv(ctx, plan.ChunkOwner(cg, basisChunk), tag)
						if err != nil {
							rebuildErr = err
							return
						}
						if len(payload) != hi-lo {
							rebuildErr = fmt.Errorf("core: rebuild slice size %d, want %d", len(payload), hi-lo)
						} else {
							rebuildErr = gf.XORSlice(chunkSegs[s][lo:hi], payload)
						}
						c.buf.Put(payload)
						if rebuildErr != nil {
							return
						}
					}
					// The slice is final and still cache-hot: seal the sums
					// of its windows now (slices finish in order).
					cluster.SealWindows(chunkSegs[s], window, lo, hi)
				}
			}
		}()
	}
	// A basis owner multiplies each window of its segment by the segment
	// plan's column for its position — every missing chunk's coefficient —
	// in one pass, and sends the products back to back, one per missing
	// chunk's owner. Each (missing chunk, segment) tag still carries its
	// windows in order.
	terms := make([][]byte, len(gp.missing))
	for s := range gp.decode {
		p := &gp.decode[s]
		pos := slices.Index(p.basis, myChunk)
		for lo := 0; pos != -1 && lo < rd.packetBytes; lo += rd.bufSize {
			hi := min(lo+rd.bufSize, rd.packetBytes)
			// Pooled, not zeroed: the column product fully overwrites each
			// output. Ownership passes to the transport with SendOwned.
			for row := range terms {
				terms[row] = c.buf.Get(hi - lo)
			}
			if err := c.mulColumn(p.cols[pos], terms, chunkSegs[s][lo:hi]); err != nil {
				for _, term := range terms {
					c.buf.Put(term)
				}
				return nil, err
			}
			for row, missingChunk := range gp.missing {
				if err := transport.SendOwned(ctx, ep, plan.ChunkOwner(cg, missingChunk), tags.rebuild[missingChunk][s], terms[row]); err != nil {
					for _, term := range terms[row+1:] {
						c.buf.Put(term)
					}
					return nil, err
				}
			}
		}
	}
	rebuildWG.Wait()
	if rebuildErr != nil {
		return nil, rebuildErr
	}

	// A repaired node lands in one order — segments, small components,
	// manifest last — after its old manifest is gone, so at every cut it is
	// either an erasure or complete at one version, never new segments under
	// an old manifest or a new manifest over old small components. The
	// rebuild goroutine has exited, so the buffers are handed over as they
	// are; everything below only reads them.
	if rebuild {
		if err := c.clus.Delete(node, keyManifest()); err != nil {
			return nil, err
		}
		for s, key := range keys.segment[myChunk] {
			if err := cluster.AdoptSealed(c.clus, node, key, chunkSegs[s], window); err != nil {
				return nil, err
			}
		}
	}
	pc.Switch(PhaseSmallSync)

	// --- Phase R2: re-broadcast small components to nodes that lost them. ---
	if node == gp.smallSources[0] {
		// Each rank's blob is loop-invariant across peers, so it is fetched
		// (and checksummed) exactly once and re-sent to every peer that needs
		// it.
		for rank := rankLo; len(gp.needSmall) > 0 && rank < rankHi; rank++ {
			small, err := c.smallsOf(rd, gp.smallSources[:1], rank)
			if err != nil {
				return nil, err
			}
			for _, peer := range gp.needSmall {
				if err := ep.Send(ctx, peer, tags.resync[rank], small); err != nil {
					return nil, err
				}
			}
		}
	}
	if slices.Contains(gp.needSmall, node) {
		for rank := rankLo; rank < rankHi; rank++ {
			small, err := ep.Recv(ctx, gp.smallSources[0], tags.resync[rank])
			if err != nil {
				return nil, err
			}
			// store copies, so the received buffer can go back to the pool.
			err = c.store(node, keys.small[rank], small)
			c.buf.Put(small)
			if err != nil {
				return nil, err
			}
		}
	}
	if rebuild {
		if err := c.store(node, keyManifest(), manifestBlob(rd.version, rd.packetBytes, rd.bufSize)); err != nil {
			return nil, err
		}
	}
	pc.Switch(PhaseRedistribute)

	// --- Phase R3: distribute original packets so every wanted worker
	// resumes. Data nodes serve the segments of their (possibly just rebuilt)
	// chunk; a worker's home node reassembles it.
	g := topo.GPUsPerNode()
	for _, w := range want {
		if home := w / g; plan.DataGroupOf[w] == myChunk && home != node {
			if err := ep.Send(ctx, home, tags.packet[w], chunkSegs[plan.SegmentOf[w]]); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range want {
		if w/g != node {
			continue
		}
		srcNode := plan.ChunkOwner(cg, plan.DataGroupOf[w])
		var packet []byte
		if srcNode == node {
			packet = chunkSegs[plan.SegmentOf[w]]
		} else if packet, err = ep.Recv(ctx, srcNode, tags.packet[w]); err != nil {
			return nil, err
		}
		// The small components come off this node, which holds the broadcast
		// set by now. assemblePacket copies every tensor region into fresh
		// storage, so a received packet can be recycled as soon as it returns.
		small, err := c.smallsOf(rd, []int{node}, w)
		if err == nil {
			rd.dicts[w], err = assemblePacket(w, small, packet)
		}
		if srcNode != node {
			c.buf.Put(packet)
		}
		if err != nil {
			return nil, err
		}
	}
	return pc.Stop(), nil
}
