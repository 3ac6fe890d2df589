package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/gf"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/serialize"
	"eccheck/internal/statedict"
)

// Recovery message tags.
func tagRebuild(chunk, seg int) string { return fmt.Sprintf("rc/%d/%d", chunk, seg) }
func tagSmallSyncMeta(rank int) string { return fmt.Sprintf("rsm/%d", rank) }
func tagSmallSyncKeys(rank int) string { return fmt.Sprintf("rsk/%d", rank) }
func tagPacket(rank int) string        { return fmt.Sprintf("rp/%d", rank) }

// recoverySpec is the coordinator's view of the failure, shared read-only
// by all node goroutines.
type recoverySpec struct {
	// lay is the layout snapshot the whole round runs under, taken once at
	// scan time so a concurrent membership reseat cannot split the round
	// across two plans.
	lay         *layout
	version     int
	packetBytes int
	// bufSize is the buffer size the checkpoint was encoded with; decode
	// must slice packets identically because the coding region is the
	// buffer slice.
	bufSize int
	// basis is the k chunk indices the rebuild reads from.
	basis []int
	// missing is the chunk indices to rebuild, in ascending order.
	missing []int
	// transform expresses each missing chunk (row) in terms of the basis
	// chunks (columns). Nil when nothing is missing.
	transform *gf.Matrix
	// needSmall marks nodes whose small components were lost.
	needSmall []bool
	// smallSource is the node that re-broadcasts small components.
	smallSource int
	// scan is the per-node availability scan; nodeLoad serves an intact
	// chunk from the segment views it verified (nodeScan.segs).
	scan []nodeScan
	// fetched accumulates the bytes every goroutine in the round reads
	// from host memory, feeding LoadReport.BytesFetched.
	fetched *atomic.Int64
}

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
func (c *Checkpointer) Load(ctx context.Context) (outDicts []*statedict.StateDict, report *LoadReport, retErr error) {
	started := time.Now()
	if err := c.waitInflightSave(ctx); err != nil {
		return nil, nil, err
	}
	// A SaveAsync may start while this round runs; holding the commit lock
	// shared keeps its commit from landing mid-recovery.
	c.commitMu.RLock()
	defer c.commitMu.RUnlock()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	unregister, err := c.registerLoad(cancel)
	if err != nil {
		return nil, nil, err
	}
	defer func() { unregister(retErr) }()
	ctx, loadSpan := obs.StartSpan(ctx, c.cfg.Metrics, "load")
	defer loadSpan.End()
	// Everything the round emits after this cursor belongs to it. The
	// recovered version is only known after the scan; roundVersion tracks
	// it for the terminal event and the postmortem report.
	pmStart := c.cfg.Flight.Cursor()
	roundVersion := 0
	c.roundStart(OpLoad, 0)
	defer func() {
		// The flight postmortem defer below runs first (LIFO), so a failed
		// round's diagnostic report — and its Version — is already final.
		v := roundVersion
		if report != nil {
			v = report.Version
		}
		c.roundEnd(OpLoad, v, retErr)
	}()
	c.cfg.Flight.RoundBegin("load", 0)
	defer func() {
		if retErr == nil {
			return
		}
		// Failed recovery: emit the terminal event first so the postmortem
		// tail includes it, then attach the tail to a diagnostic report.
		c.cfg.Flight.RoundEnd("load", roundVersion, retErr)
		if tail := c.cfg.Flight.TailSince(pmStart, flight.DefaultPostmortemEvents); len(tail) > 0 {
			report = &LoadReport{
				Version:    roundVersion,
				Elapsed:    time.Since(started),
				Postmortem: tail,
			}
		}
	}()
	topo := c.cfg.Topo
	lay := c.layout()
	n := topo.Nodes()
	for node := 0; node < n; node++ {
		if !c.clus.Alive(node) {
			return nil, nil, fmt.Errorf("core: node %d is failed; replace it before loading", node)
		}
	}

	fetched := new(atomic.Int64)
	states, corruptBlobs, err := c.scanNodes(lay, fetched)
	if err != nil {
		return nil, nil, err
	}
	latest := 0
	for node := 0; node < n; node++ {
		if st := states[node]; st.manifestOK && st.chunkOK && st.version > latest {
			latest = st.version
		}
	}
	if latest == 0 {
		return nil, nil, fmt.Errorf("core: no intact in-memory checkpoint found; recover from remote storage")
	}

	var availableChunks, missingChunks, corruptedChunks []int
	packetBytes := 0
	savedBufSize := 0
	for node := 0; node < n; node++ {
		st := states[node]
		chunk := lay.plan.ChunkOfNode[node]
		if st.manifestOK && st.chunkOK && st.version == latest {
			availableChunks = append(availableChunks, chunk)
			packetBytes = st.packet
			savedBufSize = st.bufSize
		} else {
			missingChunks = append(missingChunks, chunk)
			if st.corrupt {
				corruptedChunks = append(corruptedChunks, chunk)
			}
		}
	}
	if len(availableChunks) < c.cfg.K {
		return nil, nil, fmt.Errorf("core: only %d of %d chunks survive (need k=%d); recover from remote storage",
			len(availableChunks), n, c.cfg.K)
	}
	sort.Ints(availableChunks)
	sort.Ints(missingChunks)

	// Workflow selection: if every data chunk survives, recovery is pure
	// replacement; otherwise surviving chunks are decoded.
	workflow := "replacement"
	for _, cIdx := range missingChunks {
		if cIdx < c.cfg.K {
			workflow = "decode"
			break
		}
	}

	spec := &recoverySpec{
		lay:         lay,
		version:     latest,
		packetBytes: packetBytes,
		bufSize:     savedBufSize,
		missing:     missingChunks,
		needSmall:   make([]bool, n),
		smallSource: -1,
		scan:        states,
		fetched:     fetched,
	}
	if workflow == "replacement" {
		// Basis = the data chunks; the transform rows are plain generator
		// rows, making parity rebuild literally a re-encode.
		for j := 0; j < c.cfg.K; j++ {
			spec.basis = append(spec.basis, j)
		}
	} else {
		spec.basis = append([]int(nil), availableChunks[:c.cfg.K]...)
	}
	if len(missingChunks) > 0 {
		tm, err := c.code.TransformMatrix(spec.basis, missingChunks)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		spec.transform = tm
	}
	for node := 0; node < n; node++ {
		st := states[node]
		if st.manifestOK && st.version == latest && st.smallsOK {
			if spec.smallSource == -1 {
				spec.smallSource = node
			}
		} else {
			spec.needSmall[node] = true
		}
	}
	if spec.smallSource == -1 {
		return nil, nil, fmt.Errorf("core: no node holds intact small components; recover from remote storage")
	}
	roundVersion = latest
	scanTime := time.Since(started)
	c.cfg.Flight.Phase("load", -1, latest, PhaseScan, started, scanTime)

	dicts := make([]*statedict.StateDict, topo.World())
	var dictsMu sync.Mutex
	errc := make(chan error, n)
	var wg sync.WaitGroup
	nodePhases := make([]map[string]time.Duration, n)
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			local, phases, err := c.nodeLoad(ctx, node, spec)
			if err != nil {
				errc <- fmt.Errorf("core: node %d load: %w", node, err)
				cancel()
				return
			}
			dictsMu.Lock()
			for rank, sd := range local {
				dicts[rank] = sd
			}
			dictsMu.Unlock()
			nodePhases[node] = phases
		}(node)
	}
	wg.Wait()
	close(errc)
	// Drain every node's error, not just the first: a multi-node failure's
	// postmortem must attribute each failed node, and under cancellation
	// the node that caused the cancel is not necessarily the first to
	// report.
	var nodeErrs []error
	for err := range errc {
		nodeErrs = append(nodeErrs, err)
	}
	if err := errors.Join(nodeErrs...); err != nil {
		if ctx.Err() != nil && c.isClosed() {
			err = fmt.Errorf("%w: %w", ErrSaveAborted, err)
		}
		return nil, nil, err
	}
	c.version.Store(int64(latest))

	for node, phases := range nodePhases {
		c.observePhases("load", node, phases)
	}
	phases := meanPhases(nodePhases)
	phases[PhaseScan] += scanTime
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("load_rounds_total").Inc()
		reg.Counter("load_rebuilt_chunks_total").Add(int64(len(missingChunks)))
		reg.Counter("load_corrupt_blobs_total").Add(int64(corruptBlobs))
	}

	report = &LoadReport{
		Version:         latest,
		Workflow:        workflow,
		MissingChunks:   missingChunks,
		CorruptedChunks: corruptedChunks,
		CorruptBlobs:    corruptBlobs,
		Elapsed:         time.Since(started),
		Phases:          phases,
		BytesFetched:    fetched.Load(),
	}
	c.observeRestore(OpLoad, report.Elapsed)
	c.cfg.Flight.RoundEnd("load", latest, nil)
	if len(missingChunks) > 0 {
		// A recovery that decoded around erasures succeeded, but something
		// was lost or corrupt: attach the event tail so the degradation is
		// diagnosable from the report alone.
		report.Postmortem = c.cfg.Flight.TailSince(pmStart, flight.DefaultPostmortemEvents)
	}
	c.applyBudget(report, OpLoad, latest, pmStart)
	return dicts, report, nil
}

// nodeScan is what the availability scan learned about one node.
type nodeScan struct {
	manifestOK bool
	chunkOK    bool
	smallsOK   bool
	corrupt    bool // at least one checksum mismatch on this node
	version    int
	packet     int
	bufSize    int
	// segs are the node's verified chunk segments: borrowed views of host
	// memory, read-only. nodeLoad serves an intact chunk from them, so each
	// segment is checksummed once per round and the round reads the bytes
	// the scan judged, whatever is stored meanwhile.
	segs [][]byte
}

// scanNodes assesses chunk availability from host memory. Every blob is
// read through its checksum: a silently corrupted segment, manifest or
// small component is indistinguishable from a lost one, so corruption is
// folded into the erasure model — the chunk counts as missing and is
// rebuilt through the code. It returns the per-node findings and the number
// of blobs that failed verification.
//
// The scan checksums every blob on every node, which made it the dominant
// serial cost of recovery. Nodes are independent — each goroutine only
// writes its own nodeScan slot — so the scan runs one worker per node and
// the wall-clock cost is one node's checksum pass, not the fleet's. It
// reads through borrowed views: no blob is copied, and what it allocates is
// O(keys), not O(bytes).
func (c *Checkpointer) scanNodes(lay *layout, fetched *atomic.Int64) ([]nodeScan, int, error) {
	n := c.cfg.Topo.Nodes()
	world := c.cfg.Topo.World()
	span := world / c.cfg.K
	states := make([]nodeScan, n)
	var corrupt atomic.Int64
	checksumMiss := func(st *nodeScan, node int, key string, err error) {
		if errors.Is(err, cluster.ErrChecksum) {
			corrupt.Add(1)
			st.corrupt = true
			// Corruption handled as an erasure is exactly the event an
			// operator wants on the timeline: which node, which blob.
			c.cfg.Flight.Corruption(node, key)
		}
	}
	scanErrs := make([]error, n)
	var scanWG sync.WaitGroup
	for node := 0; node < n; node++ {
		scanWG.Add(1)
		go func(node int) {
			defer scanWG.Done()
			st := &states[node]
			blob, err := c.fetchN(node, keyManifest(), fetched)
			if err != nil {
				checksumMiss(st, node, keyManifest(), err)
				return // no usable manifest: the node's checkpoint is lost
			}
			v, p, b, err := parseManifest(blob)
			if err != nil {
				scanErrs[node] = err
				return
			}
			st.manifestOK = true
			st.version, st.packet, st.bufSize = v, p, b
			chunk := lay.plan.ChunkOfNode[node]
			st.chunkOK = true
			st.segs = make([][]byte, span)
			for s := 0; s < span; s++ {
				seg, err := c.fetchN(node, keySegment(chunk, s), fetched)
				if err != nil {
					st.chunkOK = false
					checksumMiss(st, node, keySegment(chunk, s), err)
					break
				}
				st.segs[s] = seg
			}
			st.smallsOK = true
			for rank := 0; rank < world && st.smallsOK; rank++ {
				if _, err := c.fetchN(node, keySmallMeta(rank), fetched); err != nil {
					st.smallsOK = false
					checksumMiss(st, node, keySmallMeta(rank), err)
					break
				}
				if _, err := c.fetchN(node, keySmallKeys(rank), fetched); err != nil {
					st.smallsOK = false
					checksumMiss(st, node, keySmallKeys(rank), err)
				}
			}
		}(node)
	}
	scanWG.Wait()
	if err := errors.Join(scanErrs...); err != nil {
		return nil, 0, err
	}
	return states, int(corrupt.Load()), nil
}

// fetchN reads a checksummed blob like fetch and additionally credits its
// size to the round's fetched-byte counter. A nil counter skips the
// accounting (paths that predate byte budgeting, e.g. remote persistence).
func (c *Checkpointer) fetchN(node int, key string, ctr *atomic.Int64) ([]byte, error) {
	blob, err := c.fetch(node, key)
	if err == nil && ctr != nil {
		ctr.Add(int64(len(blob)))
	}
	return blob, err
}

// observeRestore records a completed restore's wall-clock latency in the
// load_restore_ns histogram, labeled by operation, so restore p50/p99 for
// full, partial and remote recoveries are all visible at /metrics.
func (c *Checkpointer) observeRestore(op string, elapsed time.Duration) {
	if reg := c.cfg.Metrics; reg != nil {
		reg.Histogram("load_restore_ns", obs.L("op", op)).ObserveDuration(elapsed)
	}
}

// applyBudget stamps a successful restore report with the configured
// latency SLO. The budget is observational, not a hard deadline: an overrun
// never aborts a recovery that can still succeed — it marks the report
// DeadlineExceeded, counts the violation, drops an EvBudget event on the
// flight timeline, and attaches the round's event tail so the miss is
// diagnosable from the report alone.
func (c *Checkpointer) applyBudget(report *LoadReport, op string, round int, pmStart uint64) {
	budget := c.cfg.LoadBudget
	if budget <= 0 {
		return
	}
	report.Budget = budget
	if report.Elapsed <= budget {
		return
	}
	report.DeadlineExceeded = true
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("load_budget_exceeded_total", obs.L("op", op)).Inc()
	}
	c.cfg.Flight.BudgetExceeded(op, round, budget, report.Elapsed)
	c.cfg.Health.NoteBudgetExceeded(op)
	if l := c.cfg.Logger; l != nil {
		l.Warn("restore budget exceeded", "op", op, "round", round,
			"budget", budget, "elapsed", report.Elapsed)
	}
	if report.Postmortem == nil {
		report.Postmortem = c.cfg.Flight.TailSince(pmStart, flight.DefaultPostmortemEvents)
	}
}

// nodeLoad runs one node's side of recovery and returns its local workers'
// reconstructed state dicts plus the goroutine's phase partition (see
// LoadPhases).
func (c *Checkpointer) nodeLoad(ctx context.Context, node int, spec *recoverySpec) (map[int]*statedict.StateDict, map[string]time.Duration, error) {
	topo := c.cfg.Topo
	plan := spec.lay.plan
	world := topo.World()
	span := world / c.cfg.K
	bufSize := spec.bufSize
	if bufSize <= 0 {
		bufSize = c.cfg.BufferSize
	}
	packetBytes := spec.packetBytes
	numBuffers := (packetBytes + bufSize - 1) / bufSize
	pc := newPhaseClock(PhaseFetch)
	pc.emitTo(c.cfg.Flight, "load", node, spec.version)
	pc.watchTo(c.wd, "load", node, spec.version)
	defer pc.unwatch()

	ep, err := c.endpoint(node)
	if err != nil {
		return nil, nil, err
	}

	myChunk := plan.ChunkOfNode[node]
	basisPos := -1
	for i, b := range spec.basis {
		if b == myChunk {
			basisPos = i
		}
	}
	missingPos := -1
	for i, m := range spec.missing {
		if m == myChunk {
			missingPos = i
		}
	}

	sliceBounds := func(b int) (int, int) {
		lo := b * bufSize
		hi := lo + bufSize
		if hi > packetBytes {
			hi = packetBytes
		}
		return lo, hi
	}
	nodeOfChunk := func(chunk int) int {
		if chunk < c.cfg.K {
			return plan.DataNodes[chunk]
		}
		return plan.ParityNodes[chunk-c.cfg.K]
	}

	// This node's chunk segments: an intact chunk is served from the views
	// the scan verified (read-only); a missing one is rebuilt into fresh —
	// and therefore zero — buffers the rebuild XOR-accumulates into, which
	// host memory adopts once it is done.
	chunkSegs := spec.scan[node].segs
	var segCRC []uint32 // running checksums of the segments being rebuilt
	if missingPos != -1 {
		chunkSegs = make([][]byte, span)
		segCRC = make([]uint32, span)
		for s := range chunkSegs {
			chunkSegs[s] = cluster.NewBlob(packetBytes)
		}
	}
	pc.Switch(PhaseRebuild)

	// --- Phase R1: distributed rebuild of missing chunks. ---
	// Basis holders stream coefficient-multiplied slices to each missing
	// chunk's owner; owners XOR-accumulate k contributions per slice.
	var rebuildErr error
	var rebuildWG sync.WaitGroup
	if missingPos != -1 {
		rebuildWG.Add(1)
		go func() {
			defer rebuildWG.Done()
			for s := 0; s < span; s++ {
				for b := 0; b < numBuffers; b++ {
					lo, hi := sliceBounds(b)
					for i := 0; i < c.cfg.K; i++ {
						srcNode := nodeOfChunk(spec.basis[i])
						var payload []byte
						if srcNode == node {
							// A node can be both basis holder and rebuild
							// target only if its chunk is both intact and
							// missing, which cannot happen; guard anyway.
							rebuildErr = fmt.Errorf("core: node %d is basis and target", node)
							return
						}
						payload, err := ep.Recv(ctx, srcNode, tagRebuild(myChunk, s))
						if err != nil {
							rebuildErr = err
							return
						}
						if len(payload) != hi-lo {
							rebuildErr = fmt.Errorf("core: rebuild slice size %d, want %d", len(payload), hi-lo)
							return
						}
						err = gf.XORSlice(chunkSegs[s][lo:hi], payload)
						c.buf.Put(payload)
						if err != nil {
							rebuildErr = err
							return
						}
					}
					// The slice is final and still cache-hot: fold it into
					// the segment's checksum now (slices finish in order).
					segCRC[s] = cluster.Checksum(segCRC[s], chunkSegs[s][lo:hi])
				}
			}
		}()
	}
	if basisPos != -1 && spec.transform != nil {
		for row, missingChunk := range spec.missing {
			dstNode := nodeOfChunk(missingChunk)
			coef := spec.transform.At(row, basisPos)
			for s := 0; s < span; s++ {
				for b := 0; b < numBuffers; b++ {
					lo, hi := sliceBounds(b)
					// Pooled, not zeroed: the scalar multiply fully
					// overwrites it, and Send copies before returning.
					contribution := c.buf.Get(hi - lo)
					if err := c.scalarMulPooled(coef, contribution, chunkSegs[s][lo:hi]); err != nil {
						c.buf.Put(contribution)
						return nil, nil, err
					}
					err := ep.Send(ctx, dstNode, tagRebuild(missingChunk, s), contribution)
					c.buf.Put(contribution)
					if err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	rebuildWG.Wait()
	if rebuildErr != nil {
		return nil, nil, rebuildErr
	}
	if missingPos != -1 {
		// Persist the rebuilt chunk: fault tolerance is restored. Segments
		// land before the manifest, so the node's checkpoint becomes
		// visible at the recovered version only once it is complete. The
		// rebuild goroutine has exited, so the buffers are handed over as
		// they are; everything below only reads them.
		for s := 0; s < span; s++ {
			if err := cluster.AdoptSealed(c.clus, node, keySegment(myChunk, s), chunkSegs[s], segCRC[s]); err != nil {
				return nil, nil, err
			}
		}
		if err := c.store(node, keyManifest(), manifestBlob(spec.version, packetBytes, bufSize)); err != nil {
			return nil, nil, err
		}
	}
	pc.Switch(PhaseSmallSync)

	// --- Phase R2: re-broadcast small components to nodes that lost them. ---
	if node == spec.smallSource {
		peers := make([]int, 0, topo.Nodes())
		for peer := 0; peer < topo.Nodes(); peer++ {
			if spec.needSmall[peer] && peer != node {
				peers = append(peers, peer)
			}
		}
		// Each rank's meta/keys blob is loop-invariant across peers, so it
		// is fetched (and checksummed) exactly once and re-sent to every
		// peer that needs it. Fetching inside the peer loop put
		// O(peers × ranks) redundant checksummed reads on the recovery
		// critical path.
		for rank := 0; len(peers) > 0 && rank < world; rank++ {
			meta, err := c.fetchN(node, keySmallMeta(rank), spec.fetched)
			if err != nil {
				return nil, nil, err
			}
			keys, err := c.fetchN(node, keySmallKeys(rank), spec.fetched)
			if err != nil {
				return nil, nil, err
			}
			for _, peer := range peers {
				if err := ep.Send(ctx, peer, tagSmallSyncMeta(rank), meta); err != nil {
					return nil, nil, err
				}
				if err := ep.Send(ctx, peer, tagSmallSyncKeys(rank), keys); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if spec.needSmall[node] {
		for rank := 0; rank < world; rank++ {
			meta, err := ep.Recv(ctx, spec.smallSource, tagSmallSyncMeta(rank))
			if err != nil {
				return nil, nil, err
			}
			keys, err := ep.Recv(ctx, spec.smallSource, tagSmallSyncKeys(rank))
			if err != nil {
				return nil, nil, err
			}
			// store copies, so the received buffers can go back to the pool.
			err = c.store(node, keySmallMeta(rank), meta)
			c.buf.Put(meta)
			if err != nil {
				return nil, nil, err
			}
			err = c.store(node, keySmallKeys(rank), keys)
			c.buf.Put(keys)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	pc.Switch(PhaseRedistribute)

	// --- Phase R3: distribute original packets so every worker resumes. ---
	// Data nodes serve the segments of their (possibly just rebuilt) chunk.
	if myChunk < c.cfg.K {
		for w := 0; w < world; w++ {
			if plan.DataGroupOf[w] != myChunk {
				continue
			}
			dstNode, err := topo.NodeOf(w)
			if err != nil {
				return nil, nil, err
			}
			if dstNode == node {
				continue
			}
			if err := ep.Send(ctx, dstNode, tagPacket(w), chunkSegs[plan.SegmentOf[w]]); err != nil {
				return nil, nil, err
			}
		}
	}

	g := topo.GPUsPerNode()
	out := make(map[int]*statedict.StateDict, g)
	for w := node * g; w < (node+1)*g; w++ {
		j := plan.DataGroupOf[w]
		var packet []byte
		pooled := false
		if plan.DataNodes[j] == node {
			packet = chunkSegs[plan.SegmentOf[w]]
		} else {
			srcNode := plan.DataNodes[j]
			p, err := ep.Recv(ctx, srcNode, tagPacket(w))
			if err != nil {
				return nil, nil, err
			}
			packet = p
			pooled = true
		}
		// reassembleWorker copies every tensor region into fresh storage, so
		// a received packet can be recycled as soon as it returns.
		sd, err := c.reassembleWorker(node, w, packet, spec.fetched)
		if pooled {
			c.buf.Put(packet)
		}
		if err != nil {
			return nil, nil, err
		}
		out[w] = sd
	}
	return out, pc.Stop(), nil
}

// reassembleWorker rebuilds a worker's state dict from its packet and the
// broadcast small components stored on the node, crediting the small-blob
// reads to ctr (nil skips accounting).
func (c *Checkpointer) reassembleWorker(node, rank int, packet []byte, ctr *atomic.Int64) (*statedict.StateDict, error) {
	meta, err := c.fetchN(node, keySmallMeta(rank), ctr)
	if err != nil {
		return nil, fmt.Errorf("rank %d small meta: %w", rank, err)
	}
	keys, err := c.fetchN(node, keySmallKeys(rank), ctr)
	if err != nil {
		return nil, fmt.Errorf("rank %d small keys: %w", rank, err)
	}
	return assemblePacket(rank, meta, keys, packet)
}

// assemblePacket rebuilds a worker's state dict from its already-fetched
// small components and packet bytes.
func assemblePacket(rank int, meta, keys, packet []byte) (*statedict.StateDict, error) {
	sizes, err := statedict.TensorSizes(keys)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", rank, err)
	}
	buffers := make([][]byte, len(sizes))
	off := 0
	for i, size := range sizes {
		if off+size > len(packet) {
			return nil, fmt.Errorf("rank %d: packet of %d bytes too small for tensor %d", rank, len(packet), i)
		}
		buffers[i] = append([]byte(nil), packet[off:off+size]...)
		off += size
	}
	sd, err := statedict.Reassemble(meta, keys, buffers)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", rank, err)
	}
	return sd, nil
}

// LoadFromRemote recovers every worker's state dict from the remote
// persistent store (the catastrophic-failure path). version 0 discovers
// and loads the most recent persisted version by enumerating the store's
// catalog — discovery deliberately ignores the in-memory version counter,
// because the caller that needs this path most is a freshly restarted
// process whose counter is zero. Ranks are fetched by a bounded worker
// pool (Config.RestoreWorkers) and each blob is deserialized as soon as
// it arrives, so decode overlaps the remaining transfers.
//
// The context bounds the whole recovery: each remote fetch honors both
// cancellation and the checkpointer's configured OpTimeout (via
// transport.WithOpTimeout), so a hung remote tier surfaces as a bounded
// error instead of a frozen restore. Close interrupts an in-flight call.
func (c *Checkpointer) LoadFromRemote(ctx context.Context, version int) (_ []*statedict.StateDict, retErr error) {
	started := time.Now()
	if c.remote == nil {
		return nil, fmt.Errorf("core: no remote store configured")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	unregister, err := c.registerLoad(cancel)
	if err != nil {
		return nil, err
	}
	defer func() { unregister(retErr) }()
	c.roundStart(OpRemoteLoad, version)
	defer func() { c.roundEnd(OpRemoteLoad, version, retErr) }()
	ctx = c.opCtx(ctx)
	if version == 0 {
		version, err = c.latestRemoteVersion()
		if err != nil {
			return nil, err
		}
	}
	world := c.cfg.Topo.World()
	out := make([]*statedict.StateDict, world)
	rankErrs := make([]error, world)
	workers := c.cfg.RestoreWorkers
	if workers > world {
		workers = world
	}
	ranks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rank := range ranks {
				blob, _, err := c.remote.Get(ctx, 0, remoteKey(c.cfg.RemotePrefix, version, rank))
				if err != nil {
					rankErrs[rank] = fmt.Errorf("core: remote load rank %d: %w", rank, err)
					cancel()
					continue
				}
				sd, err := serialize.Unmarshal(blob)
				if err != nil {
					rankErrs[rank] = fmt.Errorf("core: remote load rank %d: %w", rank, err)
					cancel()
					continue
				}
				out[rank] = sd
			}
		}()
	}
	for rank := 0; rank < world; rank++ {
		ranks <- rank
	}
	close(ranks)
	wg.Wait()
	if err := errors.Join(rankErrs...); err != nil {
		if ctx.Err() != nil && c.isClosed() {
			err = fmt.Errorf("%w: %w", ErrSaveAborted, err)
		}
		return nil, err
	}
	elapsed := time.Since(started)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("remote_load_rounds_total").Inc()
	}
	c.observeRestore(OpRemoteLoad, elapsed)
	if b := c.cfg.LoadBudget; b > 0 && elapsed > b {
		if reg := c.cfg.Metrics; reg != nil {
			reg.Counter("load_budget_exceeded_total", obs.L("op", OpRemoteLoad)).Inc()
		}
		c.cfg.Flight.BudgetExceeded(OpRemoteLoad, version, b, elapsed)
		c.cfg.Health.NoteBudgetExceeded(OpRemoteLoad)
		if l := c.cfg.Logger; l != nil {
			l.Warn("restore budget exceeded", "op", OpRemoteLoad, "round", version,
				"budget", b, "elapsed", elapsed)
		}
	}
	return out, nil
}

// latestRemoteVersion discovers the newest fully-addressable checkpoint
// version in the remote store by listing its catalog under this
// checkpointer's key prefix. It must not consult the in-memory version
// counter: after a catastrophic failure the restoring process is brand
// new and its counter is zero, yet the remote tier still holds the
// checkpoint. (The previous implementation counted down from the counter
// and reported "no persisted checkpoint" in exactly that situation.)
func (c *Checkpointer) latestRemoteVersion() (int, error) {
	prefix := fmt.Sprintf("eccheck/%sv", c.cfg.RemotePrefix)
	latest := 0
	for _, key := range c.remote.Keys(prefix) {
		var v, rank int
		if _, err := fmt.Sscanf(key[len(prefix):], "%d/rank%d", &v, &rank); err != nil {
			continue
		}
		// Rank 0 anchors a version: persistCommitted writes ranks in order,
		// so any version with rank 0 present is at least partially there and
		// the newest such version is the one a GC-respecting store keeps
		// complete.
		if rank == 0 && v > latest {
			latest = v
		}
	}
	if latest == 0 {
		return 0, fmt.Errorf("core: no persisted checkpoint found in remote storage")
	}
	return latest, nil
}
