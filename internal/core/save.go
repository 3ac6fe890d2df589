package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/gf"
	"eccheck/internal/statedict"
)

// Message tags of the save protocol. Buffers within one tag stream are
// sequential, so per-stream FIFO delivery keeps them ordered.
func tagSmallMeta(rank int) string             { return fmt.Sprintf("sm/%d", rank) }
func tagSmallKeys(rank int) string             { return fmt.Sprintf("sk/%d", rank) }
func tagXOR(group, parityIdx int) string       { return fmt.Sprintf("xr/%d/%d", group, parityIdx) }
func tagParityP2P(parityIdx, group int) string { return fmt.Sprintf("pp/%d/%d", parityIdx, group) }
func tagDataP2P(chunk, seg int) string         { return fmt.Sprintf("pd/%d/%d", chunk, seg) }

// Save checkpoints all workers' state dicts: the paper's eccheck.save.
// dicts is indexed by world rank; each node goroutine only touches its own
// workers' dicts, so the call behaves like a true distributed protocol. On
// success every node's host memory holds exactly its data or parity chunk
// plus the broadcast small components. The report carries a per-phase
// breakdown of the round (see SaveReport.Phases).
//
// Save is synchronous: it blocks through the whole round (its report's
// StallNs equals Elapsed). SaveAsync blocks only through the snapshot
// stage. If another save round is already in flight Save fails fast with
// ErrSaveInFlight rather than racing it for the pooled buffers and the
// checkpoint state.
func (c *Checkpointer) Save(ctx context.Context, dicts []*statedict.StateDict) (*SaveReport, error) {
	h, err := c.startSave(ctx, dicts, saveMode{})
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// nodeSnapshot is one node's step-1 state: every local worker's tensor
// payload copied into exclusively owned host staging buffers, plus the
// serialized small components. Once all snapshots exist, training may
// resume — nothing in the drain reads the live dicts.
type nodeSnapshot struct {
	node    int
	packets map[int][]byte    // rank -> pooled packet
	smalls  map[int][2][]byte // rank -> {metaBlob, keysBlob} (pooled)
	// phases is the snapshot stage's wall time, charged to serialize and
	// offload; nodeDrain folds it into the node's full-round partition.
	phases map[string]time.Duration
	// end is when the snapshot's phase clock stopped. nodeDrain backdates
	// its own clock to it so the snapshot→drain goroutine handoff is
	// charged to the first drain phase instead of vanishing from the
	// node's partition (SaveReport.Phases must sum to ≈ Elapsed).
	end time.Time
}

// release returns every pooled buffer the snapshot owns (error paths
// before a drain adopted it).
func (s *nodeSnapshot) release(c *Checkpointer) {
	for _, pkt := range s.packets {
		c.buf.Put(pkt)
	}
	for _, blobs := range s.smalls {
		c.buf.Put(blobs[0])
		c.buf.Put(blobs[1])
	}
}

// snapshotNode runs one node's snapshot stage: decompose the local dicts
// and offload their tensor data into contiguous packets (the DtoH copy —
// the only work the training loop stalls on). Pure local memory work, no
// network.
func (c *Checkpointer) snapshotNode(node, version, packetBytes int, dicts []*statedict.StateDict) (*nodeSnapshot, error) {
	g := c.cfg.Topo.GPUsPerNode()
	pc := newPhaseClock(PhaseSerialize)
	pc.emitTo(c.cfg.Flight, "save", node, version)
	pc.watchTo(c.wd, "save", node, version)
	defer pc.unwatch()
	snap := &nodeSnapshot{
		node:    node,
		packets: make(map[int][]byte, g),
		smalls:  make(map[int][2][]byte, g),
	}
	for w := node * g; w < (node+1)*g; w++ {
		pc.Switch(PhaseSerialize)
		dec, err := dicts[w].DecomposeWith(c.buf)
		if err != nil {
			snap.release(c)
			return nil, fmt.Errorf("rank %d decompose: %w", w, err)
		}
		pc.Switch(PhaseOffload)
		pkt, err := c.buildPacketPooled(dec, packetBytes)
		if err != nil {
			c.buf.Put(dec.MetaBlob)
			c.buf.Put(dec.KeysBlob)
			snap.release(c)
			return nil, fmt.Errorf("rank %d: %w", w, err)
		}
		snap.packets[w] = pkt
		snap.smalls[w] = [2][]byte{dec.MetaBlob, dec.KeysBlob}
	}
	snap.phases = pc.Stop()
	snap.end = time.Now()
	return snap, nil
}

// buildPacket packs a worker's decomposed tensor data into one contiguous,
// zero-padded packet of the agreed size, in a buffer host memory can adopt
// (the incremental path caches it as the worker's own packet).
func buildPacket(dec *statedict.Decomposition, packetBytes int) ([]byte, error) {
	if dec.TensorBytes() > packetBytes {
		return nil, fmt.Errorf("core: tensor payload %d exceeds packet size %d",
			dec.TensorBytes(), packetBytes)
	}
	packet := cluster.NewBlob(packetBytes)
	off := 0
	for _, buf := range dec.TensorData {
		off += copy(packet[off:], buf)
	}
	return packet, nil
}

// buildPacketPooled is buildPacket drawing the packet from the buffer pool.
// The alignment padding is explicitly zeroed because recycled buffers carry
// stale bytes. The caller owns the packet and must Put it when the round no
// longer references it.
func (c *Checkpointer) buildPacketPooled(dec *statedict.Decomposition, packetBytes int) ([]byte, error) {
	if dec.TensorBytes() > packetBytes {
		return nil, fmt.Errorf("core: tensor payload %d exceeds packet size %d",
			dec.TensorBytes(), packetBytes)
	}
	packet := c.buf.Get(packetBytes)
	off := 0
	for _, buf := range dec.TensorData {
		off += copy(packet[off:], buf)
	}
	clear(packet[off:])
	return packet, nil
}

// manifestBlob encodes the per-node checkpoint manifest. The buffer size
// is recorded because it defines the coding-region layout: decode and
// verification must slice packets exactly as the encode did.
func manifestBlob(version, packetBytes, bufferSize int) []byte {
	out := make([]byte, 0, 3*binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(version))
	out = binary.AppendUvarint(out, uint64(packetBytes))
	out = binary.AppendUvarint(out, uint64(bufferSize))
	return out
}

func parseManifest(blob []byte) (version, packetBytes, bufferSize int, err error) {
	v, n := binary.Uvarint(blob)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("core: corrupt manifest")
	}
	p, n2 := binary.Uvarint(blob[n:])
	if n2 <= 0 {
		return 0, 0, 0, fmt.Errorf("core: corrupt manifest")
	}
	b, n3 := binary.Uvarint(blob[n+n2:])
	if n3 <= 0 {
		return 0, 0, 0, fmt.Errorf("core: corrupt manifest")
	}
	return int(v), int(p), int(b), nil
}

// reduceKey identifies one buffer of one XOR reduction.
type reduceKey struct {
	group  int
	parity int
	buf    int
}

// reduceState accumulates one node's share of one reduction buffer: its
// local workers' contributions plus one folded partial per child machine in
// the reduction's fan-in tree — never the global k, so the per-machine
// fan-in stays bounded as the cluster grows. The first contribution is
// adopted as the accumulator (the pool hands every contributor an
// exclusively owned buffer, so taking it is free); later contributions are
// XOR-folded in and recycled. Each state has its own lock so reductions for
// different (group, parity, buffer) keys fold concurrently.
type reduceState struct {
	mu        sync.Mutex
	acc       []byte
	remaining int
}

// nodeDrain runs one node's side of the checkpointing round after the
// snapshot stage: broadcast of the small components, the per-buffer
// streaming encode/XOR/P2P pipeline, and the staging writes. It returns the
// broadcast small-component volume it observed and the node's full-round
// phase partition (snapshot phases folded in), with receiver-side XOR work
// re-attributed from "barrier" to "xor" (it overlaps the main goroutine's
// waits).
//
// The packet is processed as a sequence of buffer windows (Config.
// BufferSize each). A bufWindow ledger bounds how many windows the node
// holds in flight (Config.PipelineDepth) and retires a window only when
// every delivery it owes this node has landed, so encode/XOR/P2P for buffer
// i+1 overlaps the residual deliveries of buffer i while pooled-buffer
// usage stays proportional to the depth. XOR reductions aggregate over the
// fan-in tree compiled into the layout (see reduceRoute): each machine
// folds its own workers' contributions plus its tree children's partials
// and forwards a single partial per buffer toward the root, keeping
// per-machine fan-in bounded by Config.GroupFanIn at any cluster size.
//
// Every blob is written under a staged key; the caller promotes the staging
// area only after all nodes finish, so an aborted round never damages the
// committed checkpoint. Every Send/Recv carries the configured deadline, so
// a peer that crashes mid-round turns into a bounded error, not a hang.
func (c *Checkpointer) nodeDrain(ctx context.Context, snap *nodeSnapshot, version, packetBytes int) (int, map[string]time.Duration, error) {
	topo := c.cfg.Topo
	lay := c.layout()
	plan := lay.plan
	node := snap.node
	g := topo.GPUsPerNode()
	world := topo.World()
	span := world / c.cfg.K
	bufSize := c.cfg.BufferSize
	numBuffers := (packetBytes + bufSize - 1) / bufSize
	packets := snap.packets
	smalls := snap.smalls
	pc := newPhaseClock(PhaseP2P)
	pc.emitTo(c.cfg.Flight, "save", node, version)
	pc.watchTo(c.wd, "save", node, version)
	defer pc.unwatch()
	if !snap.end.IsZero() {
		pc.mark = snap.end // charge the goroutine handoff to the drain
	}

	ep, err := c.endpoint(node)
	if err != nil {
		return 0, nil, err
	}
	// stage writes a blob into this node's staging area, checksummed. The
	// staged key comes from the pre-rendered table: no per-call formatting.
	stage := func(key string, blob []byte) error {
		return c.store(node, lay.keys.stagedOf[key], blob)
	}

	localWorkers := make([]int, 0, g)
	for w := node * g; w < (node+1)*g; w++ {
		localWorkers = append(localWorkers, w)
	}
	// Packets stay referenced until the pipeline drains: data-segment sends
	// alias them and the incremental cache stages them. The happy path (and
	// any error before the pipeline spun up) recycles them via this deferred
	// Put, which runs only after the send queue drained; error paths after
	// spin-up hand recycling to the async teardown instead, which recycles
	// once the sender goroutine has drained every aliasing payload.
	handedOff := false
	defer func() {
		if !handedOff {
			for _, pkt := range packets {
				c.buf.Put(pkt)
			}
		}
	}()

	// --- Step 2: broadcast the small components; store everything. ---
	for _, w := range localWorkers {
		blobs := smalls[w]
		metaTag, keysTag := lay.keys.smallMetaTag[w], lay.keys.smallKeysTag[w]
		for peer := 0; peer < topo.Nodes(); peer++ {
			if peer == node {
				continue
			}
			if err := ep.Send(ctx, peer, metaTag, blobs[0]); err != nil {
				return 0, nil, err
			}
			if err := ep.Send(ctx, peer, keysTag, blobs[1]); err != nil {
				return 0, nil, err
			}
		}
		if err := stage(lay.keys.smallMeta[w], blobs[0]); err != nil {
			return 0, nil, err
		}
		if err := stage(lay.keys.smallKeys[w], blobs[1]); err != nil {
			return 0, nil, err
		}
	}
	smallBytes := 0
	for rank := 0; rank < world; rank++ {
		srcNode, err := topo.NodeOf(rank)
		if err != nil {
			return 0, nil, err
		}
		if srcNode == node {
			smallBytes += len(smalls[rank][0]) + len(smalls[rank][1])
			continue
		}
		meta, err := ep.Recv(ctx, srcNode, lay.keys.smallMetaTag[rank])
		if err != nil {
			return 0, nil, err
		}
		keys, err := ep.Recv(ctx, srcNode, lay.keys.smallKeysTag[rank])
		if err != nil {
			return 0, nil, err
		}
		smallBytes += len(meta) + len(keys)
		if err := stage(lay.keys.smallMeta[rank], meta); err != nil {
			return 0, nil, err
		}
		if err := stage(lay.keys.smallKeys[rank], keys); err != nil {
			return 0, nil, err
		}
		// Both recv'd blobs were copied into host memory by stage.
		c.buf.Put(meta)
		c.buf.Put(keys)
	}
	// The local small blobs were broadcast (Send copies) and staged; their
	// pooled serialization buffers are free again.
	for _, w := range localWorkers {
		c.buf.Put(smalls[w][0])
		c.buf.Put(smalls[w][1])
		delete(snap.smalls, w)
	}

	// --- Step 3: per-buffer streaming pipeline — encode, hierarchical XOR
	// reduction, P2P placement — under a bounded window of in-flight
	// buffer windows. ---
	myChunk := plan.ChunkOfNode[node]
	// The segments are assembled directly in the buffers host memory will
	// own: exact-size with footer room, sealed and adopted at promote, never
	// pooled. Every byte of every segment is written exactly once before
	// then — buffer ranges tile the packet, and each range of each segment
	// receives one copy (local data, P2P data, finalized parity, or P2P
	// parity). Allocating host memory's blobs is promote work, as it was
	// when the store allocated them itself at commit.
	pc.Switch(PhasePromote)
	chunkSegs := make([][]byte, span)
	for s := range chunkSegs {
		chunkSegs[s] = cluster.NewBlob(packetBytes)
	}
	pc.Switch(PhaseStage)
	// Each segment has exactly one writer stream and that stream delivers
	// its buffer ranges in ascending order, so the writer folds the range
	// into the segment's running checksum while it is still cache-hot; the
	// window ledger orders those writes before the promote below reads them.
	segCRC := make([]uint32, span)
	landRange := func(seg, lo int, src []byte) {
		copy(chunkSegs[seg][lo:lo+len(src)], src)
		segCRC[seg] = cluster.Checksum(segCRC[seg], src)
	}

	sliceBounds := func(b int) (int, int) {
		lo := b * bufSize
		hi := lo + bufSize
		if hi > packetBytes {
			hi = packetBytes
		}
		return lo, hi
	}

	// Pre-render the per-stream tags and per-(reduction, worker) coding
	// coefficients once: the buffer loop must not format strings or take
	// fallible lookups per window.
	xorTags := make([]string, len(plan.Reductions))
	parityTags := make([]string, len(plan.Reductions))
	coefs := make([]map[int]int, len(plan.Reductions))
	for ri, r := range plan.Reductions {
		xorTags[ri] = tagXOR(r.Group, r.ParityIndex)
		parityTags[ri] = tagParityP2P(r.ParityIndex, r.Group)
		myWorkers := lay.routes[ri].workersOf[node]
		coefs[ri] = make(map[int]int, len(myWorkers))
		for _, w := range myWorkers {
			coef, err := c.code.ParityCoefficient(r.ParityIndex, plan.DataGroupOf[w])
			if err != nil {
				return 0, nil, err
			}
			coefs[ri][w] = coef
		}
	}
	dataTags := make(map[int]string, len(localWorkers))
	for _, w := range localWorkers {
		dataTags[w] = tagDataP2P(plan.DataGroupOf[w], plan.SegmentOf[w])
	}

	// Data segments this node's chunk collects from remote workers.
	type dataSrc struct{ srcNode, seg int }
	var dataSrcs []dataSrc
	if myChunk >= 0 && myChunk < c.cfg.K {
		for w := 0; w < world; w++ {
			if plan.DataGroupOf[w] != myChunk {
				continue
			}
			srcNode, err := topo.NodeOf(w)
			if err != nil {
				return 0, nil, err
			}
			if srcNode != node {
				dataSrcs = append(dataSrcs, dataSrc{srcNode: srcNode, seg: plan.SegmentOf[w]})
			}
		}
	}

	// The buffer window is this node's per-buffer delivery ledger and credit
	// bound. Every buffer owes the same delivery count: the encode loop's
	// own end-of-buffer landing, one fold completion per reduction this node
	// participates in (root finalize or partial forward), one parity-segment
	// arrival per reduction of this node's parity chunk rooted elsewhere,
	// and one data-segment arrival per remote worker of this node's data
	// chunk.
	perBuf := 1
	for ri := range lay.routes {
		rt := &lay.routes[ri]
		if len(rt.workersOf[node]) > 0 || len(rt.tree.Children[node]) > 0 {
			perBuf++
		}
	}
	if myChunk >= c.cfg.K {
		pi := myChunk - c.cfg.K
		for ri, r := range plan.Reductions {
			if r.ParityIndex == pi && lay.routes[ri].targetNode != node {
				perBuf++
			}
		}
	}
	perBuf += len(dataSrcs)
	win := newBufWindow(numBuffers, c.cfg.PipelineDepth, func(int) int { return perBuf })
	if err := win.checkLedger(); err != nil {
		return 0, nil, err
	}
	win.emitTo(c.cfg.Flight, node, version)
	fail := win.fail

	// Fold state for reductions this node participates in, keyed by
	// (group, parity, buffer).
	var (
		accMu sync.Mutex
		accs  = map[reduceKey]*reduceState{}
	)
	// recvXorNs accumulates XOR-reduce time spent on receiver goroutines;
	// it overlaps the main goroutine's barrier wait and is re-attributed
	// from "barrier" to "xor" at the end of the round.
	var recvXorNs atomic.Int64

	// sendQueue decouples the encoding stage from the communication stage,
	// as in the paper's pipelined execution. Producers are the encode loop
	// (data-segment placement) and the fold completions (forwarded partials
	// and rooted parity segments); the queue closes only after both are
	// done. The sender keeps draining after a failure — recycling pooled
	// payloads — so a producer never blocks forever on a full queue.
	type outMsg struct {
		dstNode int
		tag     string
		payload []byte
		// pooled marks payloads owned by the queue (folded partials and
		// parity segments): recycled after the send. Data-segment payloads
		// alias the worker packets and are recycled by nodeDrain instead.
		pooled bool
		// land, when non-negative, is the buffer whose delivery this send
		// completes; it lands after a successful send (a failed one poisons
		// the window instead).
		land int
	}
	sendQueue := make(chan outMsg, DefaultEncodingBuffers)
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		var sendErr error
		for msg := range sendQueue {
			if sendErr == nil {
				if err := ep.Send(ctx, msg.dstNode, msg.tag, msg.payload); err != nil {
					sendErr = err
					fail(err)
				} else if msg.land >= 0 {
					win.landOne(msg.land)
				}
			}
			if msg.pooled {
				c.buf.Put(msg.payload)
			}
		}
	}()

	// xorInto folds src into dst, splitting large regions across the
	// encoder thread pool — the receiver-side counterpart of the paper's
	// thread-pool acceleration (reductions for one buffer used to run
	// serially on whichever goroutine held the contribution).
	const xorPoolThreshold = 256 << 10
	xorInto := func(dst, src []byte) error {
		if len(dst) >= xorPoolThreshold && c.pool.Workers() > 1 {
			return c.pool.XOR(dst, src)
		}
		return gf.XORSlice(dst, src)
	}

	// finalize disposes of a completed reduction buffer at the tree root:
	// the parity bytes land in the local chunk when this node stores the
	// parity chunk, or ship to the parity node through the send queue.
	// Either way ownership of the accumulator leaves the fold state here.
	finalize := func(ri int, k reduceKey, acc []byte) {
		dstNode := plan.ParityNodes[k.parity]
		if dstNode == node {
			lo, _ := sliceBounds(k.buf)
			landRange(k.group, lo, acc)
			c.buf.Put(acc)
			win.landOne(k.buf)
			return
		}
		sendQueue <- outMsg{dstNode: dstNode, tag: parityTags[ri], payload: acc, pooled: true, land: k.buf}
	}

	// contribute folds one contribution into this node's accumulator for
	// reduction ri, buffer b, taking ownership of the buffer: the first
	// contribution becomes the accumulator, later ones are XORed in and
	// recycled. When the node's own obligations — local workers plus tree
	// children — are all folded, the root finalizes the buffer and every
	// other machine forwards one partial per buffer up the fan-in tree.
	// timeXor attributes the XOR to the receiver-side accumulator; the main
	// goroutine passes false because its XOR time is already on the phase
	// clock. Contribution streams are sequential and completions fire
	// synchronously inside the call, so forwarded partials and parity P2P
	// sends stay in buffer order per stream.
	contribute := func(ri, b int, contribution []byte, timeXor bool) {
		rt := &lay.routes[ri]
		r := &plan.Reductions[ri]
		var xorStart time.Time
		if timeXor {
			xorStart = time.Now()
		}
		k := reduceKey{group: r.Group, parity: r.ParityIndex, buf: b}
		accMu.Lock()
		st, ok := accs[k]
		if !ok {
			st = &reduceState{remaining: len(rt.workersOf[node]) + len(rt.tree.Children[node])}
			accs[k] = st
		}
		accMu.Unlock()
		st.mu.Lock()
		if st.acc == nil {
			st.acc = contribution
		} else {
			err := xorInto(st.acc, contribution)
			c.buf.Put(contribution)
			if err != nil {
				st.mu.Unlock()
				fail(err)
				return
			}
		}
		st.remaining--
		done := st.remaining == 0
		st.mu.Unlock()
		if done {
			accMu.Lock()
			delete(accs, k)
			accMu.Unlock()
		}
		if timeXor {
			recvXorNs.Add(time.Since(xorStart).Nanoseconds())
		}
		if !done {
			return
		}
		if rt.targetNode == node {
			finalize(ri, k, st.acc)
			return
		}
		// Forward the folded partial one hop up the tree; the delivery
		// lands once the send goes through.
		sendQueue <- outMsg{dstNode: rt.tree.Parent[node], tag: xorTags[ri], payload: st.acc, pooled: true, land: k.buf}
	}

	// Partial receivers: one stream per inbound tree edge. Each child
	// machine sends exactly one folded partial per buffer, so this node
	// receives at most GroupFanIn streams per reduction regardless of k.
	// They are also send-queue producers (a completion forwards or
	// finalizes), so the queue closes only after they exit.
	var xorRecvWG sync.WaitGroup
	for ri := range lay.routes {
		for _, child := range lay.routes[ri].tree.Children[node] {
			xorRecvWG.Add(1)
			go func(ri, child int) {
				defer xorRecvWG.Done()
				tag := xorTags[ri]
				for b := 0; b < numBuffers; b++ {
					payload, err := ep.Recv(ctx, child, tag)
					if err != nil {
						fail(err)
						return
					}
					// contribute takes ownership of the payload.
					contribute(ri, b, payload, true)
				}
			}(ri, child)
		}
	}

	// Parity segments arriving via P2P (this node is a parity node and the
	// reduction rooted elsewhere).
	if myChunk >= c.cfg.K {
		pi := myChunk - c.cfg.K
		for ri, r := range plan.Reductions {
			if r.ParityIndex != pi {
				continue
			}
			rootNode := lay.routes[ri].targetNode
			if rootNode == node {
				continue // finalize writes locally
			}
			go func(ri, group, rootNode int) {
				tag := parityTags[ri]
				for b := 0; b < numBuffers; b++ {
					payload, err := ep.Recv(ctx, rootNode, tag)
					if err != nil {
						fail(err)
						return
					}
					lo, _ := sliceBounds(b)
					landRange(group, lo, payload)
					c.buf.Put(payload)
					win.landOne(b)
				}
			}(ri, r.Group, rootNode)
		}
	}

	// Data segments arriving via P2P (this node is a data node).
	for _, src := range dataSrcs {
		go func(srcNode, seg int) {
			tag := tagDataP2P(myChunk, seg)
			for b := 0; b < numBuffers; b++ {
				payload, err := ep.Recv(ctx, srcNode, tag)
				if err != nil {
					fail(err)
					return
				}
				lo, _ := sliceBounds(b)
				landRange(seg, lo, payload)
				c.buf.Put(payload)
				win.landOne(b)
			}
		}(src.srcNode, src.seg)
	}

	// Encode loop: stream buffer windows through the pipeline under the
	// credit bound. Admission waits are pipeline backpressure, charged to
	// p2p; with PipelineDepth 1 the loop degrades to the phase-coarse
	// baseline (no window starts before the previous one fully commits).
	encodeErr := func() error {
		for b := 0; b < numBuffers; b++ {
			pc.Switch(PhaseP2P)
			if err := win.acquire(ctx, b); err != nil {
				return err
			}
			lo, hi := sliceBounds(b)
			// Encoding stage: every local worker contributes to each of
			// its reduction group's m reductions; contributions fold into
			// the node-local accumulator, which forwards up the tree.
			for ri := range lay.routes {
				for _, w := range lay.routes[ri].workersOf[node] {
					pc.Switch(PhaseEncode)
					// Pooled, not zeroed: the scalar multiply fully
					// overwrites the region. Ownership passes to contribute.
					contribution := c.buf.Get(hi - lo)
					if err := c.scalarMulPooled(coefs[ri][w], contribution, packets[w][lo:hi]); err != nil {
						c.buf.Put(contribution)
						return err
					}
					pc.Switch(PhaseXOR)
					contribute(ri, b, contribution, false)
				}
			}
			// Data-packet placement for local workers.
			for _, w := range localWorkers {
				j := plan.DataGroupOf[w]
				seg := plan.SegmentOf[w]
				dstNode := plan.DataNodes[j]
				if dstNode == node {
					if myChunk == j {
						pc.Switch(PhaseStage)
						landRange(seg, lo, packets[w][lo:hi])
					}
					continue
				}
				pc.Switch(PhaseP2P)
				sendQueue <- outMsg{dstNode: dstNode, tag: dataTags[w], payload: packets[w][lo:hi], land: -1}
			}
			// The loop's own work for this window is done; residual
			// deliveries keep the credit until they land.
			win.landOne(b)
		}
		return nil
	}()
	if encodeErr != nil {
		win.fail(encodeErr)
	}

	// Commit barrier: wait for every buffer window to retire — all local
	// folds finalized or forwarded, every P2P delivery landed.
	pc.Switch(PhaseBarrier)
	waitErr := win.wait(ctx)
	if encodeErr == nil && waitErr == nil {
		// Healthy round: the partial receivers have exhausted their streams
		// (every buffer landed), so the queue can close and the residual
		// data sends drain synchronously.
		pc.Switch(PhaseP2P)
		xorRecvWG.Wait()
		close(sendQueue)
		sendWG.Wait()
		waitErr = win.failedErr() // a residual data send may have failed
	}
	if err := encodeErr; err != nil || waitErr != nil {
		if err == nil {
			err = waitErr
		}
		// Teardown off the hot path: the caller cancels the round context on
		// error, bounding the receivers' Recvs; once they exit the queue
		// drains and the aliased packets are safe to recycle.
		handedOff = true
		go func() {
			xorRecvWG.Wait()
			close(sendQueue)
			sendWG.Wait()
			for _, pkt := range packets {
				c.buf.Put(pkt)
			}
		}()
		return 0, nil, err
	}

	// Cache this node's own packets for incremental saves.
	pc.Switch(PhasePromote)
	if c.cfg.IncrementalCache {
		for _, w := range localWorkers {
			if err := stage(lay.keys.ownPacket[w], packets[w]); err != nil {
				return 0, nil, err
			}
		}
	}

	// Stage the chunk and manifest; the caller commits after the barrier.
	// Every window retired, and a delivery lands only after its bytes (and
	// their checksum fold) are in the segment, so nothing writes to a
	// segment again: seal the footer and hand the buffer itself to host
	// memory. Only this success path hands segments over; on error paths a
	// straggling receiver goroutine may still write into them, so they are
	// dropped for the GC — never adopted, never reused.
	for s := range chunkSegs {
		if err := cluster.AdoptSealed(c.clus, node, lay.keys.stagedOf[lay.keys.segment[myChunk][s]], chunkSegs[s], segCRC[s]); err != nil {
			return 0, nil, err
		}
	}
	if err := stage(keyManifest(), manifestBlob(version, packetBytes, bufSize)); err != nil {
		return 0, nil, err
	}
	phases := pc.Stop()
	shiftPhase(phases, PhaseBarrier, PhaseXOR, time.Duration(recvXorNs.Load()))
	// Fold the snapshot stage's serialize/offload time in, so the node's
	// partition covers the full round.
	for ph, d := range snap.phases {
		phases[ph] += d
	}
	return smallBytes, phases, nil
}
