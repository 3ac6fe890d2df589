package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/gf"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// tagTable holds the message tags of the save and restore protocols, rendered
// once per epoch. Buffers within one tag stream are sequential, so
// per-stream FIFO delivery keeps them ordered. Code groups share no machine,
// and a mailbox is a (sender, receiver, tag) triple, so the tags name ranks,
// reductions and chunks without naming the group. Every tag carries the epoch,
// which advances whenever a round that moves bytes between nodes aborts:
// messages an aborted round left in the mailboxes (and the sends and
// receives of its teardown, which outlive it) stay under the old epoch's
// tags, where no later round looks. The epoch does not advance on a round
// that completes, so the steady state reuses one set of mailboxes. A table is
// immutable: a round keeps the one it started with.
type tagTable struct {
	epoch int
	// Save, by rank: the small-component broadcast (each message is the
	// worker's small-component blob followed by its ship-set) and the
	// worker's data-segment stream.
	small, data []string
	// Save, by reduction: partials to the reduction's root, finished parity
	// to its node.
	xor, parity []string
	// Restore, by chunk then segment: the rebuild contributions streamed to
	// a missing chunk's owner.
	rebuild [][]string
	// Restore, by rank: the small-component re-broadcast and the worker's
	// packet on its way to the worker's home node.
	resync, packet []string
	// Membership, one stream of blobs each, by node: its blobs to its
	// custodian and back.
	custody, rejoin []string
}

// roundTags returns the tag table for a round starting now.
func (c *Checkpointer) roundTags() *tagTable {
	e := int(c.epoch.Load())
	if t := c.tags.Load(); t != nil && t.epoch == e {
		return t
	}
	lay := c.lay
	plan, world := lay.plan, c.cfg.Topo.World()
	t := &tagTable{
		epoch: e,
		small: make([]string, world), data: make([]string, world),
		xor: make([]string, len(plan.Reductions)), parity: make([]string, len(plan.Reductions)),
		rebuild: make([][]string, len(lay.keys.segment)),
		resync:  make([]string, world), packet: make([]string, world),
		custody: make([]string, c.cfg.Topo.Nodes()), rejoin: make([]string, c.cfg.Topo.Nodes()),
	}
	for node := range t.custody {
		t.custody[node] = fmt.Sprintf("cu/%d/%d", e, node)
		t.rejoin[node] = fmt.Sprintf("cj/%d/%d", e, node)
	}
	for rank := 0; rank < world; rank++ {
		t.small[rank] = fmt.Sprintf("sm/%d/%d", e, rank)
		t.data[rank] = fmt.Sprintf("pd/%d/%d/%d", e, plan.DataGroupOf[rank], plan.SegmentOf[rank])
		t.resync[rank] = fmt.Sprintf("rsm/%d/%d", e, rank)
		t.packet[rank] = fmt.Sprintf("rp/%d/%d", e, rank)
	}
	for ri, r := range plan.Reductions {
		t.xor[ri] = fmt.Sprintf("xr/%d/%d/%d", e, r.Group, r.ParityIndex)
		t.parity[ri] = fmt.Sprintf("pp/%d/%d/%d", e, r.ParityIndex, r.Group)
	}
	for chunk, segs := range lay.keys.segment {
		t.rebuild[chunk] = make([]string, len(segs))
		for s := range segs {
			t.rebuild[chunk][s] = fmt.Sprintf("rc/%d/%d/%d", e, chunk, s)
		}
	}
	c.tags.Store(t)
	return t
}

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
// payload copied into exclusively owned host buffers, plus its serialized
// small components. Once all snapshots exist, training may resume — nothing
// in the drain reads the live dicts.
type nodeSnapshot struct {
	node int
	// packets is rank -> the worker's packet. A rank whose packet is kept on
	// this node (keptInPlace) is packed straight into the host blob that
	// will keep it, its data segment or its own-packet cache, taken off the
	// node's spare stack; every other packet is pooled. A delta round drops
	// the entry of an in-place rank that ships nothing: its blob went back on
	// the stack, and the committed one is carried.
	packets map[int][]byte
	// smalls is rank -> the worker's step-2 message (pooled): its
	// small-component blob (appendSmall) followed by its ship-set (see
	// shipSet), as it goes on the wire.
	smalls map[int][]byte
	// olds is rank -> the worker's packet as the committed checkpoint holds
	// it (a borrowed view of its delta base, keyTable.base): what a delta
	// round's windows are XORed against. Nil on a full round.
	olds map[int][]byte
	// shipped counts the buffer windows in the local workers' ship-sets.
	shipped int
	// recycled counts the in-place blobs in packets that came off the spare
	// stack.
	recycled int
	// phases is the snapshot stage's wall time, charged to serialize and
	// offload; nodeDrain folds it into the node's full-round partition.
	phases map[string]time.Duration
	// end is when the snapshot's phase clock stopped. nodeDrain backdates
	// its own clock to it so the snapshot→drain goroutine handoff is
	// charged to the first drain phase instead of vanishing from the
	// node's partition (SaveReport.Phases must sum to ≈ Elapsed).
	end time.Time
}

// release gives back every buffer the snapshot owns (error paths before a
// drain adopted it): pooled ones to the pool, in-place blobs to the node's
// spare stack. A host blob is never Put.
func (s *nodeSnapshot) release(c *Checkpointer) {
	for w, pkt := range s.packets {
		if c.keptInPlace(w) {
			c.spareBlob(s.node, pkt)
		} else {
			c.buf.Put(pkt)
		}
	}
	for _, msg := range s.smalls {
		c.buf.Put(msg)
	}
}

// recyclePooled returns the pooled packets to the pool once the drain no
// longer references them. The in-place blobs are the drain's to adopt, or
// to drop on an error path.
func (s *nodeSnapshot) recyclePooled(c *Checkpointer) {
	for w, pkt := range s.packets {
		if !c.keptInPlace(w) {
			c.buf.Put(pkt)
		}
	}
}

// snapshotNode runs one node's snapshot stage: decompose the local dicts
// and offload their tensor data into contiguous packets (the DtoH copy —
// the only work the training loop stalls on), then fix each worker's
// ship-set: every buffer window on a full round, the windows that differ
// from the worker's delta base on a delta round. Pure local memory work,
// no network.
func (c *Checkpointer) snapshotNode(r *round, node, packetBytes int, dicts []*statedict.StateDict, delta bool) (*nodeSnapshot, error) {
	g := c.cfg.Topo.GPUsPerNode()
	bufSize := c.cfg.BufferSize
	numBuffers := c.numBuffers(packetBytes)
	shipBytes := shipSetBytes(numBuffers)
	base := c.lay.keys.base
	pc := r.clock(node, PhaseSerialize)
	defer pc.unwatch()
	snap := &nodeSnapshot{
		node:    node,
		packets: make(map[int][]byte, g),
		smalls:  make(map[int][]byte, g),
	}
	if delta {
		snap.olds = make(map[int][]byte, g)
	}
	for w := node * g; w < (node+1)*g; w++ {
		pc.Switch(PhaseSerialize)
		dec, err := dicts[w].DecomposeWith(c.buf)
		if err != nil {
			snap.release(c)
			return nil, fmt.Errorf("rank %d decompose: %w", w, err)
		}
		// The step-2 message: the small-component blob, then room for the
		// ship-set.
		msg := c.buf.Get(binary.MaxVarintLen64 + len(dec.MetaBlob) + len(dec.KeysBlob) + shipBytes)
		msg = appendSmall(msg[:0], dec.MetaBlob, dec.KeysBlob)
		ship := shipSet(msg[len(msg) : len(msg)+shipBytes])
		snap.smalls[w] = msg[:len(msg)+shipBytes]
		c.buf.Put(dec.MetaBlob)
		c.buf.Put(dec.KeysBlob)
		pc.Switch(PhaseOffload)
		inPlace, recycled := c.keptInPlace(w), false
		var pkt []byte
		if inPlace {
			pkt, recycled = c.takeBlob(node, packetBytes)
		} else {
			pkt = c.buf.Get(packetBytes)
		}
		snap.packets[w] = pkt
		if err := packInto(pkt, dec); err != nil {
			snap.release(c)
			return nil, fmt.Errorf("rank %d: %w", w, err)
		}
		if recycled {
			snap.recycled++
		}
		clear(ship)
		if !delta {
			for b := 0; b < numBuffers; b++ {
				ship.set(b)
			}
			snap.shipped += numBuffers
			continue
		}
		// The base is read unverified: a window equal to the new packet's is
		// not used, and a window that differs is checked against its own sum
		// before it can become a delta.
		old, sums, err := cluster.ViewFramed(c.clus, node, base[w].key, bufSize)
		if err == nil && len(old) != packetBytes {
			err = fmt.Errorf("stored packet has %d bytes, want %d", len(old), packetBytes)
		}
		for b := 0; err == nil && b < numBuffers; b++ {
			lo, hi := b*bufSize, min((b+1)*bufSize, packetBytes)
			if bytes.Equal(pkt[lo:hi], old[lo:hi]) {
				continue
			}
			if err = cluster.VerifyWindow(old, sums, bufSize, b); err == nil {
				ship.set(b)
				snap.shipped++
			}
		}
		if err != nil {
			snap.release(c)
			return nil, fmt.Errorf("rank %d delta base: %w: %w", w, errNoDeltaBase, err)
		}
		snap.olds[w] = old
		switch {
		case !inPlace:
		case ship.none():
			// Nothing lands: the committed blob is carried, and the spare
			// goes back on the stack.
			delete(snap.packets, w)
			c.spareBlob(node, pkt)
			if recycled {
				snap.recycled--
			}
		default:
			// The blob already holds the new bytes. The drain seals the
			// windows it ships; every other window keeps the sum it was
			// committed with, so a corrupt one stays detectable.
			copy(pkt[packetBytes:cap(pkt)], sums)
		}
	}
	snap.phases = pc.Stop()
	snap.end = time.Now()
	return snap, nil
}

// numBuffers is how many buffer windows (Config.BufferSize each, the last
// one possibly shorter) a packet of the given size spans.
func (c *Checkpointer) numBuffers(packetBytes int) int {
	return (packetBytes + c.cfg.BufferSize - 1) / c.cfg.BufferSize
}

// packInto packs a worker's decomposed tensor data into packet, whose length
// is the agreed packet size: the tensors back to back, then zeroes. It
// writes every byte, because a pooled or spare buffer carries stale ones.
func packInto(packet []byte, dec *statedict.Decomposition) error {
	if dec.TensorBytes() > len(packet) {
		return fmt.Errorf("core: tensor payload %d exceeds packet size %d",
			dec.TensorBytes(), len(packet))
	}
	off := 0
	for _, buf := range dec.TensorData {
		off += copy(packet[off:], buf)
	}
	clear(packet[off:])
	return nil
}

// keptInPlace reports whether rank w's packet is kept in a host blob on its
// own node: its data segment when its data chunk is stored there, or its
// own-packet cache under IncrementalCache. The snapshot packs such a packet
// straight into that blob.
func (c *Checkpointer) keptInPlace(w int) bool {
	return !c.lay.keys.base[w].cache || c.cfg.IncrementalCache
}

// takeBlob returns a packetBytes-long host blob for node, with footer room
// (cluster.NewBlob's shape): the top of the node's spare stack when it has
// that shape, else a fresh one, counted in save_segments_allocated_total.
// recycled reports which. Its content is stale. Only the save slot's holder
// calls it.
func (c *Checkpointer) takeBlob(node, packetBytes int) (blob []byte, recycled bool) {
	var spare []byte
	if n := len(c.spares[node]); n > 0 {
		spare, c.spares[node] = c.spares[node][n-1], c.spares[node][:n-1]
	}
	if cap(spare) == cluster.FramedLen(packetBytes, c.cfg.BufferSize) {
		return spare[:packetBytes], true
	}
	c.cfg.Metrics.Counter("save_segments_allocated_total").Inc()
	return cluster.NewBlob(packetBytes, c.cfg.BufferSize), false
}

// spareBlob puts a host blob no key stores and no reader holds on node's
// spare stack.
func (c *Checkpointer) spareBlob(node int, blob []byte) {
	blob = blob[:cap(blob)]
	retire(blob)
	c.spares[node] = append(c.spares[node], blob)
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
	var f [3]int
	for i := range f {
		v, n := binary.Uvarint(blob)
		if n <= 0 || v > math.MaxInt {
			return 0, 0, 0, fmt.Errorf("core: corrupt manifest")
		}
		f[i], blob = int(v), blob[n:]
	}
	return f[0], f[1], f[2], nil
}

// reduceKey identifies one buffer of one XOR reduction (by index into the
// plan's reductions).
type reduceKey struct{ ri, buf int }

// reduceState accumulates one node's share of one reduction buffer: its
// local workers' contributions, plus at the reduction's root one folded
// partial per other source machine. The first contribution is
// adopted as the accumulator (the pool hands every contributor an
// exclusively owned buffer, so taking it is free); later contributions are
// XOR-folded in and recycled. Each state has its own lock so reductions for
// different (reduction, buffer) keys fold concurrently.
type reduceState struct {
	mu        sync.Mutex
	acc       []byte
	remaining int
}

// foldCursor orders one reduction's outputs: next is the first buffer
// whose completed fold has not left this node yet.
type foldCursor struct {
	mu   sync.Mutex
	next int
}

// nodeDrain runs one node's side of the checkpointing round after the
// snapshot stage: broadcast of the small components, the per-buffer
// streaming encode/XOR/P2P pipeline, and the staging writes. It returns the
// node's full-round phase partition (snapshot phases folded in), with
// receiver-side XOR work re-attributed from "barrier" to "xor" (it overlaps
// the main goroutine's waits).
//
// The packet is processed as a sequence of buffer windows (Config.
// BufferSize each). A bufWindow ledger bounds how many windows the node
// holds in flight (pipelineDepth) and retires a window only when
// every delivery it owes this node has landed, so encode/XOR/P2P for buffer
// i+1 overlaps the residual deliveries of buffer i while pooled-buffer
// usage stays proportional to the depth. Each source machine of an XOR
// reduction folds its own workers' contributions and sends one partial per
// buffer straight to the reduction's root machine (see reduceRoute), which
// folds one stream per source machine.
//
// What ships is a parameter. Each worker's ship-set (broadcast with its
// small components) names the windows of its packet that carry traffic, and
// every node derives from the ship-sets which windows each stream, fold and
// ledger entry involves. A full round ships every window onto zeroed
// segments; a delta round (snap.olds set) ships new ⊕ old for the windows
// that changed onto a copy of the committed segments — by linearity of the
// code, the data segment moves by the difference and parity segment i by
// its coefficient multiple, folded the same way — and only for the
// segments those windows land in: the rest are carried (see the set-up of
// step 3). Either way a packet kept on its own node (keptInPlace) was packed
// into the blob that keeps it: the round seals the windows it ships there
// and lands nothing on it.
//
// Every blob the round writes goes under a staged key; the caller promotes
// the staging area only after all nodes finish, so an aborted round never
// damages the committed checkpoint. Every Send/Recv carries the configured
// deadline, so a peer that crashes mid-round turns into a bounded error, not
// a hang.
func (c *Checkpointer) nodeDrain(ctx context.Context, r *round, snap *nodeSnapshot, tags *tagTable, packetBytes int) (map[string]time.Duration, error) {
	topo := c.cfg.Topo
	lay := c.lay
	plan := lay.plan
	node := snap.node
	g := topo.GPUsPerNode()
	// The node's round runs inside its code group: its peers, the ranks whose
	// small components and ship-sets it holds, and its reductions (indexed
	// from here on by position in the group's range) are the group's.
	cg := plan.GroupOfNode(node)
	nodeLo, nodeHi := plan.NodeRange(cg)
	rankLo, rankHi := plan.RankRange(cg)
	redLo, redHi := plan.ReductionRange(cg)
	reds, routes := plan.Reductions[redLo:redHi], lay.routes[redLo:redHi]
	xorTags, parityTags := tags.xor[redLo:redHi], tags.parity[redLo:redHi]
	span := plan.Span()
	bufSize := c.cfg.BufferSize
	numBuffers := c.numBuffers(packetBytes)
	packets := snap.packets
	smalls := snap.smalls
	delta := snap.olds != nil
	pc := r.clock(node, PhaseP2P)
	defer pc.unwatch()
	if !snap.end.IsZero() {
		pc.mark = snap.end // charge the goroutine handoff to the drain
	}

	ep, err := c.net.Endpoint(node)
	if err != nil {
		return nil, err
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
	// alias them. The happy path (and any error before the pipeline spun up)
	// recycles the pooled ones via this deferred Put, which runs only after
	// the send queue drained; error paths after spin-up hand recycling to the
	// async teardown instead, which recycles once the sender goroutine has
	// drained every aliasing payload. The in-place blobs are adopted on the
	// success path and dropped on every other.
	handedOff := false
	defer func() {
		if !handedOff {
			snap.recyclePooled(c)
		}
	}()

	// --- Step 2: broadcast the small components; store everything. Each
	// rank's message is its small-component blob followed by its ship-set,
	// which the node keeps for the round (one backing array) and strips
	// before staging the blob. A message whose framing does not fit fails the
	// round before it is staged. ---
	shipBytes := shipSetBytes(numBuffers)
	shipBuf := make([]byte, (rankHi-rankLo)*shipBytes)
	shipOf := func(rank int) shipSet {
		return shipBuf[(rank-rankLo)*shipBytes : (rank-rankLo+1)*shipBytes]
	}
	stageSmall := func(rank int, msg []byte) error {
		cut := len(msg) - shipBytes
		if cut < 0 {
			return fmt.Errorf("core: rank %d small-component message has %d bytes, shorter than its %d-byte ship-set", rank, len(msg), shipBytes)
		}
		if _, _, err := splitSmall(msg[:cut]); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		copy(shipOf(rank), msg[cut:])
		return stage(lay.keys.small[rank], msg[:cut])
	}
	for _, w := range localWorkers {
		for peer := nodeLo; peer < nodeHi; peer++ {
			if peer == node {
				continue
			}
			if err := ep.Send(ctx, peer, tags.small[w], smalls[w]); err != nil {
				return nil, err
			}
		}
	}
	for rank := rankLo; rank < rankHi; rank++ {
		srcNode, err := topo.NodeOf(rank)
		if err != nil {
			return nil, err
		}
		msg := smalls[rank]
		if srcNode != node {
			if msg, err = ep.Recv(ctx, srcNode, tags.small[rank]); err != nil {
				return nil, err
			}
		}
		err = stageSmall(rank, msg)
		// Sent (Send copies) or received, and copied into host memory by
		// stage: the pooled buffer is free again.
		c.buf.Put(msg)
		delete(smalls, rank)
		if err != nil {
			return nil, err
		}
	}

	// --- Step 3: per-buffer streaming pipeline — encode, XOR reduction at
	// each reduction's root, P2P placement — under a bounded window of
	// in-flight buffer windows. ---
	myChunk := plan.ChunkOfNode[node]
	// The segments are assembled directly in the buffers host memory will
	// own: exact-size with footer room, sealed and adopted at promote, never
	// pooled. A segment whose worker is local is that worker's packet, which
	// the snapshot packed in place. Each other one comes off the node's spare
	// stack (takeBlob) and leaves it here, committed or not (on the error
	// paths a straggling receiver may still write into it). Its content does
	// not matter: on a delta round it starts as a copy of the committed
	// segment, and otherwise every buffer range of it is written exactly once
	// (P2P data, finalized parity, or P2P parity).
	//
	// Only touched segments are built: a segment no shipping worker feeds — its
	// own worker on a data node, any worker of its segment index on a parity
	// node — has no writer stream and no fold this round, and is carried: the
	// committed blob stays stored under its key across the commit, unread, and
	// no spare is taken for it. What is left of the spare stack stays the node's.
	// lands[s] holds the windows written into segment s (nil: carried): the
	// union of the ship-sets of the workers that feed it.
	pc.Switch(PhasePromote)
	lands := make([]shipSet, span)
	for w := rankLo; w < rankHi; w++ {
		if (myChunk >= c.cfg.K || plan.DataGroupOf[w] == myChunk) && !shipOf(w).none() {
			s := plan.SegmentOf[w]
			if lands[s] == nil {
				lands[s] = make(shipSet, shipBytes)
			}
			lands[s].or(shipOf(w))
		}
	}
	sliceBounds := func(b int) (int, int) {
		return b * bufSize, min((b+1)*bufSize, packetBytes)
	}
	// The counters cover every payload blob of the node: the segments, and
	// the own-packet caches the snapshot packed or the round carries
	// (takeBlob counts what it allocates).
	chunkSegs := make([][]byte, span)
	recycled, carried := snap.recycled, 0
	for _, w := range localWorkers {
		switch {
		case plan.DataGroupOf[w] == myChunk:
			chunkSegs[plan.SegmentOf[w]] = packets[w] // nil when carried
		case packets[w] == nil:
			carried++ // a cache the snapshot found unchanged
		}
	}
	for s := range chunkSegs {
		if lands[s] == nil {
			carried++
			continue
		}
		if chunkSegs[s] != nil {
			continue // packed in place
		}
		var reused bool
		if chunkSegs[s], reused = c.takeBlob(node, packetBytes); reused {
			recycled++
		}
		if !delta {
			continue
		}
		// The committed bytes and their window sums, read unverified and
		// copied window by window. A window the round lands on is checked
		// against its sum while its copy is cache-hot: no unchecked base byte
		// is XORed onto and resealed. Every other window keeps the sum it was
		// committed with, so a corrupt one stays detectable.
		base, sums, err := cluster.ViewFramed(c.clus, node, lay.keys.segment[myChunk][s], bufSize)
		if err == nil && len(base) != packetBytes {
			err = fmt.Errorf("committed segment has %d bytes, want %d", len(base), packetBytes)
		}
		seg := chunkSegs[s]
		for b := 0; err == nil && b < numBuffers; b++ {
			lo, hi := sliceBounds(b)
			copy(seg[lo:hi], base[lo:hi])
			if lands[s].has(b) {
				err = cluster.VerifyWindow(seg, sums, bufSize, b)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: delta base chunk %d segment %d: %w", myChunk, s, err)
		}
		copy(seg[packetBytes:cap(seg)], sums)
	}
	c.cfg.Metrics.Counter("save_segments_recycled_total").Add(int64(recycled))
	c.cfg.Metrics.Counter("save_segments_carried_total").Add(int64(carried))
	pc.Switch(PhaseStage)

	// Inbound window streams, each with the ship-set naming the windows it
	// carries. A source machine sends its reduction's root a partial for the
	// windows any of its workers of the reduction ships; a reduction's root
	// sends parity for the windows any of its workers ships; a remote worker
	// of this node's data chunk sends its own.
	type inbound struct {
		from int
		tag  string
		ship shipSet
		seg  int // segment the stream lands in (parity and data streams)
	}
	// shipsOf is the union of the ship-sets of the given workers.
	shipsOf := func(workers []int) shipSet {
		u := make(shipSet, shipBytes)
		for _, w := range workers {
			u.or(shipOf(w))
		}
		return u
	}
	partialIn := make([][]inbound, len(routes)) // by reduction, one per other source machine at its root
	var landIn []inbound                        // parity and data segments landing in this node's chunk
	for ri, r := range reds {
		rt := &routes[ri]
		for _, src := range rt.sources {
			if rt.targetNode == node && src != node {
				partialIn[ri] = append(partialIn[ri], inbound{from: src, tag: xorTags[ri], ship: shipsOf(rt.workersOf[src])})
			}
		}
		if myChunk == c.cfg.K+r.ParityIndex && rt.targetNode != node {
			landIn = append(landIn, inbound{from: rt.targetNode, tag: parityTags[ri], ship: shipsOf(r.Workers), seg: r.Group})
		}
	}
	for w := rankLo; w < rankHi && myChunk < c.cfg.K; w++ {
		if plan.DataGroupOf[w] != myChunk {
			continue
		}
		srcNode, err := topo.NodeOf(w)
		if err != nil {
			return nil, err
		}
		if srcNode != node {
			landIn = append(landIn, inbound{from: srcNode, tag: tags.data[w], ship: shipOf(w), seg: plan.SegmentOf[w]})
		}
	}
	// owed counts the contributions this node folds for window b of
	// reduction ri: its shipping local workers plus, at the root, the other
	// source machines that ship the window.
	owed := func(ri, b int) int {
		n := 0
		for _, w := range routes[ri].workersOf[node] {
			if shipOf(w).has(b) {
				n++
			}
		}
		for _, in := range partialIn[ri] {
			if in.ship.has(b) {
				n++
			}
		}
		return n
	}

	// The buffer window is this node's per-buffer delivery ledger and credit
	// bound. Window b owes: the encode loop's own end-of-buffer landing, one
	// fold completion per reduction this node folds anything for (root
	// finalize or partial forward), and one arrival per inbound parity or
	// data stream that carries the window.
	win := newBufWindow(numBuffers, pipelineDepth, func(b int) int {
		n := 1
		for ri := range routes {
			if owed(ri, b) > 0 {
				n++
			}
		}
		for _, in := range landIn {
			if in.ship.has(b) {
				n++
			}
		}
		return n
	})
	win.emitTo(c.cfg.Flight, r.op, node, r.version)
	fail := win.fail

	// Each window of a segment is landed by exactly one writer, once — onto
	// a base window verified above on a delta round — and the writer seals
	// the window's sum into the segment's footer while the bytes are still
	// cache-hot. The window ledger orders those writes before the promote
	// below reads them. A segment packed in place is not landed on: the
	// encode loop seals its windows.
	landRange := func(seg, lo int, src []byte) {
		hi := lo + len(src)
		if !delta {
			copy(chunkSegs[seg][lo:hi], src) // XOR onto a zero base
		} else if err := gf.XORSlice(chunkSegs[seg][lo:hi], src); err != nil {
			fail(err)
		}
		cluster.SealWindows(chunkSegs[seg], bufSize, lo, hi)
	}

	// Fold state for reductions this node participates in.
	var (
		accMu   sync.Mutex
		accs    = map[reduceKey]*reduceState{}
		cursors = make([]foldCursor, len(routes))
	)
	// recvXorNs accumulates XOR-reduce time spent on receiver goroutines;
	// it overlaps the main goroutine's barrier wait and is re-attributed
	// from "barrier" to "xor" at the end of the round.
	var recvXorNs atomic.Int64

	// sendQueue decouples the encoding stage from the communication stage,
	// as in the paper's pipelined execution. Producers are the encode loop
	// (data-segment placement) and the fold completions (partials to the
	// root and rooted parity segments); the queue closes only after both are
	// done. The sender keeps draining after a failure — recycling pooled
	// payloads — so a producer never blocks forever on a full queue.
	type outMsg struct {
		dstNode int
		tag     string
		payload []byte
		// pooled marks payloads owned by the queue (folded partials, parity
		// segments, delta windows): the sender hands them to the transport
		// with transport.SendOwned, which recycles what it does not deliver.
		// A full round's data-segment payloads alias the worker packets, go
		// out through Send and are recycled by nodeDrain instead.
		pooled bool
		// land, when non-negative, is the buffer whose delivery this send
		// completes; it lands after a successful send (a failed one poisons
		// the window instead).
		land int
	}
	sendQueue := make(chan outMsg, encodingBuffers)
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		var sendErr error
		for msg := range sendQueue {
			if sendErr != nil {
				if msg.pooled {
					c.buf.Put(msg.payload)
				}
				continue
			}
			if msg.pooled {
				sendErr = transport.SendOwned(ctx, ep, msg.dstNode, msg.tag, msg.payload)
			} else {
				sendErr = ep.Send(ctx, msg.dstNode, msg.tag, msg.payload)
			}
			if sendErr != nil {
				fail(sendErr)
			} else if msg.land >= 0 {
				win.landOne(msg.land)
			}
		}
	}()

	// xorInto folds src into dst, splitting large regions across the
	// encoder thread pool — the receiver-side counterpart of the paper's
	// thread-pool acceleration (reductions for one buffer used to run
	// serially on whichever goroutine held the contribution).
	xorInto := func(dst, src []byte) error {
		if len(dst) >= poolThreshold && c.pool.Workers() > 1 {
			return c.pool.XOR(dst, src)
		}
		return gf.XORSlice(dst, src)
	}

	// emit hands reduction ri's completed folds on, in buffer order: the
	// streams they feed are matched to buffers by position. Folds complete
	// in buffer order only when every contributor ships every window, so a
	// fold that completes ahead of an earlier owed one waits in accs until
	// that one has gone. At the root the parity bytes land in the local
	// chunk when this node stores the parity chunk, or ship to the parity
	// node; every other source machine sends its partial to the root, and
	// the delivery lands once the send goes through. Ownership of the
	// accumulator leaves the fold state here.
	emit := func(ri int) {
		rt, r, cur := &routes[ri], &reds[ri], &cursors[ri]
		cur.mu.Lock()
		defer cur.mu.Unlock()
		for ; cur.next < numBuffers; cur.next++ {
			if owed(ri, cur.next) == 0 {
				continue
			}
			k := reduceKey{ri: ri, buf: cur.next}
			accMu.Lock()
			st, done := accs[k], false
			if st != nil {
				st.mu.Lock()
				done = st.remaining == 0
				st.mu.Unlock()
			}
			if done {
				delete(accs, k)
			}
			accMu.Unlock()
			if !done {
				return
			}
			switch dstNode := plan.ChunkOwner(cg, c.cfg.K+r.ParityIndex); {
			case rt.targetNode != node:
				sendQueue <- outMsg{dstNode: rt.targetNode, tag: xorTags[ri], payload: st.acc, pooled: true, land: k.buf}
			case dstNode != node:
				sendQueue <- outMsg{dstNode: dstNode, tag: parityTags[ri], payload: st.acc, pooled: true, land: k.buf}
			default:
				lo, _ := sliceBounds(k.buf)
				landRange(r.Group, lo, st.acc)
				c.buf.Put(st.acc)
				win.landOne(k.buf)
			}
		}
	}

	// contribute folds one contribution into this node's accumulator for
	// reduction ri, buffer b, taking ownership of the buffer: the first
	// contribution becomes the accumulator, later ones are XORed in and
	// recycled. When the node's own obligations — shipping local workers
	// plus, at the root, shipping source machines — are all folded, the
	// buffer is ready to emit. timeXor attributes the XOR to the
	// receiver-side accumulator; the main goroutine passes false because its
	// XOR time is already on the phase clock.
	contribute := func(ri, b int, contribution []byte, timeXor bool) {
		var xorStart time.Time
		if timeXor {
			xorStart = time.Now()
		}
		k := reduceKey{ri: ri, buf: b}
		accMu.Lock()
		st, ok := accs[k]
		if !ok {
			st = &reduceState{remaining: owed(ri, b)}
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
		if timeXor {
			recvXorNs.Add(time.Since(xorStart).Nanoseconds())
		}
		if done {
			emit(ri)
		}
	}

	// receive runs one inbound stream: the windows in its ship-set arrive in
	// ascending order under one tag. Bytes from a peer are checked against
	// the window's bounds before anything folds or lands them; deliver takes
	// ownership of the payload.
	receive := func(in inbound, deliver func(b, lo int, payload []byte)) {
		for b := 0; b < numBuffers; b++ {
			if !in.ship.has(b) {
				continue
			}
			payload, err := ep.Recv(ctx, in.from, in.tag)
			if err != nil {
				fail(err)
				return
			}
			lo, hi := sliceBounds(b)
			if len(payload) != hi-lo {
				c.buf.Put(payload)
				fail(fmt.Errorf("core: stream %s from node %d: window %d has %d bytes, want %d",
					in.tag, in.from, b, len(payload), hi-lo))
				return
			}
			deliver(b, lo, payload)
		}
	}

	// Partial receivers, at a reduction's root: one stream per other source
	// machine, which sends exactly one folded partial per buffer it ships.
	// They are also send-queue producers (a completion finalizes), so the
	// queue closes only after they exit.
	var xorRecvWG sync.WaitGroup
	for ri := range partialIn {
		for _, in := range partialIn[ri] {
			xorRecvWG.Add(1)
			go func() {
				defer xorRecvWG.Done()
				receive(in, func(b, _ int, payload []byte) { contribute(ri, b, payload, true) })
			}()
		}
	}
	// Parity segments (this node is a parity node and the reduction rooted
	// elsewhere) and data segments (this node is a data node) arriving via
	// P2P land straight in the chunk.
	for _, in := range landIn {
		go receive(in, func(b, lo int, payload []byte) {
			landRange(in.seg, lo, payload)
			c.buf.Put(payload)
			win.landOne(b)
		})
	}

	// Encode loop: stream buffer windows through the pipeline under the
	// credit bound. Admission waits are pipeline backpressure, charged to
	// p2p.
	srcs := make([][]byte, g) // this window's source per local worker; nil when not shipped
	// contributions holds one worker's column product for the window: output
	// pi is its contribution to parity index pi. The headers are reused
	// window after window; the buffers pass to contribute.
	contributions := make([][]byte, c.cfg.M)
	encodeErr := func() error {
		for b := 0; b < numBuffers; b++ {
			pc.Switch(PhaseP2P)
			if err := win.acquire(ctx, b); err != nil {
				return err
			}
			lo, hi := sliceBounds(b)
			// Window sources: the packet range itself on a full round; on a
			// delta round new ⊕ old, in a pooled buffer that whoever consumes
			// it last (the local landing or the sender) recycles.
			for i, w := range localWorkers {
				srcs[i] = nil
				if !shipOf(w).has(b) {
					continue
				}
				srcs[i] = packets[w][lo:hi]
				if delta {
					pc.Switch(PhaseEncode)
					srcs[i] = c.buf.Get(hi - lo)
					if err := gf.XORInto(srcs[i], packets[w][lo:hi], snap.olds[w][lo:hi]); err != nil {
						return err
					}
				}
			}
			// Encoding stage: every shipping local worker's window is
			// multiplied by its data group's parity column in one pass, and
			// product i folds into the node-local accumulator of parity
			// index i of the worker's reduction group, which goes to the
			// reduction's root. The plan lists a code group's reductions by
			// reduction group (the worker's SegmentOf), then parity index.
			for i, w := range localWorkers {
				src := srcs[i]
				if src == nil {
					continue
				}
				pc.Switch(PhaseEncode)
				// Pooled, not zeroed: the column product fully overwrites
				// each output. Ownership passes to contribute.
				for pi := range contributions {
					contributions[pi] = c.buf.Get(hi - lo)
				}
				if err := c.mulColumn(lay.encode[plan.DataGroupOf[w]], contributions, src); err != nil {
					for _, out := range contributions {
						c.buf.Put(out)
					}
					return err
				}
				pc.Switch(PhaseXOR)
				for pi, out := range contributions {
					contribute(plan.SegmentOf[w]*c.cfg.M+pi, b, out, false)
				}
			}
			// Data-packet placement for local workers. A packet kept in
			// place already holds the window's new bytes: the window is
			// sealed while they are cache-hot.
			for i, w := range localWorkers {
				src := srcs[i]
				if src == nil {
					continue
				}
				if c.keptInPlace(w) {
					pc.Switch(PhaseStage)
					cluster.SealWindows(packets[w], bufSize, lo, hi)
				}
				if dstNode := plan.ChunkOwner(cg, plan.DataGroupOf[w]); dstNode != node {
					pc.Switch(PhaseP2P)
					sendQueue <- outMsg{dstNode: dstNode, tag: tags.data[w], payload: src, pooled: delta, land: -1}
					continue
				}
				if delta {
					c.buf.Put(src)
				}
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
		// A residual data send may have failed. Everything has drained, so
		// there is nothing left to tear down: the deferred Put recycles the
		// packets (the teardown below would close the queue a second time).
		if err := win.failedErr(); err != nil {
			return nil, err
		}
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
			snap.recyclePooled(c)
		}()
		return nil, err
	}

	// Stage the own-packet caches for incremental saves: each is its
	// worker's packet, packed in place and sealed. The cache of a worker that
	// shipped nothing already holds these bytes and is carried.
	pc.Switch(PhasePromote)
	if c.cfg.IncrementalCache {
		for _, w := range localWorkers {
			if !lay.keys.base[w].cache || shipOf(w).none() {
				continue
			}
			if err := cluster.AdoptSealed(c.clus, node, lay.keys.stagedOf[lay.keys.base[w].key], packets[w], bufSize); err != nil {
				return nil, err
			}
		}
	}

	// Stage the chunk and manifest; the caller commits after the barrier.
	// Every window retired, and a delivery lands only after its bytes (and
	// their sum) are in the segment, so nothing writes to a segment again:
	// hand the buffer itself, footer sealed, to host memory. Only this
	// success path hands segments over; on error paths a straggling receiver
	// goroutine may still write into them, so they are dropped for the GC —
	// never adopted, never reused.
	for s := range chunkSegs {
		if lands[s] == nil {
			continue
		}
		if err := cluster.AdoptSealed(c.clus, node, lay.keys.stagedOf[lay.keys.segment[myChunk][s]], chunkSegs[s], bufSize); err != nil {
			return nil, err
		}
	}
	if err := stage(keyManifest(), manifestBlob(r.version, packetBytes, bufSize)); err != nil {
		return nil, err
	}
	phases := pc.Stop()
	shiftPhase(phases, PhaseBarrier, PhaseXOR, time.Duration(recvXorNs.Load()))
	// Fold the snapshot stage's serialize/offload time in, so the node's
	// partition covers the full round.
	for ph, d := range snap.phases {
		phases[ph] += d
	}
	return phases, nil
}
