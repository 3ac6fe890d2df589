package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/obs/flight"
	"eccheck/internal/transport"
)

// Elastic membership: preemption-aware leave (drain) and join (repair).
//
// The node count of a deployment is fixed by the code (k+m machines per code
// group, one chunk each), so membership changes are slot-preserving: a
// leaving node vacates its slot (Alive→Draining→Gone) and a joining machine
// refills it as a fresh, empty node. What varies is how much checkpoint
// state survives the transition:
//
//   - Drained leave: the doomed node ships its committed blobs to a live
//     custodian before the kill lands. The joiner gets them back intact.
//   - Crash leave (no or insufficient notice): the slot's blobs are gone.
//     The join is a restore request: the joiner's chunk is rebuilt in place
//     from k survivors, exactly as PrefetchChunk would.
//
// Either way the slot serves its chunk again when the join returns, and
// placement — fixed at construction — is not touched. A slot's custodian
// and the survivors it is rebuilt from belong to the slot's code group;
// other groups are not involved.
//
// Custody transfers hold the single save slot (fenced), so they serialize
// against Save/SaveAsync/SaveIncremental drains; the rebuild is fenced by
// the restore engine's own gates.

// custodyRecord tracks the blobs a drained slot parked on a custodian.
type custodyRecord struct {
	custodian int
	// keys are the final (committed) keys that were present and shipped;
	// the custodian holds each under keyCustody(node, key).
	keys  []string
	bytes int64
}

// keyCustody namespaces a drained node's blob on its custodian.
func keyCustody(node int, key string) string {
	return fmt.Sprintf("custody/%d/", node) + key
}

// DrainReport describes the outcome of draining a node.
type DrainReport struct {
	// Node is the drained (doomed) node.
	Node int
	// Custodian is the node now holding the drained blobs (-1 if the
	// drain never progressed far enough to pick one).
	Custodian int
	// Completed reports whether the full committed blob set reached the
	// custodian. False means the notice expired (or the transfer failed)
	// mid-drain and recovery will fall back to erasure rebuild.
	Completed bool
	// Version is the committed checkpoint version the drain covered.
	Version int
	// Blobs counts the blobs transferred and BytesMoved their stored bytes,
	// checksum footers included. The wire carries fewer: a blob's sealed zero
	// tail stays behind (see shipBlobs).
	Blobs      int
	BytesMoved int64
	// Elapsed is the drain's wall time.
	Elapsed time.Duration
	// Reason explains a degraded (Completed == false) drain.
	Reason string
	// Postmortem carries the flight-recorder tail of a degraded drain.
	Postmortem []flight.Event
}

// JoinReport describes the outcome of repairing a freshly joined node.
type JoinReport struct {
	// Node is the joined node.
	Node int
	// Restored reports whether a custody record covered the slot: the
	// blobs came back verbatim and nothing was rebuilt.
	Restored bool
	// Custodian is the node the blobs came back from (-1 when none).
	Custodian int
	// Blobs and BytesMoved count the blobs the custodian handed back and
	// their stored bytes, as DrainReport's do.
	Blobs      int
	BytesMoved int64
	// Rebuilt is the report of the restore round that rebuilt the slot's
	// chunk in place when custody did not cover it; nil when Restored, or
	// when there was no committed checkpoint to rebuild.
	Rebuilt *PrefetchReport
	// Elapsed is the repair's wall time.
	Elapsed time.Duration
}

// fenced runs fn — one membership step on node — as a round holding the save
// slot: no save round can start or drain concurrently, and Close cancels fn's
// context (or a step merely waiting for the slot). fn's context carries the
// per-op deadline, so every blob transfer of the step is bounded by it. The
// round's end logs the outcome under step and recomputes the protection
// score.
func (c *Checkpointer) fenced(ctx context.Context, step string, node int, fn func(ctx context.Context, r *round) error) error {
	r, ctx, err := c.open(ctx, roundStep, step, saveMode{waitInflight: true})
	if err != nil {
		return err
	}
	r.node = node
	err = fn(r.begin(ctx, 0), r)
	return r.end(err, nil)
}

// WithSaveFence runs fn — the swap of node's machine for a fresh one —
// fenced. It is how the root ReplaceNode and AddNode serialize against the
// SaveAsync background drain. The node's spare blobs go with the old
// machine, and the new one arrives with the memory its repair lands in, the
// way a training process allocates its host buffers when it starts: once a
// version has committed, its spare stack holds one resident blob of the
// committed shape, cluster.FramedLen(packet, BufferSize), per segment of the
// node's chunk. The repair (Load, PrefetchChunk or the join's rebuild) takes
// them; a save that runs first packs and assembles in them instead.
func (c *Checkpointer) WithSaveFence(ctx context.Context, node int, fn func() error) error {
	return c.fenced(ctx, "replace", node, func(context.Context, *round) error {
		err := fn()
		if err == nil {
			c.stockSpares(node)
		}
		return err
	})
}

// stockSpares replaces node's spare stack with its chunk's blobs at the
// committed shape, each written once a page so its pages are resident before
// a repair runs (a fresh allocation is mapped, not paged in; the repair
// writes every byte); nothing before a first commit.
func (c *Checkpointer) stockSpares(node int) {
	var stock [][]byte
	if c.version.Load() > 0 {
		size, page := cluster.FramedLen(int(c.packet.Load()), c.cfg.BufferSize), os.Getpagesize()
		for range c.lay.plan.Span() {
			blob := make([]byte, size)
			for i := 0; i < size; i += page {
				blob[i] = 0
			}
			retire(blob)
			stock = append(stock, blob)
		}
	}
	c.spareMu.Lock()
	c.spares[node] = stock
	c.spareMu.Unlock()
}

// shipBlobs moves blobs from srcNode to dstNode over the transport, as one
// stream under tag (one of the round's custody or rejoin tags): one custody
// message per pair (see packCustody). Each pair is (source key, destination
// key); a blob lands as the framed bytes it was at the source, footer
// included, though its sealed zero tail does not travel. Missing source blobs
// are flagged and skipped. It returns the destination keys actually stored and
// their stored bytes — also on error, so callers can clean up a partial
// transfer; a transfer that fails advances the epoch, so what it left in the
// mailbox stays under its own tag.
func (c *Checkpointer) shipBlobs(ctx context.Context, srcNode, dstNode int, pairs [][2]string, tag string) (stored []string, bytes int64, err error) {
	srcEP, err := c.net.Endpoint(srcNode)
	if err != nil {
		return nil, 0, err
	}
	dstEP, err := c.net.Endpoint(dstNode)
	if err != nil {
		return nil, 0, err
	}
	// A failed send ends the receive loop at once, not at its next deadline.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	send := func() error {
		for _, pair := range pairs {
			// Absent at the source (e.g. an own-packet cache a prior recovery
			// did not refresh), a blob is flagged and skipped.
			blob, _ := c.clus.View(srcNode, pair[0])
			if serr := transport.SendOwned(ctx, srcEP, dstNode, tag, c.packCustody(blob)); serr != nil {
				return serr
			}
		}
		return nil
	}
	sendErr := make(chan error, 1)
	go func() {
		serr := send()
		if serr != nil {
			cancel()
		}
		sendErr <- serr
	}()
	for _, pair := range pairs {
		msg, rerr := dstEP.Recv(ctx, srcNode, tag)
		if rerr != nil {
			err = rerr
			break
		}
		blob, perr := c.unpackCustody(msg)
		c.buf.Put(msg)
		if perr != nil {
			err = fmt.Errorf("core: custody of %s: %w", pair[0], perr)
			break
		}
		if blob == nil {
			continue
		}
		if serr := c.clus.Adopt(dstNode, pair[1], blob); serr != nil {
			err = serr
			break
		}
		stored = append(stored, pair[1])
		bytes += int64(len(blob))
	}
	if werr := <-sendErr; werr != nil {
		err = werr
	}
	if err != nil {
		c.epoch.Add(1)
	}
	return stored, bytes, err
}

// packCustody encodes one blob of a custody transfer into a pooled message:
// 0 when the blob is absent (nil); else 1, the payload length n and the
// length tail of the payload that travels as uvarints, payload[:tail], then
// the footer. payload[tail:n] is the blob's sealed zero tail
// (cluster.SealedZeroTail), which the receiver writes back as zeros.
func (c *Checkpointer) packCustody(framed []byte) []byte {
	if framed == nil {
		msg := c.buf.Get(1)
		msg[0] = 0
		return msg
	}
	n, tail := cluster.SealedZeroTail(framed, c.cfg.BufferSize)
	msg := c.buf.Get(1 + 2*binary.MaxVarintLen64 + tail + len(framed) - n)
	msg = binary.AppendUvarint(append(msg[:0], 1), uint64(n))
	msg = binary.AppendUvarint(msg, uint64(tail))
	return append(append(msg, framed[:tail]...), framed[n:]...)
}

// unpackCustody decodes a packCustody message into a fresh framed blob, nil
// for an absent one. A message that does not parse, or whose footer does not
// frame the payload length it states, is an error.
func (c *Checkpointer) unpackCustody(msg []byte) ([]byte, error) {
	if len(msg) == 1 && msg[0] == 0 {
		return nil, nil
	}
	bad := func() ([]byte, error) {
		return nil, fmt.Errorf("core: custody message of %d bytes does not parse", len(msg))
	}
	if len(msg) == 0 || msg[0] != 1 {
		return bad()
	}
	n, h1 := binary.Uvarint(msg[1:])
	if h1 <= 0 {
		return bad()
	}
	tail, h2 := binary.Uvarint(msg[1+h1:])
	body := msg[1+h1+max(h2, 0):]
	if h2 <= 0 || tail > n || tail > uint64(len(body)) {
		return bad()
	}
	footer := body[tail:]
	// A blob sent whole is copied verbatim; a trimmed one must carry the
	// footer its payload length frames, which also bounds that length.
	if tail < n && (n > uint64(len(footer))*uint64(c.cfg.BufferSize) || cluster.FramedLen(int(n), c.cfg.BufferSize) != int(n)+len(footer)) {
		return bad()
	}
	framed := make([]byte, int(n)+len(footer))
	copy(framed, body[:tail])
	copy(framed[n:], footer)
	return framed, nil
}

// pickCustodian returns the first alive node after doomed in ring order
// within doomed's code group.
func (c *Checkpointer) pickCustodian(doomed int) (int, error) {
	lo, hi := c.lay.plan.NodeRange(c.lay.plan.GroupOfNode(doomed))
	for off := 1; off < hi-lo; off++ {
		cand := lo + (doomed-lo+off)%(hi-lo)
		if c.clus.Alive(cand) {
			return cand, nil
		}
	}
	return -1, fmt.Errorf("core: no alive custodian for node %d", doomed)
}

// DrainNode ships a doomed node's committed checkpoint blobs to a live
// custodian before the node dies, fenced so no save round interleaves. On
// success the slot's state survives the kill: a later RepairNode on the
// refilled slot restores the blobs verbatim, with no erasure rebuild. On
// failure (notice expired, transfer error) the partial custody copy is
// discarded and the returned report explains the degradation alongside the
// error — the join then rebuilds the chunk through the code, which is exactly
// the crash-only behavior the drain tries to improve on.
//
// Saves cannot commit while any node is dead, so a registered custody
// record is always at the cluster's current committed version; no delta
// reconciliation is needed at restore time.
func (c *Checkpointer) DrainNode(ctx context.Context, node int) (*DrainReport, error) {
	if node < 0 || node >= c.cfg.Topo.Nodes() {
		return nil, fmt.Errorf("core: node %d out of range [0, %d)", node, c.cfg.Topo.Nodes())
	}
	if !c.clus.Alive(node) {
		return nil, fmt.Errorf("core: node %d is failed; nothing to drain", node)
	}
	var rep *DrainReport
	err := c.fenced(ctx, "drain", node, func(ctx context.Context, r *round) (err error) {
		rep, err = c.drainLocked(ctx, r, node)
		return err
	})
	return rep, err
}

func (c *Checkpointer) drainLocked(ctx context.Context, r *round, node int) (*DrainReport, error) {
	rep := &DrainReport{Node: node, Custodian: -1, Version: c.Version()}
	degrade := func(err error) (*DrainReport, error) {
		rep.Completed = false
		rep.Reason = err.Error()
		rep.Elapsed = time.Since(r.started)
		rep.Postmortem = r.tail()
		c.cfg.Flight.Membership("drain_failed", node, rep.Custodian, rep.BytesMoved)
		if reg := c.cfg.Metrics; reg != nil {
			reg.Counter("membership_drain_failures_total").Inc()
		}
		return rep, err
	}
	if rep.Version == 0 {
		// Nothing committed yet: the drain is trivially complete and there
		// is nothing for a joiner to restore.
		rep.Completed = true
		rep.Elapsed = time.Since(r.started)
		c.cfg.Flight.Membership("drain", node, -1, 0)
		return rep, nil
	}
	custodian, err := c.pickCustodian(node)
	if err != nil {
		return degrade(err)
	}
	rep.Custodian = custodian
	c.cfg.Flight.Membership("drain_begin", node, custodian, 0)

	keys := c.lay.keys.commit[node]
	pairs := make([][2]string, 0, len(keys))
	for _, key := range keys {
		pairs = append(pairs, [2]string{key, keyCustody(node, key)})
	}
	stored, bytes, err := c.shipBlobs(ctx, node, custodian, pairs, c.roundTags().custody[node])
	rep.Blobs = len(stored)
	rep.BytesMoved = bytes
	if err != nil {
		// Discard the partial custody copy; a half-set of blobs must not
		// masquerade as a drained slot at join time.
		if c.clus.Alive(custodian) {
			for _, key := range stored {
				_ = c.clus.Delete(custodian, key)
			}
		}
		return degrade(fmt.Errorf("core: drain node %d to custodian %d: %w", node, custodian, err))
	}
	// Strip the custody prefix back off for the restore path's key list.
	finals := make([]string, len(stored))
	prefix := keyCustody(node, "")
	for i, key := range stored {
		finals[i] = key[len(prefix):]
	}
	c.memMu.Lock()
	c.custody[node] = &custodyRecord{custodian: custodian, keys: finals, bytes: bytes}
	c.memMu.Unlock()
	rep.Completed = true
	rep.Elapsed = time.Since(r.started)
	c.cfg.Flight.Membership("drain", node, custodian, bytes)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("membership_drains_total").Inc()
		reg.Counter("membership_drain_bytes_total").Add(bytes)
	}
	return rep, nil
}

// RepairNode makes a freshly joined (replaced, empty) node serve its chunk
// again. Two cases:
//
//   - A live custody record covers the slot (the leave was drained): the
//     custodian hands every blob back verbatim, fenced, and deletes its
//     copies.
//   - Anything else (crash leave of a data or parity slot, custodian dead or
//     wiped since): one restore request rebuilds the node's chunk in place
//     from k survivors and re-lands small components and manifest — the
//     PrefetchChunk round, fenced by the restore engine's own gates after the
//     save slot is released. A save that slips in between makes the node whole
//     by itself and the round reports AlreadyIntact.
//
// When it returns nil the slot is whole: DegradedSlots no longer counts it.
// When the rebuild cannot finish (fewer than k chunks survive, a basis owner
// dies mid-round) it returns that round's error, the joiner stays an erasure,
// and a retry is idempotent.
func (c *Checkpointer) RepairNode(ctx context.Context, node int) (*JoinReport, error) {
	if node < 0 || node >= c.cfg.Topo.Nodes() {
		return nil, fmt.Errorf("core: node %d out of range [0, %d)", node, c.cfg.Topo.Nodes())
	}
	if !c.clus.Alive(node) {
		return nil, fmt.Errorf("core: node %d is failed; replace it before repairing", node)
	}
	started := time.Now()
	rep := &JoinReport{Node: node, Custodian: -1}
	err := c.fenced(ctx, "join", node, func(ctx context.Context, _ *round) error {
		return c.restoreCustody(ctx, node, rep)
	})
	// Without a committed checkpoint an empty joiner is already whole.
	if err == nil && !rep.Restored && c.Version() > 0 {
		rep.Rebuilt, err = c.PrefetchChunk(ctx, node)
	}
	rep.Elapsed = time.Since(started)
	return rep, err
}

// forgetCustody drops the custody record of a slot.
func (c *Checkpointer) forgetCustody(node int) {
	c.memMu.Lock()
	delete(c.custody, node)
	c.memMu.Unlock()
}

// restoreCustody hands a drained slot's blobs back from its custodian and
// marks rep Restored. It leaves rep untouched when no live custodian holds
// them — no record, or the custodian died or was replaced since the drain —
// and the slot is a crash leave after all.
func (c *Checkpointer) restoreCustody(ctx context.Context, node int, rep *JoinReport) error {
	c.memMu.Lock()
	record := c.custody[node]
	c.memMu.Unlock()
	if record == nil {
		return nil
	}
	if !c.clus.Alive(record.custodian) {
		// The custodian died too; its copy is gone with its memory.
		c.forgetCustody(node)
		return nil
	}
	pairs := make([][2]string, len(record.keys))
	for i, key := range record.keys {
		pairs[i] = [2]string{keyCustody(node, key), key}
	}
	stored, bytes, err := c.shipBlobs(ctx, record.custodian, node, pairs, c.roundTags().rejoin[node])
	if err != nil {
		// The record stays: a retry after a transient failure can still
		// restore (shipBlobs overwrites cleanly).
		rep.Blobs, rep.BytesMoved = len(stored), bytes
		return fmt.Errorf("core: restore node %d from custodian %d: %w", node, record.custodian, err)
	}
	if len(stored) < len(record.keys) {
		c.forgetCustody(node)
		for _, key := range stored {
			_ = c.clus.Delete(node, key)
		}
		return nil
	}
	for _, key := range record.keys {
		_ = c.clus.Delete(record.custodian, keyCustody(node, key))
	}
	c.forgetCustody(node)
	rep.Blobs, rep.BytesMoved = len(stored), bytes
	rep.Restored = true
	rep.Custodian = record.custodian
	c.cfg.Flight.Membership("restore", node, record.custodian, bytes)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("membership_restores_total").Inc()
		reg.Counter("membership_restore_bytes_total").Add(bytes)
	}
	return nil
}

// DegradedSlots counts the machine slots of the worst-hit code group that are
// currently unable to serve their chunk: dead slots, plus alive slots missing
// committed chunk blobs (a replaced machine nobody has joined or loaded
// onto yet). Before the first committed save only dead slots count. Each
// group tolerates m lost slots, so the root FaultTolerance subtracts this
// from m; it is back at zero when the last vacated slot's RepairNode
// returns.
func (c *Checkpointer) DegradedSlots() int {
	lay := c.lay
	version := c.version.Load()
	worst := 0
	for cg := 0; cg < lay.plan.Groups(); cg++ {
		degraded := 0
		lo, hi := lay.plan.NodeRange(cg)
		for node := lo; node < hi; node++ {
			if !c.clus.Alive(node) {
				degraded++
				continue
			}
			if version == 0 {
				continue
			}
			ok := c.clus.Has(node, keyManifest())
			for _, key := range lay.keys.segment[lay.plan.ChunkOfNode[node]] {
				ok = ok && c.clus.Has(node, key)
			}
			if !ok {
				degraded++
			}
		}
		worst = max(worst, degraded)
	}
	return worst
}
