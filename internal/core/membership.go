package core

import (
	"context"
	"fmt"
	"time"

	"eccheck/internal/placement"

	"eccheck/internal/obs/flight"
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
//     custodian before the kill lands. The joiner gets them back intact,
//     so the next Load is a pure replacement round with ZERO erasure
//     rebuilds.
//   - Crash leave (no or insufficient notice): the slot's blobs are gone.
//     The join re-runs sweep-line placement avoiding the empty machine
//     (demoting it to parity duty), migrates the chunks the new plan
//     moved between intact machines, and leaves at most the dead slot's
//     former chunk for the next Load's corruption-as-erasure rebuild.
//
// A slot's custodian, the machines a reseat moves chunks between and the
// chunks it re-homes all belong to the slot's code group; other groups are
// not touched.
//
// Every mutation here holds the single save slot, so membership changes
// serialize against Save/SaveAsync/SaveIncremental drains; reseats
// additionally wait for in-flight loads to finish before swapping the
// layout pointer.

// custodyRecord tracks the blobs a drained slot parked on a custodian.
type custodyRecord struct {
	custodian int
	// keys are the final (committed) keys that were present and shipped;
	// the custodian holds each under keyCustody(node, key).
	keys  []string
	bytes int64
	// derived maps own-packet cache keys that were NOT shipped (their
	// bytes duplicate one of the node's own chunk segments — the code is
	// systematic, so a data chunk's segments are the group's raw worker
	// packets) to the segment key to copy from locally at restore time.
	derived map[string]string
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
	// Blobs and BytesMoved count the transferred payload.
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
	// blobs came back verbatim and no erasure rebuild is needed.
	Restored bool
	// Custodian is the node the blobs came back from (-1 when none).
	Custodian int
	// Reseated reports whether placement was recompiled around the empty
	// machine (crash-leave of a data slot).
	Reseated bool
	// Moves lists the chunks the reseat migrated or reassigned.
	Moves []placement.ChunkMove
	// Blobs and BytesMoved count the transferred payload.
	Blobs      int
	BytesMoved int64
	// RebuildPending reports that at least one chunk has no intact copy
	// and the next Load must rebuild it through the erasure code.
	RebuildPending bool
	// Elapsed is the repair's wall time.
	Elapsed time.Duration
}

// WithSaveFence runs fn — the swap of node's machine for a fresh one — while
// holding the save slot: no save round can start or drain concurrently, and
// Close aborts a round that is merely waiting here. It is the fence the root
// ReplaceNode uses to serialize against the SaveAsync background drain. A
// replaced machine starts cold: the node's spare segments go with the old one.
func (c *Checkpointer) WithSaveFence(ctx context.Context, node int, fn func() error) error {
	h := newSaveHandle()
	if err := c.acquireSave(ctx, true, h); err != nil {
		return err
	}
	err := fn()
	if err == nil {
		c.spares[node] = nil
	}
	c.releaseSave(h)
	h.complete(nil, err)
	return err
}

// waitLoadsIdle blocks until no load round is in flight, honoring ctx.
// Callers hold the save slot, so no new save can interleave; loads may
// still start concurrently — the caller's mutation must tolerate that or
// the operator must quiesce loads (the documented contract for reseats).
func (c *Checkpointer) waitLoadsIdle(ctx context.Context) error {
	for {
		c.lc.mu.Lock()
		var waiting *oneRound
		for _, r := range c.lc.loads {
			waiting = r
			break
		}
		c.lc.mu.Unlock()
		if waiting == nil {
			return nil
		}
		select {
		case <-waiting.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// shipBlobs moves blobs from srcNode to dstNode over the transport, as one
// stream under tag (one of the round's custody, rejoin or migrate tags): a
// presence flag per pair, then the blob if present. Each pair is (source key,
// destination key); blobs travel raw, so checksum footers arrive intact.
// Missing source blobs are flagged and skipped. It returns the destination
// keys actually stored and the bytes moved — also on error, so callers can
// clean up a partial transfer; a transfer that fails advances the epoch, so
// what it left in the mailbox stays under its own tag.
func (c *Checkpointer) shipBlobs(ctx context.Context, srcNode, dstNode int, pairs [][2]string, tag string) (stored []string, bytes int64, err error) {
	srcEP, err := c.endpoint(srcNode)
	if err != nil {
		return nil, 0, err
	}
	dstEP, err := c.endpoint(dstNode)
	if err != nil {
		return nil, 0, err
	}
	// A failed send ends the receive loop at once, not at its next deadline.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	send := func() error {
		for _, pair := range pairs {
			blob, lerr := c.clus.View(srcNode, pair[0]) // Send copies
			if lerr != nil {
				// Absent at the source (e.g. an own-packet cache a prior
				// recovery did not refresh): flag and move on.
				if serr := srcEP.Send(ctx, dstNode, tag, []byte{0}); serr != nil {
					return serr
				}
				continue
			}
			if serr := srcEP.Send(ctx, dstNode, tag, []byte{1}); serr != nil {
				return serr
			}
			if serr := srcEP.Send(ctx, dstNode, tag, blob); serr != nil {
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
		flag, rerr := dstEP.Recv(ctx, srcNode, tag)
		if rerr != nil {
			err = rerr
			break
		}
		present := len(flag) == 1 && flag[0] == 1
		c.buf.Put(flag)
		if !present {
			continue
		}
		blob, rerr := dstEP.Recv(ctx, srcNode, tag)
		if rerr != nil {
			err = rerr
			break
		}
		if serr := c.clus.Store(dstNode, pair[1], blob); serr != nil {
			c.buf.Put(blob)
			err = serr
			break
		}
		stored = append(stored, pair[1])
		bytes += int64(len(blob))
		c.buf.Put(blob)
	}
	if werr := <-sendErr; werr != nil {
		err = werr
	}
	if err != nil {
		c.epoch.Add(1)
	}
	return stored, bytes, err
}

// pickCustodian returns the first alive node after doomed in ring order
// within doomed's code group.
func (c *Checkpointer) pickCustodian(lay *layout, doomed int) (int, error) {
	lo, hi := lay.plan.NodeRange(lay.plan.GroupOfNode(doomed))
	for off := 1; off < hi-lo; off++ {
		cand := lo + (doomed-lo+off)%(hi-lo)
		if c.clus.Alive(cand) {
			return cand, nil
		}
	}
	return -1, fmt.Errorf("core: no alive custodian for node %d", doomed)
}

// DrainNode ships a doomed node's committed checkpoint blobs to a live
// custodian before the node dies, holding the save slot so no save round
// interleaves. On success the slot's state survives the kill: a later
// RepairNode on the refilled slot restores the blobs verbatim and the
// next Load runs with zero erasure rebuilds. On failure (notice expired,
// transfer error) the partial custody copy is discarded and the returned
// report explains the degradation alongside the error — recovery then
// falls back to the corruption-as-erasure rebuild path, which is exactly
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
	h := newSaveHandle()
	if err := c.acquireSave(ctx, true, h); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	h.setCancel(cancel)
	started := time.Now()
	pmStart := c.cfg.Flight.Cursor()
	rep, err := c.drainLocked(ctx, node, started, pmStart)
	cancel()
	c.releaseSave(h)
	h.complete(nil, err)
	if l := c.cfg.Logger; l != nil {
		if err != nil {
			l.Error("drain failed", "node", node, "err", err)
		} else {
			l.Info("node drained", "node", node, "custodian", rep.Custodian, "bytes", rep.BytesMoved)
		}
	}
	c.cfg.Health.Recompute()
	return rep, err
}

func (c *Checkpointer) drainLocked(ctx context.Context, node int, started time.Time, pmStart uint64) (*DrainReport, error) {
	rep := &DrainReport{Node: node, Custodian: -1, Version: c.Version()}
	degrade := func(err error) (*DrainReport, error) {
		rep.Completed = false
		rep.Reason = err.Error()
		rep.Elapsed = time.Since(started)
		rep.Postmortem = c.cfg.Flight.TailSince(pmStart, flight.DefaultPostmortemEvents)
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
		rep.Elapsed = time.Since(started)
		c.cfg.Flight.Membership("drain", node, -1, 0)
		return rep, nil
	}
	lay := c.layout()
	custodian, err := c.pickCustodian(lay, node)
	if err != nil {
		return degrade(err)
	}
	rep.Custodian = custodian
	c.cfg.Flight.Membership("drain_begin", node, custodian, 0)

	// Own-packet caches on a DATA node duplicate the node's own chunk
	// segments byte for byte (systematic code: a data chunk's segments ARE
	// the group's raw worker packets, and both blobs are staged from the
	// same packet each save). Skipping them halves the custody payload of
	// a data slot; the restore rebuilds each with a local copy from the
	// shipped segment, never touching the wire.
	derived := map[string]string{}
	if chunk := lay.plan.ChunkOfNode[node]; c.cfg.IncrementalCache && chunk < c.cfg.K {
		g := c.cfg.Topo.GPUsPerNode()
		for w := node * g; w < (node+1)*g; w++ {
			if lay.plan.DataGroupOf[w] == chunk {
				derived[lay.keys.ownPacket[w]] = lay.keys.segment[chunk][lay.plan.SegmentOf[w]]
			}
		}
	}
	keys := lay.keys.commit[node]
	pairs := make([][2]string, 0, len(keys))
	for _, key := range keys {
		if _, dup := derived[key]; dup {
			continue
		}
		pairs = append(pairs, [2]string{key, keyCustody(node, key)})
	}
	stored, bytes, err := c.shipBlobs(ctx, node, custodian, pairs, c.roundTags(lay).custody[node])
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
	c.custody[node] = &custodyRecord{custodian: custodian, keys: finals, bytes: bytes, derived: derived}
	c.memMu.Unlock()
	rep.Completed = true
	rep.Elapsed = time.Since(started)
	c.cfg.Flight.Membership("drain", node, custodian, bytes)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("membership_drains_total").Inc()
		reg.Counter("membership_drain_bytes_total").Add(bytes)
	}
	return rep, nil
}

// RepairNode restores a freshly joined (replaced, empty) node's share of
// the checkpoint, holding the save slot. Three cases, best first:
//
//   - A custody record covers the slot (the leave was drained): the
//     custodian hands every blob back verbatim and deletes its copies.
//     The next Load sees a fully intact cluster — zero rebuilds.
//   - No custody and the slot held a data chunk (crash leave): placement
//     is recompiled avoiding the empty machine (sweep-line with the
//     joiner barred from data duty), the chunks the new plan moved
//     between intact machines are migrated, and the layout is swapped
//     atomically. Only the dead slot's former chunk is left for the next
//     Load to re-encode.
//   - No custody, parity slot: nothing moves; the next Load re-encodes
//     the one parity chunk in place.
func (c *Checkpointer) RepairNode(ctx context.Context, node int) (*JoinReport, error) {
	if node < 0 || node >= c.cfg.Topo.Nodes() {
		return nil, fmt.Errorf("core: node %d out of range [0, %d)", node, c.cfg.Topo.Nodes())
	}
	if !c.clus.Alive(node) {
		return nil, fmt.Errorf("core: node %d is failed; replace it before repairing", node)
	}
	h := newSaveHandle()
	if err := c.acquireSave(ctx, true, h); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	h.setCancel(cancel)
	rep, err := c.repairLocked(ctx, node)
	cancel()
	c.releaseSave(h)
	h.complete(nil, err)
	if l := c.cfg.Logger; l != nil {
		if err != nil {
			l.Error("repair failed", "node", node, "err", err)
		} else {
			l.Info("node repaired", "node", node, "custodian", rep.Custodian, "bytes", rep.BytesMoved)
		}
	}
	c.cfg.Health.Recompute()
	return rep, err
}

func (c *Checkpointer) repairLocked(ctx context.Context, node int) (*JoinReport, error) {
	started := time.Now()
	rep := &JoinReport{Node: node, Custodian: -1}
	if err := c.waitLoadsIdle(ctx); err != nil {
		return nil, err
	}

	c.memMu.Lock()
	record := c.custody[node]
	c.memMu.Unlock()
	if record != nil && !c.clus.Alive(record.custodian) {
		// The custodian died too; its copy is gone with its memory.
		c.forgetCustody(node)
		record = nil
	}
	if record != nil {
		restored, err := c.restoreCustody(ctx, node, record, rep)
		if restored || err != nil {
			rep.Elapsed = time.Since(started)
			return rep, err
		}
	}

	if c.Version() == 0 {
		// No committed checkpoint: an empty joiner is already whole.
		rep.Elapsed = time.Since(started)
		return rep, nil
	}
	lay := c.layout()
	if lay.plan.ChunkOfNode[node] >= c.cfg.K {
		// Parity slot lost without a drain: placement is untouched and the
		// next Load's replacement workflow re-encodes this one chunk.
		rep.RebuildPending = true
		rep.Elapsed = time.Since(started)
		c.cfg.Flight.Membership("rebuild_pending", node, -1, 0)
		return rep, nil
	}
	if err := c.reseatLocked(ctx, node, lay, rep); err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(started)
	return rep, nil
}

// forgetCustody drops the custody record of a slot.
func (c *Checkpointer) forgetCustody(node int) {
	c.memMu.Lock()
	delete(c.custody, node)
	c.memMu.Unlock()
}

// restoreCustody hands a drained slot's blobs back from its custodian. It
// reports false when the custodian no longer holds them — it was itself
// replaced since the drain — and the slot is a crash leave after all.
func (c *Checkpointer) restoreCustody(ctx context.Context, node int, record *custodyRecord, rep *JoinReport) (bool, error) {
	pairs := make([][2]string, len(record.keys))
	for i, key := range record.keys {
		pairs[i] = [2]string{keyCustody(node, key), key}
	}
	stored, bytes, err := c.shipBlobs(ctx, record.custodian, node, pairs, c.roundTags(c.layout()).rejoin[node])
	if err != nil {
		// The record stays: a retry after a transient failure can still
		// restore (shipBlobs overwrites cleanly).
		rep.Blobs, rep.BytesMoved = len(stored), bytes
		return false, fmt.Errorf("core: restore node %d from custodian %d: %w", node, record.custodian, err)
	}
	if len(stored) < len(record.keys) {
		c.forgetCustody(node)
		for _, key := range stored {
			_ = c.clus.Delete(node, key)
		}
		return false, nil
	}
	// Rebuild the own-packet caches the drain deduplicated: each is a
	// byte-identical twin of one of the just-restored chunk segments,
	// so a local copy on the joiner recreates it for free. A segment
	// the drain flagged absent leaves its twin absent too — the next
	// SaveIncremental then ships every window, exactly as it would have
	// without the dedup.
	for ownKey, segKey := range record.derived {
		if blob, lerr := c.clus.View(node, segKey); lerr == nil {
			if serr := c.clus.Store(node, ownKey, blob); serr != nil {
				return false, fmt.Errorf("core: rebuild own-packet cache %q on node %d: %w", ownKey, node, serr)
			}
		}
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
	return true, nil
}

// reseatLocked recompiles placement around a crash-joined data slot and
// migrates the moved chunks between intact machines. The joiner is barred
// from data duty (it has nothing to contribute), so every surviving data
// chunk keeps an intact home and exactly one chunk — the dead slot's
// former data chunk, now homed elsewhere — is left for the next Load to
// decode. Demoting churning slots to parity also means a repeat failure
// of the same slot costs only a parity re-encode, not a decode.
func (c *Checkpointer) reseatLocked(ctx context.Context, node int, lay *layout, rep *JoinReport) error {
	newPlan, err := lay.plan.Reseat(node)
	if err != nil {
		return fmt.Errorf("core: reseat around node %d: %w", node, err)
	}
	moves, err := placement.Diff(lay.plan, newPlan)
	if err != nil {
		return fmt.Errorf("core: reseat around node %d: %w", node, err)
	}
	span := lay.plan.Span()
	tags := c.roundTags(lay)
	var bytes int64
	blobs := 0
	for _, mv := range moves {
		if mv.From == node {
			// The dead slot's former chunk: no intact copy exists; the next
			// Load rebuilds it at its new home through the erasure code.
			rep.RebuildPending = true
			c.cfg.Flight.Membership("rebuild_pending", mv.To, node, 0)
			continue
		}
		// Chunk keys are chunk-indexed, not node-indexed, so a migration is
		// a same-key copy to the new owner. The manifest rides along for
		// owners that lack one (the joiner); flags skip anything absent.
		pairs := make([][2]string, 0, span+1)
		for s := 0; s < span; s++ {
			key := keySegment(mv.Chunk, s)
			pairs = append(pairs, [2]string{key, key})
		}
		if !c.clus.Has(mv.To, keyManifest()) {
			pairs = append(pairs, [2]string{keyManifest(), keyManifest()})
		}
		stored, moved, err := c.shipBlobs(ctx, mv.From, mv.To, pairs, tags.migrate[mv.Chunk])
		blobs += len(stored)
		bytes += moved
		if err != nil {
			// Migrated copies are extra (sources untouched, layout not yet
			// swapped): drop them and leave the old layout in force.
			for _, key := range stored {
				_ = c.clus.Delete(mv.To, key)
			}
			return fmt.Errorf("core: migrate chunk %d from %d to %d: %w", mv.Chunk, mv.From, mv.To, err)
		}
	}
	// All copies landed; retire the stale sources and publish the layout.
	for _, mv := range moves {
		if mv.From == node {
			continue
		}
		for s := 0; s < span; s++ {
			_ = c.clus.Delete(mv.From, keySegment(mv.Chunk, s))
		}
	}
	newLay, err := newLayout(&c.cfg, newPlan)
	if err != nil {
		return fmt.Errorf("core: reseat layout: %w", err)
	}
	c.lay.Store(newLay)
	rep.Reseated = true
	rep.Moves = moves
	rep.Blobs += blobs
	rep.BytesMoved += bytes
	c.cfg.Flight.Membership("reseat", node, -1, bytes)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("membership_reseats_total").Inc()
		reg.Counter("membership_reseat_bytes_total").Add(bytes)
	}
	return nil
}

// DegradedSlots counts the machine slots of the worst-hit code group that are
// currently unable to serve their chunk: dead slots, plus alive slots missing
// committed chunk blobs (a crash-joined machine before its rebuild). Before
// the first committed save only dead slots count. Each group tolerates m
// lost slots, so the root FaultTolerance subtracts this from m: a completed
// drain+restore keeps it at zero, a crash leave holds it above zero until
// the next Load rebuilds.
func (c *Checkpointer) DegradedSlots() int {
	lay := c.layout()
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
