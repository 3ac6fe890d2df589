package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"eccheck/internal/cluster"
	"eccheck/internal/serialize"
	"eccheck/internal/statedict"
)

// LoadPartial lazily restores only the requested workers' state dicts from
// the distributed in-memory checkpoint — the serving-failover fast path,
// where a handful of hot workers (e.g. the ranks hosting an MoE model's
// hot experts) must come back inside a latency budget and the rest of the
// fleet can restore later.
//
// It is a restore that repairs nothing, so it runs on the coordinator and
// touches only what the request needs: a manifest-only scan discovers the
// latest version, then each requested rank's packet is fetched directly
// from its chunk owner. If an owner is dead or its segment corrupt, the
// round degrades to decoding that segment from k surviving chunks (workflow
// "partial-decode") instead of failing. Nothing is persisted and no missing
// chunks are rebuilt in host memory, so fault tolerance is NOT restored —
// run Load (or PrefetchChunk per replacement node) afterwards to re-arm the
// code.
//
// The returned map has exactly the requested ranks. BytesFetched counts
// every host-memory blob read, which on a k-of-n cluster is strictly less
// than a full Load's scan alone whenever len(ranks) < world.
func (c *Checkpointer) LoadPartial(ctx context.Context, ranks []int) (map[int]*statedict.StateDict, *LoadReport, error) {
	world := c.cfg.Topo.World()
	if len(ranks) == 0 {
		return nil, nil, fmt.Errorf("core: partial restore needs at least one rank")
	}
	want := slices.Clone(ranks)
	slices.Sort(want)
	want = slices.Compact(want)
	if want[0] < 0 || want[len(want)-1] >= world {
		return nil, nil, fmt.Errorf("core: ranks %v out of range [0, %d)", ranks, world)
	}
	rd, err := c.restore(ctx, restoreReq{op: OpPartialLoad, want: want, repair: repairNone})
	if err != nil {
		return nil, rd.report, err
	}
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("load_partial_rounds_total").Inc()
		reg.Counter("load_partial_bytes_total").Add(rd.report.BytesFetched)
	}
	out := make(map[int]*statedict.StateDict, len(want))
	for _, rank := range want {
		out[rank] = rd.dicts[rank]
	}
	return out, rd.report, nil
}

// serveDirect serves the wanted ranks from the coordinator: each packet is
// one segment of its data chunk, read straight from the owning node, or —
// where that fails — decoded from k chunks that still serve the version.
// Only the bytes the caller needs are read, nothing is written, and no node
// has to be alive except the ones that are read.
func (c *Checkpointer) serveDirect(rd *restoreRound) error {
	lay, want, pc := c.lay, rd.req.want, rd.pc
	plan, keys := lay.plan, &lay.keys

	// Direct fetch. Failures don't abort: a packet left nil — its owner lost
	// or stale, its segment corrupt, the node killed since the scan — is
	// decoded below.
	pc.Switch(PhaseFetch)
	packets := make([][]byte, len(want))
	_ = forEachBounded(len(want), func(i int) error {
		chunk := plan.DataGroupOf[want[i]]
		if owner := plan.ChunkOwner(plan.GroupOfRank(want[i]), chunk); rd.scan[owner].holds(rd.version) {
			packets[i], _ = c.read(rd, owner, keys.segment[chunk][plan.SegmentOf[want[i]]])
		}
		return nil
	})

	pc.Switch(PhaseRebuild)
	decoded, err := c.decodeLost(rd, packets)
	if err != nil {
		return err
	}
	rd.workflow = "partial"
	if slices.Contains(decoded, true) {
		rd.workflow = "partial-decode"
	}

	// Small components: any node whose manifest parses at the target version
	// holds its code group's broadcast set.
	pc.Switch(PhaseSmallSync)
	smalls := make([][]byte, len(want))
	if err := forEachBounded(len(want), func(i int) (err error) {
		smalls[i], err = c.smallsOf(rd, rd.groups[plan.GroupOfRank(want[i])].smallSources, want[i])
		return err
	}); err != nil {
		return err
	}

	pc.Switch(PhaseRedistribute)
	return forEachBounded(len(want), func(i int) (err error) {
		rd.dicts[want[i]], err = assemblePacket(want[i], smalls[i], packets[i])
		if decoded[i] {
			c.buf.Put(packets[i])
		}
		return err
	})
}

// decodeLost fills every nil packet by decoding it through the erasure code
// and reports which ones it filled (those live in pooled buffers). A packet
// is one segment of its chunk, so the lost packets are grouped by code group
// and segment index (see segPlan) and each index gets its own basis: the
// first k chunks of the group
// believed intact whose segment at that index reads cleanly, excluding only
// the chunks whose packet at that index is being decoded. A candidate that
// fails anyway (lost since the scan) is skipped in favor of the next, and
// only the k · segment bytes the caller needs are read. Each packet is
// decoded one Config.BufferSize window at a time — the coding region is the
// buffer window the save encoded (the scan lost every manifest that records
// another), so decoding the packet as a single region yields garbage for any
// non-unit coefficient.
//
// The bases are picked unverified and each basis window is checked against
// its sum just before it is decoded from, while it is cache-hot. Only if one
// fails does the decode start over, verifying every candidate whole as it is
// picked: the corrupt one is booked and skipped for the next.
func (c *Checkpointer) decodeLost(rd *restoreRound, packets [][]byte) ([]bool, error) {
	want, plan := rd.req.want, c.lay.plan
	decoded := make([]bool, len(want))
	for i, rank := range want {
		if packets[i] != nil {
			continue
		}
		decoded[i] = true
		gp := &rd.groups[plan.GroupOfRank(rank)]
		chunk, p := plan.DataGroupOf[rank], &gp.decode[plan.SegmentOf[rank]]
		p.missing, gp.missing = append(p.missing, chunk), append(gp.missing, chunk)
		slices.Sort(p.missing)
	}
	for cg := range rd.groups {
		gp := &rd.groups[cg]
		slices.Sort(gp.missing)
		gp.missing = slices.Compact(gp.missing)
	}
	err := c.decodeFrom(rd, packets, decoded, false)
	if errors.Is(err, cluster.ErrChecksum) {
		for i, d := range decoded {
			if d && packets[i] != nil {
				c.buf.Put(packets[i])
				packets[i] = nil
			}
		}
		err = c.decodeFrom(rd, packets, decoded, true)
	}
	return decoded, err
}

// decodeFrom picks each lost segment index's basis and decodes the decoded
// ranks' packets into pooled buffers. whole verifies every candidate as it is
// picked; otherwise each basis window is verified as it is used, and a
// mismatch fails the call with cluster.ErrChecksum.
func (c *Checkpointer) decodeFrom(rd *restoreRound, packets [][]byte, decoded []bool, whole bool) error {
	lay, want, plan := c.lay, rd.req.want, c.lay.plan
	span := plan.Span()
	// By code group then segment index, then basis position: the basis
	// segments and, read unverified, their window sums. An unplanned group
	// has no decode plans and is skipped.
	srcs := make([][][]byte, len(rd.groups)*span)
	sums := make([][][]byte, len(rd.groups)*span)
	if err := forEachBounded(len(srcs), func(i int) error {
		cg, s := i/span, i%span
		gp := &rd.groups[cg]
		if gp.decode == nil || len(gp.decode[s].missing) == 0 {
			return nil
		}
		p := &gp.decode[s]
		p.basis, p.tm = p.basis[:0], nil
		for _, cand := range gp.intact {
			if len(p.basis) == c.cfg.K {
				break
			}
			if slices.Contains(p.missing, cand) {
				continue
			}
			node, key := plan.ChunkOwner(cg, cand), lay.keys.segment[cand][s]
			var seg, sum []byte
			var err error
			if whole {
				seg, err = c.read(rd, node, key)
			} else if seg, sum, err = cluster.ViewFramed(c.clus, node, key, c.cfg.BufferSize); err == nil {
				rd.fetched.Add(int64(len(seg)))
			}
			if err == nil && len(seg) == rd.packetBytes {
				p.basis, srcs[i], sums[i] = append(p.basis, cand), append(srcs[i], seg), append(sums[i], sum)
			}
		}
		if len(p.basis) < c.cfg.K {
			return fmt.Errorf("core: group %d: only %d of %d basis chunks reachable to decode segment %d of chunks %v", cg, len(p.basis), c.cfg.K, s, p.missing)
		}
		return nil
	}); err != nil {
		return err
	}
	for cg := range rd.groups {
		if err := c.transforms(rd.groups[cg].decode); err != nil {
			return err
		}
	}
	return forEachBounded(len(want), func(i int) error {
		if !decoded[i] {
			return nil
		}
		cg, s := plan.GroupOfRank(want[i]), plan.SegmentOf[want[i]]
		p, basis, basisSums := &rd.groups[cg].decode[s], srcs[cg*span+s], sums[cg*span+s]
		row := slices.Index(p.missing, plan.DataGroupOf[want[i]])
		out := c.buf.Get(rd.packetBytes)
		packets[i] = out
		// The pooled packet holds stale bytes: the first basis term of each
		// window overwrites them, and the others accumulate onto it in place.
		bufSize := c.cfg.BufferSize
		for lo := 0; lo < rd.packetBytes; lo += bufSize {
			hi := min(lo+bufSize, rd.packetBytes)
			for pos := range p.basis {
				if !whole {
					if err := cluster.VerifyWindow(basis[pos], basisSums[pos], bufSize, lo/bufSize); err != nil {
						return err
					}
				}
				if err := c.scalarMulPooled(p.tm.At(row, pos), out[lo:hi], basis[pos][lo:hi], pos > 0); err != nil {
					return fmt.Errorf("core: rank %d: %w", want[i], err)
				}
			}
		}
		return nil
	})
}

// LoadFromRemote recovers every worker's state dict from the remote
// persistent store (the catastrophic-failure path). version 0 discovers
// and loads the most recent persisted version by enumerating the store's
// catalog — discovery deliberately ignores the in-memory version counter,
// because the caller that needs this path most is a freshly restarted
// process whose counter is zero. Ranks are fetched by a bounded worker
// pool (restoreWorkers) and each blob is deserialized as soon as
// it arrives, so decode overlaps the remaining transfers.
//
// The context bounds the whole recovery: each remote fetch honors both
// cancellation and the checkpointer's configured OpTimeout (via
// transport.WithOpTimeout), so a hung remote tier surfaces as a bounded
// error instead of a frozen restore. Close interrupts an in-flight call.
func (c *Checkpointer) LoadFromRemote(ctx context.Context, version int) ([]*statedict.StateDict, error) {
	if c.remote == nil {
		return nil, fmt.Errorf("core: no remote store configured")
	}
	rd, err := c.restore(ctx, restoreReq{op: OpRemoteLoad, want: upTo(c.cfg.Topo.World()), repair: repairNone, remote: true, version: version})
	if reg := c.cfg.Metrics; reg != nil && err == nil {
		reg.Counter("remote_load_rounds_total").Inc()
	}
	return rd.dicts, err
}

// serveRemote reads every wanted rank's serialized state dict from the
// remote tier. The first failure cancels the other fetches.
func (c *Checkpointer) serveRemote(ctx context.Context, cancel context.CancelFunc, rd *restoreRound) error {
	if rd.version == 0 {
		v := remoteVersions(c.remote.Keys(remoteKeyPrefix), c.cfg.Topo.World())
		if len(v) == 0 {
			return errors.New("core: no persisted checkpoint found in remote storage")
		}
		rd.version, rd.pc.round = v[0], v[0]
	}
	rd.pc.Switch(PhaseFetch)
	return forEachBounded(len(rd.req.want), func(i int) error {
		rank := rd.req.want[i]
		blob, _, err := c.remote.Get(ctx, 0, remoteKey(rd.version, rank))
		if err == nil {
			rd.fetched.Add(int64(len(blob)))
			rd.dicts[rank], err = serialize.Unmarshal(blob)
		}
		if err != nil {
			cancel()
			return fmt.Errorf("core: remote load rank %d: %w", rank, err)
		}
		return nil
	})
}

// remoteVersions lists, newest first, the versions of a remote catalog
// listing (each name once) whose ranks 0..world-1 are all persisted. Restore
// reads the listing, never the in-memory version counter: after a
// catastrophic failure the restoring process is brand new and its counter is
// zero, yet the remote tier still holds the checkpoint. A version missing any
// rank — a persist cut short, or one whose cleanup did not finish — is not
// listed.
func remoteVersions(keys []string, world int) []int {
	ranks := make(map[int]int) // version -> its ranks below world present
	for _, key := range keys {
		if v, rank, ok := parseRemoteKey(key); ok && rank < world {
			ranks[v]++
		}
	}
	var complete []int
	for v, n := range ranks {
		if n == world && v > 0 {
			complete = append(complete, v)
		}
	}
	slices.Sort(complete)
	slices.Reverse(complete)
	return complete
}
