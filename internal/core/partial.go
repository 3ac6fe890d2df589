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
	"eccheck/internal/statedict"
)

// manifestState is one node's manifest as seen by a lightweight scan.
type manifestState struct {
	ok                       bool
	version, packet, bufSize int
}

// scanManifests reads every node's manifest concurrently — no segment or
// small-component verification, just version discovery — and returns the
// per-node results plus the newest version any node serves and its packet
// geometry. latest == 0 means no manifest parsed anywhere. Unreachable or
// corrupt manifests are simply not ok; the callers treat those nodes as
// unavailable sources rather than failing the round.
func (c *Checkpointer) scanManifests(fetched *atomic.Int64) ([]manifestState, int, int, int) {
	n := c.cfg.Topo.Nodes()
	mans := make([]manifestState, n)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			blob, err := c.fetchN(node, keyManifest(), fetched)
			if err != nil {
				return
			}
			v, p, b, err := parseManifest(blob)
			if err != nil {
				return
			}
			mans[node] = manifestState{ok: true, version: v, packet: p, bufSize: b}
		}(node)
	}
	wg.Wait()
	latest, packet, bufSize := 0, 0, 0
	for _, m := range mans {
		if m.ok && m.version > latest {
			latest, packet, bufSize = m.version, m.packet, m.bufSize
		}
	}
	return mans, latest, packet, bufSize
}

// chunkOwner returns the node that hosts a chunk under the given layout.
func (c *Checkpointer) chunkOwner(lay *layout, chunk int) int {
	if chunk < c.cfg.K {
		return lay.plan.DataNodes[chunk]
	}
	return lay.plan.ParityNodes[chunk-c.cfg.K]
}

// forEachBounded runs fn(i) for every i in [0, n) across at most
// Config.RestoreWorkers goroutines. With one worker it degenerates to a
// plain loop — the serial baseline the bench compares against.
func (c *Checkpointer) forEachBounded(n int, fn func(i int)) {
	workers := c.cfg.RestoreWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// decodeSegment centrally rebuilds one segment of a lost chunk: it gathers
// the same-index segment from k other chunks whose owners still serve the
// target version and applies the decode transform, one bufSize slice at a
// time — the coding region is the buffer slice the save encoded (the
// manifest records its size), so decoding the packet as a single region
// yields garbage for any non-unit coefficient. Unlike Load's distributed
// rebuild, only the k · segment bytes the caller actually needs are
// fetched — nothing cluster-wide, nothing persisted. okAt reports whether
// a candidate chunk is believed intact; candidates that fail anyway (lost
// since the scan) are skipped in favor of the next. The result is a
// cluster.NewBlob, so a caller that persists it can adopt it.
func (c *Checkpointer) decodeSegment(lay *layout, okAt func(chunk int) bool, chunk, seg, packetBytes, bufSize int, fetched *atomic.Int64) ([]byte, error) {
	basis := make([]int, 0, c.cfg.K)
	segs := make([][]byte, 0, c.cfg.K)
	for cand := 0; cand < c.cfg.K+c.cfg.M && len(basis) < c.cfg.K; cand++ {
		if cand == chunk || !okAt(cand) {
			continue
		}
		blob, err := c.fetchN(c.chunkOwner(lay, cand), keySegment(cand, seg), fetched)
		if err != nil || len(blob) != packetBytes {
			continue
		}
		basis = append(basis, cand)
		segs = append(segs, blob)
	}
	if len(basis) < c.cfg.K {
		return nil, fmt.Errorf("core: only %d of %d basis chunks reachable to decode chunk %d", len(basis), c.cfg.K, chunk)
	}
	tm, err := c.code.TransformMatrix(basis, []int{chunk})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := cluster.NewBlob(packetBytes)
	contribution := c.buf.Get(min(bufSize, packetBytes))
	defer c.buf.Put(contribution)
	for lo := 0; lo < packetBytes; lo += bufSize {
		hi := min(lo+bufSize, packetBytes)
		for i := range basis {
			if err := c.scalarMulPooled(tm.At(0, i), contribution[:hi-lo], segs[i][lo:hi]); err != nil {
				return nil, err
			}
			if err := gf.XORSlice(out[lo:hi], contribution[:hi-lo]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// LoadPartial lazily restores only the requested workers' state dicts from
// the distributed in-memory checkpoint — the serving-failover fast path,
// where a handful of hot workers (e.g. the ranks hosting an MoE model's
// hot experts) must come back inside a latency budget and the rest of the
// fleet can restore later.
//
// Unlike Load it is coordinator-driven and touches only what the request
// needs: a manifest-only scan discovers the latest version, then each
// requested rank's packet is fetched directly from its chunk owner. If an
// owner is dead or its segment corrupt, the round degrades to decoding
// that segment from k surviving chunks (workflow "partial-decode") instead
// of failing. Nothing is persisted and no missing chunks are rebuilt in
// host memory, so fault tolerance is NOT restored — run Load (or
// PrefetchChunk per replacement node) afterwards to re-arm the code.
//
// The returned map has exactly the requested ranks. BytesFetched counts
// every host-memory blob read, which on a k-of-n cluster is strictly less
// than a full Load's scan alone whenever len(ranks) < world.
func (c *Checkpointer) LoadPartial(ctx context.Context, ranks []int) (_ map[int]*statedict.StateDict, report *LoadReport, retErr error) {
	started := time.Now()
	world := c.cfg.Topo.World()
	if len(ranks) == 0 {
		return nil, nil, fmt.Errorf("core: partial restore needs at least one rank")
	}
	seen := make(map[int]bool, len(ranks))
	want := make([]int, 0, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= world {
			return nil, nil, fmt.Errorf("core: rank %d out of range [0, %d)", r, world)
		}
		if !seen[r] {
			seen[r] = true
			want = append(want, r)
		}
	}
	sort.Ints(want)
	if err := c.waitInflightSave(ctx); err != nil {
		return nil, nil, err
	}
	c.commitMu.RLock() // see Load: no commit lands mid-recovery
	defer c.commitMu.RUnlock()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	unregister, err := c.registerLoad(cancel)
	if err != nil {
		return nil, nil, err
	}
	defer func() { unregister(retErr) }()
	_, loadSpan := obs.StartSpan(ctx, c.cfg.Metrics, "partial-load")
	defer loadSpan.End()
	pmStart := c.cfg.Flight.Cursor()
	roundVersion := 0
	c.roundStart(OpPartialLoad, 0)
	defer func() {
		v := roundVersion
		if report != nil {
			v = report.Version
		}
		c.roundEnd(OpPartialLoad, v, retErr)
	}()
	c.cfg.Flight.RoundBegin("partial-load", 0)
	defer func() {
		if retErr == nil {
			return
		}
		c.cfg.Flight.RoundEnd("partial-load", roundVersion, retErr)
		if tail := c.cfg.Flight.TailSince(pmStart, flight.DefaultPostmortemEvents); len(tail) > 0 {
			report = &LoadReport{
				Version:    roundVersion,
				Elapsed:    time.Since(started),
				Postmortem: tail,
			}
		}
	}()

	lay := c.layout()
	fetched := new(atomic.Int64)
	var corrupt atomic.Int64
	pc := newPhaseClock(PhaseScan)
	pc.emitTo(c.cfg.Flight, "partial-load", -1, 0)
	pc.watchTo(c.wd, "partial-load", -1, 0)
	defer pc.unwatch()

	mans, latest, packetBytes, bufSize := c.scanManifests(fetched)
	if latest == 0 {
		return nil, nil, fmt.Errorf("core: no intact in-memory checkpoint found; recover from remote storage")
	}
	roundVersion = latest
	pc.round = latest
	if bufSize <= 0 {
		bufSize = c.cfg.BufferSize
	}
	okAt := func(chunk int) bool {
		owner := c.chunkOwner(lay, chunk)
		return mans[owner].ok && mans[owner].version == latest
	}

	// Direct fetch: each wanted rank's packet is one segment of its data
	// chunk, read straight from the owning node. Failures don't abort —
	// they mark the rank for the decode stage below.
	pc.Switch(PhaseFetch)
	packets := make([][]byte, len(want))
	needDecode := make([]bool, len(want))
	c.forEachBounded(len(want), func(i int) {
		rank := want[i]
		chunk := lay.plan.DataGroupOf[rank]
		if !okAt(chunk) {
			needDecode[i] = true
			return
		}
		key := keySegment(chunk, lay.plan.SegmentOf[rank])
		owner := c.chunkOwner(lay, chunk)
		seg, err := c.fetchN(owner, key, fetched)
		if err != nil {
			if errors.Is(err, cluster.ErrChecksum) {
				corrupt.Add(1)
				c.cfg.Flight.Corruption(owner, key)
			}
			needDecode[i] = true
			return
		}
		packets[i] = seg
	})

	// Degraded path: decode each still-missing segment from k surviving
	// chunks. This is where a node killed mid-round lands.
	pc.Switch(PhaseRebuild)
	decodeErrs := make([]error, len(want))
	var decodedChunks sync.Map
	c.forEachBounded(len(want), func(i int) {
		if !needDecode[i] {
			return
		}
		rank := want[i]
		chunk := lay.plan.DataGroupOf[rank]
		seg, err := c.decodeSegment(lay, okAt, chunk, lay.plan.SegmentOf[rank], packetBytes, bufSize, fetched)
		if err != nil {
			decodeErrs[i] = fmt.Errorf("core: rank %d: %w", rank, err)
			return
		}
		packets[i] = seg
		decodedChunks.Store(chunk, true)
	})
	if err := errors.Join(decodeErrs...); err != nil {
		if ctx.Err() != nil && c.isClosed() {
			err = fmt.Errorf("%w: %w", ErrSaveAborted, err)
		}
		return nil, nil, err
	}

	// Small components: any node whose manifest parses at the target
	// version holds the full broadcast set; try sources in order so one
	// corrupt copy degrades to the next node instead of failing the round.
	pc.Switch(PhaseSmallSync)
	var sources []int
	for node := range mans {
		if mans[node].ok && mans[node].version == latest {
			sources = append(sources, node)
		}
	}
	metas := make([][]byte, len(want))
	keysB := make([][]byte, len(want))
	smallErrs := make([]error, len(want))
	c.forEachBounded(len(want), func(i int) {
		rank := want[i]
		for _, node := range sources {
			meta, err := c.fetchN(node, keySmallMeta(rank), fetched)
			if err != nil {
				continue
			}
			keys, err := c.fetchN(node, keySmallKeys(rank), fetched)
			if err != nil {
				continue
			}
			metas[i], keysB[i] = meta, keys
			return
		}
		smallErrs[i] = fmt.Errorf("core: no node serves rank %d small components", rank)
	})
	if err := errors.Join(smallErrs...); err != nil {
		return nil, nil, err
	}

	pc.Switch(PhaseRedistribute)
	out := make(map[int]*statedict.StateDict, len(want))
	var outMu sync.Mutex
	asmErrs := make([]error, len(want))
	c.forEachBounded(len(want), func(i int) {
		sd, err := assemblePacket(want[i], metas[i], keysB[i], packets[i])
		if err != nil {
			asmErrs[i] = err
			return
		}
		outMu.Lock()
		out[want[i]] = sd
		outMu.Unlock()
	})
	if err := errors.Join(asmErrs...); err != nil {
		return nil, nil, err
	}
	c.version.Store(int64(latest))

	var missing []int
	decodedChunks.Range(func(k, _ any) bool {
		missing = append(missing, k.(int))
		return true
	})
	sort.Ints(missing)
	workflow := "partial"
	if len(missing) > 0 {
		workflow = "partial-decode"
	}
	phases := pc.Stop()
	c.observePhases("load", -1, phases)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("load_partial_rounds_total").Inc()
		reg.Counter("load_partial_bytes_total").Add(fetched.Load())
	}
	report = &LoadReport{
		Version:       latest,
		Workflow:      workflow,
		MissingChunks: missing,
		CorruptBlobs:  int(corrupt.Load()),
		Elapsed:       time.Since(started),
		Phases:        phases,
		BytesFetched:  fetched.Load(),
	}
	c.observeRestore(OpPartialLoad, report.Elapsed)
	c.cfg.Flight.RoundEnd("partial-load", latest, nil)
	if len(missing) > 0 {
		// The round succeeded but had to decode around losses: attach the
		// event tail so the degradation is diagnosable from the report.
		report.Postmortem = c.cfg.Flight.TailSince(pmStart, flight.DefaultPostmortemEvents)
	}
	c.applyBudget(report, OpPartialLoad, latest, pmStart)
	return out, report, nil
}

// PrefetchReport summarizes a warm-standby parity prefetch (PrefetchChunk).
type PrefetchReport struct {
	// Node is the prefetching node; Chunk is the chunk it hosts.
	Node, Chunk int
	// Version is the checkpoint version the chunk was rebuilt at.
	Version int
	// Segments is how many segments were rebuilt and stored (0 when the
	// chunk was already intact).
	Segments int
	// SmallsCopied is how many small-component blobs were copied onto the
	// node (meta + keys per rank).
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
// node (typically freshly swapped in by ReplaceNode) rebuilds the chunk it
// is responsible for — decoding it from k surviving chunks — and stores
// the segments, the full small-component broadcast set, and finally the
// manifest, so the checkpoint becomes visible on the node only once it is
// complete. After a successful prefetch the next Load scans an all-intact
// cluster and runs the pure replacement workflow with zero rebuilds on the
// restore critical path; a LoadPartial for the node's workers hits the
// direct-fetch fast path.
//
// The prefetch runs off the recovery critical path (no peer transport, no
// coordination) and is idempotent: a node already serving the latest
// version returns AlreadyIntact without writing anything.
func (c *Checkpointer) PrefetchChunk(ctx context.Context, node int) (_ *PrefetchReport, retErr error) {
	started := time.Now()
	if node < 0 || node >= c.cfg.Topo.Nodes() {
		return nil, fmt.Errorf("core: node %d out of range [0, %d)", node, c.cfg.Topo.Nodes())
	}
	if !c.clus.Alive(node) {
		return nil, fmt.Errorf("core: node %d is failed; replace it before prefetching", node)
	}
	if err := c.waitInflightSave(ctx); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	unregister, err := c.registerLoad(cancel)
	if err != nil {
		return nil, err
	}
	defer func() { unregister(retErr) }()
	roundVersion := 0
	c.roundStart(OpPrefetch, 0)
	defer func() { c.roundEnd(OpPrefetch, roundVersion, retErr) }()
	c.cfg.Flight.RoundBegin("prefetch", 0)
	defer func() {
		if retErr != nil {
			c.cfg.Flight.RoundEnd("prefetch", roundVersion, retErr)
		}
	}()

	lay := c.layout()
	fetched := new(atomic.Int64)
	mans, latest, packetBytes, bufSize := c.scanManifests(fetched)
	if latest == 0 {
		return nil, fmt.Errorf("core: no intact in-memory checkpoint found; nothing to prefetch")
	}
	roundVersion = latest
	if bufSize <= 0 {
		bufSize = c.cfg.BufferSize
	}
	chunk := lay.plan.ChunkOfNode[node]
	span := c.cfg.Topo.World() / c.cfg.K
	okAt := func(ch int) bool {
		owner := c.chunkOwner(lay, ch)
		return mans[owner].ok && mans[owner].version == latest
	}

	report := &PrefetchReport{Node: node, Chunk: chunk, Version: latest}
	if okAt(chunk) {
		intact := true
		for s := 0; s < span && intact; s++ {
			if _, err := c.fetchN(node, keySegment(chunk, s), fetched); err != nil {
				intact = false
			}
		}
		if intact {
			report.AlreadyIntact = true
			report.BytesFetched = fetched.Load()
			report.Elapsed = time.Since(started)
			c.cfg.Flight.RoundEnd("prefetch", latest, nil)
			return report, nil
		}
	}

	// Rebuild and stage every segment before anything is stored: a
	// prefetch that dies halfway must not leave a node that looks intact.
	segs := make([][]byte, span)
	segErrs := make([]error, span)
	c.forEachBounded(span, func(s int) {
		seg, err := c.decodeSegment(lay, okAt, chunk, s, packetBytes, bufSize, fetched)
		if err != nil {
			segErrs[s] = err
			return
		}
		segs[s] = seg
	})
	if err := errors.Join(segErrs...); err != nil {
		if ctx.Err() != nil && c.isClosed() {
			err = fmt.Errorf("%w: %w", ErrSaveAborted, err)
		}
		return nil, err
	}
	for s := 0; s < span; s++ {
		if err := c.adopt(node, keySegment(chunk, s), segs[s]); err != nil {
			return nil, err
		}
	}
	report.Segments = span

	// Copy the small-component broadcast set from intact donors so the
	// next recovery needs no rebroadcast either.
	world := c.cfg.Topo.World()
	var donors []int
	for d := range mans {
		if d != node && mans[d].ok && mans[d].version == latest {
			donors = append(donors, d)
		}
	}
	smallErrs := make([]error, world)
	var copied atomic.Int64
	c.forEachBounded(world, func(rank int) {
		for _, donor := range donors {
			meta, err := c.fetchN(donor, keySmallMeta(rank), fetched)
			if err != nil {
				continue
			}
			keys, err := c.fetchN(donor, keySmallKeys(rank), fetched)
			if err != nil {
				continue
			}
			if err := c.store(node, keySmallMeta(rank), meta); err != nil {
				smallErrs[rank] = err
				return
			}
			if err := c.store(node, keySmallKeys(rank), keys); err != nil {
				smallErrs[rank] = err
				return
			}
			copied.Add(2)
			return
		}
		smallErrs[rank] = fmt.Errorf("core: no donor serves rank %d small components", rank)
	})
	if err := errors.Join(smallErrs...); err != nil {
		return nil, err
	}
	report.SmallsCopied = int(copied.Load())

	// Manifest last: the node's checkpoint becomes visible at the
	// prefetched version only once everything underneath it is in place.
	if err := c.store(node, keyManifest(), manifestBlob(latest, packetBytes, bufSize)); err != nil {
		return nil, err
	}
	report.BytesFetched = fetched.Load()
	report.Elapsed = time.Since(started)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("prefetch_rounds_total").Inc()
		reg.Counter("prefetch_segments_total").Add(int64(report.Segments))
	}
	c.observeRestore(OpPrefetch, report.Elapsed)
	c.cfg.Flight.RoundEnd("prefetch", latest, nil)
	return report, nil
}
