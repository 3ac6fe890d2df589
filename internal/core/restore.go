package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/cluster"
	"eccheck/internal/gf"
	"eccheck/internal/obs"
	"eccheck/internal/statedict"
)

// The paper has one recovery procedure with two workflows. Every restore
// operation here is that procedure under a request that says which ranks the
// caller wants back, which nodes get their chunk, small components and
// manifest re-landed in host memory, and where the sources live:
//
//	Load           = want every rank, repair every degraded node
//	LoadPartial    = want a subset,   repair nothing
//	PrefetchChunk  = want nothing,    repair one node
//	LoadFromRemote = want every rank, repair nothing, read the remote tier
//
// restore owns what they share: the round lifecycle, one availability scan
// whose depth follows from the request, one plan, and one landing order for a
// repaired node — segments, small components, manifest last.
type restoreReq struct {
	// op is the round's name on every surface (health, log, flight, phase
	// clocks, metrics labels): one of the Op* restore constants.
	op string
	// want lists the ranks whose state dicts go back to the caller, ascending
	// and unique; nil asks for none.
	want []int
	// repair selects the nodes the round re-lands: repairNone, repairAll
	// (every node the scan finds degraded) or one node index.
	repair int
	// remote reads the wanted ranks from the remote tier at version (0: the
	// newest persisted one) instead of host memory.
	remote  bool
	version int
}

const (
	repairNone = -1 - iota
	repairAll
)

// restoreRound is one restore in flight: the round, the request, what the
// scan found, the plan derived from it and the results, shared by every
// goroutine of the round. The plan fields are fixed before anything executes.
type restoreRound struct {
	// The round's version is the checkpoint version it restores once the
	// scan settles on one (the request's until then), with packetBytes
	// below.
	*round
	req  restoreReq
	tags *tagTable // set on rounds that move bytes between nodes
	// pc is the coordinator's phase clock (node -1 on the timeline).
	pc *phaseClock
	// fetched counts the bytes read from storage (LoadReport.BytesFetched);
	// corrupt the blobs that failed their checksum.
	fetched, corrupt atomic.Int64

	scan []nodeScan
	// packetBytes is the packet size of the round's version.
	packetBytes int
	// groups is the plan, code group by code group; a group the request does
	// not touch (no wanted rank, no repaired node) is left unplanned.
	groups []groupPlan
	// part marks the nodes that run the distributed protocol.
	part []bool

	workflow   string
	dicts      []*statedict.StateDict // by rank; nil where not wanted
	nodePhases []map[string]time.Duration
	report     *LoadReport
}

// groupPlan is one code group's share of a restore plan. Groups share no
// chunk, so each is planned, rebuilt and decoded on its own; chunk indices are
// the group's.
type groupPlan struct {
	// intact are the chunks whose owner serves the round's version,
	// ascending; missing the chunks the round rebuilds (of repaired nodes) or
	// decodes around (direct rounds), ascending; decode says, per segment
	// index, what is computed from which chunks.
	intact, missing []int
	decode          []segPlan
	// needSmall are the repaired nodes that lost their small components,
	// smallSources the nodes that serve them at version; both ascending.
	needSmall, smallSources []int
}

// missingChunks lists every chunk the round rebuilt or decoded around, as
// cluster-wide chunk ids (group·(k+m) + the group's chunk index).
func (rd *restoreRound) missingChunks(size int) []int {
	var out []int
	for cg := range rd.groups {
		for _, chunk := range rd.groups[cg].missing {
			out = append(out, cg*size+chunk)
		}
	}
	return out
}

// segPlan is the decode plan of one segment index. A code word is the
// same-index segment of every chunk, so the basis is chosen per index: a
// chunk with one bad segment still serves its others, and any index with at
// most m erasures decodes. tm expresses each missing chunk (row) in terms of
// the k basis chunks (columns).
//
// A rebuild (nodeLoad's R1) moves only windows that may hold payload (see
// liveWindows): rowWindows[row] and basisWindows[pos] are how many leading
// windows of missing[row]'s and basis[pos]'s segment may, and every window
// past them is zero. bands splits the windows by the rows that are live in
// them; a plan without rowWindows (a partial decode's) has none.
type segPlan struct {
	missing, basis           []int
	tm                       *gf.Matrix
	rowWindows, basisWindows []int
	bands                    []liveBand
}

// liveBand is a run of a segment plan's windows with the same live rows: the
// windows from the previous band's end up to end, in which the missing chunks
// missing[rows[i]] may hold payload and the others are zero. cols[pos] is tm's
// column pos over those rows compiled into one schedule
// (erasure.Code.Column): basis chunk pos's window times its coefficient for
// every live row, output i for missing[rows[i]].
type liveBand struct {
	end  int
	rows []int
	cols []*bitmatrix.Schedule
}

// band returns the band of window b, or nil past the last band: there no
// missing chunk holds payload.
func (p *segPlan) band(b int) *liveBand {
	for i := range p.bands {
		if b < p.bands[i].end {
			return &p.bands[i]
		}
	}
	return nil
}

// transforms computes every segment index's decode matrix, once per distinct
// (basis, missing) pair: one TransformMatrix call per round unless segment
// indices differ in what they lost. A plan with live windows gets its bands,
// each band's columns compiled once per distinct (basis, missing, live rows).
func (c *Checkpointer) transforms(plans []segPlan) (err error) {
	for i := range plans {
		p := &plans[i]
		if len(p.missing) == 0 {
			continue
		}
		var same []*segPlan // earlier plans of p's basis and missing
		for j := range plans[:i] {
			if q := &plans[j]; slices.Equal(q.basis, p.basis) && slices.Equal(q.missing, p.missing) {
				p.tm, same = q.tm, append(same, q)
			}
		}
		if p.tm == nil {
			if p.tm, err = c.code.TransformMatrix(p.basis, p.missing); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
		ends := slices.Clone(p.rowWindows)
		slices.Sort(ends)
		for _, end := range slices.Compact(ends) {
			if end == 0 {
				continue
			}
			bd := liveBand{end: end}
			for row, n := range p.rowWindows {
				if n >= end {
					bd.rows = append(bd.rows, row)
				}
			}
			if bd.cols, err = c.bandColumns(p, same, bd.rows); err != nil {
				return err
			}
			p.bands = append(p.bands, bd)
		}
	}
	return nil
}

// bandColumns returns p's columns over the live rows: those of a band of an
// earlier plan in same (of p's basis and missing) with the same rows, or
// freshly compiled.
func (c *Checkpointer) bandColumns(p *segPlan, same []*segPlan, rows []int) ([]*bitmatrix.Schedule, error) {
	for _, q := range same {
		for _, bd := range q.bands {
			if slices.Equal(bd.rows, rows) {
				return bd.cols, nil
			}
		}
	}
	cols := make([]*bitmatrix.Schedule, len(p.basis))
	coefs := make([]int, len(rows))
	for pos := range cols {
		for i, row := range rows {
			coefs[i] = p.tm.At(row, pos)
		}
		var err error
		if cols[pos], err = c.code.Column(coefs); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return cols, nil
}

func (rd *restoreRound) repairs(node int) bool {
	return rd.req.repair == repairAll || rd.req.repair == node
}

// restore runs one restore round. The returned round is never nil; on
// failure its dicts are nil and its report, when a flight recorder is
// configured, carries the round's event tail as a postmortem.
func (c *Checkpointer) restore(ctx context.Context, req restoreReq) (*restoreRound, error) {
	rd := &restoreRound{req: req}
	if !req.remote {
		// A host-memory restore reads the checkpoint at rest: it waits for an
		// in-flight save drain to settle, and holds the commit lock shared so
		// a SaveAsync that starts meanwhile cannot commit mid-round. The
		// remote tier is written before a round ends and never rewritten, and
		// a catastrophic restore must not wait on a save that cannot finish.
		if err := c.waitSlot(ctx); err != nil {
			return rd, err
		}
		c.commitMu.RLock()
		defer c.commitMu.RUnlock()
	}
	r, ctx, err := c.open(ctx, roundRestore, req.op, saveMode{})
	if err != nil {
		return rd, err
	}
	rd.round = r
	if req.repair != repairNone {
		// One repairing round at a time: two of them would rebuild the same
		// chunks under the same tags and land over each other. A free slot is
		// taken even under a cancelled context, so the round reports what its
		// nodes ran into rather than a bare cancellation.
		select {
		case c.restoreSlot <- struct{}{}:
		default:
			select {
			case c.restoreSlot <- struct{}{}:
			case <-ctx.Done():
				return rd, r.end(ctx.Err(), nil)
			}
		}
		defer func() { <-c.restoreSlot }()
	}
	ctx = r.begin(ctx, req.version)
	rd.dicts = make([]*statedict.StateDict, c.cfg.Topo.World())
	rd.pc = r.clock(-1, PhaseScan)
	defer rd.pc.unwatch()

	if req.remote {
		err = c.serveRemote(ctx, r.h.cancel, rd)
	} else {
		err = c.serveHost(ctx, r.h.cancel, rd)
	}
	elapsed := time.Since(r.started)
	if err != nil {
		rd.dicts = nil
		return rd, r.end(err, func() {
			if tail := r.tail(); len(tail) > 0 {
				rd.report = &LoadReport{Version: rd.version, Elapsed: elapsed, Postmortem: tail}
			}
		})
	}

	phases := meanPhases(rd.nodePhases)
	coord := rd.pc.Stop()
	c.observePhases("load", -1, coord)
	for ph, d := range coord {
		phases[ph] += d
	}
	size := c.cfg.K + c.cfg.M
	rd.report = &LoadReport{
		Version:       rd.version,
		Workflow:      rd.workflow,
		MissingChunks: rd.missingChunks(size),
		CorruptBlobs:  int(rd.corrupt.Load()),
		Elapsed:       elapsed,
		Phases:        phases,
		BytesFetched:  rd.fetched.Load(),
	}
	for _, id := range rd.report.MissingChunks {
		if rd.scan[c.lay.plan.ChunkOwner(id/size, id%size)].corrupt {
			rd.report.CorruptedChunks = append(rd.report.CorruptedChunks, id)
		}
	}
	c.observeRestore(req.op, elapsed)
	return rd, r.end(nil, func() {
		if len(rd.report.MissingChunks) > 0 {
			// The round succeeded around something lost or corrupt: attach the
			// event tail so the degradation is diagnosable from the report
			// alone.
			rd.report.Postmortem = r.tail()
		}
		if len(req.want) > 0 { // the budget is for rounds a caller waits on for state
			c.applyBudget(rd.report, r)
		}
	})
}

// serveHost restores from host memory: scan, plan, then one of two
// executors. They differ in a precondition the request states, not in a
// knob: a round that repairs runs the paper's distributed protocol over the
// transport (every participant is alive by then), and a round that repairs
// nothing serves the caller from the coordinator, which keeps working with
// dead chunk owners and moves no packet between nodes.
func (c *Checkpointer) serveHost(ctx context.Context, cancel context.CancelFunc, rd *restoreRound) error {
	n := c.cfg.Topo.Nodes()
	distributed := rd.req.repair != repairNone
	for node := 0; node < n; node++ {
		if rd.repairs(node) && !c.clus.Alive(node) {
			return fmt.Errorf("core: node %d is failed; replace it before a %s round", node, rd.req.op)
		}
	}

	// Every node's manifest is read; then every blob is verified on the nodes
	// the repair reads from or writes to — none when nothing is repaired —
	// until the plan stands on verified sources only.
	rd.scan = make([]nodeScan, n)
	nodes, deep := upTo(n), false
	for len(nodes) > 0 {
		c.scanNodes(rd, nodes, deep)
		if err := c.plan(rd); err != nil {
			return err
		}
		nodes, deep = nodes[:0], true
		for node := range rd.scan {
			if distributed && !rd.scan[node].deep && (rd.repairs(node) || rd.part[node]) {
				nodes = append(nodes, node)
			}
		}
	}
	rd.pc.round = rd.version
	var err error
	if distributed {
		err = c.serveDistributed(ctx, cancel, rd)
	} else {
		err = c.serveDirect(rd)
	}
	if err == nil {
		c.version.Store(int64(rd.version))
		c.packet.Store(int64(rd.packetBytes))
	}
	return err
}

// nodeScan is what the availability scan learned about one node. chunkOK and
// smallsOK are presumed from an intact manifest until a deep pass has
// verified every blob (deep).
type nodeScan struct {
	manifestOK, chunkOK, smallsOK bool
	deep                          bool
	corrupt                       bool  // at least one checksum mismatch on this node
	lost                          error // first manifest or segment read that failed otherwise
	version, packet               int
	// segs are the node's verified chunk segments: borrowed views of host
	// memory, read-only. The round serves an intact chunk from them, so each
	// segment is checksummed once per round and the round reads the bytes
	// the scan judged, whatever is stored meanwhile.
	segs [][]byte
	// smalls are the node's verified small-component blobs, by rank less
	// its code group's first rank: views like segs, nil where unread.
	smalls [][]byte
}

// holds reports whether the node serves its chunk at the given version.
func (st *nodeScan) holds(version int) bool {
	return st.manifestOK && st.chunkOK && st.version == version
}

// scanNodes assesses the given nodes from host memory, one worker per node
// (each writes only its own nodeScan slot): their manifests, or — deep, on
// nodes whose manifest was usable — every segment and small component. Every
// blob is read through its checksum. A silently corrupted blob is
// indistinguishable from a lost one, so corruption is folded into the erasure
// model — the chunk counts as missing and is rebuilt through the code; so is
// a manifest that does not parse, or that records another coding window than
// Config.BufferSize (every blob's checksum footer is framed at that window,
// so such a checkpoint can only be misread). The scan reads through borrowed
// views: no blob is copied, and what it allocates is O(keys), not O(bytes).
func (c *Checkpointer) scanNodes(rd *restoreRound, nodes []int, deep bool) {
	keys := &c.lay.keys
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &rd.scan[node]
			// vital: a manifest or segment that cannot be read for another
			// reason than its checksum is remembered (VerifyIntegrity reports
			// it); a missing small component is just an erasure.
			read := func(key string, vital bool) ([]byte, bool) {
				blob, err := c.read(rd, node, key)
				switch {
				case err == nil:
				case errors.Is(err, cluster.ErrChecksum):
					st.corrupt = true
				case vital && st.lost == nil:
					st.lost = err
				}
				return blob, err == nil
			}
			if !deep {
				blob, ok := read(keyManifest(), true)
				if !ok {
					return // no usable manifest: the node's checkpoint is lost
				}
				var bufSize int
				var err error
				st.version, st.packet, bufSize, err = parseManifest(blob)
				if err == nil && bufSize != c.cfg.BufferSize {
					err = fmt.Errorf("core: manifest records %d-byte coding windows, not %d", bufSize, c.cfg.BufferSize)
				}
				if err != nil {
					st.lost = err
					return
				}
				st.manifestOK, st.chunkOK, st.smallsOK = true, true, true
				return
			}
			st.deep = true
			if !st.manifestOK {
				return
			}
			chunk := c.lay.plan.ChunkOfNode[node]
			st.segs = make([][]byte, len(keys.segment[chunk]))
			for s, key := range keys.segment[chunk] {
				seg, ok := read(key, true)
				if ok && len(seg) != st.packet {
					ok, st.lost = false, fmt.Errorf("core: node %d %s has %d bytes, manifest says %d", node, key, len(seg), st.packet)
				}
				if !ok {
					st.chunkOK = false
					continue
				}
				st.segs[s] = seg
			}
			rankLo, rankHi := c.lay.plan.RankRange(c.lay.plan.GroupOfNode(node))
			st.smalls = make([][]byte, rankHi-rankLo)
			for rank := rankLo; rank < rankHi && st.smallsOK; rank++ {
				st.smalls[rank-rankLo], st.smallsOK = read(keys.small[rank], false)
			}
		}()
	}
	wg.Wait()
}

// plan derives the round's plan from what the scan knows so far: the latest
// version any node serves and, for every code group the request touches, the
// chunks intact at it, what the request's repairs have to rebuild and from
// which basis, who lacks small components and who serves them, and which
// nodes take part. It is cheap and runs again whenever a deeper scan changes
// the picture. A group that cannot be planned fails the round.
func (c *Checkpointer) plan(rd *restoreRound) error {
	plan := c.lay.plan
	rd.version = 0
	for i := range rd.scan {
		if st := &rd.scan[i]; st.manifestOK && st.chunkOK && st.version > rd.version {
			rd.version, rd.packetBytes = st.version, st.packet
		}
	}
	if rd.version == 0 {
		return fmt.Errorf("core: no intact in-memory checkpoint found; recover from remote storage")
	}
	rd.groups = make([]groupPlan, plan.Groups())
	rd.part = make([]bool, c.cfg.Topo.Nodes())
	for cg := range rd.groups {
		nodeLo, nodeHi := plan.NodeRange(cg)
		want := rd.wantIn(plan.RankRange(cg))
		repairs := rd.req.repair == repairAll || (rd.req.repair >= nodeLo && rd.req.repair < nodeHi)
		if len(want) == 0 && !repairs {
			continue
		}
		if err := c.planGroup(rd, cg); err != nil {
			return fmt.Errorf("core: group %d: %w", cg, err)
		}
		// A wanted rank's packet travels from its data chunk's owner to its home.
		for _, w := range want {
			rd.part[plan.ChunkOwner(cg, plan.DataGroupOf[w])], rd.part[w/c.cfg.Topo.GPUsPerNode()] = true, true
		}
	}
	return nil
}

// wantIn returns the wanted ranks in [lo, hi): want is ascending.
func (rd *restoreRound) wantIn(lo, hi int) []int {
	i, _ := slices.BinarySearch(rd.req.want, lo)
	j, _ := slices.BinarySearch(rd.req.want, hi)
	return rd.req.want[i:j]
}

// planGroup plans one code group at the round's version.
func (c *Checkpointer) planGroup(rd *restoreRound, cg int) error {
	plan, gp := c.lay.plan, &rd.groups[cg]
	size := c.cfg.K + c.cfg.M
	for chunk := 0; chunk < size; chunk++ {
		switch node := plan.ChunkOwner(cg, chunk); {
		case rd.scan[node].holds(rd.version):
			gp.intact = append(gp.intact, chunk)
		case rd.repairs(node):
			gp.missing = append(gp.missing, chunk)
			rd.part[node] = true
		}
	}
	nodeLo, nodeHi := plan.NodeRange(cg)
	for node := nodeLo; node < nodeHi; node++ {
		if st := &rd.scan[node]; st.manifestOK && st.version == rd.version && st.smallsOK {
			gp.smallSources = append(gp.smallSources, node)
		} else if rd.repairs(node) {
			gp.needSmall, rd.part[node] = append(gp.needSmall, node), true
		}
	}
	if len(gp.smallSources) == 0 {
		return fmt.Errorf("no node holds intact small components; recover from remote storage")
	}
	// Each segment index is rebuilt from the first k chunks that serve it: a
	// chunk that is not itself rebuilt serves every segment the deep scan did
	// not fault. With every data chunk intact these are the data chunks: the
	// transform rows are then plain generator rows and the rebuild is
	// literally a re-encode (the replacement workflow).
	gp.decode = make([]segPlan, plan.Span())
	for s := 0; s < len(gp.decode) && len(gp.missing) > 0; s++ {
		p := &gp.decode[s]
		p.missing = gp.missing
		for chunk := 0; chunk < size && len(p.basis) < c.cfg.K; chunk++ {
			owner := plan.ChunkOwner(cg, chunk)
			if st := &rd.scan[owner]; st.manifestOK && st.version == rd.version &&
				!slices.Contains(gp.missing, chunk) && (!st.deep || st.segs[s] != nil) {
				p.basis, rd.part[owner] = append(p.basis, chunk), true
			}
		}
		if len(p.basis) < c.cfg.K {
			return fmt.Errorf("only %d of %d chunks survive (need k=%d); recover from remote storage",
				len(p.basis), size, c.cfg.K)
		}
	}
	if len(gp.needSmall) > 0 {
		rd.part[gp.smallSources[0]] = true // it re-broadcasts them
	}
	return nil
}

// upTo lists 0..n-1: every node, or every rank.
func upTo(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// read borrows a checksummed blob for the round, crediting its size to
// BytesFetched. A checksum mismatch is booked where an operator wants it —
// the corrupt-blob count and the timeline (which node, which blob) — and
// returned: the caller treats it as an erasure.
func (c *Checkpointer) read(rd *restoreRound, node int, key string) ([]byte, error) {
	blob, err := c.fetch(node, key)
	if errors.Is(err, cluster.ErrChecksum) {
		rd.corrupt.Add(1)
		c.cfg.Flight.Corruption(node, key)
	}
	rd.fetched.Add(int64(len(blob)))
	return blob, err
}

// smallsOf reads a rank's small-component blob from the first of the given
// nodes that serves it, so one corrupt copy degrades to the next source
// instead of failing the round.
func (c *Checkpointer) smallsOf(rd *restoreRound, sources []int, rank int) (small []byte, err error) {
	for _, node := range sources {
		if small, err = c.read(rd, node, c.lay.keys.small[rank]); err == nil {
			return small, nil
		}
	}
	return nil, fmt.Errorf("core: rank %d small components: %w", rank, err)
}

// scannedSmall is the copy of rank's small components that node's deep scan
// verified at the round's version, or nil: none was read, the read failed,
// or the node's checkpoint is another version's. rank is of node's code group.
func (c *Checkpointer) scannedSmall(rd *restoreRound, node, rank int) []byte {
	st := &rd.scan[node]
	if st.smalls == nil || st.version != rd.version {
		return nil
	}
	rankLo, _ := c.lay.plan.RankRange(c.lay.plan.GroupOfNode(node))
	return st.smalls[rank-rankLo]
}

// smallOf is rank's small-component blob on node: the copy its deep scan
// verified, else one read (and checksummed) now — on a node that received it
// in R2, or whose scan did not go deep.
func (c *Checkpointer) smallOf(rd *restoreRound, node, rank int) ([]byte, error) {
	if small := c.scannedSmall(rd, node, rank); small != nil {
		return small, nil
	}
	return c.smallsOf(rd, []int{node}, rank)
}

// tensorBytes is rank's tensor payload size as a copy of its small
// components records it: the length of its packet less the zero tail.
func tensorBytes(small []byte) (int, error) {
	_, keys, err := splitSmall(small)
	if err != nil {
		return 0, err
	}
	return statedict.TensorBytes(keys)
}

// liveWindows sets, on every segment plan of code group cg, how many leading
// windows of each missing and basis chunk's segment may hold payload. A rank's
// payload windows, ⌈tensor bytes / BufferSize⌉, are read from the first copy
// of its small components that a deep scan verified; a rank no such copy
// sizes counts as payload in every window. A data chunk's segment holds the
// packet of one worker, zero past its payload windows: packInto zeroes the
// tail, a full round clears and seals every window no stream carries, and a
// delta round ships each window that differs from its base, so a shrunk
// payload's newly zero windows land too. A parity segment is a linear
// combination of the packets of its reduction's workers, so it is zero past
// the payload windows of all of them.
func (c *Checkpointer) liveWindows(rd *restoreRound, cg int) {
	plan, gp, k := c.lay.plan, &rd.groups[cg], c.cfg.K
	rankLo, rankHi := plan.RankRange(cg)
	nodeLo, nodeHi := plan.NodeRange(cg)
	all := c.numBuffers(rd.packetBytes)
	windows := make([]int, rankHi-rankLo) // by rank less rankLo
	// workers[s·k+j] is the rank whose packet is segment s of data chunk j.
	workers := make([]int, len(gp.decode)*k)
	for w := rankLo; w < rankHi; w++ {
		windows[w-rankLo] = all
		for node := nodeLo; node < nodeHi; node++ {
			if small := c.scannedSmall(rd, node, w); small != nil {
				if n, err := tensorBytes(small); err == nil {
					windows[w-rankLo] = min(c.numBuffers(n), all)
					break
				}
			}
		}
		workers[plan.SegmentOf[w]*k+plan.DataGroupOf[w]] = w
	}
	chunkWindows := func(s, chunk int) int {
		if chunk < k {
			return windows[workers[s*k+chunk]-rankLo]
		}
		most := 0
		for _, w := range workers[s*k : (s+1)*k] {
			most = max(most, windows[w-rankLo])
		}
		return most
	}
	for s := range gp.decode {
		p := &gp.decode[s]
		p.rowWindows, p.basisWindows = make([]int, len(p.missing)), make([]int, len(p.basis))
		for row, chunk := range p.missing {
			p.rowWindows[row] = chunkWindows(s, chunk)
		}
		for pos, chunk := range p.basis {
			p.basisWindows[pos] = chunkWindows(s, chunk)
		}
	}
}

// appendSmall appends a worker's small-component blob to dst: the length of
// its metadata blob as a uvarint, the metadata blob, then the tensor keys.
// It is what step 2 broadcasts and host memory keeps under the rank's one
// small-component key.
func appendSmall(dst, meta, keys []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(meta)))
	return append(append(dst, meta...), keys...)
}

// splitSmall is appendSmall's inverse. The parts alias small. A length
// prefix that does not parse or overruns the blob is an error.
func splitSmall(small []byte) (meta, keys []byte, err error) {
	n, hdr := binary.Uvarint(small)
	if hdr <= 0 || n > uint64(len(small)-hdr) {
		return nil, nil, fmt.Errorf("core: small-component blob of %d bytes: its metadata length prefix overruns it", len(small))
	}
	return small[hdr : hdr+int(n)], small[hdr+int(n):], nil
}

// assemblePacket rebuilds a worker's state dict from its small-component
// blob and packet bytes: the one reader of the blob's parts. Every tensor
// region is copied into fresh storage, so the packet can be recycled as soon
// as it returns.
func assemblePacket(rank int, small, packet []byte) (*statedict.StateDict, error) {
	meta, keys, err := splitSmall(small)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", rank, err)
	}
	sizes, err := statedict.TensorSizes(keys)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", rank, err)
	}
	buffers := make([][]byte, len(sizes))
	off := 0
	for i, size := range sizes {
		if size < 0 || size > len(packet)-off {
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

// forEachBounded runs fn(i) for every i in [0, n) across at most
// restoreWorkers goroutines and joins the errors.
func forEachBounded(n int, fn func(i int) error) error {
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(restoreWorkers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := range errs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// observeRestore records a completed restore's wall-clock latency in the
// load_restore_ns histogram, labeled by operation, so restore p50/p99 for
// full, partial, prefetch and remote rounds are all visible at /metrics.
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
func (c *Checkpointer) applyBudget(report *LoadReport, r *round) {
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
		reg.Counter("load_budget_exceeded_total", obs.L("op", r.op)).Inc()
	}
	c.cfg.Flight.BudgetExceeded(r.op, r.version, budget, report.Elapsed)
	c.cfg.Health.NoteBudgetExceeded(r.op)
	if l := c.cfg.Logger; l != nil {
		l.Warn("restore budget exceeded", "op", r.op, "round", r.version,
			"budget", budget, "elapsed", report.Elapsed)
	}
	if report.Postmortem == nil {
		report.Postmortem = r.tail()
	}
}
