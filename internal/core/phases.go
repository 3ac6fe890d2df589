package core

import (
	"strconv"
	"time"

	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
)

// Phase names of the save round. Each node goroutine's wall time is
// partitioned exclusively into these phases (see phaseClock), so a round's
// phase durations sum to the round's wall time.
const (
	// PhaseSerialize is small-component serialization (the state-dict
	// decomposition into metadata + tensor keys).
	PhaseSerialize = "serialize"
	// PhaseOffload is the DtoH packet copy — the only phase (together
	// with PhaseSerialize) training stalls on; SaveAsync returns once it
	// completes.
	PhaseOffload = "offload"
	// PhaseStage is drain-side local chunk staging memory work (segment
	// allocation and same-node data-packet copies). Before the
	// snapshot/drain split it was charged to PhaseOffload; keeping it
	// separate makes PhaseOffload an honest measure of the blocking
	// stage.
	PhaseStage = "stage"
	// PhaseEncode is Cauchy scalar-multiplication of packets.
	PhaseEncode = "encode"
	// PhaseXOR is XOR reduction of encoded contributions.
	PhaseXOR = "xor"
	// PhaseP2P is transport send/recv work and pipeline backpressure.
	PhaseP2P = "p2p"
	// PhaseBarrier is the residual wait for outstanding deliveries.
	PhaseBarrier = "barrier"
	// PhaseStraggle is synchronization skew charged per node: the time a
	// finished node's chunk sat waiting for the round's stragglers before
	// commit. Charging it to each fast node's own lane (instead of
	// inflating the round mean's barrier) makes the slowest machine
	// identifiable from the per-node partitions alone — the straggler is
	// the node with (near-)zero straggle.
	PhaseStraggle = "straggle"
	// PhasePromote is staging writes plus the commit that promotes the
	// staged checkpoint to its final keys.
	PhasePromote = "promote"
	// PhasePersist is the low-frequency remote persistence (step 4); it
	// appears only on rounds that persist.
	PhasePersist = "persist"
)

// SavePhases lists the save-round phases in pipeline order, for rendering
// phase tables. PhasePersist is appended because it only occurs on
// persisting rounds.
func SavePhases() []string {
	return []string{PhaseOffload, PhaseSerialize, PhaseEncode, PhaseXOR,
		PhaseStage, PhaseP2P, PhaseBarrier, PhaseStraggle, PhasePromote, PhasePersist}
}

// Phase names of the recovery (Load) round.
const (
	// PhaseScan is the coordinator's host-memory availability assessment.
	PhaseScan = "scan"
	// PhaseFetch is reading the node's own surviving chunk segments.
	PhaseFetch = "fetch"
	// PhaseRebuild is the distributed decode/re-encode of missing chunks.
	PhaseRebuild = "rebuild"
	// PhaseSmallSync re-broadcasts small components to nodes that lost them.
	PhaseSmallSync = "smallsync"
	// PhaseRedistribute ships original packets back to their workers and
	// reassembles state dicts.
	PhaseRedistribute = "redistribute"
)

// LoadPhases lists the recovery phases in protocol order.
func LoadPhases() []string {
	return []string{PhaseScan, PhaseFetch, PhaseRebuild, PhaseSmallSync, PhaseRedistribute}
}

// phaseEventMin is the shortest closed phase interval worth a flight
// event. The pipelined save switches phases once per buffer, so without
// a floor a single round would flood the ring with micro-spans; 20µs
// keeps the spans an operator actually reads (offload, encode runs,
// barrier waits) while coalescing per-buffer noise into the phase
// histograms, which see every interval regardless.
const phaseEventMin = 20 * time.Microsecond

// phaseClock partitions one goroutine's timeline exclusively into named
// phases: at any instant exactly one phase is charged, so the phase
// durations sum to the clock's total span. It is not safe for concurrent
// use — one clock per goroutine.
type phaseClock struct {
	phases map[string]time.Duration
	cur    string
	mark   time.Time

	// Flight emission context; rec nil means no emission.
	rec   *flight.Recorder
	op    string
	node  int
	round int

	// Watchdog supervision; wd nil means none.
	wd   *watchdog
	slot *wdSlot
}

// newPhaseClock starts a clock charging the given phase. A round's goroutines
// get theirs from round.clock, wired to the recorder and the watchdog.
func newPhaseClock(phase string) *phaseClock {
	return &phaseClock{
		phases: make(map[string]time.Duration, 8),
		cur:    phase,
		mark:   time.Now(),
	}
}

// unwatch unregisters the clock's watchdog slot without freezing the
// clock. Stop unregisters too; deferring unwatch right after round.clock
// makes slot cleanup robust to early-error returns that never reach
// Stop. Idempotent and safe on an unwatched clock.
func (p *phaseClock) unwatch() {
	if p.slot != nil {
		p.slot.unregister()
		p.slot = nil
	}
}

// Switch charges the time since the last boundary to the current phase and
// starts charging the given one.
func (p *phaseClock) Switch(phase string) {
	if phase == p.cur {
		return
	}
	now := time.Now()
	d := now.Sub(p.mark)
	p.phases[p.cur] += d
	if p.rec != nil && d >= phaseEventMin {
		p.rec.Phase(p.op, p.node, p.round, p.cur, p.mark, d)
	}
	if p.wd != nil {
		p.wd.sample(p.op, p.cur, d)
		p.slot.setPhase(phase, now)
	}
	p.cur, p.mark = phase, now
}

// Stop charges the tail interval and freezes the clock, returning the
// phase map. A watched clock unregisters from the watchdog.
func (p *phaseClock) Stop() map[string]time.Duration {
	if p.cur != "" {
		now := time.Now()
		d := now.Sub(p.mark)
		p.phases[p.cur] += d
		if p.rec != nil && d >= phaseEventMin {
			p.rec.Phase(p.op, p.node, p.round, p.cur, p.mark, d)
		}
		if p.wd != nil {
			p.wd.sample(p.op, p.cur, d)
		}
		p.cur, p.mark = "", now
	}
	if p.slot != nil {
		p.slot.unregister()
		p.slot = nil
	}
	return p.phases
}

// shiftPhase moves up to limit (of the amount available) from one phase to
// another, keeping the partition's sum constant. Used to re-attribute XOR
// work done by receiver goroutines out of the main goroutine's barrier
// wait, which it overlaps.
func shiftPhase(phases map[string]time.Duration, from, to string, amount time.Duration) {
	if amount <= 0 {
		return
	}
	if avail := phases[from]; amount > avail {
		amount = avail
	}
	phases[from] -= amount
	phases[to] += amount
}

// chargeStraggle closes each node's phase partition against the round's
// section wall: the gap between the wall and a node's own phase total is
// time that node's finished chunk sat waiting for slower peers at the
// commit barrier, charged to the node's own PhaseStraggle lane so every
// partition sums to the section wall. It returns the straggler — the node
// with the largest own total, the machine the rest of the cluster waited
// for — and its lag behind the mean of all nodes' totals. With zero nodes
// it returns (-1, 0).
func chargeStraggle(nodePhases []map[string]time.Duration, sectionWall time.Duration) (int, time.Duration) {
	stragglerNode := -1
	var maxTotal, sumTotal time.Duration
	for node, phases := range nodePhases {
		var total time.Duration
		for _, d := range phases {
			total += d
		}
		sumTotal += total
		if stragglerNode < 0 || total > maxTotal {
			stragglerNode, maxTotal = node, total
		}
		if lane := sectionWall - total; lane > 0 {
			phases[PhaseStraggle] += lane
		}
	}
	if stragglerNode < 0 {
		return -1, 0
	}
	return stragglerNode, maxTotal - sumTotal/time.Duration(len(nodePhases))
}

// meanPhases averages per-node phase maps key-wise over all nodes (the
// union of keys; absent keys count as zero). Because every node's map
// partitions that node's wall time and the nodes run concurrently in
// lock-step (each waits on the others' deliveries), the mean's sum tracks
// the round's wall time closely.
func meanPhases(perNode []map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration, 8)
	if len(perNode) == 0 {
		return out
	}
	for _, m := range perNode {
		for ph, d := range m {
			out[ph] += d
		}
	}
	for ph := range out {
		out[ph] /= time.Duration(len(perNode))
	}
	return out
}

// buildPhaseHistograms pre-resolves the <op>_phase_ns series for every
// (op, node, phase) combination the protocol records, so a round's phase
// breakdown costs map lookups and atomic adds — not per-round label
// canonicalization (which sorts and interns labels, allocating each time).
// Returns nil for a nil registry.
func buildPhaseHistograms(reg *obs.Registry, nodes int) map[string][]map[string]*obs.Histogram {
	if reg == nil {
		return nil
	}
	out := make(map[string][]map[string]*obs.Histogram, 2)
	for op, phases := range map[string][]string{"save": SavePhases(), "load": LoadPhases()} {
		perNode := make([]map[string]*obs.Histogram, nodes)
		for node := 0; node < nodes; node++ {
			nodeLabel := obs.L("node", strconv.Itoa(node))
			m := make(map[string]*obs.Histogram, len(phases))
			for _, ph := range phases {
				m[ph] = reg.Histogram(op+"_phase_ns", obs.L("phase", ph), nodeLabel)
			}
			perNode[node] = m
		}
		out[op] = perNode
	}
	return out
}

// observePhases records one node's phase breakdown into the registry as
// <op>_phase_ns{phase,node} histogram series, through the pre-resolved
// table when possible. Safe with a nil registry.
func (c *Checkpointer) observePhases(op string, node int, phases map[string]time.Duration) {
	reg := c.cfg.Metrics
	if reg == nil {
		return
	}
	table := c.phaseHist[op]
	for ph, d := range phases {
		if node >= 0 && node < len(table) {
			if h, ok := table[node][ph]; ok {
				h.ObserveDuration(d)
				continue
			}
		}
		// Unanticipated phase or node: fall back to the interning path.
		reg.Histogram(op+"_phase_ns", obs.L("phase", ph), obs.L("node", strconv.Itoa(node))).ObserveDuration(d)
	}
}
