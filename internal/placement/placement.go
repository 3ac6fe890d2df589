// Package placement compiles the communication structure of one ECCheck
// checkpointing round: which machines act as data or parity nodes (sweep
// line maximum-overlap selection), how the W workers form reduction groups,
// which worker is the target of every XOR reduction (the three k/m cases of
// the paper), and which point-to-point transfers finish placing data and
// parity chunks. The plan is symbolic — sizes are in packets — so both the
// functional executor and the discrete-event timing model can replay it.
package placement

import (
	"fmt"

	"eccheck/internal/parallel"
	"eccheck/internal/sweepline"
)

// Role classifies a machine for one checkpointing round.
type Role int

// Machine roles.
const (
	RoleData Role = iota + 1
	RoleParity
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleData:
		return "data"
	case RoleParity:
		return "parity"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Reduction describes one XOR reduction: the workers of a reduction group
// combine their encoded packets for one parity index onto a target worker.
type Reduction struct {
	// CodeGroup is the code group the reduction runs in.
	CodeGroup int
	// Group is the index of the reduction group within its code group.
	Group int
	// ParityIndex identifies which parity chunk (0..m-1) this result
	// belongs to.
	ParityIndex int
	// Workers are the k participants (one per data group).
	Workers []int
	// Target is the worker that accumulates the XOR result.
	Target int
	// TargetOnParityNode reports whether the target already resides on the
	// parity node that must store the result (no P2P needed afterwards).
	TargetOnParityNode bool
}

// TransferKind distinguishes P2P transfer purposes.
type TransferKind int

// Transfer kinds.
const (
	// TransferData moves a worker's original data packet to its data node.
	TransferData TransferKind = iota + 1
	// TransferParity moves a reduced parity packet to its parity node.
	TransferParity
)

// Transfer is one point-to-point packet movement between machines.
type Transfer struct {
	Kind TransferKind
	// SrcWorker is the worker whose memory holds the packet.
	SrcWorker int
	// SrcNode and DstNode are machine indices.
	SrcNode int
	DstNode int
	// ChunkIndex is the destination chunk: data chunk j for TransferData,
	// k+i for TransferParity.
	ChunkIndex int
	// SegmentIndex is the packet's position (relative index) within the
	// destination chunk.
	SegmentIndex int
}

// Plan is the full communication structure of a checkpointing round: one or
// more independent (K, M) code groups, each over a contiguous range of K+M
// machines (group g is machines g·(K+M) through (g+1)·(K+M)−1) and the
// workers they host. Groups share the code and nothing else — no reduction
// or transfer crosses a group boundary — so per-machine traffic stays m·s
// however many groups the cluster has (the paper's §V-F scaling scheme).
// Machine and worker indices are cluster-wide; chunk, segment and parity
// indices are the group's own.
type Plan struct {
	// K and M are the erasure-code parameters; the node count is a multiple
	// of K+M.
	K, M int
	// Topo is the training topology the plan was compiled for.
	Topo *parallel.Topology
	// DataNodes[g·K+j] is the machine storing data chunk j of group g.
	DataNodes []int
	// ParityNodes[g·M+i] is the machine storing parity chunk i of group g.
	ParityNodes []int
	// Roles[node] is each machine's role.
	Roles []Role
	// ChunkOfNode[node] is the chunk of its group the machine stores: j for
	// data chunk j, K+i for parity chunk i.
	ChunkOfNode []int
	// DataGroupOf[worker] is the data group (chunk) of its code group a
	// worker's packet belongs to.
	DataGroupOf []int
	// SegmentOf[worker] is the worker's relative index within its data
	// group: its packet's segment position inside the chunk.
	SegmentOf []int
	// Reductions lists every XOR reduction, code group by code group
	// (Span() reduction groups × M parity indices each).
	Reductions []Reduction
	// Transfers lists every P2P packet movement.
	Transfers []Transfer
}

// Groups returns the number of code groups.
func (p *Plan) Groups() int { return p.Topo.Nodes() / (p.K + p.M) }

// Span returns the segments per chunk: the workers of one code group over K.
func (p *Plan) Span() int { return (p.K + p.M) * p.Topo.GPUsPerNode() / p.K }

// GroupOfNode returns the code group a machine belongs to.
func (p *Plan) GroupOfNode(node int) int { return node / (p.K + p.M) }

// GroupOfRank returns the code group a worker belongs to.
func (p *Plan) GroupOfRank(rank int) int { return p.GroupOfNode(rank / p.Topo.GPUsPerNode()) }

// NodeRange returns the machines [lo, hi) of a code group.
func (p *Plan) NodeRange(group int) (lo, hi int) {
	return group * (p.K + p.M), (group + 1) * (p.K + p.M)
}

// RankRange returns the workers [lo, hi) of a code group.
func (p *Plan) RankRange(group int) (lo, hi int) {
	lo, hi = p.NodeRange(group)
	return lo * p.Topo.GPUsPerNode(), hi * p.Topo.GPUsPerNode()
}

// ReductionRange returns the indices [lo, hi) of a code group's reductions.
func (p *Plan) ReductionRange(group int) (lo, hi int) {
	per := p.Span() * p.M
	return group * per, (group + 1) * per
}

// ChunkOwner returns the machine storing a chunk of a code group.
func (p *Plan) ChunkOwner(group, chunk int) int {
	if chunk < p.K {
		return p.DataNodes[group*p.K+chunk]
	}
	return p.ParityNodes[group*p.M+chunk-p.K]
}

// New compiles a plan with the paper's sweep-line data/parity node
// selection. The machine count must be a multiple of k+m — each k+m
// consecutive machines form one code group and each machine stores exactly
// one chunk of its group — and k must divide a group's worker count.
func New(topo *parallel.Topology, k, m int) (*Plan, error) {
	if err := validateParams(topo, k, m); err != nil {
		return nil, err
	}
	var dataNodes []int
	for group := 0; group < topo.Nodes()/(k+m); group++ {
		sel, err := selectDataNodes(topo, k, m, group)
		if err != nil {
			return nil, err
		}
		dataNodes = append(dataNodes, sel...)
	}
	return NewWithDataNodes(topo, k, m, dataNodes)
}

// groupTopology is the shape of one code group on its own: k+m machines of
// the cluster's GPU count. Every group has it, so the origin, data and
// reduction group structure is computed on it and offset per group.
func groupTopology(topo *parallel.Topology, k, m int) (*parallel.Topology, error) {
	return parallel.NewTopology(k+m, topo.GPUsPerNode(), 1, 1)
}

// selectDataNodes runs the sweep-line selection inside one code group: the
// group's machines against the k equal spans of the group's workers.
func selectDataNodes(topo *parallel.Topology, k, m, group int) ([]int, error) {
	sub, err := groupTopology(topo, k, m)
	if err != nil {
		return nil, err
	}
	dataGroups, err := sub.DataGroups(k)
	if err != nil {
		return nil, err
	}
	sel, err := sweepline.SelectDataNodes(sub.OriginGroups(), dataGroups)
	if err != nil {
		return nil, err
	}
	for j := range sel.DataNodes {
		sel.DataNodes[j] += group * (k + m)
	}
	return sel.DataNodes, nil
}

func validateParams(topo *parallel.Topology, k, m int) error {
	if k <= 0 || m <= 0 {
		return fmt.Errorf("placement: k and m must be positive (k=%d, m=%d)", k, m)
	}
	if topo.Nodes()%(k+m) != 0 {
		return fmt.Errorf("placement: node count %d must be a multiple of k+m = %d (groups are contiguous ranges of k+m nodes)", topo.Nodes(), k+m)
	}
	if gw := (k + m) * topo.GPUsPerNode(); gw%k != 0 {
		return fmt.Errorf("placement: k=%d does not divide a group's %d workers", k, gw)
	}
	return nil
}

// NewWithDataNodes compiles a plan with an explicit data-node assignment
// (dataNodes[g·k+j] stores data chunk j of code group g, and is one of that
// group's machines). It exists for ablations comparing the sweep-line
// selection against naive assignments; production callers should use New.
func NewWithDataNodes(topo *parallel.Topology, k, m int, dataNodes []int) (*Plan, error) {
	if err := validateParams(topo, k, m); err != nil {
		return nil, err
	}
	n := topo.Nodes()
	world := topo.World()
	if len(dataNodes) != n/(k+m)*k {
		return nil, fmt.Errorf("placement: got %d data nodes, want k=%d for each of %d groups", len(dataNodes), k, n/(k+m))
	}
	p := &Plan{
		K:           k,
		M:           m,
		Topo:        topo,
		DataNodes:   append([]int(nil), dataNodes...),
		Roles:       make([]Role, n),
		ChunkOfNode: make([]int, n),
		DataGroupOf: make([]int, world),
		SegmentOf:   make([]int, world),
	}
	for node := range p.Roles {
		p.Roles[node] = RoleParity
		p.ChunkOfNode[node] = -1
	}
	for i, node := range p.DataNodes {
		group := i / k
		if lo, hi := p.NodeRange(group); node < lo || node >= hi {
			return nil, fmt.Errorf("placement: data node %d out of group %d's range [%d, %d)", node, group, lo, hi)
		}
		if p.Roles[node] == RoleData {
			return nil, fmt.Errorf("placement: duplicate data node %d", node)
		}
		p.Roles[node] = RoleData
		p.ChunkOfNode[node] = i % k
	}
	// A group's parity chunks go to its remaining machines in ascending order.
	for node := 0; node < n; node++ {
		if p.Roles[node] == RoleParity {
			p.ChunkOfNode[node] = k + len(p.ParityNodes)%m
			p.ParityNodes = append(p.ParityNodes, node)
		}
	}

	span := p.Span()
	for w := 0; w < world; w++ {
		p.DataGroupOf[w] = w / span % k
		p.SegmentOf[w] = w % span
	}

	if err := p.buildReductions(); err != nil {
		return nil, err
	}
	p.buildTransfers()
	return p, nil
}

// buildReductions forms each code group's Span() reduction groups — group r
// holds the workers with relative index r inside each of the k data groups —
// and assigns the m XOR reduction targets in each, preferring workers that
// already live on the destination parity node and otherwise applying the
// paper's k=m / k>m / k<m assignment rules.
func (p *Plan) buildReductions() error {
	k, m, g := p.K, p.M, p.Topo.GPUsPerNode()
	sub, err := groupTopology(p.Topo, k, m)
	if err != nil {
		return err
	}
	groups, err := sub.ReductionGroups(k)
	if err != nil {
		return err
	}
	for cg := 0; cg < p.Groups(); cg++ {
		base, _ := p.RankRange(cg)
		for r, local := range groups {
			workers := make([]int, k)
			// Workers on parity nodes, by parity index.
			onParity := make(map[int]int, m) // parity index -> worker
			for j := range workers {
				w := base + local[j]
				workers[j] = w
				if node := w / g; p.Roles[node] == RoleParity {
					pi := p.ChunkOfNode[node] - k
					if _, exists := onParity[pi]; !exists {
						onParity[pi] = w
					}
				}
			}

			// Fallback target sequence over the group's workers for parity
			// indices with no co-located parity worker.
			fallback := fallbackTargets(workers, k, m)
			fb := 0
			for pi := 0; pi < m; pi++ {
				target, colocated := onParity[pi]
				if !colocated {
					target = fallback[fb]
					fb++
				}
				p.Reductions = append(p.Reductions, Reduction{
					CodeGroup:          cg,
					Group:              r,
					ParityIndex:        pi,
					Workers:            append([]int(nil), workers...),
					Target:             target,
					TargetOnParityNode: colocated,
				})
			}
		}
	}
	return nil
}

// fallbackTargets returns m target workers chosen from the group's k
// workers following the paper's three cases: k == m assigns one result per
// worker; k > m spreads targets at interval floor(k/m); k < m wraps round
// robin so the load is balanced.
func fallbackTargets(workers []int, k, m int) []int {
	out := make([]int, m)
	switch {
	case k == m:
		copy(out, workers)
	case k > m:
		step := k / m
		for i := 0; i < m; i++ {
			out[i] = workers[i*step]
		}
	default: // k < m
		for i := 0; i < m; i++ {
			out[i] = workers[i%k]
		}
	}
	return out
}

// buildTransfers derives the P2P phase: move data packets onto their data
// nodes and reduced parity packets onto their parity nodes, skipping
// packets already in place.
func (p *Plan) buildTransfers() {
	// Data packets.
	for w := 0; w < p.Topo.World(); w++ {
		j := p.DataGroupOf[w]
		srcNode, _ := p.Topo.NodeOf(w)
		dst := p.ChunkOwner(p.GroupOfRank(w), j)
		if srcNode == dst {
			continue
		}
		p.Transfers = append(p.Transfers, Transfer{
			Kind:         TransferData,
			SrcWorker:    w,
			SrcNode:      srcNode,
			DstNode:      dst,
			ChunkIndex:   j,
			SegmentIndex: p.SegmentOf[w],
		})
	}
	// Parity packets: from reduction target to parity node.
	for _, r := range p.Reductions {
		srcNode, _ := p.Topo.NodeOf(r.Target)
		dst := p.ChunkOwner(r.CodeGroup, p.K+r.ParityIndex)
		if srcNode == dst {
			continue
		}
		p.Transfers = append(p.Transfers, Transfer{
			Kind:         TransferParity,
			SrcWorker:    r.Target,
			SrcNode:      srcNode,
			DstNode:      dst,
			ChunkIndex:   p.K + r.ParityIndex,
			SegmentIndex: r.Group,
		})
	}
}

// Volume summarises the communication cost of the plan in packet units
// (multiply by the packet size s for bytes).
type Volume struct {
	// ReductionPackets counts the XOR-reduction traffic with the paper's
	// accounting: k-1 packets per reduction (every non-target participant
	// ships one encoded packet).
	ReductionPackets int
	// ReductionNetworkPackets counts only the reduction packets that
	// actually cross machines; co-located workers exchange through host
	// memory, so this is what the network carries.
	ReductionNetworkPackets int
	// DataP2PPackets is the data-packet movement of the P2P phase.
	DataP2PPackets int
	// ParityP2PPackets is the parity-packet movement of the P2P phase.
	ParityP2PPackets int
}

// Total returns the total packet traffic under the paper's accounting:
// reduction (k-1 per reduction) plus both P2P phases. Under optimal node
// selection on aligned topologies this equals m·W packets, i.e. m·s·W
// bytes (§V-F of the paper).
func (v Volume) Total() int {
	return v.ReductionPackets + v.DataP2PPackets + v.ParityP2PPackets
}

// NetworkTotal returns the packets that actually traverse the network.
func (v Volume) NetworkTotal() int {
	return v.ReductionNetworkPackets + v.DataP2PPackets + v.ParityP2PPackets
}

// CommVolume counts the plan's communication volume.
func (p *Plan) CommVolume() Volume {
	var v Volume
	for _, r := range p.Reductions {
		tgtNode, _ := p.Topo.NodeOf(r.Target)
		for _, w := range r.Workers {
			if w == r.Target {
				continue
			}
			v.ReductionPackets++
			node, _ := p.Topo.NodeOf(w)
			if node != tgtNode {
				v.ReductionNetworkPackets++
			}
		}
	}
	for _, t := range p.Transfers {
		switch t.Kind {
		case TransferData:
			v.DataP2PPackets++
		case TransferParity:
			v.ParityP2PPackets++
		}
	}
	return v
}
