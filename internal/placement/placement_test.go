package placement

import (
	"testing"

	"eccheck/internal/parallel"
)

func topo(t *testing.T, nodes, gpus, tp, pp int) *parallel.Topology {
	t.Helper()
	tp_, err := parallel.NewTopology(nodes, gpus, tp, pp)
	if err != nil {
		t.Fatal(err)
	}
	return tp_
}

func TestNewValidation(t *testing.T) {
	tt := topo(t, 4, 4, 4, 4)
	if _, err := New(tt, 0, 4); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := New(tt, 2, 0); err == nil {
		t.Error("m=0: want error")
	}
	if _, err := New(tt, 2, 3); err == nil {
		t.Error("k+m != nodes: want error")
	}
	if _, err := New(tt, 3, 1); err == nil {
		t.Error("k not dividing world: want error")
	}
}

// The paper's testbed: 4 nodes × 4 GPUs, k = m = 2. Data nodes must be
// machines 0 and 2, parity nodes 1 and 3 (maximum overlap selection).
func TestPaperTestbedPlan(t *testing.T) {
	p, err := New(topo(t, 4, 4, 4, 4), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.DataNodes[0] != 0 || p.DataNodes[1] != 2 {
		t.Errorf("DataNodes = %v, want [0 2]", p.DataNodes)
	}
	if p.ParityNodes[0] != 1 || p.ParityNodes[1] != 3 {
		t.Errorf("ParityNodes = %v, want [1 3]", p.ParityNodes)
	}
	if p.Roles[0] != RoleData || p.Roles[1] != RoleParity {
		t.Errorf("Roles = %v", p.Roles)
	}
	if p.ChunkOfNode[0] != 0 || p.ChunkOfNode[2] != 1 ||
		p.ChunkOfNode[1] != 2 || p.ChunkOfNode[3] != 3 {
		t.Errorf("ChunkOfNode = %v", p.ChunkOfNode)
	}
	// W/k = 8 reduction groups × m = 2 reductions each.
	if len(p.Reductions) != 16 {
		t.Errorf("%d reductions, want 16", len(p.Reductions))
	}
}

// §V-F closed form: total communication volume is m·W packets under the
// paper's accounting, for every aligned configuration.
func TestClosedFormVolume(t *testing.T) {
	cases := []struct {
		nodes, gpus, k, m int
	}{
		{4, 4, 2, 2},  // paper testbed
		{4, 2, 2, 2},  // Fig. 2/6 shape
		{8, 4, 4, 4},  // larger k = m
		{6, 4, 4, 2},  // k > m
		{6, 4, 2, 4},  // k < m
		{3, 2, 2, 1},  // Fig. 9
		{16, 8, 8, 8}, // scale
	}
	for _, tc := range cases {
		tt := topo(t, tc.nodes, tc.gpus, 1, 1)
		p, err := New(tt, tc.k, tc.m)
		if err != nil {
			t.Fatalf("nodes=%d k=%d m=%d: %v", tc.nodes, tc.k, tc.m, err)
		}
		v := p.CommVolume()
		if got, want := v.Total(), p.M*p.Topo.World(); got != want {
			t.Errorf("nodes=%d gpus=%d k=%d m=%d: total volume %d packets, closed form %d (%+v)",
				tc.nodes, tc.gpus, tc.k, tc.m, got, want, v)
		}
		if v.NetworkTotal() > v.Total() {
			t.Errorf("network volume %d exceeds paper accounting %d", v.NetworkTotal(), v.Total())
		}
	}
}

// Per-worker communication is m packets regardless of cluster scale: the
// §V-F scalability argument, in the exact setting of Fig. 14 (n = 4 nodes,
// k = m = 2 fixed, worker count growing 4 → 32).
func TestPerWorkerVolumeConstantInWorldSize(t *testing.T) {
	const m = 2
	for _, gpus := range []int{1, 2, 4, 8} {
		tt := topo(t, 4, gpus, 1, 1)
		p, err := New(tt, 2, m)
		if err != nil {
			t.Fatal(err)
		}
		v := p.CommVolume()
		perWorker := float64(v.Total()) / float64(tt.World())
		if perWorker != float64(m) {
			t.Errorf("gpus/node=%d: per-worker volume %.2f packets, want m=%d constant",
				gpus, perWorker, m)
		}
	}
}

// Every reduction group must contain exactly one worker per data group, and
// reductions with a co-located parity worker must target it.
func TestReductionStructure(t *testing.T) {
	p, err := New(topo(t, 4, 4, 4, 4), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Reductions {
		if len(r.Workers) != p.K {
			t.Fatalf("reduction group %d has %d workers, want %d", r.Group, len(r.Workers), p.K)
		}
		seenGroups := map[int]bool{}
		targetInGroup := false
		for _, w := range r.Workers {
			j := p.DataGroupOf[w]
			if seenGroups[j] {
				t.Errorf("reduction group %d has two workers from data group %d", r.Group, j)
			}
			seenGroups[j] = true
			if w == r.Target {
				targetInGroup = true
			}
		}
		if !targetInGroup {
			t.Errorf("reduction %d/%d target %d not in group", r.Group, r.ParityIndex, r.Target)
		}
		if r.TargetOnParityNode {
			node, _ := p.Topo.NodeOf(r.Target)
			if p.ChunkOfNode[node] != p.K+r.ParityIndex {
				t.Errorf("reduction %d/%d claims co-located target but node %d stores chunk %d",
					r.Group, r.ParityIndex, node, p.ChunkOfNode[node])
			}
		}
	}
}

// In the paper testbed, reduction groups whose workers sit on parity nodes
// 1 and 3 need zero parity P2P; only the 4 groups on data nodes transfer.
func TestPaperTestbedParityP2PCount(t *testing.T) {
	p, err := New(topo(t, 4, 4, 4, 4), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := p.CommVolume()
	// (W/k - g) * m = (8-4)*2 = 8 parity transfers.
	if v.ParityP2PPackets != 8 {
		t.Errorf("parity P2P = %d packets, want 8", v.ParityP2PPackets)
	}
	// W - k*g = 16 - 8 = 8 data transfers.
	if v.DataP2PPackets != 8 {
		t.Errorf("data P2P = %d packets, want 8", v.DataP2PPackets)
	}
	// (W/k)*m*(k-1) = 8*2*1 = 16 reduction packets (paper accounting).
	if v.ReductionPackets != 16 {
		t.Errorf("reduction = %d packets, want 16", v.ReductionPackets)
	}
}

// Fallback target rules: k > m spaces targets at floor(k/m); k < m wraps.
func TestFallbackTargets(t *testing.T) {
	workers := []int{10, 11, 12, 13}
	if got := fallbackTargets(workers, 4, 4); len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Errorf("k=m: %v", got)
	}
	if got := fallbackTargets(workers, 4, 2); got[0] != 10 || got[1] != 12 {
		t.Errorf("k>m: %v, want [10 12]", got)
	}
	if got := fallbackTargets(workers[:2], 2, 5); len(got) != 5 ||
		got[0] != 10 || got[1] != 11 || got[2] != 10 || got[4] != 10 {
		t.Errorf("k<m: %v", got)
	}
}

// Transfers must route every data packet to its data node and every parity
// segment to its parity node; together with packets already in place, each
// chunk must be complete.
func TestChunksComplete(t *testing.T) {
	for _, tc := range []struct{ nodes, gpus, k, m int }{
		{4, 4, 2, 2}, {6, 2, 4, 2}, {6, 2, 2, 4}, {3, 2, 2, 1},
	} {
		tt := topo(t, tc.nodes, tc.gpus, 1, 1)
		p, err := New(tt, tc.k, tc.m)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		world := tt.World()
		span := world / tc.k

		// Data chunks: segment coverage per chunk.
		covered := make([]map[int]bool, tc.k)
		for j := range covered {
			covered[j] = map[int]bool{}
		}
		for w := 0; w < world; w++ {
			j := p.DataGroupOf[w]
			node, _ := tt.NodeOf(w)
			if node == p.DataNodes[j] {
				covered[j][p.SegmentOf[w]] = true
			}
		}
		for _, tr := range p.Transfers {
			if tr.Kind != TransferData {
				continue
			}
			if tr.DstNode != p.DataNodes[tr.ChunkIndex] {
				t.Errorf("%+v: data transfer to node %d, chunk %d lives on %d",
					tc, tr.DstNode, tr.ChunkIndex, p.DataNodes[tr.ChunkIndex])
			}
			covered[tr.ChunkIndex][tr.SegmentIndex] = true
		}
		for j, segs := range covered {
			if len(segs) != span {
				t.Errorf("%+v: data chunk %d has %d/%d segments", tc, j, len(segs), span)
			}
		}

		// Parity chunks: every (parity index, group) pair must end on the
		// right node, either by co-located reduction or by transfer.
		parityCovered := make([]map[int]bool, tc.m)
		for i := range parityCovered {
			parityCovered[i] = map[int]bool{}
		}
		for _, r := range p.Reductions {
			node, _ := tt.NodeOf(r.Target)
			if node == p.ParityNodes[r.ParityIndex] {
				parityCovered[r.ParityIndex][r.Group] = true
			}
		}
		for _, tr := range p.Transfers {
			if tr.Kind != TransferParity {
				continue
			}
			pi := tr.ChunkIndex - tc.k
			if tr.DstNode != p.ParityNodes[pi] {
				t.Errorf("%+v: parity transfer to node %d, chunk lives on %d",
					tc, tr.DstNode, p.ParityNodes[pi])
			}
			parityCovered[pi][tr.SegmentIndex] = true
		}
		for i, segs := range parityCovered {
			if len(segs) != span {
				t.Errorf("%+v: parity chunk %d has %d/%d segments", tc, i, len(segs), span)
			}
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleData.String() != "data" || RoleParity.String() != "parity" {
		t.Error("role names wrong")
	}
	if Role(9).String() == "" {
		t.Error("unknown role should still render")
	}
}
