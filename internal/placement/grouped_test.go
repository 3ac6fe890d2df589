package placement

import (
	"reflect"
	"testing"
)

// A grouped plan is the flat plan of one group repeated over contiguous
// machine ranges: same roles, reductions and transfers, offset by the
// group's machines and workers, and nothing crossing a group boundary.
func TestGroupedPlanIsTheFlatPlanPerGroup(t *testing.T) {
	const groups, size, gpus = 3, 4, 2
	flat, err := New(topo(t, size, gpus, gpus, size), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(topo(t, groups*size, gpus, gpus, groups*size), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups() != groups || p.Span() != flat.Span() || flat.Groups() != 1 {
		t.Fatalf("Groups %d Span %d; flat Groups %d Span %d", p.Groups(), p.Span(), flat.Groups(), flat.Span())
	}
	if len(p.DataNodes) != groups*2 || len(p.ParityNodes) != groups*2 ||
		len(p.Reductions) != groups*len(flat.Reductions) || len(p.Transfers) != groups*len(flat.Transfers) {
		t.Fatalf("shape: %d data, %d parity, %d reductions, %d transfers",
			len(p.DataNodes), len(p.ParityNodes), len(p.Reductions), len(p.Transfers))
	}
	for cg := 0; cg < groups; cg++ {
		nodeLo, nodeHi := p.NodeRange(cg)
		rankLo, rankHi := p.RankRange(cg)
		if nodeLo != cg*size || nodeHi != (cg+1)*size || rankLo != nodeLo*gpus || rankHi != nodeHi*gpus {
			t.Fatalf("group %d ranges: nodes [%d,%d) ranks [%d,%d)", cg, nodeLo, nodeHi, rankLo, rankHi)
		}
		for chunk := 0; chunk < size; chunk++ {
			if got, want := p.ChunkOwner(cg, chunk), flat.ChunkOwner(0, chunk)+nodeLo; got != want {
				t.Errorf("group %d chunk %d on machine %d, want %d", cg, chunk, got, want)
			}
		}
		for node := nodeLo; node < nodeHi; node++ {
			if p.GroupOfNode(node) != cg || p.Roles[node] != flat.Roles[node-nodeLo] || p.ChunkOfNode[node] != flat.ChunkOfNode[node-nodeLo] {
				t.Errorf("machine %d: group %d role %v chunk %d", node, p.GroupOfNode(node), p.Roles[node], p.ChunkOfNode[node])
			}
		}
		for w := rankLo; w < rankHi; w++ {
			if p.GroupOfRank(w) != cg || p.DataGroupOf[w] != flat.DataGroupOf[w-rankLo] || p.SegmentOf[w] != flat.SegmentOf[w-rankLo] {
				t.Errorf("worker %d: group %d data group %d segment %d", w, p.GroupOfRank(w), p.DataGroupOf[w], p.SegmentOf[w])
			}
		}
		per := len(flat.Reductions) // Reductions lists each group's in turn
		for ri, r := range p.Reductions[cg*per : (cg+1)*per] {
			want := flat.Reductions[ri]
			want.CodeGroup, want.Target = cg, want.Target+rankLo
			want.Workers = append([]int(nil), want.Workers...)
			for i := range want.Workers {
				want.Workers[i] += rankLo
			}
			if !reflect.DeepEqual(r, want) {
				t.Errorf("group %d reduction %d = %+v, want %+v", cg, ri, r, want)
			}
		}
	}
	for _, tr := range p.Transfers {
		if p.GroupOfNode(tr.SrcNode) != p.GroupOfNode(tr.DstNode) || p.GroupOfRank(tr.SrcWorker) != p.GroupOfNode(tr.SrcNode) {
			t.Errorf("transfer %+v crosses a group boundary", tr)
		}
	}
	// §V-F: total traffic is m·W whatever the grouping.
	if got, want := p.CommVolume().Total(), p.M*p.Topo.World(); got != want {
		t.Errorf("communication volume %d packets, closed form %d", got, want)
	}
}

func TestGroupedPlanValidation(t *testing.T) {
	tt := topo(t, 8, 2, 2, 8)
	if _, err := New(tt, 2, 1); err == nil {
		t.Error("k+m not dividing the node count: want error")
	}
	if _, err := New(tt, 3, 1); err == nil {
		t.Error("k not dividing a group's workers: want error")
	}
	if _, err := NewWithDataNodes(tt, 2, 2, []int{0, 2}); err == nil {
		t.Error("data nodes for one group only: want error")
	}
	if _, err := NewWithDataNodes(tt, 2, 2, []int{0, 4, 5, 6}); err == nil {
		t.Error("group 0's data node on a machine of group 1: want error")
	}
	if _, err := NewWithDataNodes(tt, 2, 2, []int{0, 0, 4, 6}); err == nil {
		t.Error("duplicate data node: want error")
	}
}

// No two workers of a reduction share a machine: a reduction's workers are
// one per data group at one relative index, span = (k+m)·g/k ranks apart, and
// span > g because m ≥ 1. The save round relies on it: only a reduction's
// root folds, and every other source machine's partial is its one worker's
// product. Every plan New accepts with at most 32 machines and 4 GPUs per
// machine, every (k, m), grouped layouts included.
func TestReductionWorkersOnDistinctMachines(t *testing.T) {
	plans := 0
	for nodes := 2; nodes <= 32; nodes++ {
		for gpus := 1; gpus <= 4; gpus++ {
			for k := 1; k < nodes; k++ {
				for m := 1; k+m <= nodes; m++ {
					p, err := New(topo(t, nodes, gpus, gpus, nodes), k, m)
					if err != nil {
						continue
					}
					plans++
					if span := p.Span(); span <= gpus {
						t.Fatalf("%d×%d, k=%d m=%d: span %d not above the %d GPUs per machine", nodes, gpus, k, m, span, gpus)
					}
					for ri, r := range p.Reductions {
						seen := make(map[int]bool, len(r.Workers))
						for _, w := range r.Workers {
							if seen[w/gpus] {
								t.Fatalf("%d×%d, k=%d m=%d: reduction %d has two workers on machine %d (%v)", nodes, gpus, k, m, ri, w/gpus, r.Workers)
							}
							seen[w/gpus] = true
						}
					}
				}
			}
		}
	}
	if plans == 0 {
		t.Fatal("no plan accepted")
	}
}
