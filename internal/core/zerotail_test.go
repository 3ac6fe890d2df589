package core

import (
	"context"
	"fmt"
	"testing"

	"eccheck/internal/bufpool"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
	"eccheck/internal/transport"
)

// A full round ships each worker's payload windows only: the zero tail that
// pads a packet to the largest worker's size is never encoded, folded, sent
// or landed, and the drain writes it as zeros under the constant sum of a
// zero window. These tests pin that the tail lands as zeros on blobs that
// held other bytes before.

// skewRig is a cluster over state dicts whose tensor payloads differ in size
// from rank to rank, with 4 KiB windows and own-packet caches on: rank 0
// holds eight windows' worth, and every other rank one to four windows,
// most ending in a partial window.
func skewRig(t *testing.T, nodes, gpus, k, m int) *testRig {
	t.Helper()
	net, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRigOn(t, net, skewDicts(t, nodes*gpus, 1, nil), nodes, gpus, k, m, noRemote, func(c *Config) {
		c.BufferSize = 4 << 10
		c.IncrementalCache = true
	})
	rig.ckpt.buf = bufpool.New()
	return rig
}

// skewDicts builds skewRig's state dicts as checkpoint content number iter;
// the ranks in empty hold metadata only.
func skewDicts(t *testing.T, world, iter int, empty map[int]bool) []*statedict.StateDict {
	t.Helper()
	dicts := make([]*statedict.StateDict, world)
	for rank := range dicts {
		sd := statedict.New()
		sd.SetMeta("iteration", statedict.Int(int64(iter)))
		dicts[rank] = sd
		if empty[rank] {
			continue
		}
		size := 1000 + 5000*(rank%4)
		if rank == 0 {
			size = 32000
		}
		tn, err := tensor.New(tensor.Float32, size/4)
		if err != nil {
			t.Fatal(err)
		}
		tn.FillPattern(uint64(rank + 100*iter))
		if err := sd.SetTensor("payload", tn); err != nil {
			t.Fatal(err)
		}
	}
	return dicts
}

// poisonPool fills per buffers of every pool class up to maxBytes with 0xA5
// and puts them back, so the next round's pooled buffers carry stale bytes.
func poisonPool(p *bufpool.Pool, maxBytes, per int) {
	for size := 256; size <= maxBytes; size *= 2 {
		bufs := make([][]byte, per)
		for i := range bufs {
			bufs[i] = p.Get(size)
			for j := range bufs[i] {
				bufs[i][j] = 0xA5
			}
		}
		for _, buf := range bufs {
			p.Put(buf)
		}
	}
}

// checkZeroTails reads every payload blob of the committed checkpoint and
// requires each window past the payload windows of the ranks it holds to be
// zero: a rank's data segment and own-packet cache past its own payload
// windows, a parity segment past those of every worker of its reduction. It
// returns how many zero windows it read.
func checkZeroTails(t *testing.T, rig *testRig, dicts []*statedict.StateDict) int {
	t.Helper()
	c := rig.ckpt
	lay, bufSize := c.lay, c.cfg.BufferSize
	zeroFrom := func(node int, key string, from int) int {
		t.Helper()
		blob, err := c.fetch(node, key)
		if err != nil {
			t.Fatalf("node %d %s: %v", node, key, err)
		}
		n := 0
		for b := from; b < c.numBuffers(len(blob)); b++ {
			lo, hi := b*bufSize, min((b+1)*bufSize, len(blob))
			for i := lo; i < hi; i++ {
				if blob[i] != 0 {
					t.Errorf("node %d %s: zero-tail window %d holds %#x at byte %d", node, key, b, blob[i], i)
					break
				}
			}
			n++
		}
		return n
	}
	payload := func(w int) int { return c.numBuffers(dicts[w].TensorBytes()) }
	zeros := 0
	for w := range dicts {
		j := lay.plan.DataGroupOf[w]
		owner := lay.plan.ChunkOwner(lay.plan.GroupOfRank(w), j)
		zeros += zeroFrom(owner, lay.keys.segment[j][lay.plan.SegmentOf[w]], payload(w))
		if base := lay.keys.base[w]; base.cache {
			zeros += zeroFrom(w/rig.topo.GPUsPerNode(), base.key, payload(w))
		}
	}
	for _, r := range lay.plan.Reductions {
		most := 0
		for _, w := range r.Workers {
			most = max(most, payload(w))
		}
		chunk := c.cfg.K + r.ParityIndex
		zeros += zeroFrom(lay.plan.ChunkOwner(r.CodeGroup, chunk), lay.keys.segment[chunk][r.Group], most)
	}
	return zeros
}

// TestZeroTailLandsAsZeros saves skewed payloads onto spares and a pool
// scribbled with 0xA5. Every zero-tail window of every data segment, parity
// segment and own-packet cache reads zero through a verified footer, every
// window sum verifies, parity matches data, and after every data machine is
// lost the state comes back byte for byte — and again after a SaveIncremental.
// The empty rows first save a rank with tensor bytes, then with none: its
// segment and cache must read zero, not the committed bytes a carried blob
// would keep.
func TestZeroTailLandsAsZeros(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct {
		nodes, gpus, k, m int
	}{{4, 2, 2, 2}, {16, 1, 8, 8}} {
		for _, emptied := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d k%dm%d empty=%v", shape.nodes, shape.gpus, shape.k, shape.m, emptied), func(t *testing.T) {
				rig := skewRig(t, shape.nodes, shape.gpus, shape.k, shape.m)
				world := rig.topo.World()
				plan := rig.ckpt.Plan()
				var empty map[int]bool
				if emptied {
					// A rank whose data segment is kept on another machine, so
					// it lands in a spare there, and whose cache is its own.
					for w := 1; w < world && empty == nil; w++ {
						if plan.ChunkOwner(plan.GroupOfRank(w), plan.DataGroupOf[w]) != w/shape.gpus {
							empty = map[int]bool{w: true}
						}
					}
					if empty == nil {
						t.Fatal("no rank keeps its data segment on another machine")
					}
				}
				// Two commits fill the spare stacks with the blobs of the
				// full-size content.
				for iter := 1; iter <= 2; iter++ {
					if _, err := rig.ckpt.Save(ctx, skewDicts(t, world, iter, nil)); err != nil {
						t.Fatal(err)
					}
				}
				if scribbleSpares(rig.ckpt) == 0 {
					t.Fatal("no spare to scribble")
				}
				poisonPool(rig.ckpt.buf, 64<<10, 4*world)
				dicts := skewDicts(t, world, 3, empty)
				if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
					t.Fatal(err)
				}
				if zeros := checkZeroTails(t, rig, dicts); zeros == 0 {
					t.Fatal("no zero-tail window to check")
				}
				for w := range empty {
					if n := rig.ckpt.numBuffers(dicts[w].TensorBytes()); n != 0 {
						t.Fatalf("rank %d holds %d payload windows, want none", w, n)
					}
				}
				checkSums(t, rig)
				verifyClean(t, rig)

				loseDataNodes(t, rig)
				got, _, err := rig.ckpt.Load(ctx)
				if err != nil {
					t.Fatal(err)
				}
				dictsEqual(t, dicts, got)

				next := skewDicts(t, world, 3, empty)
				for w := 0; w < world; w += 3 {
					if !empty[w] {
						next[w].TensorEntries()[0].Tensor.Data()[0] ^= 0xA5
					}
				}
				scribbleSpares(rig.ckpt)
				rep, err := rig.ckpt.SaveIncremental(ctx, next)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("incremental round: full=%v, %d of %d windows changed", rep.Full, rep.ChangedBuffers, rep.TotalBuffers)
				checkZeroTails(t, rig, next)
				checkSums(t, rig)
				verifyClean(t, rig)
				loseDataNodes(t, rig)
				if got, _, err = rig.ckpt.Load(ctx); err != nil {
					t.Fatal(err)
				}
				dictsEqual(t, next, got)
			})
		}
	}
}
