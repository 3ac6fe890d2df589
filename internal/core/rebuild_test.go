package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/obs/flight"
	"eccheck/internal/placement"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
	"eccheck/internal/transport"
)

// A rebuild moves only the windows that may hold payload: a basis owner
// multiplies and sends a window only where its own segment and the missing
// segment may hold payload, and the missing chunk's owner clears every other
// window of the stocked blob it lands in. These tests pin that what lands is
// the blob the loss took, byte for byte and sum for sum.

// chunkWindows is how many leading windows of segment s of chunk (of code
// group cg) hold payload under dicts: its worker's payload windows for a data
// chunk, the most of its reduction's workers' for a parity chunk.
func chunkWindows(c *Checkpointer, dicts []*statedict.StateDict, cg, s, chunk int) int {
	plan := c.lay.plan
	lo, hi := plan.RankRange(cg)
	most := 0
	for w := lo; w < hi; w++ {
		if plan.SegmentOf[w] != s {
			continue
		}
		n := c.numBuffers(dicts[w].TensorBytes())
		if plan.DataGroupOf[w] == chunk {
			return n
		}
		most = max(most, n)
	}
	return most
}

// rebuildSends is the rc/ sends a rebuild of the missing chunks of group cg
// from the basis chunks makes under dicts, by (tag, from, to): one per window
// in which both the basis segment and the missing segment may hold payload.
func rebuildSends(c *Checkpointer, dicts []*statedict.StateDict, cg int, missing, basis []int) map[stream]int {
	plan, tags := c.lay.plan, c.roundTags()
	sends := map[stream]int{}
	for s := range plan.Span() {
		for _, b := range basis {
			for _, m := range missing {
				if n := min(chunkWindows(c, dicts, cg, s, b), chunkWindows(c, dicts, cg, s, m)); n > 0 {
					sends[stream{tags.rebuild[m][s], plan.ChunkOwner(cg, b), plan.ChunkOwner(cg, m)}] = n
				}
			}
		}
	}
	return sends
}

// sumSends totals a stream count.
func sumSends(sends map[stream]int) int {
	total := 0
	for _, n := range sends {
		total += n
	}
	return total
}

// segmentBlobs copies every chunk segment each node stores, framed: payload
// and footer, by node then key.
func segmentBlobs(t *testing.T, rig *testRig, nodes []int) map[int]map[string][]byte {
	t.Helper()
	out := map[int]map[string][]byte{}
	for _, node := range nodes {
		out[node] = map[string][]byte{}
		for _, key := range rig.ckpt.lay.keys.segment[rig.ckpt.Plan().ChunkOfNode[node]] {
			blob, err := rig.clus.View(node, key)
			if err != nil {
				t.Fatalf("node %d %s: %v", node, key, err)
			}
			out[node][key] = bytes.Clone(blob)
		}
	}
	return out
}

// tamperSmall overwrites node's copy of rank's small components with bytes
// under its old footer, so the copy fails its sum, chosen so that read
// unverified it sizes the rank at fewer payload windows than it holds.
func tamperSmall(t *testing.T, rig *testRig, node, rank int, windows int) {
	t.Helper()
	c, key := rig.ckpt, rig.ckpt.lay.keys.small[rank]
	framed, err := rig.clus.View(node, key)
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.fetch(node, key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		for v := range 256 {
			bad := bytes.Clone(framed)
			bad[i] = byte(v)
			if n, err := tensorBytes(bad[:len(small)]); err != nil || c.numBuffers(n) >= windows {
				continue
			}
			if err := rig.clus.Adopt(node, key, bad); err != nil {
				t.Fatal(err)
			}
			if _, err := c.fetch(node, key); !errors.Is(err, cluster.ErrChecksum) {
				t.Fatalf("tampered %s on node %d reads %v, want a checksum mismatch", key, node, err)
			}
			return
		}
	}
	t.Fatalf("no byte of rank %d's small components sizes it below %d windows", rank, windows)
}

// TestRebuildLandsPayloadWindows loses chunks of a skewed checkpoint and
// rebuilds them into stocked blobs and pooled buffers scribbled with 0xA5: by
// a Load after every data machine is lost, a Load after every parity machine
// is lost, a PrefetchChunk of each lost data machine in turn, and the in-place
// rebuild of a crash join. Every rebuilt segment must equal the blob it
// replaced, payload and footer, and the Load that follows must return the
// state byte for byte. The shrunk rows save a delta round in which a worker's
// payload loses three windows first; the tampered rows corrupt a rank's small
// components on every surviving machine but one, such that read unverified
// they would size the rank short.
func TestRebuildLandsPayloadWindows(t *testing.T) {
	ctx := context.Background()
	type lossFn func(plan *placement.Plan) []int
	dataNodes := func(plan *placement.Plan) []int { return plan.DataNodes }
	for _, shape := range []struct {
		nodes, gpus, k, m int
	}{{4, 2, 2, 2}, {16, 1, 8, 8}} {
		for _, row := range []struct {
			name     string
			lose     lossFn
			repair   func(t *testing.T, rig *testRig, victims []int)
			shrunk   bool
			tampered bool
		}{
			{name: "Load lost data", lose: dataNodes},
			{name: "Load lost parity", lose: func(plan *placement.Plan) []int { return plan.ParityNodes }},
			{name: "PrefetchChunk", lose: dataNodes, repair: func(t *testing.T, rig *testRig, victims []int) {
				for _, node := range victims {
					rep, err := rig.ckpt.PrefetchChunk(ctx, node)
					if err != nil || rep.Segments != rig.ckpt.Plan().Span() {
						t.Fatalf("node %d prefetch: %+v, %v", node, rep, err)
					}
				}
			}},
			{name: "crash join", lose: func(plan *placement.Plan) []int {
				return []int{plan.DataNodes[0], plan.ParityNodes[0]}
			}, repair: func(t *testing.T, rig *testRig, victims []int) {
				for _, node := range victims {
					rep, err := rig.ckpt.RepairNode(ctx, node)
					if err != nil || rep.Restored || rep.Rebuilt == nil || rep.Rebuilt.Segments == 0 {
						t.Fatalf("node %d join: %+v, %v; want an in-place rebuild", node, rep, err)
					}
				}
			}},
			{name: "Load lost data shrunk", lose: dataNodes, shrunk: true},
			{name: "Load lost data tampered", lose: dataNodes, tampered: true},
		} {
			t.Run(fmt.Sprintf("%dx%d k%dm%d %s", shape.nodes, shape.gpus, shape.k, shape.m, row.name), func(t *testing.T) {
				rig := skewRig(t, shape.nodes, shape.gpus, shape.k, shape.m)
				c, plan, world := rig.ckpt, rig.ckpt.Plan(), rig.topo.World()
				// Two commits fill the spare stacks with full-size blobs.
				for iter := 1; iter <= 2; iter++ {
					if _, err := c.Save(ctx, skewDicts(t, world, iter, nil)); err != nil {
						t.Fatal(err)
					}
				}
				dicts := skewDicts(t, world, 3, nil)
				if row.shrunk {
					// Rank 3 falls from four windows to one; rank 0 keeps the
					// packet size, so the round stays a delta round.
					tn, err := tensor.New(tensor.Float32, 250)
					if err != nil {
						t.Fatal(err)
					}
					tn.FillPattern(3)
					if err := dicts[3].SetTensor("payload", tn); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Save(ctx, skewDicts(t, world, 3, nil)); err != nil {
						t.Fatal(err)
					}
					rep, err := c.SaveIncremental(ctx, dicts)
					if err != nil || rep.Full {
						t.Fatalf("shrinking round: %+v, %v; want a delta round", rep, err)
					}
				} else if _, err := c.Save(ctx, dicts); err != nil {
					t.Fatal(err)
				}
				victims := row.lose(plan)
				before := segmentBlobs(t, rig, victims)
				if row.tampered {
					lost := map[int]bool{}
					for _, node := range victims {
						lost[node] = true
					}
					var survivors []int
					for node := range shape.nodes {
						if !lost[node] {
							survivors = append(survivors, node)
						}
					}
					for _, node := range survivors[:len(survivors)-1] {
						tamperSmall(t, rig, node, 0, c.numBuffers(dicts[0].TensorBytes()))
					}
				}
				for _, node := range victims {
					replaceNode(t, rig, node)
				}
				if scribbleSpares(c) == 0 {
					t.Fatal("no stocked blob to scribble")
				}
				poisonPool(c.buf, 64<<10, 4*world)

				if row.repair != nil {
					row.repair(t, rig, victims)
				}
				got, rep, err := c.Load(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if row.repair == nil && len(rep.MissingChunks) != len(victims) {
					t.Errorf("Load rebuilt chunks %v, want %d", rep.MissingChunks, len(victims))
				}
				dictsEqual(t, dicts, got)
				after := segmentBlobs(t, rig, victims)
				for node, blobs := range before {
					for key, blob := range blobs {
						if !bytes.Equal(after[node][key], blob) {
							t.Errorf("node %d %s: the rebuilt blob differs from the one lost", node, key)
						}
					}
				}
				checkSums(t, rig)
				verifyClean(t, rig)
			})
		}
	}
}

// TestCustodyShipsNoSealedZeroTail drains a data machine of a skewed
// checkpoint to its custodian and joins its replacement: every blob comes
// back byte for byte, footer included, though the custody streams carry
// fewer bytes than the blobs store. One segment has a byte of its zero tail
// flipped and another the sum of a zero-tail window: both travel, and both
// still fail their sums after the hand-back.
func TestCustodyShipsNoSealedZeroTail(t *testing.T) {
	ctx := context.Background()
	inner, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(1 << 14)
	dicts := skewDicts(t, 8, 1, nil)
	rig := newRigOn(t, transport.Observe(inner, nil, rec), dicts, 4, 2, 2, 2, noRemote, func(c *Config) {
		c.BufferSize = 4 << 10
		c.IncrementalCache = true
	})
	c, plan := rig.ckpt, rig.ckpt.Plan()
	rep, err := c.Save(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}
	node := plan.DataNodes[0]
	chunk, window := plan.ChunkOfNode[node], c.cfg.BufferSize
	windows := c.numBuffers(rep.PacketBytes)
	var tailed []string // segments with a zero tail
	for s, key := range c.lay.keys.segment[chunk] {
		if chunkWindows(c, dicts, 0, s, chunk) < windows {
			tailed = append(tailed, key)
		}
	}
	if len(tailed) < 2 {
		t.Fatalf("%d segments of node %d have a zero tail, want 2", len(tailed), node)
	}
	last := windows - 1
	if err := rig.clus.Corrupt(node, tailed[0], last*window); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Corrupt(node, tailed[1], rep.PacketBytes+last*cluster.SumLen); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	stored := 0
	for _, key := range rig.clus.Keys(node) {
		blob, err := rig.clus.View(node, key)
		if err != nil {
			t.Fatal(err)
		}
		before[key] = bytes.Clone(blob)
		stored += len(blob)
	}
	rec.Drain()
	drep, err := c.DrainNode(ctx, node)
	if err != nil || !drep.Completed || drep.BytesMoved != int64(stored) {
		t.Fatalf("drain: %+v, %v; want %d stored bytes moved", drep, err, stored)
	}
	wire := 0
	for _, ev := range rec.Drain() {
		if ev.Type == flight.EvSend && strings.HasPrefix(ev.Tag, "cu/") {
			wire += int(ev.Bytes)
		}
	}
	if wire >= stored {
		t.Errorf("the custody stream carried %d bytes for %d stored: no zero tail was left behind", wire, stored)
	}
	replaceNode(t, rig, node)
	join, err := c.RepairNode(ctx, node)
	if err != nil || !join.Restored || join.BytesMoved != int64(stored) {
		t.Fatalf("join: %+v, %v; want the custodian's %d bytes back", join, err, stored)
	}
	for key, blob := range before {
		got, err := rig.clus.View(node, key)
		if err != nil || !bytes.Equal(got, blob) {
			t.Errorf("%s came back different (%v)", key, err)
		}
	}
	for _, key := range tailed[:2] {
		if _, err := c.fetch(node, key); !errors.Is(err, cluster.ErrChecksum) {
			t.Errorf("%s reads %v after the hand-back, want a checksum mismatch", key, err)
		}
	}
}

// TestCustodyMessageParses round-trips custody messages and rejects ones
// that do not parse or whose footer does not frame their payload length.
func TestCustodyMessageParses(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, noRemote, func(c *Config) { c.BufferSize = 64 })
	c := rig.ckpt
	blob := cluster.NewBlob(160, 64) // three windows, the last two zero
	blob[3] = 7
	cluster.SealWindows(blob, 64, 0, len(blob))
	framed := blob[:cluster.FramedLen(len(blob), 64)]
	for _, in := range [][]byte{nil, framed, []byte("not framed")} {
		msg := c.packCustody(in)
		got, err := c.unpackCustody(msg)
		if err != nil || !bytes.Equal(got, in) || (in == nil) != (got == nil) {
			t.Errorf("round trip of %x: %x, %v", in, got, err)
		}
		if in != nil && len(msg) >= len(in) && bytes.Equal(in, framed) {
			t.Errorf("a blob of %d bytes with a sealed zero tail travels in %d", len(in), len(msg))
		}
	}
	good := c.packCustody(framed)
	for _, msg := range [][]byte{
		{},
		{2},
		{1},
		{1, 0x80},
		{1, 160},
		{1, 160, 161},
		{1, 160, 64, 0},
		{1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0},
		good[:len(good)-1],
	} {
		if got, err := c.unpackCustody(msg); err == nil {
			t.Errorf("message %x parsed as %x", msg, got)
		}
	}
}
