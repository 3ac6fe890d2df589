package core

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"eccheck/internal/obs/flight"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
	"eccheck/internal/transport"
)

// wideRig is a cluster of one-worker machines over state dicts of a single
// perRank-byte tensor each: layouts wider than any model in the zoo shards
// to, where the payload only has to be distinct per rank. A non-nil rec
// records every transport send and receive.
func wideRig(t *testing.T, nodes, k, m, perRank int, rec *flight.Recorder, opts ...func(*Config)) *testRig {
	t.Helper()
	return sizedWideRig(t, nodes, k, m, func(int) int { return perRank }, rec, opts...)
}

// sizedWideRig is wideRig with rank r's tensor size(r) bytes.
func sizedWideRig(t *testing.T, nodes, k, m int, size func(rank int) int, rec *flight.Recorder, opts ...func(*Config)) *testRig {
	t.Helper()
	dicts := make([]*statedict.StateDict, nodes)
	for rank := range dicts {
		tn, err := tensor.New(tensor.Float32, size(rank)/4)
		if err != nil {
			t.Fatal(err)
		}
		tn.FillPattern(uint64(rank + 1))
		sd := statedict.New()
		sd.SetMeta("iteration", statedict.Int(1))
		if err := sd.SetTensor("payload", tn); err != nil {
			t.Fatal(err)
		}
		dicts[rank] = sd
	}
	net, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defaults := func(c *Config) { c.BufferSize = 4 << 10 }
	return newRigOn(t, transport.Observe(net, nil, rec), dicts, nodes, 1, k, m, append([]func(*Config){defaults, noRemote}, opts...)...)
}

// loseDataNodes fails and replaces every data machine: m per code group when
// k = m, the worst loss the layout survives.
func loseDataNodes(t *testing.T, rig *testRig) {
	t.Helper()
	for _, node := range rig.ckpt.Plan().DataNodes {
		loseNode(t, rig, node)
	}
}

// stream is one (tag, sender, receiver) mailbox of the transport.
type stream struct {
	tag      string
	from, to int
}

// sendsByStream drains rec and counts its send events by stream, and the
// tag families (a tag up to its first '/') they fall in.
func sendsByStream(rec *flight.Recorder) (map[stream]int, map[string]bool) {
	sends, families := map[stream]int{}, map[string]bool{}
	for _, ev := range rec.Drain() {
		if ev.Type != flight.EvSend {
			continue
		}
		sends[stream{ev.Tag, ev.Node, ev.Peer}]++
		family, _, _ := strings.Cut(ev.Tag, "/")
		families[family] = true
	}
	return sends, families
}

// familySends sums the sends whose tag starts with prefix.
func familySends(sends map[stream]int, prefix string) int {
	total := 0
	for st, n := range sends {
		if strings.HasPrefix(st.tag, prefix) {
			total += n
		}
	}
	return total
}

// TestStreamTopology pins which machine sends what to whom, from the
// transport's send events. A worker's small components go to every other
// machine of its code group as one message, and come back to a machine that
// lost them as one message per rank. Every XOR partial goes straight to its
// reduction's root, one message per window its source machine ships — on the
// 20-machine 10+10 layout too, where every reduction has ten source
// machines. That layout also runs a full round, a delta round and a
// worst-case decode, byte for byte. On a 16-machine 8+8 layout whose ranks
// hold payloads of different sizes, a full round's data (pd/), partial (xr/)
// and parity (pp/) streams each carry exactly the payload windows of the
// ship-sets they follow: never a window of a packet's zero tail; and a Load
// that loses every data machine rebuilds them from contributions (rc/) of
// the windows that may hold payload only.
func TestStreamTopology(t *testing.T) {
	ctx := context.Background()
	t.Run("4x2", func(t *testing.T) {
		rec := flight.New(1 << 14)
		inner, err := transport.NewMemory(4)
		if err != nil {
			t.Fatal(err)
		}
		rig := newRigOn(t, transport.Observe(inner, nil, rec), nil, 4, 2, 2, 2, noRemote)
		if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
			t.Fatal(err)
		}
		tags, world := rig.ckpt.roundTags(), rig.topo.World()
		sends, families := sendsByStream(rec)
		if want := map[string]bool{"sm": true, "xr": true, "pp": true, "pd": true}; !maps.Equal(families, want) {
			t.Errorf("save sent under tag families %v, want %v", families, want)
		}
		for w := 0; w < world; w++ {
			for peer := 0; peer < 4; peer++ {
				if n := sends[stream{tags.small[w], w / 2, peer}]; peer != w/2 && n != 1 {
					t.Errorf("rank %d's small components went to node %d %d times, want once", w, peer, n)
				}
			}
		}
		if got, want := familySends(sends, "sm/"), world*3; got != want {
			t.Errorf("%d small-component sends, want %d: one per (worker, other machine)", got, want)
		}
		for node := 0; node < 4; node++ {
			blobs := 0
			for _, key := range rig.clus.Keys(node) {
				if strings.HasPrefix(key, "small/") {
					blobs++
				}
			}
			if blobs != world {
				t.Errorf("node %d stores %d small-component blobs, want one per rank (%d)", node, blobs, world)
			}
		}

		lost := []int{0, 3}
		for _, node := range lost {
			loseNode(t, rig, node)
		}
		got, _, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatal(err)
		}
		dictsEqual(t, rig.dicts, got)
		sends, families = sendsByStream(rec)
		if want := map[string]bool{"rc": true, "rsm": true, "rp": true}; !maps.Equal(families, want) {
			t.Errorf("load sent under tag families %v, want %v", families, want)
		}
		for w := 0; w < world; w++ {
			for _, node := range lost {
				if n := sends[stream{tags.resync[w], 1, node}]; n != 1 {
					t.Errorf("rank %d's small components went back to node %d %d times, want once", w, node, n)
				}
			}
		}
		if got, want := familySends(sends, "rsm/"), world*len(lost); got != want {
			t.Errorf("%d re-broadcast sends, want %d: one per (rank, machine that lost its smalls)", got, want)
		}
	})
	t.Run("20x1", func(t *testing.T) {
		rec := flight.New(1 << 16)
		rig := wideRig(t, 20, 10, 10, 32<<10, rec, func(c *Config) { c.IncrementalCache = true })
		lay := rig.ckpt.lay
		// partials checks the round's xr/ sends: each goes from a source
		// machine of its reduction to the reduction's root, as many as the
		// windows shipped(w) says its one worker ships.
		partials := func(round string, shipped func(w int) int) {
			t.Helper()
			sends, _ := sendsByStream(rec)
			tags := rig.ckpt.roundTags()
			want := map[stream]int{}
			rooted := 0
			for node, st := range lay.streams {
				for _, rt := range st.roots {
					rooted++
					if root := lay.plan.Reductions[rt.red].Target / lay.plan.Topo.GPUsPerNode(); root != node {
						t.Fatalf("reduction %d rooted on machine %d, its target's machine is %d", rt.red, node, root)
					}
					if n := len(rt.partials) + 1; n != 10 {
						t.Fatalf("reduction %d has %d source machines, want 10", rt.red, n)
					}
					for _, in := range rt.partials {
						if w := in.workers[0]; len(in.workers) != 1 || in.from != w || !slices.Contains(lay.plan.Reductions[rt.red].Workers, w) {
							t.Fatalf("reduction %d: partial stream from machine %d follows workers %v, want its one worker of the reduction", rt.red, in.from, in.workers)
						}
						if n := shipped(in.workers[0]); n > 0 {
							want[stream{tags.xor[rt.red], in.from, node}] = n
						}
					}
				}
			}
			if rooted != len(lay.plan.Reductions) {
				t.Fatalf("%d reductions rooted, want %d: each on one machine", rooted, len(lay.plan.Reductions))
			}
			got := map[stream]int{}
			for st, n := range sends {
				if strings.HasPrefix(st.tag, "xr/") {
					got[st] = n
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s round: xr/ sends by (tag, from, to) %v, want %v", round, got, want)
			}
		}

		srep, err := rig.ckpt.Save(ctx, rig.dicts)
		if err != nil {
			t.Fatal(err)
		}
		windows := rig.ckpt.numBuffers(srep.PacketBytes)
		partials("full", func(int) int { return windows })
		changed := []int{1, 8, 17}
		next := mutateSomeTensors(rig.dicts, changed, 2)
		rep, err := rig.ckpt.SaveIncremental(ctx, next)
		if err != nil {
			t.Fatal(err)
		}
		// The mutation flips a byte of each changed rank's first window.
		if rep.Full || rep.ChangedBuffers != len(changed) {
			t.Fatalf("delta round: full=%v, changed %d of %d buffers; want %d",
				rep.Full, rep.ChangedBuffers, rep.TotalBuffers, len(changed))
		}
		partials("delta", func(w int) int {
			if slices.Contains(changed, w) {
				return 1
			}
			return 0
		})
		verifyClean(t, rig)

		loseDataNodes(t, rig)
		got, lrep, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if lrep.Version != 2 {
			t.Errorf("recovered version %d, want 2", lrep.Version)
		}
		dictsEqual(t, next, got)
	})
	t.Run("16x1 skewed", func(t *testing.T) {
		// wide_small's proportions on 4 KiB windows: rank 0 fills eight
		// windows, most ranks four and a bit, rank 9 one.
		size := func(rank int) int {
			switch rank {
			case 0:
				return 32624
			case 9:
				return 1000
			}
			return 17604
		}
		rec := flight.New(1 << 16)
		rig := sizedWideRig(t, 16, 8, 8, size, rec)
		rep, err := rig.ckpt.Save(ctx, rig.dicts)
		if err != nil {
			t.Fatal(err)
		}
		c, plan, tags := rig.ckpt, rig.ckpt.Plan(), rig.ckpt.roundTags()
		payload := func(w int) int { return c.numBuffers(rig.dicts[w].TensorBytes()) }
		if windows := c.numBuffers(rep.PacketBytes); payload(1) >= windows || payload(0) != windows {
			t.Fatalf("rank 1 ships %d and rank 0 %d of %d windows: not a skewed round", payload(1), payload(0), windows)
		}
		want := map[stream]int{}
		for w := range rig.dicts {
			if owner := plan.ChunkOwner(plan.GroupOfRank(w), plan.DataGroupOf[w]); owner != w {
				want[stream{tags.data[w], w, owner}] = payload(w)
			}
		}
		for ri, r := range plan.Reductions {
			root, most := r.Target, 0
			for _, w := range r.Workers {
				most = max(most, payload(w))
				if w != root {
					want[stream{tags.xor[ri], w, root}] = payload(w)
				}
			}
			if owner := plan.ChunkOwner(r.CodeGroup, c.cfg.K+r.ParityIndex); owner != root {
				want[stream{tags.parity[ri], root, owner}] = most
			}
		}
		sends, _ := sendsByStream(rec)
		got := map[stream]int{}
		for st, n := range sends {
			if !strings.HasPrefix(st.tag, "sm/") {
				got[st] = n
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("pd/, xr/ and pp/ sends by (tag, from, to) %v, want %v", got, want)
		}
		verifyClean(t, rig)
		loseDataNodes(t, rig)
		restored, _, err := c.Load(ctx)
		if err != nil {
			t.Fatal(err)
		}
		dictsEqual(t, rig.dicts, restored)
		// The rebuild's contributions (rc/) go from each parity machine to
		// each data machine, one per window in which both segments may hold
		// payload.
		parity := make([]int, c.cfg.M)
		data := make([]int, c.cfg.K)
		for i := range parity {
			parity[i] = c.cfg.K + i
		}
		for j := range data {
			data[j] = j
		}
		want = rebuildSends(c, rig.dicts, 0, data, parity)
		sends, _ = sendsByStream(rec)
		got = map[stream]int{}
		for st, n := range sends {
			if strings.HasPrefix(st.tag, "rc/") {
				got[st] = n
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("rc/ sends by (tag, from, to) %v, want %v", got, want)
		}
		if all := plan.Span() * c.cfg.K * c.cfg.M * c.numBuffers(rep.PacketBytes); sumSends(want) >= all {
			t.Errorf("%d rc/ sends of %d: the rebuild moved the zero tail", sumSends(want), all)
		}
	})
}

// TestWideLayoutsRecoverBytes saves on 64 machines, as one flat 32+32 code
// and as eight 4+4 groups, loses m machines in every group and requires the
// recovered state to be byte-identical.
func TestWideLayoutsRecoverBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("64-machine rounds")
	}
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"flat 32+32", 32, 32},
		{"8 x (4+4)", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := wideRig(t, 64, tc.k, tc.m, 16<<10, nil)
			ctx := context.Background()
			if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
				t.Fatal(err)
			}
			if got, want := rig.ckpt.Plan().Groups(), 64/(tc.k+tc.m); got != want {
				t.Fatalf("layout has %d code groups, want %d", got, want)
			}
			loseDataNodes(t, rig)
			got, lrep, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(lrep.MissingChunks) != 32 {
				t.Errorf("rebuilt %d chunks, want 32 (m in every group)", len(lrep.MissingChunks))
			}
			dictsEqual(t, rig.dicts, got)
			verifyClean(t, rig)
		})
	}
}
