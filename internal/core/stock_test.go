package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// A replaced machine arrives with its chunk's memory: the fence that swaps it
// in stocks its spare stack, and the repair lands every rebuilt window in
// those blobs. These tests pin what the repair takes, that nothing stale on a
// stack reaches a segment, and that a save and a repair may take from one
// stack at once.

// replaceNode fails node and swaps in a fresh machine behind the save fence,
// the way the root ReplaceNode does, and checks the stock it arrives with.
func replaceNode(t *testing.T, rig *testRig, node int) {
	t.Helper()
	if err := rig.clus.Fail(node); err != nil {
		t.Fatal(err)
	}
	err := rig.ckpt.WithSaveFence(context.Background(), node, func() error { return rig.clus.Replace(node) })
	if err != nil {
		t.Fatal(err)
	}
	checkStock(t, rig, node)
}

// spareCount is the number of blobs on node's spare stack.
func spareCount(c *Checkpointer, node int) int {
	c.spareMu.Lock()
	defer c.spareMu.Unlock()
	return len(c.spares[node])
}

// scribbleSpares overwrites every blob on every spare stack, footer room
// included, with 0xA5 and returns how many it wrote.
func scribbleSpares(c *Checkpointer) int {
	c.spareMu.Lock()
	defer c.spareMu.Unlock()
	n := 0
	for _, stack := range c.spares {
		for _, blob := range stack {
			blob = blob[:cap(blob)]
			for i := range blob {
				blob[i] = 0xA5
			}
			n++
		}
	}
	return n
}

// checkSums reads every blob in host memory through its checksum footer:
// every window sum verifies.
func checkSums(t *testing.T, rig *testRig) {
	t.Helper()
	for node := 0; node < rig.topo.Nodes(); node++ {
		for _, key := range rig.clus.Keys(node) {
			if _, err := rig.ckpt.fetch(node, key); err != nil {
				t.Errorf("node %d %s: %v", node, key, err)
			}
		}
	}
}

// TestRepairTakesStockedBlobs: after a data machine and a parity machine are
// replaced, each one's PrefetchChunk rebuilds its whole chunk into the blobs
// the fence stocked, so it allocates less than one packet, and empties the
// stack. Allocation is counted, not timed.
func TestRepairTakesStockedBlobs(t *testing.T) {
	var probe [1]byte
	if retire(probe[:]); probe[0] != 0 {
		t.Skip("the race detector drops pooled buffers at random: allocation is not a function of the code under test")
	}
	// No collections and one P, as in TestSteadyStateSaveAllocatesNoSegments:
	// a pooled buffer a cycle dropped would be allocated again in the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	rig := newRig(t, 4, 2, 2, 2, noRemote)
	contents := stampVersion(rig.dicts, 2)
	for _, dicts := range [][]*statedict.StateDict{rig.dicts, contents} {
		if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
			t.Fatal(err)
		}
	}
	plan := rig.ckpt.Plan()
	victims := []int{plan.DataNodes[0], plan.ParityNodes[0]}
	for _, node := range victims {
		replaceNode(t, rig, node)
	}
	packet := uint64(rig.ckpt.packet.Load())
	for _, node := range victims {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := rig.ckpt.PrefetchChunk(ctx, node)
		runtime.ReadMemStats(&after)
		if err != nil || rep.Segments != plan.Span() {
			t.Fatalf("node %d prefetch: %+v, %v; want %d segments rebuilt", node, rep, err, plan.Span())
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got >= packet {
			t.Errorf("node %d's repair allocated %d bytes, want under one %d-byte packet", node, got, packet)
		}
		t.Logf("node %d's repair of %d segments allocated %d bytes (packet %d)", node, rep.Segments, got, packet)
		if n := spareCount(rig.ckpt, node); n != 0 {
			t.Errorf("node %d's repair left %d of its stocked blobs on the stack", node, n)
		}
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil || len(rep.MissingChunks) != 0 {
		t.Fatalf("load after both prefetches: %+v, %v; want nothing rebuilt", rep, err)
	}
	dictsEqual(t, contents, got)
	verifyClean(t, rig)
}

// TestStaleStockNeverLands: every spare on every stack is scribbled with 0xA5
// before a repair — the stock of two replaced machines, and the steady-state
// spares a live machine's corrupt chunk is rebuilt into. The restored state
// is byte-exact, parity matches data and every window sum verifies: the
// landing writes every byte of each blob it takes and reads none. Under the
// race detector retire already poisons every spare with 0xDB; this runs the
// same check in every build.
func TestStaleStockNeverLands(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct {
		name              string
		nodes, gpus, k, m int
	}{{"k2m2", 4, 2, 2, 2}, {"k4m4", 8, 1, 4, 4}} {
		t.Run(shape.name, func(t *testing.T) {
			rig := newRig(t, shape.nodes, shape.gpus, shape.k, shape.m, noRemote)
			contents := stampVersion(rig.dicts, 2)
			for _, dicts := range [][]*statedict.StateDict{rig.dicts, contents} { // the second commit fills the spare stacks
				if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
					t.Fatal(err)
				}
			}
			plan := rig.ckpt.Plan()
			for _, node := range []int{plan.DataNodes[0], plan.ParityNodes[0]} {
				replaceNode(t, rig, node)
			}
			if scribbleSpares(rig.ckpt) == 0 {
				t.Fatal("no spare to scribble")
			}
			got, rep, err := rig.ckpt.Load(ctx)
			if err != nil || len(rep.MissingChunks) != 2 {
				t.Fatalf("load onto the replaced machines: %+v, %v; want 2 chunks rebuilt", rep, err)
			}
			dictsEqual(t, contents, got)
			verifyClean(t, rig)
			checkSums(t, rig)

			// A live machine's corrupt chunk is rebuilt into its own
			// steady-state spares.
			node := plan.DataNodes[len(plan.DataNodes)-1]
			spares := spareCount(rig.ckpt, node)
			if spares < plan.Span() {
				t.Fatalf("node %d holds %d spares, fewer than its %d segments", node, spares, plan.Span())
			}
			if err := rig.ckpt.CorruptChunkByte(node); err != nil {
				t.Fatal(err)
			}
			scribbleSpares(rig.ckpt)
			got, rep, err = rig.ckpt.Load(ctx)
			if err != nil || len(rep.CorruptedChunks) != 1 {
				t.Fatalf("load over a corrupt chunk: %+v, %v; want it rebuilt", rep, err)
			}
			if n := spareCount(rig.ckpt, node); n != spares-plan.Span() {
				t.Errorf("the corruption repair took %d spares, want the chunk's %d", spares-n, plan.Span())
			}
			dictsEqual(t, contents, got)
			verifyClean(t, rig)
			checkSums(t, rig)
		})
	}
}

// holdNet holds the first receive on one node's rebuild stream (rc/) until
// release is closed, with mu locked for as long as it holds: a test that sees
// mu.TryLock fail knows the repair got there — past taking its blobs — and
// has not synchronized with it, so the race detector still sees whatever the
// test does next as concurrent with the repair.
type holdNet struct {
	transport.Network
	node    int
	once    sync.Once
	mu      sync.Mutex
	release chan struct{}
}

func (n *holdNet) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(node)
	if node != n.node {
		return ep, err
	}
	return &holdEndpoint{Endpoint: ep, net: n}, err
}

type holdEndpoint struct {
	transport.Endpoint
	net *holdNet
}

func (e *holdEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	if strings.HasPrefix(tag, "rc/") {
		e.net.once.Do(func() {
			e.net.mu.Lock()
			<-e.net.release
			e.net.mu.Unlock()
		})
	}
	return e.Endpoint.Recv(ctx, from, tag)
}

func (e *holdEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	return transport.SendOwned(ctx, e.Endpoint, to, tag, payload)
}

// TestSaveAsyncBesideRepairingLoad: the spare stack's two takers at once. A
// repairing Load holds the restore slot, not the save slot, so a SaveAsync
// starts while it rebuilds a just-replaced machine's chunk: the snapshot
// packs every worker in place off the node's stack (IncrementalCache), which
// the Load took its stock from, and the drain assembles the rest off it. The
// Load returns the committed version, the save commits after it, and the
// next Load returns the save's. Under the race detector a stack taken from
// without its lock fails here; the detector's history is bounded and it
// misses such a race in about one run of five, so the scenario runs on five
// fresh rigs over a small model.
func TestSaveAsyncBesideRepairingLoad(t *testing.T) {
	topo, err := parallel.NewTopology(4, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	buildOpt := model.NewBuildOptions()
	buildOpt.Scale, buildOpt.Seed = 256, 1234
	dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		saveBesideRepair(t, dicts)
	}
}

func saveBesideRepair(t *testing.T, dicts []*statedict.StateDict) {
	t.Helper()
	ctx := context.Background()
	inner, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	net := &holdNet{Network: inner, release: make(chan struct{})}
	rig := newRigOn(t, net, dicts, 4, 2, 2, 2, noRemote, func(c *Config) { c.IncrementalCache = true })
	contents, next := stampVersion(dicts, 2), stampVersion(dicts, 3)
	for _, dicts := range [][]*statedict.StateDict{dicts, contents} {
		if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
			t.Fatal(err)
		}
	}
	net.node = rig.ckpt.Plan().DataNodes[0]
	replaceNode(t, rig, net.node)

	type loaded struct {
		dicts []*statedict.StateDict
		rep   *LoadReport
		err   error
	}
	done := make(chan loaded, 1)
	go func() {
		got, rep, err := rig.ckpt.Load(ctx)
		done <- loaded{got, rep, err}
	}()
	for net.mu.TryLock() { // the repair has not reached its first rebuilt window
		net.mu.Unlock()
		select {
		case l := <-done:
			t.Fatalf("the repair ended before its first rebuilt window: %+v, %v", l.rep, l.err)
		default:
		}
		runtime.Gosched()
	}
	h, err := rig.ckpt.SaveAsync(ctx, next)
	if err != nil {
		close(net.release)
		t.Fatal(err)
	}
	// A queued writer turns new readers away: that is the drain at its
	// commit, waiting for the Load.
	for rig.ckpt.commitMu.TryRLock() {
		rig.ckpt.commitMu.RUnlock()
		select {
		case <-h.Done():
			close(net.release)
			t.Fatalf("the save ended beside the repair: %v", h.Err())
		default:
		}
		runtime.Gosched()
	}
	close(net.release)
	l := <-done
	if l.err != nil || l.rep.Version != 2 || len(l.rep.MissingChunks) != 1 {
		t.Fatalf("repairing load beside a save: %+v, %v; want version 2, one chunk rebuilt", l.rep, l.err)
	}
	dictsEqual(t, contents, l.dicts)
	if rep, err := h.Wait(ctx); err != nil || rep.Version != 3 {
		t.Fatalf("save beside the repair: %+v, %v", rep, err)
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil || rep.Version != 3 || len(rep.MissingChunks) != 0 {
		t.Fatalf("load after both: %+v, %v; want version 3, nothing rebuilt", rep, err)
	}
	dictsEqual(t, next, got)
	verifyClean(t, rig)
	checkSums(t, rig)
}
