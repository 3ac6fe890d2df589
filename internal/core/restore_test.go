package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccheck/internal/bufpool"
	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/ecpool"
	"eccheck/internal/erasure"
	"eccheck/internal/gf"
	"eccheck/internal/model"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/obs/health"
	"eccheck/internal/parallel"
	"eccheck/internal/transport"
)

// newWrappedRig is newRig with a HostStore middleware, for tests that
// count or chaos-inject host-memory reads.
func newWrappedRig(t *testing.T, nodes, gpus, k, m int, wrap func(HostStore) HostStore, opts ...func(*Config)) (*testRig, *cluster.Cluster) {
	t.Helper()
	topo, err := parallel.NewTopology(nodes, gpus, gpus, nodes)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatal(err)
	}
	clus, err := cluster.New(nodes, gpus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:               topo,
		K:                  k,
		M:                  m,
		BufferSize:         64 << 10,
		RemotePersistEvery: 2,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	remote := rigRemote(t, &cfg)
	ckpt, err := New(cfg, net, wrap(clus), remote)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ckpt.Close()
		_ = net.Close()
	})
	buildOpt := model.NewBuildOptions()
	buildOpt.Scale = 32
	buildOpt.Seed = 1234
	buildOpt.Iteration = 77
	dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{topo: topo, net: net, clus: clus, remote: remote, ckpt: ckpt, dicts: dicts}, clus
}

// TestLoadFromRemoteFreshProcess is the regression test for the
// catastrophic-restore bug: version discovery must come from the remote
// store's catalog, not from the in-memory version counter, because the
// process that needs this path most is a freshly restarted one whose
// counter is zero.
func TestLoadFromRemoteFreshProcess(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2) // RemotePersistEvery 2: v2 is persisted
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
			t.Fatal(err)
		}
	}

	// A brand-new fleet: fresh topology, transport, cluster and
	// checkpointer (version counter 0) — only the remote store survives.
	topo, err := parallel.NewTopology(4, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	net2, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net2.Close() }()
	clus2, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ckpt2, err := New(Config{Topo: topo, K: 2, M: 2, BufferSize: 64 << 10}, net2, clus2, rig.remote)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	if got := ckpt2.Version(); got != 0 {
		t.Fatalf("fresh process version = %d, want 0", got)
	}

	got, err := ckpt2.LoadFromRemote(ctx, 0)
	if err != nil {
		t.Fatalf("LoadFromRemote from fresh process: %v", err)
	}
	dictsEqual(t, rig.dicts, got)
}

// TestLoadFromRemoteIgnoresStrayKeys: version discovery reads only keys
// remoteKey writes. Objects that merely start like one — a trailing suffix,
// a sign, a padded rank — name no version, so LoadFromRemote(ctx, 0) returns
// the newest complete checkpoint beside them.
func TestLoadFromRemoteIgnoresStrayKeys(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) { c.RemotePersistEvery = 8 })
	ctx := context.Background()
	for i := 1; i <= 8; i++ {
		if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, stray := range []string{"eccheck/v9/rank0.partial", "eccheck/v+10/rank0", "eccheck/v11/rank00", "eccheck/v012/rank0"} {
		if _, err := rig.remote.Put(ctx, 0, stray, []byte("not a checkpoint")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rig.ckpt.LoadFromRemote(ctx, 0)
	if err != nil {
		t.Fatalf("LoadFromRemote beside stray keys: %v", err)
	}
	dictsEqual(t, stampVersion(rig.dicts, 8), got)
}

// TestLoadFromRemoteSkipsTornVersion: a persist stopped at rank 3 leaves
// the newest version's rank 0 behind without the rest. Discovery must return
// the newest complete version, v2 byte for byte, not the torn v4.
func TestLoadFromRemoteSkipsTornVersion(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2) // RemotePersistEvery 2: v2 and v4 are persisted
	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, i)); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 3; rank < len(rig.dicts); rank++ {
		rig.remote.Delete(remoteKey(4, rank))
	}
	got, err := rig.ckpt.LoadFromRemote(ctx, 0)
	if err != nil {
		t.Fatalf("LoadFromRemote beside a torn v4: %v", err)
	}
	dictsEqual(t, stampVersion(rig.dicts, 2), got)
}

func TestLoadFromRemoteEmptyStore(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.LoadFromRemote(context.Background(), 0); err == nil {
		t.Fatal("empty remote store: want error")
	}
}

// TestLoadFromRemotePoolOverlapsGets is the test of the fixed restore pool,
// counted rather than timed: under a 2 ms remote stall the store's own
// flight record of each Get (call to return, stall included) must show more
// than one and at most restoreWorkers Gets in flight at once.
func TestLoadFromRemotePoolOverlapsGets(t *testing.T) {
	rig := newRig(t, 4, 4, 2, 2) // 16 ranks: twice the pool
	ctx := context.Background()
	for i := 0; i < 2; i++ { // RemotePersistEvery 2: v2 is persisted
		if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
			t.Fatal(err)
		}
	}
	rec := flight.New(1 << 10)
	rig.remote.SetFlight(rec)
	rig.remote.SetStall(2 * time.Millisecond)
	got, err := rig.ckpt.LoadFromRemote(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, rig.dicts, got)

	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, ev := range rec.Snapshot() {
		if ev.Type == flight.EvRemote && ev.Op == "get" {
			edges = append(edges, edge{ev.TS, +1}, edge{ev.TS + ev.Dur, -1})
		}
	}
	if len(edges) < 2*len(rig.dicts) {
		t.Fatalf("%d Get edges recorded for %d ranks", len(edges), len(rig.dicts))
	}
	slices.SortFunc(edges, func(a, b edge) int { // a Get that ends when another starts does not overlap it
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta))
	})
	inFlight, most := 0, 0
	for _, e := range edges {
		inFlight += e.delta
		most = max(most, inFlight)
	}
	if most <= 1 || most > restoreWorkers {
		t.Errorf("remote restore had %d Gets in flight at once, want 2..%d", most, restoreWorkers)
	}
}

func TestLoadPartialValidationAndFastPath(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, _, err := rig.ckpt.LoadPartial(ctx, nil); err == nil {
		t.Error("empty rank set: want error")
	}
	if _, _, err := rig.ckpt.LoadPartial(ctx, []int{8}); err == nil {
		t.Error("out-of-range rank: want error")
	}
	if _, _, err := rig.ckpt.LoadPartial(ctx, []int{0}); err == nil {
		t.Error("no checkpoint yet: want error")
	}
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	_, full, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates dedupe; the returned map holds exactly the requested set.
	got, rep, err := rig.ckpt.LoadPartial(ctx, []int{3, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("returned %d ranks, want 2", len(got))
	}
	for _, rank := range []int{0, 3} {
		if got[rank] == nil || !got[rank].Equal(rig.dicts[rank]) {
			t.Errorf("rank %d: recovered dict differs", rank)
		}
	}
	if rep.Workflow != "partial" {
		t.Errorf("workflow = %q, want partial (all nodes intact)", rep.Workflow)
	}
	if rep.Version != 1 {
		t.Errorf("version = %d, want 1", rep.Version)
	}
	if rep.BytesFetched <= 0 || full.BytesFetched <= 0 {
		t.Fatalf("byte accounting missing: partial %d, full %d", rep.BytesFetched, full.BytesFetched)
	}
	// The lazy path's whole point: strictly fewer bytes than a full load.
	if rep.BytesFetched >= full.BytesFetched {
		t.Errorf("partial fetched %d bytes, full %d — lazy path is not lazy",
			rep.BytesFetched, full.BytesFetched)
	}
}

// chaosStore lets a test kill a node's host memory mid-round: once armed,
// every read except the manifest fails on the victim, which is exactly
// what a node dying between the manifest scan and the packet fetch looks
// like to LoadPartial.
type chaosStore struct {
	HostStore
	mu     sync.Mutex
	victim int
	armed  bool
}

func (s *chaosStore) arm(victim int) {
	s.mu.Lock()
	s.victim = victim
	s.armed = true
	s.mu.Unlock()
}

func (s *chaosStore) View(node int, key string) ([]byte, error) {
	s.mu.Lock()
	armed, victim := s.armed, s.victim
	s.mu.Unlock()
	if armed && node == victim && key != keyManifest() {
		return nil, fmt.Errorf("chaos: node %d host memory lost", node)
	}
	return s.HostStore.View(node, key)
}

func TestLoadPartialDegradesToDecodeUnderChaos(t *testing.T) {
	chaos := &chaosStore{}
	rig, _ := newWrappedRig(t, 4, 2, 2, 2, func(hs HostStore) HostStore {
		chaos.HostStore = hs
		return chaos
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	// Kill the node owning rank 0's data chunk after the scan would have
	// seen it intact: the direct fetch fails and the round must decode the
	// segment from the k surviving chunks instead of failing.
	lay := rig.ckpt.lay
	chunk := lay.plan.DataGroupOf[0]
	owner := lay.plan.ChunkOwner(0, chunk)
	chaos.arm(owner)

	got, rep, err := rig.ckpt.LoadPartial(ctx, []int{0})
	if err != nil {
		t.Fatalf("partial load with dead owner: %v", err)
	}
	if !got[0].Equal(rig.dicts[0]) {
		t.Error("decoded rank 0 differs from checkpointed state")
	}
	if rep.Workflow != "partial-decode" {
		t.Errorf("workflow = %q, want partial-decode", rep.Workflow)
	}
	if len(rep.MissingChunks) != 1 || rep.MissingChunks[0] != chunk {
		t.Errorf("missing chunks = %v, want [%d]", rep.MissingChunks, chunk)
	}
}

func TestLoadPartialBudgetExceeded(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) {
		c.LoadBudget = time.Nanosecond
		c.Flight = flight.New(512)
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	got, rep, err := rig.ckpt.LoadPartial(ctx, []int{1})
	if err != nil {
		t.Fatalf("budget overrun must not fail the restore: %v", err)
	}
	if !got[1].Equal(rig.dicts[1]) {
		t.Error("recovered rank 1 differs")
	}
	if rep.Budget != time.Nanosecond || !rep.DeadlineExceeded {
		t.Errorf("budget verdict = {budget %v, exceeded %v}, want {1ns, true}", rep.Budget, rep.DeadlineExceeded)
	}
	if len(rep.Postmortem) == 0 {
		t.Error("budget miss must attach the flight-recorder tail")
	}
}

func TestLoadBudgetExceeded(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) {
		c.LoadBudget = time.Nanosecond
		c.Flight = flight.New(512)
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("budget overrun must not fail the restore: %v", err)
	}
	dictsEqual(t, rig.dicts, got)
	if !rep.DeadlineExceeded {
		t.Error("DeadlineExceeded = false, want true at a 1ns budget")
	}
	if len(rep.Postmortem) == 0 {
		t.Error("budget miss must attach the flight-recorder tail")
	}
	found := false
	for _, ev := range rep.Postmortem {
		if ev.Type == flight.EvBudget {
			found = true
		}
	}
	if !found {
		t.Error("postmortem tail does not contain the EvBudget event")
	}
}

func TestLoadWithinBudget(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) { c.LoadBudget = time.Hour })
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	_, rep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Budget != time.Hour || rep.DeadlineExceeded {
		t.Errorf("budget verdict = {budget %v, exceeded %v}, want {1h, false}", rep.Budget, rep.DeadlineExceeded)
	}
}

// TestLoadJoinsAllNodeErrors pins the multi-error drain: when several
// node goroutines fail, the joined error must attribute each of them, not
// just whichever hit the channel first.
func TestLoadJoinsAllNodeErrors(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.Save(context.Background(), rig.dicts); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every node's transport step fails immediately
	_, _, err := rig.ckpt.Load(ctx)
	if err == nil {
		t.Fatal("cancelled load: want error")
	}
	if n := strings.Count(err.Error(), "load:"); n < 2 {
		t.Errorf("joined error names %d failed nodes, want >= 2:\n%v", n, err)
	}
}

func TestPrefetchChunkWarmsReplacement(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	lay := rig.ckpt.lay
	victim := lay.plan.DataNodes[0]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.PrefetchChunk(ctx, victim); err == nil {
		t.Error("prefetch on a failed node: want error")
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}

	rep, err := rig.ckpt.PrefetchChunk(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	world := rig.topo.World()
	span := world / 2
	if rep.AlreadyIntact || rep.Segments != span || rep.SmallsCopied != world {
		t.Errorf("prefetch report = %+v, want %d segments and %d smalls", rep, span, world)
	}
	if rep.BytesFetched <= 0 {
		t.Error("prefetch byte accounting missing")
	}

	// The warmed node now serves the checkpoint: the next recovery is pure
	// replacement with nothing to rebuild on the critical path.
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "replacement" || len(lrep.MissingChunks) != 0 {
		t.Errorf("post-prefetch load = {workflow %q, missing %v}, want pure replacement",
			lrep.Workflow, lrep.MissingChunks)
	}
	dictsEqual(t, rig.dicts, got)

	// Idempotent: a second prefetch observes the intact chunk and writes
	// nothing.
	rep2, err := rig.ckpt.PrefetchChunk(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.AlreadyIntact || rep2.Segments != 0 {
		t.Errorf("second prefetch = %+v, want AlreadyIntact", rep2)
	}
}

// countingStore counts host-memory reads per (node, key).
type countingStore struct {
	HostStore
	mu     sync.Mutex
	counts map[string]int
}

func (s *countingStore) View(node int, key string) ([]byte, error) {
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[string]int)
	}
	s.counts[fmt.Sprintf("%d/%s", node, key)]++
	s.mu.Unlock()
	return s.HostStore.View(node, key)
}

func (s *countingStore) count(node int, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[fmt.Sprintf("%d/%s", node, key)]
}

func (s *countingStore) reset() {
	s.mu.Lock()
	s.counts = nil
	s.mu.Unlock()
}

// TestSmallRebroadcastFetchesOncePerRank pins the small-component reads of
// the re-broadcast source: with several peers needing the rebroadcast, the
// source reads each rank's blob once, in its deep scan, and serves the
// re-broadcast and its own reassembly from that verified view.
func TestSmallRebroadcastFetchesOncePerRank(t *testing.T) {
	counter := &countingStore{}
	rig, clus := newWrappedRig(t, 4, 2, 2, 2, func(hs HostStore) HostStore {
		counter.HostStore = hs
		return counter
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	// Two replacement nodes -> two rebroadcast peers. Pick the two parity
	// holders so the data chunks stay directly available.
	lay := rig.ckpt.lay
	for _, victim := range lay.plan.ParityNodes {
		if err := clus.Fail(victim); err != nil {
			t.Fatal(err)
		}
		if err := clus.Replace(victim); err != nil {
			t.Fatal(err)
		}
	}
	counter.reset()
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, rig.dicts, got)

	// Identify the rebroadcast source: the lowest intact node (the same
	// selection Load makes).
	source := -1
	for node := 0; node < 4 && source == -1; node++ {
		isVictim := false
		for _, v := range lay.plan.ParityNodes {
			if node == v {
				isVictim = true
			}
		}
		if !isVictim {
			source = node
		}
	}
	for rank := 0; rank < rig.topo.World(); rank++ {
		// The deep scan reads it once; the re-broadcast to each peer and the
		// source's own reassembly of its local ranks serve the view the scan
		// verified.
		if n := counter.count(source, lay.keys.small[rank]); n != 1 {
			t.Errorf("source node read rank %d small components %d times, want once: the scan's", rank, n)
		}
	}
}

// TestLoadPartialDecodesPerBufferSlice pins the decode geometry: the coding
// region is the BufferSize slice the save encoded, so a packet longer than
// one buffer must be decoded slice by slice. Decoding it as one region
// returns wrong tensors without any error as soon as a non-unit decode
// coefficient is involved — which losing several data chunks guarantees.
func TestLoadPartialDecodesPerBufferSlice(t *testing.T) {
	for _, tc := range []struct {
		name              string
		nodes, gpus, k, m int
		lose              int // data machines replaced before the restore
	}{
		{"k2m2 both data machines", 4, 2, 2, 2, 2},
		{"k8m8 two data machines", 16, 1, 8, 8, 2},
		{"k8m8 all data machines", 16, 1, 8, 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, tc.nodes, tc.gpus, tc.k, tc.m)
			ctx := context.Background()
			rep, err := rig.ckpt.Save(ctx, rig.dicts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PacketBytes <= rig.ckpt.cfg.BufferSize {
				t.Fatalf("packet of %d bytes fits one %d-byte buffer: the test cannot tell the geometries apart",
					rep.PacketBytes, rig.ckpt.cfg.BufferSize)
			}
			lay := rig.ckpt.lay
			var ranks []int
			for _, victim := range lay.plan.DataNodes[:tc.lose] {
				if err := rig.clus.Fail(victim); err != nil {
					t.Fatal(err)
				}
				if err := rig.clus.Replace(victim); err != nil {
					t.Fatal(err)
				}
				for rank, chunk := range lay.plan.DataGroupOf {
					if lay.plan.DataNodes[chunk] == victim {
						ranks = append(ranks, rank)
					}
				}
			}
			got, prep, err := rig.ckpt.LoadPartial(ctx, ranks)
			if err != nil {
				t.Fatal(err)
			}
			if prep.Workflow != "partial-decode" || len(prep.MissingChunks) != tc.lose {
				t.Errorf("report = {workflow %q, missing %v}, want partial-decode of %d chunks",
					prep.Workflow, prep.MissingChunks, tc.lose)
			}
			for _, rank := range ranks {
				if !got[rank].Equal(rig.dicts[rank]) {
					t.Errorf("rank %d: decoded state differs from the checkpoint", rank)
				}
			}
		})
	}
}

// TestManifestOfAnotherWindowIsAnErasure: every blob's checksum footer is
// framed at Config.BufferSize, and so is every coding window, so a manifest
// that records another window describes a checkpoint this checkpointer can
// only misread. Node 0's manifest is restaged, with a valid checksum, at
// twice the window, and other data machines are replaced: VerifyIntegrity
// names node 0 unreadable, and Load treats its chunk as lost — decoding
// around it, byte for byte, and rebuilding it — after which VerifyIntegrity
// finds nothing.
func TestManifestOfAnotherWindowIsAnErasure(t *testing.T) {
	for _, tc := range []struct {
		name              string
		nodes, gpus, k, m int
		lose              int // other data machines replaced before the restore
	}{
		{"k4m4 8x1, two more data machines", 8, 1, 4, 4, 2},
		{"k2m2 4x2", 4, 2, 2, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, tc.nodes, tc.gpus, tc.k, tc.m)
			ctx := context.Background()
			rep, err := rig.ckpt.Save(ctx, rig.dicts)
			if err != nil {
				t.Fatal(err)
			}
			plan, window := rig.ckpt.lay.plan, rig.ckpt.cfg.BufferSize
			if rep.PacketBytes <= 2*window {
				t.Fatalf("packet of %d bytes fits two %d-byte windows: the windows cannot be told apart", rep.PacketBytes, window)
			}
			if plan.DataNodes[0] != 0 {
				t.Fatalf("node 0 stores chunk %d, not a data chunk", plan.ChunkOfNode[0])
			}
			if err := rig.ckpt.store(0, keyManifest(), manifestBlob(rep.Version, rep.PacketBytes, 2*window)); err != nil {
				t.Fatal(err)
			}
			wantMissing := []int{plan.ChunkOfNode[0]}
			for _, victim := range plan.DataNodes[1 : 1+tc.lose] {
				if err := rig.clus.Fail(victim); err != nil {
					t.Fatal(err)
				}
				if err := rig.clus.Replace(victim); err != nil {
					t.Fatal(err)
				}
				wantMissing = append(wantMissing, plan.ChunkOfNode[victim])
			}
			if _, err := rig.ckpt.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "node 0 checkpoint unreadable") {
				t.Errorf("VerifyIntegrity before the load = %v, want node 0 named unreadable", err)
			}
			got, lrep, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(wantMissing)
			if !slices.Equal(lrep.MissingChunks, wantMissing) {
				t.Errorf("load rebuilt chunks %v, want %v", lrep.MissingChunks, wantMissing)
			}
			dictsEqual(t, rig.dicts, got)
			if vrep, err := rig.ckpt.VerifyIntegrity(); err != nil || len(vrep.CorruptSegments) != 0 {
				t.Errorf("VerifyIntegrity after the load = %+v, %v; want a clean checkpoint", vrep, err)
			}
		})
	}
}

// TestLoadPartialSkipsABasisWindowThatFailsItsSum: a partial decode reads
// its basis segments unverified and checks each window against its sum just
// before it decodes from it. A flipped byte in one window of a basis segment,
// or in that window's sum, is caught there: the decode starts over with whole
// bases verified, books the corrupt blob, decodes from the next candidate,
// and returns the checkpoint byte for byte.
func TestLoadPartialSkipsABasisWindowThatFailsItsSum(t *testing.T) {
	for _, footer := range []bool{false, true} {
		t.Run(fmt.Sprintf("footer=%v", footer), func(t *testing.T) {
			rig := newRig(t, 4, 2, 2, 2)
			ctx := context.Background()
			rep, err := rig.ckpt.Save(ctx, rig.dicts)
			if err != nil {
				t.Fatal(err)
			}
			bufSize := rig.ckpt.cfg.BufferSize
			if rep.PacketBytes <= 2*bufSize {
				t.Fatalf("packet of %d bytes has no middle %d-byte window", rep.PacketBytes, bufSize)
			}
			plan := rig.ckpt.Plan()
			loseNode(t, rig, plan.ChunkOwner(0, 0))
			var ranks []int
			for rank, chunk := range plan.DataGroupOf {
				if chunk == 0 {
					ranks = append(ranks, rank)
				}
			}
			// Chunk 1 is the first basis candidate of every segment index.
			offset := bufSize + 5
			if footer {
				offset = rep.PacketBytes + cluster.SumLen + 2
			}
			if err := rig.clus.Corrupt(plan.ChunkOwner(0, 1), keySegment(1, plan.SegmentOf[ranks[0]]), offset); err != nil {
				t.Fatal(err)
			}
			got, prep, err := rig.ckpt.LoadPartial(ctx, ranks)
			if err != nil {
				t.Fatal(err)
			}
			if prep.Workflow != "partial-decode" || prep.CorruptBlobs != 1 {
				t.Errorf("report = {workflow %q, corrupt blobs %d}, want partial-decode with the corrupt basis booked",
					prep.Workflow, prep.CorruptBlobs)
			}
			for _, rank := range ranks {
				if !got[rank].Equal(rig.dicts[rank]) {
					t.Errorf("rank %d: decoded state differs from the checkpoint", rank)
				}
			}
		})
	}
}

// TestPartialDecodeTakesOneBufferPerPacket is the allocation gate of the
// partial decode: a lost packet is decoded straight into its own pooled
// buffer — the first basis term multiplied in, the others multiply-
// accumulated onto it — so a decoding LoadPartial takes exactly one
// bufpool Get per decoded packet and none for a term, a scratch window or a
// packet served directly.
func TestPartialDecodeTakesOneBufferPerPacket(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	rep, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketBytes <= rig.ckpt.cfg.BufferSize {
		t.Fatalf("packet of %d bytes fits one %d-byte buffer: a term buffer would be one window, not a packet", rep.PacketBytes, rig.ckpt.cfg.BufferSize)
	}
	lay := rig.ckpt.lay
	victim := lay.plan.DataNodes[0]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	decoded := 0
	for _, chunk := range lay.plan.DataGroupOf {
		if lay.plan.DataNodes[chunk] == victim {
			decoded++
		}
	}
	reg := obs.NewRegistry()
	bufpool.Default.SetMetrics(reg)
	t.Cleanup(func() { bufpool.Default.SetMetrics(nil) })
	hits, misses := reg.Counter("bufpool_hits_total"), reg.Counter("bufpool_misses_total")
	got, prep, err := rig.ckpt.LoadPartial(ctx, upTo(rig.topo.World()))
	if err != nil {
		t.Fatal(err)
	}
	if prep.Workflow != "partial-decode" {
		t.Fatalf("workflow = %q, want partial-decode", prep.Workflow)
	}
	for rank, sd := range got {
		if !sd.Equal(rig.dicts[rank]) {
			t.Errorf("rank %d: restored state differs from the checkpoint", rank)
		}
	}
	if gets := hits.Value() + misses.Value(); gets != int64(decoded) {
		t.Errorf("LoadPartial decoding %d packets took %d pooled buffers, want exactly %d", decoded, gets, decoded)
	}
}

// TestColumnTakesOneBufferPerProduct: the save encode and the rebuild's
// basis side each run one column product per source window, and each takes
// exactly one pooled buffer per output — a save one per (worker, payload
// window, reduction), a rebuild one per live product: a (basis owner,
// segment, window, missing chunk) whose basis and missing windows may both
// hold payload — and no temporary buffer. The engine is given a pool of its own,
// so the transport's copies are not counted. The column product itself
// allocates nothing: a round reuses its output headers window after window.
func TestColumnTakesOneBufferPerProduct(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct {
		name              string
		nodes, gpus, k, m int
		lose              int // data machines lost before the Load
	}{{"k2m2", 4, 2, 2, 2, 1}, {"k4m4", 8, 1, 4, 4, 4}} {
		t.Run(shape.name, func(t *testing.T) {
			rig := newRig(t, shape.nodes, shape.gpus, shape.k, shape.m, noRemote)
			reg := obs.NewRegistry()
			rig.ckpt.buf = bufpool.New()
			rig.ckpt.buf.SetMetrics(reg)
			hits, misses := reg.Counter("bufpool_hits_total"), reg.Counter("bufpool_misses_total")
			gets := func() int64 { return hits.Value() + misses.Value() }

			rep, err := rig.ckpt.Save(ctx, rig.dicts)
			if err != nil {
				t.Fatal(err)
			}
			world, windows := rig.topo.World(), rig.ckpt.numBuffers(rep.PacketBytes)
			if windows < 2 {
				t.Fatalf("packet of %d bytes is one window", rep.PacketBytes)
			}
			// The snapshot takes four per worker: the decomposition's meta and
			// keys blobs, the meta message and the packet — three for a worker
			// whose packet is packed in place, into its data segment.
			inPlace := 0
			for w := 0; w < world; w++ {
				if rig.ckpt.keptInPlace(w) {
					inPlace++
				}
			}
			if inPlace == 0 || inPlace == world {
				t.Fatalf("%d of %d workers pack in place: the count below does not tell the two kinds apart", inPlace, world)
			}
			payload := payloadWindows(rig.ckpt, rig.dicts)
			if payload >= world*windows {
				t.Fatalf("%d payload windows of %d: no worker's packet has a zero tail", payload, world*windows)
			}
			if got, want := gets(), int64(4*world-inPlace+payload*shape.m); got != want {
				t.Errorf("full save took %d pooled buffers, want %d: 4 per worker, one fewer for each of the %d packed in place, and one per (worker, payload window, reduction) = %d x %d",
					got, want, inPlace, payload, shape.m)
			}

			lay := rig.ckpt.lay
			for _, victim := range lay.plan.DataNodes[:shape.lose] {
				if err := rig.clus.Fail(victim); err != nil {
					t.Fatal(err)
				}
				if err := rig.clus.Replace(victim); err != nil {
					t.Fatal(err)
				}
			}
			before := gets()
			got, lrep, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			dictsEqual(t, rig.dicts, got)
			if len(lrep.MissingChunks) != shape.lose {
				t.Fatalf("load rebuilt chunks %v, want %d", lrep.MissingChunks, shape.lose)
			}
			// The basis of every segment is the first k chunks left.
			var missing, basis []int
			for chunk := range shape.k + shape.m {
				if chunk < shape.lose {
					missing = append(missing, chunk)
				} else if len(basis) < shape.k {
					basis = append(basis, chunk)
				}
			}
			live, span := sumSends(rebuildSends(rig.ckpt, rig.dicts, 0, missing, basis)), lay.plan.Span()
			if all := span * shape.k * windows * shape.lose; live >= all {
				t.Fatalf("%d live products of %d: no segment has a zero tail", live, all)
			}
			if got, want := gets()-before, int64(live); got != want {
				t.Errorf("rebuild took %d pooled buffers, want %d: one per live product, a (segment, basis owner, window, missing chunk) whose basis and missing windows may both hold payload",
					got, want)
			}

			src := make([]byte, rig.ckpt.cfg.BufferSize)
			out := make([][]byte, shape.m)
			for i := range out {
				out[i] = make([]byte, len(src))
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := rig.ckpt.mulColumn(lay.encode[0], out, src); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("a column product over one window allocated %.1f times, want 0", allocs)
			}
		})
	}
}

// scalarMulPooled splits a region of at least 256 KiB across the engine's
// thread pool (ecpool.RunSchedule); both of its forms must still be the
// serial ScalarMulInto, and ScalarMulInto followed by XORSlice, byte for byte.
func TestScalarMulPooledMatchesSerial(t *testing.T) {
	code, err := erasure.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := &Checkpointer{code: code, pool: ecpool.NewPool(3)}
	defer c.pool.Close()
	r := rand.New(rand.NewSource(27))
	for _, n := range []int{256 << 10, 256<<10 + 192, 1 << 20} {
		src, dst := make([]byte, n), make([]byte, n)
		r.Read(src)
		r.Read(dst)
		want, term := make([]byte, n), make([]byte, n)
		for _, coef := range []int{0, 1, 2, 4, 5, 0x8e, 255} {
			if err := code.ScalarMulInto(coef, term, src); err != nil {
				t.Fatal(err)
			}
			copy(want, dst)
			if err := gf.XORSlice(want, term); err != nil {
				t.Fatal(err)
			}
			if err := c.scalarMulPooled(coef, dst, src, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d coef=%d: pooled mul-add differs from mul then XOR", n, coef)
			}
			if err := c.scalarMulPooled(coef, dst, src, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, term) {
				t.Fatalf("n=%d coef=%d: pooled mul differs from ScalarMulInto", n, coef)
			}
		}
	}
	if err := c.scalarMulPooled(3, make([]byte, 256<<10), make([]byte, 128<<10), true); err == nil {
		t.Error("length mismatch: want error")
	}
}

// TestPrefetchParityChunkDecodesCorrectly: warming a replaced parity node
// re-encodes its chunk through decodeSegment with the generator's non-unit
// coefficients. The stored chunk must be the real parity — consistent with
// the data under VerifyIntegrity, and usable as a decode basis by the next
// Load — not garbage under a valid checksum and manifest.
func TestPrefetchParityChunkDecodesCorrectly(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	lay := rig.ckpt.lay
	parity := lay.plan.ParityNodes[1] // the second parity row has non-unit coefficients
	if err := rig.clus.Fail(parity); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(parity); err != nil {
		t.Fatal(err)
	}
	rep, err := rig.ckpt.PrefetchChunk(ctx, parity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlreadyIntact || rep.Segments == 0 {
		t.Fatalf("prefetch report = %+v, want a rebuilt chunk", rep)
	}
	vrep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrep.CorruptSegments) != 0 {
		t.Errorf("prefetched parity disagrees with the data on segments %v", vrep.CorruptSegments)
	}

	// Lose every data machine: the only way back is to decode through the
	// parity chunks, the prefetched one included.
	for _, victim := range lay.plan.DataNodes {
		if err := rig.clus.Fail(victim); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(victim); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "decode" {
		t.Errorf("workflow = %q, want decode", lrep.Workflow)
	}
	dictsEqual(t, rig.dicts, got)
}

// loseNode fails a machine and swaps in an empty replacement.
func loseNode(t *testing.T, rig *testRig, node int) {
	t.Helper()
	if err := rig.clus.Fail(node); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(node); err != nil {
		t.Fatal(err)
	}
}

// verifyClean requires parity to match data on every segment.
func verifyClean(t *testing.T, rig *testRig) {
	t.Helper()
	if vr, err := rig.ckpt.VerifyIntegrity(); err != nil || len(vr.CorruptSegments) != 0 {
		t.Fatalf("VerifyIntegrity: %v, %+v", err, vr)
	}
}

// TestLoadAfterAbortedRebuildSeesNoResidue: a Load that dies mid-rebuild
// leaves rebuild contributions in the mailboxes of the chunk it was
// rebuilding. They are the right size for the next Load's windows, so if it
// received them it would XOR them in and adopt the wrong bytes under a valid
// checksum. The next round runs under fresh tags and never sees them.
func TestLoadAfterAbortedRebuildSeesNoResidue(t *testing.T) {
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	// With data chunk 0 lost the rebuild's basis is chunks 1 and 2: the other
	// data node streams its whole contribution while the first parity node
	// dies five sends into its own.
	plan := rig.ckpt.Plan()
	lost, victim := plan.DataNodes[0], plan.ParityNodes[0]
	loseNode(t, rig, lost)
	if err := net.ScheduleKill(victim, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.ckpt.Load(ctx); err == nil || !net.Killed(victim) {
		t.Fatalf("load with a basis owner killed mid-rebuild: err %v, killed %v", err, net.Killed(victim))
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if err := net.Revive(victim); err != nil {
		t.Fatal(err)
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingChunks) != 2 {
		t.Errorf("rebuilt chunks %v, want the two lost ones", rep.MissingChunks)
	}
	dictsEqual(t, rig.dicts, got)
	verifyClean(t, rig)
}

// TestConcurrentLoadsOnDegradedCluster: two Loads that both find the same
// chunk missing must not both rebuild it — under the same tags each would
// consume the other's window contributions. Repairing rounds take turns; the
// second finds the cluster repaired. The one that queues has not started:
// its clock, scan phase and watchdog run only while it holds the slot, so the
// health event stream never shows two Loads in flight.
func TestConcurrentLoadsOnDegradedCluster(t *testing.T) {
	tracker := health.NewTracker(func() health.Probe { return health.Probe{} })
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) { c.Health = tracker })
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	tracker.SetSink(func(ev health.Event) {
		switch {
		case ev.Kind != health.KindRound:
		case ev.State == "start":
			if n := inFlight.Add(1); ev.Op == OpLoad && n > 1 {
				t.Errorf("%d repairing rounds in flight: a queued round started before it held the restore slot", n)
			}
		default:
			inFlight.Add(-1)
		}
	})
	for round := 0; round < 4; round++ {
		loseNode(t, rig, rig.ckpt.Plan().DataNodes[round%2])
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, _, err := rig.ckpt.Load(ctx)
				if err != nil {
					t.Errorf("round %d load %d: %v", round, i, err)
					return
				}
				for rank := range got {
					if !got[rank].Equal(rig.dicts[rank]) {
						t.Errorf("round %d load %d: rank %d differs from the saved state", round, i, rank)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		verifyClean(t, rig)
	}
}

// TestRestoreDecodesPerSegmentIndex: a code word is the same-index segment
// of every chunk, so what can be decoded is decided per segment index, not
// per chunk. Chunk 0 has lost segment 0, chunk 1 segment 1 and chunk 2 its
// machine: no two whole chunks are intact (Load's whole-chunk view has
// nothing to stand on), yet every index has at most m = 2 erasures, so
// LoadPartial decodes both damaged packets — each from a different basis —
// and PrefetchChunk rebuilds chunk 2 on the replacement byte for byte.
func TestRestoreDecodesPerSegmentIndex(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	lay := rig.ckpt.lay
	var ranks []int
	for i := 0; i < 2; i++ { // chunk i loses segment i
		if err := rig.clus.Corrupt(lay.plan.DataNodes[i], lay.keys.segment[i][i], 7); err != nil {
			t.Fatal(err)
		}
		for rank, chunk := range lay.plan.DataGroupOf {
			if chunk == i && lay.plan.SegmentOf[rank] == i {
				ranks = append(ranks, rank)
			}
		}
	}
	victim := lay.plan.ParityNodes[0]
	var before [][]byte
	for _, key := range lay.keys.segment[2] {
		seg, err := rig.clus.View(victim, key)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, seg)
	}
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}

	got, rep, err := rig.ckpt.LoadPartial(ctx, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workflow != "partial-decode" || !slices.Equal(rep.MissingChunks, []int{0, 1}) {
		t.Errorf("report = {workflow %q, missing %v}, want partial-decode of chunks [0 1]", rep.Workflow, rep.MissingChunks)
	}
	for _, rank := range ranks {
		if !got[rank].Equal(rig.dicts[rank]) {
			t.Errorf("rank %d: decoded state differs from the checkpoint", rank)
		}
	}

	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if prep, err := rig.ckpt.PrefetchChunk(ctx, victim); err != nil || prep.Segments != len(before) {
		t.Fatalf("prefetch onto the replacement: %+v, %v", prep, err)
	}
	for s, key := range lay.keys.segment[2] {
		if seg, err := rig.clus.View(victim, key); err != nil || !bytes.Equal(seg, before[s]) {
			t.Errorf("segment %d of the prefetched chunk differs from the saved one (%v)", s, err)
		}
	}
}
