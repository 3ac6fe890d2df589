package harness

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"eccheck/internal/model"
	"eccheck/internal/obs/flight"
)

func TestRestoreStudySmall(t *testing.T) {
	var sb strings.Builder
	cfg := RestoreConfig{
		Nodes:         8,
		GPUsPerNode:   1,
		K:             4,
		M:             4,
		BufferSize:    32 << 10,
		WithOptimizer: false,
		RemoteStall:   100 * time.Microsecond,
		Workers:       4,
		Budget:        time.Minute,
		Rounds:        1,
		FlightEvents:  256,
	}
	res, err := RestoreStudy(&sb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.World != 8 || res.K != 4 || res.M != 4 {
		t.Errorf("fleet shape = %+v", res)
	}
	if len(res.HotRanks) == 0 || len(res.HotRanks) >= res.World {
		t.Errorf("hot ranks %v must be a proper non-empty subset of %d", res.HotRanks, res.World)
	}
	if res.FullElapsed <= 0 || res.FullBytes <= 0 {
		t.Errorf("full restore degenerate: %v / %d bytes", res.FullElapsed, res.FullBytes)
	}
	// The study itself enforces the strict inequality; re-assert the
	// acceptance criterion here so a weakened harness check also fails.
	if res.PartialBytes <= 0 || res.PartialBytes >= res.FullBytes {
		t.Errorf("partial restore fetched %d bytes vs full %d — must be strictly fewer",
			res.PartialBytes, res.FullBytes)
	}
	if res.PartialWorkflow != "partial" {
		t.Errorf("partial workflow = %q, want partial on a healthy fleet", res.PartialWorkflow)
	}
	if res.RemoteSerial <= 0 || res.RemoteParallel <= 0 || res.RemoteWorkers != 4 {
		t.Errorf("remote restore degenerate: serial %v, parallel %v, workers %d",
			res.RemoteSerial, res.RemoteParallel, res.RemoteWorkers)
	}
	// That the pool overlaps the stalls the serial sweep pays in sequence is
	// counted, not timed: a wall-clock speedup > 1 is the host's to give.
	cfg.RemoteStall = 2 * time.Millisecond
	cfg.MoE = model.DefaultMoEConfig(res.World)
	if got := remoteGetsInFlight(t, cfg, 1); got != 1 {
		t.Errorf("serial remote restore had %d Gets in flight at once, want 1", got)
	}
	if got := remoteGetsInFlight(t, cfg, 4); got <= 1 || got > 4 {
		t.Errorf("remote restore with 4 workers had %d Gets in flight at once, want 2..4", got)
	}
	if res.FullDeadlineExceeded {
		t.Error("a one-minute budget must not be exceeded by an in-process restore")
	}
	out := sb.String()
	for _, want := range []string{"fast-restore study", "partial load", "remote restore"} {
		if !strings.Contains(out, want) {
			t.Errorf("study table missing %q:\n%s", want, out)
		}
	}
}

// remoteGetsInFlight restores from the remote tier with the given pool width
// and returns the most Gets the store had in flight at once, counted from the
// store's own flight record of each Get (call to return, stall included).
func remoteGetsInFlight(t *testing.T, cfg RestoreConfig, workers int) int {
	t.Helper()
	rig, err := newRestoreRig(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	rec := flight.New(1 << 10)
	rig.remote.SetFlight(rec)
	if _, err := rig.ckpt.LoadFromRemote(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
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
	if len(edges) < 2*cfg.Nodes*cfg.GPUsPerNode {
		t.Fatalf("%d Get edges recorded for %d ranks", len(edges), cfg.Nodes*cfg.GPUsPerNode)
	}
	sort.Slice(edges, func(i, j int) bool { // a Get that ends when another starts does not overlap it
		return edges[i].at < edges[j].at || edges[i].at == edges[j].at && edges[i].delta < edges[j].delta
	})
	inFlight, most := 0, 0
	for _, e := range edges {
		inFlight += e.delta
		most = max(most, inFlight)
	}
	return most
}

func TestDefaultRestoreConfig(t *testing.T) {
	cfg := DefaultRestoreConfig()
	if cfg.Nodes != 16 || cfg.K != 8 || cfg.M != 8 {
		t.Errorf("default shape = %+v", cfg)
	}
	if (cfg.Nodes*cfg.GPUsPerNode)%cfg.K != 0 {
		t.Errorf("default world %d not divisible by k=%d", cfg.Nodes*cfg.GPUsPerNode, cfg.K)
	}
	if cfg.RemoteStall <= 0 || cfg.Budget <= 0 || cfg.Rounds <= 0 {
		t.Errorf("default knobs degenerate: %+v", cfg)
	}
}
