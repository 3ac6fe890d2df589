package eccheck_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"eccheck"
)

// TestSaveReportPhases is the observability acceptance test: on a 4-node
// memory-transport system every named save phase is exercised, and because
// each node goroutine's wall time is partitioned exclusively into phases,
// the per-phase mean must account for (nearly all of) the round's wall
// time.
func TestSaveReportPhases(t *testing.T) {
	sys, dicts := smallSystem(t)
	ctx := context.Background()

	// Round 1 warms every code path (lazy allocations, first-touch pages);
	// round 2 is the one measured.
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Save(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}

	core := []string{"offload", "serialize", "encode", "xor", "stage", "p2p", "barrier", "straggle", "promote"}
	var sum time.Duration
	for _, ph := range core {
		d, ok := rep.Phases[ph]
		if !ok || d <= 0 {
			t.Errorf("phase %q missing or zero: %v", ph, rep.Phases)
		}
		sum += d
	}
	// Phases not in the canonical list would mean the partition leaks.
	for ph, d := range rep.Phases {
		found := false
		for _, want := range eccheck.SavePhases() {
			if ph == want {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected phase %q (%v) in report", ph, d)
		}
		sum -= 0 // phases outside core (persist) are allowed but not summed
	}
	if rep.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
	// The partition covers each node goroutine from its first to its last
	// instruction; the coordinator adds commit time. Only setup (packet
	// sizing, goroutine spawn) is outside it, so the sum must land within
	// 10% of the wall time.
	ratio := float64(sum) / float64(rep.Elapsed)
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("phase sum %v is %.1f%% of elapsed %v (want within 10%%); phases: %v",
			sum, ratio*100, rep.Elapsed, rep.Phases)
	}
	if len(rep.NodePhases) != 4 {
		t.Fatalf("NodePhases has %d entries, want 4", len(rep.NodePhases))
	}
}

// TestSystemMetricsSurface checks that a save round populates the metric
// registry and that the text rendering is well-formed Prometheus
// exposition format.
func TestSystemMetricsSurface(t *testing.T) {
	sys, dicts := smallSystem(t)
	if _, err := sys.Save(context.Background(), dicts); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics()

	if v, ok := snap.Counter("save_rounds_total"); !ok || v != 1 {
		t.Fatalf("save_rounds_total = %d/%v, want 1", v, ok)
	}
	// Transport counters exist for at least one (node, peer) pair and the
	// save moved real checkpoint bytes.
	var sentBytes int64
	for _, c := range snap.Counters {
		if c.Name == "transport_send_bytes_total" {
			sentBytes += c.Value
		}
	}
	if sentBytes == 0 {
		t.Fatalf("no transport bytes recorded; counters: %+v", snap.Counters)
	}
	// Every node recorded a phase histogram for the encode phase.
	for _, node := range []string{"0", "1", "2", "3"} {
		hp, ok := snap.Histogram("save_phase_ns",
			eccheck.Label("phase", "encode"), eccheck.Label("node", node))
		if !ok || hp.Count == 0 {
			t.Fatalf("node %s has no save_phase_ns{phase=encode} series", node)
		}
	}
	// Host-memory traffic was counted per node.
	if v, ok := snap.Counter("hostmem_stores_total", eccheck.Label("node", "0")); !ok || v == 0 {
		t.Fatalf("hostmem_stores_total{node=0} = %d/%v", v, ok)
	}

	// The text rendering parses line by line: every non-comment line is
	// "<series> <integer>", and each series name appears under a # TYPE.
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "# TYPE save_phase_ns summary") {
		t.Fatalf("missing TYPE line for save_phase_ns:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		for _, r := range line[sp+1:] {
			if r < '0' && r != '-' || r > '9' {
				t.Fatalf("non-integer sample value in line %q", line)
			}
		}
	}

	// JSON rendering is also available on the same snapshot.
	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"save_phase_ns"`) {
		t.Fatalf("JSON dump missing save_phase_ns")
	}
}

// TestLoadReportPhases checks the recovery-side phase breakdown after a
// failure: scan and redistribute always run; rebuild is non-zero when a
// chunk was lost.
func TestLoadReportPhases(t *testing.T) {
	sys, dicts := smallSystem(t)
	ctx := context.Background()
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	if err := sys.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.ReplaceNode(1); err != nil {
		t.Fatal(err)
	}
	_, rep, err := sys.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{"scan", "rebuild", "redistribute"} {
		if rep.Phases[ph] <= 0 {
			t.Errorf("load phase %q missing or zero: %v", ph, rep.Phases)
		}
	}
	snap := sys.Metrics()
	if v, ok := snap.Counter("load_rounds_total"); !ok || v != 1 {
		t.Fatalf("load_rounds_total = %d/%v, want 1", v, ok)
	}
	if v, ok := snap.Counter("load_rebuilt_chunks_total"); !ok || v != 1 {
		t.Fatalf("load_rebuilt_chunks_total = %d/%v, want 1", v, ok)
	}
}

// TestChaosMetrics checks that injected faults surface in the registry.
func TestChaosMetrics(t *testing.T) {
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:       4,
		GPUsPerNode: 2,
		TPDegree:    2,
		PPStages:    4,
		K:           2,
		M:           2,
		BufferSize:  64 << 10,
		Chaos:       &eccheck.ChaosPlan{Seed: 7, Kills: []eccheck.ChaosKill{{Node: 2, AfterSends: 5}}},
		OpTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	opt := eccheck.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 42
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Save(context.Background(), dicts); err == nil {
		t.Fatal("save succeeded despite a scheduled kill")
	}
	snap := sys.Metrics()
	if v, ok := snap.Counter("chaos_killed_total"); !ok || v != 1 {
		t.Fatalf("chaos_killed_total = %d/%v, want 1", v, ok)
	}
	if v, ok := snap.Counter("chaos_kills_total", eccheck.Label("node", "2")); !ok || v != 1 {
		t.Fatalf("chaos_kills_total{node=2} = %d/%v, want 1", v, ok)
	}
	if v, ok := snap.Counter("chaos_sends_total"); !ok || v < 5 {
		t.Fatalf("chaos_sends_total = %d/%v, want >= 5", v, ok)
	}
}
