package harness

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestScaleOutStudySmall runs a miniature flat sweep end-to-end: two small
// node counts, tiny payloads, no link shaping — enough to check the rows
// are well-formed without turning the unit suite into a benchmark.
func TestScaleOutStudySmall(t *testing.T) {
	var sb strings.Builder
	rows, err := ScaleOutStudy(&sb, ScaleConfig{
		NodeCounts:   []int{4, 8},
		PerRankBytes: 8 << 10,
		BufferSize:   4 << 10,
		Rounds:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.K != r.Nodes/2 || r.M != r.Nodes/2 || r.Groups != 1 {
			t.Errorf("row %d: flat shape k=%d m=%d groups=%d", r.Nodes, r.K, r.M, r.Groups)
		}
		if r.Elapsed <= 0 || r.AggMBps <= 0 {
			t.Errorf("row %d: degenerate measurement %+v", r.Nodes, r)
		}
		if want := int64(r.Nodes) * (8 << 10); r.PayloadBytes != want {
			t.Errorf("row %d: payload %d, want %d", r.Nodes, r.PayloadBytes, want)
		}
	}
	if !strings.Contains(sb.String(), "scaling slope") {
		t.Errorf("table output missing slope line:\n%s", sb.String())
	}
}

// TestScaleOutStudyGroupedSmall runs the grouped scheme at its smallest
// legal size and checks the group accounting.
func TestScaleOutStudyGroupedSmall(t *testing.T) {
	rows, err := ScaleOutStudy(nil, ScaleConfig{
		NodeCounts:   []int{8},
		GroupSize:    4,
		PerRankBytes: 8 << 10,
		BufferSize:   4 << 10,
		Rounds:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Groups != 2 || r.K != 2 || r.M != 2 {
		t.Fatalf("grouped shape groups=%d k=%d m=%d, want 2/2/2", r.Groups, r.K, r.M)
	}
	if r.StragglerNode < 0 || r.StragglerNode >= r.Nodes {
		t.Fatalf("straggler node %d outside cluster of %d", r.StragglerNode, r.Nodes)
	}
}

// TestScaleOutStudyRejectsBadCounts checks the sweep's validation errors.
func TestScaleOutStudyRejectsBadCounts(t *testing.T) {
	if _, err := ScaleOutStudy(nil, ScaleConfig{NodeCounts: []int{3}, PerRankBytes: 1 << 10, BufferSize: 1 << 10}); err == nil {
		t.Error("flat sweep accepted 3 nodes")
	}
	if _, err := ScaleOutStudy(nil, ScaleConfig{NodeCounts: []int{10}, GroupSize: 4, PerRankBytes: 1 << 10, BufferSize: 1 << 10}); err == nil {
		t.Error("grouped sweep accepted 10 nodes with group size 4")
	}
	if _, err := ScaleOutStudy(nil, ScaleConfig{NodeCounts: []int{8}, GroupSize: 3, PerRankBytes: 1 << 10, BufferSize: 1 << 10}); err == nil {
		t.Error("grouped sweep accepted odd group size 3")
	}
}

func TestScalingSlope(t *testing.T) {
	// Perfect weak scaling: MB/s doubling with nodes gives slope 1.
	rows := []ScaleRow{
		{Nodes: 4, AggMBps: 40},
		{Nodes: 8, AggMBps: 80},
		{Nodes: 16, AggMBps: 160},
	}
	if got := ScalingSlope(rows); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("slope %v, want 1.0", got)
	}
	// A flat ceiling gives slope 0.
	for i := range rows {
		rows[i].AggMBps = 55
	}
	if got := ScalingSlope(rows); math.Abs(got) > 1e-9 {
		t.Errorf("slope %v, want 0", got)
	}
	// Degenerate inputs (one valid point, invalid rows) fit nothing.
	if got := ScalingSlope(rows[:1]); got != 0 {
		t.Errorf("single-point slope %v, want 0", got)
	}
	if got := ScalingSlope([]ScaleRow{{Nodes: 4}, {Nodes: 0, AggMBps: 5}}); got != 0 {
		t.Errorf("invalid-row slope %v, want 0", got)
	}
}

func TestMedianDuration(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, tc := range []struct {
		laps []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[]time.Duration{ms(7)}, ms(7)},
		{[]time.Duration{ms(2), ms(9), ms(4)}, ms(4)},
		{[]time.Duration{ms(2), ms(4), ms(6), ms(100)}, ms(5)},
		// The outlier-rejection property the sweep relies on: one GC-pause
		// lap among five leaves the median untouched.
		{[]time.Duration{ms(10), ms(11), ms(10), ms(500), ms(11)}, ms(11)},
	} {
		if got := medianDuration(tc.laps); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.laps, got, tc.want)
		}
	}
}
