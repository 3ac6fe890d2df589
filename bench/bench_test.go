package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the smoke test's all-workloads run re-execute this test
// binary as the benchmark: runAll marks its children with childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for two cycles through the real
// child-process path, then one traced run with every layer probe at one
// iteration, and checks the outputs are complete and correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	set, err := readSet(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(workloads) {
		t.Fatalf("result.json has %d workloads, want %d", len(set.Workloads), len(workloads))
	}
	for i, r := range set.Workloads {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		reported := workloads[i].reported()
		for _, name := range reported {
			if s := r.Metrics[name]; s.N == 0 || s.Value <= 0 {
				t.Errorf("%s: %s = %v from %d samples, want a positive measurement", r.Workload, name, s.Value, s.N)
			}
		}
		if len(r.Metrics) != len(reported) {
			t.Errorf("%s: result has %d metrics, the workload reports %d", r.Workload, len(r.Metrics), len(reported))
		}
		if r.Notes["incr_full_fallbacks"] != 0 {
			t.Errorf("%s: %v delta saves fell back to full saves", r.Workload, r.Notes["incr_full_fallbacks"])
		}
	}
	// A set compared with itself is within every bound.
	if bad := compareSets(set, set, spec, &stdout); bad != 0 {
		t.Errorf("a result set compared with itself has %d bad rows", bad)
	}

	// The driver's line carries every end-to-end metric, also on the
	// workload that has an operation for the fewest of them.
	stdout.Reset()
	if code := run([]string{"-smoke", "-workload", "daemon_fleet", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("daemon_fleet smoke run exited %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	line := lastLine(t, &stdout)
	for _, m := range spec.EndToEnd {
		if got := line.Metrics[m.Name]; got.Value <= 0 || got.Unit != m.Unit {
			t.Errorf("untraced result line: %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}

	stdout.Reset()
	if code := run([]string{"-smoke", "-trace", "1", "-workload", "wide_small", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced smoke run exited %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	line = lastLine(t, &stdout)
	if !line.Correct {
		t.Error("traced run reported correct=false")
	}
	for _, m := range spec.PerLayer {
		if _, ok := line.Metrics[m.Name]; !ok {
			t.Errorf("traced result line lacks %s", m.Name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(out, "trace-wide_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	var traced runResult
	if err := json.Unmarshal(raw, &traced); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range traced.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"cycle", "save", "save.snapshot", "save.drain", "fail_replace", "partial_load", "load", "verify", "erasure", "transport"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// lastLine decodes the driver's result object off the end of a run's output.
func lastLine(t *testing.T, stdout *bytes.Buffer) resultLine {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return line
}

// TestSpecMatchesCode keeps BENCHMARK.json and the code in step: the same
// workloads, end-to-end metrics and per-layer metrics, by name and unit.
func TestSpecMatchesCode(t *testing.T) {
	root, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != sizedForSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the cycle counts are sized for %d", spec.RunSeconds, sizedForSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	e2e := map[string]bool{mSetup: true, mStall: true, mRound: true, mLoad: true, mIncr: true, mPartial: true, mRemote: true, mRSS: true, mHost: true}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if !e2e[m.Name] {
			t.Errorf("end-to-end metric %q is not one the code reports", m.Name)
		}
		if m.Bound <= 0 {
			t.Errorf("%s: no regression bound", m.Name)
		}
	}
	declared := make(map[string]layerMetric)
	for _, l := range layers {
		for _, m := range l.metrics {
			if m.moves == "" {
				t.Errorf("%s does not say which end-to-end metric it should move", m.name)
			}
			declared[m.name] = m
		}
	}
	if len(spec.PerLayer) != len(declared) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the layers declare %d", len(spec.PerLayer), len(declared))
	}
	for _, m := range spec.PerLayer {
		d, ok := declared[m.Name]
		if !ok {
			t.Errorf("per-layer metric %q is declared by no layer", m.Name)
			continue
		}
		if d.unit != m.Unit || d.better != m.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, the layer %s/%s", m.Name, m.Unit, m.Better, d.unit, d.better)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9}, {n: 39}, // fewer than ten samples beyond even p75
		{n: 40, want: 75, ok: true},
		{n: 99, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := summarize(xs, "ms")
	if s.Value != 50.5 || s.TailP != 90 || s.Tail != 90 || s.Min != 1 || s.Max != 100 || s.N != 100 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
}

// TestSpeedNormalisation: a sample is scaled by refProbeNs over the median
// of the reference-kernel readings around it, speedWindow on each side.
func TestSpeedNormalisation(t *testing.T) {
	rec := newRecorder()
	at := func(sec float64) time.Time { return rec.epoch.Add(time.Duration(sec * float64(time.Second))) }
	// The machine runs at reference speed until t=4 s and half as fast after.
	for i, ns := range []float64{refProbeNs, refProbeNs, 5 * refProbeNs, refProbeNs, 2 * refProbeNs, 2 * refProbeNs, 2 * refProbeNs, 2 * refProbeNs} {
		rec.speed = append(rec.speed, speedReading{at: float64(i), ns: ns})
	}
	rec.addAt("x_ms", 10, at(1.4), at(1.6)) // readings 0..3: the 5x outlier is outvoted
	rec.addAt("x_ms", 20, at(5.4), at(5.6)) // readings 4..7: twice as slow
	rec.addAt("x_ms", 20, at(9), at(10))    // past the last reading: the last two
	got := rec.normalized("x_ms")
	if len(got) != 3 || got[0] != 10 || got[1] != 10 || got[2] != 10 {
		t.Errorf("normalized = %v, want [10 10 10]", got)
	}
	if s := rec.timing("x_ms", "ms"); s.Value != 10 || s.Raw != 20 || s.N != 3 {
		t.Errorf("timing = %+v, want value 10, raw 20, n 3", s)
	}
	// No readings: samples stay as measured.
	plain := newRecorder()
	plain.addAt("x_ms", 7, at(0), at(1))
	if got := plain.normalized("x_ms"); len(got) != 1 || got[0] != 7 {
		t.Errorf("normalized without readings = %v, want [7]", got)
	}
	if d := newSpeedProbe().read(); d <= 0 {
		t.Errorf("reference kernel read %v", d)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, StartNs: 0, EndNs: 100},
		{Name: "a", ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{Name: "b", ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps a: counted once
		{Name: "c", ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent
		{Name: "grandchild", ID: 5, Parent: 3, StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	totals := totalsByName(spans)
	if totals[0].Name != "parent" || totals[0].TotalNs != 100 || totals[0].SelfNs != 50 {
		t.Errorf("totalsByName: first row %+v, want parent 100/50", totals[0])
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_gbps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		a, b float64
		m    metricSpec
		want string
	}{
		{100, 109, lower, verdictOK},
		{100, 111, lower, verdictWorse},
		{100, 85, lower, verdictBetter},
		{100, 91, higher, verdictOK},
		{100, 89, higher, verdictWorse},
		{100, 120, higher, verdictBetter},
		{0, 5, lower, verdictMissing},
	} {
		if got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", tc.a, tc.b, tc.m.Better, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	// incr_save_ms is a metric the workload of these sets does not report:
	// it gets no row and cannot fail.
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "load_ms", Better: "lower", Bound: 0.10},
		{Name: "incr_save_ms", Better: "lower", Bound: 0.10},
	}}
	set := func(load float64, failed int) *resultSet {
		return &resultSet{Workloads: []*runResult{{
			Workload: "w", Attempted: 100, Failed: failed,
			Metrics: map[string]summary{"load_ms": {Value: load, N: 10}},
		}}}
	}
	var out bytes.Buffer
	if bad := compareSets(set(10, 0), set(10.5, 0), spec, &out); bad != 0 {
		t.Errorf("5%% worse under a 10%% bound: %d bad rows\n%s", bad, &out)
	}
	if bad := compareSets(set(10, 0), set(12, 0), spec, &out); bad != 1 {
		t.Errorf("20%% worse under a 10%% bound: %d bad rows, want 1", bad)
	}
	if bad := compareSets(set(10, 0), set(10, 1), spec, &out); bad != 1 {
		t.Errorf("a higher failed share: %d bad rows, want 1", bad)
	}
	dropped := set(10, 0)
	delete(dropped.Workloads[0].Metrics, "load_ms")
	if bad := compareSets(set(10, 0), dropped, spec, &out); bad != 1 {
		t.Errorf("a reported metric missing from the second set: %d bad rows, want 1", bad)
	}
	if bad := compareSets(set(10, 0), &resultSet{}, spec, &out); bad != 1 {
		t.Errorf("workload missing from the second set: %d bad rows, want 1", bad)
	}
}
