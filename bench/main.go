// Command bench is the repository's benchmark: five checkpoint/restore
// workloads driven only through public functions, nine end-to-end metrics,
// a traced run with a per-layer table, and a comparison tool. README.md in
// this directory says why each workload exists and how the metrics are
// expected to interact; BENCHMARK.json at the repository root fixes the
// names, units and regression bounds.
//
// Usage (from the repository root; bash bench/run.sh, the command of
// BENCHMARK.json, is the same program built into the checkout):
//
//	go run -C bench eccheck/bench                     every workload, untraced
//	go run -C bench eccheck/bench -trace 1            every workload, traced
//	go run -C bench eccheck/bench -workload dense_mem one workload in this process
//	go run -C bench eccheck/bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// childEnv marks a process as a workload child of the all-workloads run.
// bench_test.go's TestMain honours it, so the smoke test can re-execute
// the test binary as the benchmark.
const childEnv = "ECCHECK_BENCH_CHILD"

const (
	// setupReps set-ups are timed per run and their median reported:
	// a single set-up is too short to be steady.
	setupReps = 3
	// calibration is how long the XOR kernel runs before and after a
	// workload.
	calibration = 250 * time.Millisecond
	// smokeCycles is the run length under -smoke.
	smokeCycles = 2
	// sizedForSeconds is the -seconds at which a workload runs exactly its
	// cycles; run_seconds of BENCHMARK.json is the same number.
	sizedForSeconds = 20
	// cutoffFactor times -seconds is when a run is cut short, whatever its
	// cycle count.
	cutoffFactor = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	root     string
	spec     *benchSpec
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process, and print its result as the last line")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for model contents, mutations and which machines fail")
	fs.Float64Var(&o.seconds, "seconds", 0, "nominal run length: scales each workload's fixed cycle count, sized for the default, run_seconds of BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 records spans around each call into a layer and runs the layer probes; end-to-end metrics come from 0")
	fs.BoolVar(&o.smoke, "smoke", false, "two cycles per workload and one iteration per layer probe: checks the benchmark, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	fs.StringVar(&o.outDir, "out", "", "output directory (default bench/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0

	root, err := locate()
	if err == nil {
		o.root = root
		o.spec, err = readSpec(root)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), o.spec, stdout, stderr)
	}
	if o.seconds <= 0 {
		o.seconds = float64(o.spec.RunSeconds)
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "bench", "out")
	}

	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := runOne(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	name := "result-" + w.name + ".json"
	if o.trace {
		name = "trace-" + w.name + ".json"
	}
	if err := writeJSON(filepath.Join(o.outDir, name), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.print(stdout, o.spec)
	if !res.Correct {
		return 1
	}
	return 0
}

// runResult is what one workload run produces: the stored form (one entry
// of result.json, or trace-<workload>.json) and the source of the
// driver's result line.
type runResult struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Smoke       bool               `json:"smoke,omitempty"`
	Env         envRecord          `json:"env"`
	Cycles      int                `json:"cycles"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Errors      []string           `json:"errors,omitempty"`
	CalibBefore float64            `json:"calib_xor_gbps_before"`
	CalibAfter  float64            `json:"calib_xor_gbps_after"`
	Metrics     map[string]summary `json:"metrics"`
	// Notes carries counts worth seeing that are not metrics.
	Notes map[string]float64 `json:"notes,omitempty"`
	// Traced runs only.
	SpanTotals []spanTotals `json:"span_totals,omitempty"`
	Spans      []span       `json:"spans,omitempty"`
}

func errFailedOps(rec *recorder) error {
	return fmt.Errorf("%d of %d operations failed: %v", rec.failed, rec.attempted, rec.errs)
}

// runOne sets a workload up, measures it and returns its result.
func runOne(w *workload, o options) (*runResult, error) {
	res := &runResult{
		Workload: w.name, Traced: o.trace, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Env: readEnv(o.root), Metrics: make(map[string]summary), Notes: make(map[string]float64),
		Correct: true,
	}
	calib := calibration
	reps := setupReps
	if o.smoke {
		calib, reps = 20*time.Millisecond, 1
	}
	if o.trace {
		reps = 1
	}
	var err error
	if res.CalibBefore, err = calibrateXOR(calib); err != nil {
		return nil, err
	}

	// Set-ups are timed like every other operation: at reference machine
	// speed, from readings of the reference kernel before and after each.
	var inst instance
	setups, probe := newRecorder(), newSpeedProbe()
	around := func() {
		for i := 0; i < speedWindow; i++ {
			setups.probe(probe)
		}
	}
	for r := 0; r < reps; r++ {
		if inst != nil {
			// Only the last set-up is measured on; drop the others fully
			// so they do not count toward this process's peak memory.
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		around()
		t0 := time.Now()
		if inst, err = w.setup(o.seed, o.smoke); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		setups.addAt(mSetup, t1.Sub(t0).Seconds(), t0, t1)
		around()
	}
	defer inst.close()

	// window runs share of the workload's fixed cycle count into rec.
	window := func(share float64, tr *tracer, rec *recorder) {
		cycles := smokeCycles
		if !o.smoke {
			cycles = max(1, int(math.Round(share*float64(w.cycles)*o.seconds/sizedForSeconds)))
		}
		// The count, not the clock, ends a run. The cutoff only keeps a run
		// inside the driver's time limit when the whole VM stalls
		// (baseline/noise.txt records one such stall, 5x for minutes);
		// notes.cut_short marks a run it struck.
		cutoff := time.Now().Add(time.Duration(cutoffFactor * share * o.seconds * float64(time.Second)))
		inst.run(func(done int) bool {
			return done >= cycles || (!o.smoke && done >= 1 && time.Now().After(cutoff))
		}, rec, tr)
		if !o.smoke && time.Now().After(cutoff) {
			res.Notes["cut_short"] = 1
		}
	}
	if o.trace {
		err = res.measureTraced(w, o, window)
	} else {
		rec := newRecorder()
		window(1, nil, rec)
		res.count(rec)
		err = res.measureUntraced(w, inst, rec, setups)
	}
	if err != nil {
		return nil, err
	}
	if res.CalibAfter, err = calibrateXOR(calib); err != nil {
		return nil, err
	}
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// count adds a recorder's operations to the run's totals.
func (res *runResult) count(rec *recorder) {
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	res.Errors = append(res.Errors, rec.errs...)
}

// measureUntraced fills in the end-to-end metrics the workload reports
// from the measured cycles.
func (res *runResult) measureUntraced(w *workload, inst instance, rec, setups *recorder) error {
	host, err := inst.hostBytes()
	if err != nil {
		return fmt.Errorf("host bytes: %w", err)
	}
	hostRatio := float64(host) / float64(inst.payloadBytes())
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	for _, name := range w.reported() {
		switch name {
		case mSetup:
			res.Metrics[name] = setups.timing(name, "s")
		case mRSS:
			res.Metrics[name] = single(rss, "MB")
		case mHost:
			res.Metrics[name] = single(hostRatio, "ratio")
		default:
			res.Metrics[name] = rec.timing(name, "ms")
		}
		if res.Metrics[name].N == 0 {
			res.Correct = false
			res.Errors = append(res.Errors, "no samples for "+name)
		}
	}
	if _, ok := res.Metrics[mHost]; !ok {
		// Behind the daemon it is the reservation, not a measurement: a
		// note, and the driver line's stand-in.
		res.Notes["reserved_bytes_per_payload_byte"] = hostRatio
	}
	res.Cycles = len(rec.get(mLoad))
	res.Notes["payload_bytes"] = float64(inst.payloadBytes())
	res.Notes["incr_full_fallbacks"] = float64(len(rec.get("incr_full_fallbacks")))
	return nil
}

// standIn is the value the driver's result line carries for an end-to-end
// metric the workload has no operation for. The driver's contract wants
// every metric on every run, never zero, so the line repeats the metric of
// the operation a user of that configuration runs instead: a full round
// where there is no asynchronous or delta save, the in-memory restore where
// there is no remote tier, the tenant's reservation where host memory is
// out of reach. Stand-ins exist on that line only: result.json, the printed
// tables and -compare carry what a workload measures and nothing else.
func (r *runResult) standIn(name string) summary {
	switch name {
	case mStall, mIncr:
		return r.Metrics[mRound]
	case mRemote:
		return r.Metrics[mLoad]
	case mHost:
		return single(r.Notes["reserved_bytes_per_payload_byte"], "ratio")
	}
	return summary{}
}

// measureTraced runs the workload without spans and with them, then the
// layer probes. The two kinds of cycles alternate in tracedRounds slices, so
// that heap growth and machine drift over the run hit both alike and
// trace_overhead_ratio compares like with like.
func (res *runResult) measureTraced(w *workload, o options, window func(float64, *tracer, *recorder)) error {
	tr := newTracer()
	untraced, traced := newRecorder(), newRecorder()
	rounds := tracedRounds
	if o.smoke {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		window(0.25/float64(rounds), nil, untraced)
		window(0.35/float64(rounds), tr, traced)
	}
	res.count(untraced)
	res.count(traced)
	c := &probeCtx{
		budget: time.Duration(0.4 * o.seconds / probeLoops * float64(time.Second)), smoke: o.smoke,
		workload: w.name, traced: traced, untraced: untraced, seed: o.seed,
	}
	values, err := runProbes(c, tr)
	if err != nil {
		return err
	}
	for _, l := range layers {
		for _, m := range l.metrics {
			res.Metrics[m.name] = single(values[m.name], m.unit)
		}
	}
	res.Cycles = len(traced.get(mLoad))
	res.Spans = tr.snapshot()
	res.SpanTotals = totalsByName(res.Spans)
	res.Notes["phase_sum_over_round"] = ratioOf(median(traced.get("core.save.phase_sum_ms")), median(traced.get(mRound)))
	return nil
}

// tracedRounds is how many times a traced run alternates between cycles
// without spans and cycles with them.
const tracedRounds = 5

// probeLoops is roughly how many timed loops the layer probes run in all;
// it spreads the probe share of a traced run across them.
const probeLoops = 45

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes the human-readable table and then, as the last line, the
// driver's result object: every end-to-end metric for an untraced run,
// every per-layer metric for a traced one.
func (r *runResult) print(w io.Writer, spec *benchSpec) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)  seed %d  cycles %d  operations %d  failed %d  %s GOMAXPROCS=%d NumCPU=%d commit %s\n",
		r.Workload, mode, r.Seed, r.Cycles, r.Attempted, r.Failed, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.GitCommit)
	fmt.Fprintf(w, "   calibration gf.XORSlice: %.2f GB/s before, %.2f GB/s after\n", r.CalibBefore, r.CalibAfter)
	listed := spec.EndToEnd
	if r.Traced {
		listed = spec.PerLayer
	}
	moves := make(map[string]string)
	for _, l := range layers {
		for _, m := range l.metrics {
			moves[m.name] = m.moves
		}
	}
	line := resultLine{r.Correct, r.Attempted, r.Failed, make(map[string]lineMetric)}
	for _, m := range listed {
		s, ok := r.Metrics[m.Name]
		if !ok {
			// Not an operation of this workload: no row, and a stand-in on
			// the driver's line.
			s = r.standIn(m.Name)
			line.Metrics[m.Name] = lineMetric{s.Value, m.Unit}
			continue
		}
		line.Metrics[m.Name] = lineMetric{s.Value, m.Unit}
		extra := moves[m.Name]
		if !r.Traced {
			extra = fmt.Sprintf("n=%d", s.N)
			if s.Raw > 0 {
				extra += "  wall=" + formatValue(s.Raw)
			}
			if s.TailP > 0 {
				extra += fmt.Sprintf("  p%s=%s", strconv.FormatFloat(s.TailP, 'f', -1, 64), formatValue(s.Tail))
			}
		}
		fmt.Fprintf(w, "   %-36s %14s %-6s %s\n", m.Name, formatValue(s.Value), m.Unit, extra)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "   error:", e)
	}
	raw, _ := json.Marshal(line) // plain struct of numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", raw)
}

// resultLine is the object the benchmark driver reads off the last line.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// resultSet is result.json: one complete set of runs.
type resultSet struct {
	Schema    string       `json:"schema"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Traced    bool         `json:"traced"`
	Env       envRecord    `json:"env"`
	Workloads []*runResult `json:"workloads"`
}

// runAll re-executes this binary once per workload, so each workload's
// peak memory is its own, and merges the children's results.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := resultSet{Schema: "eccheck-bench/1", Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Env: readEnv(o.root)}
	prefix, status := "result", 0
	traceArg := "0"
	if o.trace {
		prefix, traceArg = "trace", "1"
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceArg, "-out", o.outDir}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
		raw, err := os.ReadFile(filepath.Join(o.outDir, prefix+"-"+w.name+".json"))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			status = 1
			continue
		}
		var res runResult
		if err := json.Unmarshal(raw, &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s result: %v\n", w.name, err)
			status = 1
			continue
		}
		res.Spans = nil // the raw spans stay in trace-<workload>.json
		set.Workloads = append(set.Workloads, &res)
	}
	name := "result.json"
	if o.trace {
		name = "layers.json"
	}
	if err := writeJSON(filepath.Join(o.outDir, name), set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printSet(stdout, &set, o.spec)
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(o.outDir, name))
	return status
}

// printSet prints one row per metric and one column per workload.
func printSet(w io.Writer, set *resultSet, spec *benchSpec) {
	listed := spec.EndToEnd
	if set.Traced {
		listed = spec.PerLayer
	}
	fmt.Fprintf(w, "\n%-36s %-6s", "metric", "unit")
	for _, r := range set.Workloads {
		fmt.Fprintf(w, " %13s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, m := range listed {
		fmt.Fprintf(w, "%-36s %-6s", m.Name, m.Unit)
		for _, r := range set.Workloads {
			cell := "-" // not an operation of this workload
			if s, ok := r.Metrics[m.Name]; ok {
				cell = formatValue(s.Value)
			}
			fmt.Fprintf(w, " %13s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-36s %-6s", "operations failed/attempted", "")
	for _, r := range set.Workloads {
		fmt.Fprintf(w, " %13s", fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
	}
	fmt.Fprintln(w)
}
