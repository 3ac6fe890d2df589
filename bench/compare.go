package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one metric on one workload, second file against first.
const (
	verdictOK      = "ok"
	verdictWorse   = "WORSE"
	verdictBetter  = "better"
	verdictMissing = "MISSING"
)

// verdict judges value b against baseline a under the metric's bound: the
// share of a by which b may be worse before it counts as a regression. A
// move past the bound in the good direction is reported, never failed.
func verdict(a, b float64, m metricSpec) string {
	if a == 0 {
		return verdictMissing
	}
	change := (b - a) / a
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return verdictWorse
	case change < -m.Bound:
		return verdictBetter
	}
	return verdictOK
}

// failedShare is failed operations over attempted ones.
func failedShare(r *runResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (is it a result.json?)", path)
	}
	return &set, nil
}

// compareSets prints the per-metric, per-workload table (a workload has
// rows for the metrics it reports) and returns how many rows failed: an
// end-to-end metric worse than its bound or missing from one file, or a
// workload with a higher share of failed operations.
func compareSets(a, b *resultSet, spec *benchSpec, w io.Writer) int {
	bad := 0
	byName := make(map[string]*runResult)
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-13s %-30s %12s %12s %8s %6s  %s\n", "workload", "metric", "first", "second", "change", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-13s missing from the second file\n", ra.Workload)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, inA := ra.Metrics[m.Name]
			sb, inB := rb.Metrics[m.Name]
			if !inA && !inB {
				continue // not an operation of this workload
			}
			va, vb := sa.Value, sb.Value
			v := verdict(va, vb, m)
			if sb.N == 0 {
				v = verdictMissing
			}
			if v == verdictWorse || v == verdictMissing {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-30s %12s %12s %+7.1f%% %5.0f%%  %s\n",
				ra.Workload, m.Name, formatValue(va), formatValue(vb), 100*ratioOf(vb-va, va), 100*m.Bound, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		v := verdictOK
		if fb > fa {
			v = verdictWorse
			bad++
		}
		fmt.Fprintf(w, "%-13s %-30s %12s %12s %8s %6s  %s\n", ra.Workload, "failed operations",
			fmt.Sprintf("%d/%d", ra.Failed, ra.Attempted), fmt.Sprintf("%d/%d", rb.Failed, rb.Attempted), "", "", v)
	}
	return bad
}

func compareFiles(pathA, pathB string, spec *benchSpec, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = readSet(pathB); err == nil {
			if a.Traced || b.Traced {
				err = fmt.Errorf("end-to-end metrics come from untraced runs; got a traced set")
			} else if bad := compareSets(a, b, spec, stdout); bad > 0 {
				fmt.Fprintf(stdout, "FAIL: %d rows worse than their bound\n", bad)
				return 1
			} else {
				fmt.Fprintln(stdout, "PASS: every end-to-end metric within its bound on every workload")
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}
