package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"eccheck/internal/gf"
)

// envRecord is the environment stamp carried by every result, so two
// result files can be told apart (or told to be incomparable) at a glance.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitCommit  string `json:"git_commit"`
}

// readEnv stamps the run. The commit is "unknown" outside a git checkout
// (the benchmark driver runs from an exported tree).
func readEnv(root string) envRecord {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envRecord{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitCommit:  commit,
	}
}

// calibrateXOR runs the XOR kernel over two 1 MiB buffers for d and
// returns GB/s. It is taken before and after each workload: a pair that
// disagrees, or sits far from other runs, marks a noisy-neighbour run. It
// is reported, never gated.
func calibrateXOR(d time.Duration) (float64, error) {
	const size = 1 << 20
	dst, src := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i * 7)
	}
	start := time.Now()
	var bytes float64
	for time.Since(start) < d {
		for i := 0; i < 16; i++ {
			if err := gf.XORSlice(dst, src); err != nil {
				return 0, err
			}
		}
		bytes += 16 * size
	}
	return bytes / time.Since(start).Seconds() / 1e9, nil
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// benchSpec mirrors BENCHMARK.json at the repository root: the contract
// the benchmark is run and gated by.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// locate finds the repository root (the directory holding BENCHMARK.json)
// from the working directory: the root itself under run.sh, bench/ under
// `go run -C bench` and `go test`.
func locate() (root string, err error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func readSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// writeJSON writes v indented to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
