// Command eccheck-bench regenerates the tables and figures of the ECCheck
// paper's evaluation section. Each experiment prints the same rows/series
// the paper reports, computed from the library's timing and analysis
// layers.
//
// Usage:
//
//	eccheck-bench            # run every experiment
//	eccheck-bench fig10 fig13
//	eccheck-bench -list
//	eccheck-bench -metrics-out metrics.json fig11
//
// Every experiment prints text. Performance numbers that are recorded,
// compared and gated come from the repository benchmark instead
// (bash bench/run.sh, see bench/README.md).
//
// -metrics-out additionally runs one fully instrumented functional
// checkpoint round (save, integrity verification, failure, recovery) on a
// small in-process cluster and writes every metric series the system
// recorded — phase timings, transport traffic, host-memory and remote-tier
// volumes — as a machine-readable JSON dump to the given file. With no
// experiment names on the command line, -metrics-out performs only the
// dump.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"eccheck"
	"eccheck/internal/harness"
	"eccheck/internal/obs"
)

type experiment struct {
	name string
	desc string
	run  func(io.Writer) error
}

func experiments() []experiment {
	wrap := func(fn func(io.Writer) error) func(io.Writer) error { return fn }
	return []experiment{
		{"table1", "model configurations with analytic sizes", wrap(func(w io.Writer) error {
			_, err := harness.TableI(w)
			return err
		})},
		{"fig3", "cluster recovery rate: replication vs erasure coding", wrap(func(w io.Writer) error {
			_, err := harness.Fig3(w)
			return err
		})},
		{"fig4", "serialization share of checkpoint time vs bandwidth", wrap(func(w io.Writer) error {
			_, err := harness.Fig4(w)
			return err
		})},
		{"fig10", "checkpointing time across models and methods", wrap(func(w io.Writer) error {
			_, err := harness.Fig10(w)
			return err
		})},
		{"fig11", "ECCheck time breakdown (steps 1-3)", wrap(func(w io.Writer) error {
			_, err := harness.Fig11(w)
			return err
		})},
		{"fig12", "iteration time vs checkpoint frequency", wrap(func(w io.Writer) error {
			_, err := harness.Fig12(w)
			return err
		})},
		{"fig13", "recovery time in both failure scenarios", wrap(func(w io.Writer) error {
			_, err := harness.Fig13(w)
			return err
		})},
		{"fig14", "scalability of checkpointing time with GPU count", wrap(func(w io.Writer) error {
			_, err := harness.Fig14(w)
			return err
		})},
		{"fig15", "fault tolerance at equal redundancy vs group size", wrap(func(w io.Writer) error {
			_, err := harness.Fig15(w)
			return err
		})},
		{"ablation", "design-choice ablations (scheduling, pipelining, selection, code)", wrap(func(w io.Writer) error {
			_, err := harness.Ablations(w)
			return err
		})},
		{"groupsize", "group-based checkpointing trade-off (the paper's future-work study)", wrap(func(w io.Writer) error {
			_, err := harness.GroupSizeStudy(w)
			return err
		})},
		{"frequency", "Young-Daly optimal checkpoint interval and expected waste per method", wrap(func(w io.Writer) error {
			_, err := harness.FrequencyStudy(w)
			return err
		})},
		{"elastic", "membership churn: crash+full re-encode vs drain+delta parity (functional layer)", wrap(func(w io.Writer) error {
			_, err := harness.ElasticStudy(w)
			return err
		})},
		{"scaleout", "streaming save round across node counts, flat and grouped (functional layer)", wrap(func(w io.Writer) error {
			if _, err := harness.ScaleOutStudy(w, harness.DefaultScaleConfig()); err != nil {
				return err
			}
			_, err := harness.ScaleOutStudy(w, harness.DefaultGroupedScaleConfig())
			return err
		})},
	}
}

func main() {
	os.Exit(run())
}

// dumpMetrics runs one instrumented functional round — two saves, an
// integrity scan, a machine failure and the recovery — and writes the
// resulting metric snapshot as JSON.
func dumpMetrics(path string) error {
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes: 4, GPUsPerNode: 2, TPDegree: 2, PPStages: 4,
		K: 2, M: 2, BufferSize: 256 << 10,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	opt := eccheck.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 7
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := sys.Save(ctx, dicts); err != nil {
			return err
		}
	}
	if _, err := sys.VerifyIntegrity(); err != nil {
		return err
	}
	if err := sys.FailNode(1); err != nil {
		return err
	}
	if err := sys.ReplaceNode(1); err != nil {
		return err
	}
	if _, _, err := sys.Load(ctx); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.Metrics().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run() int {
	list := flag.Bool("list", false, "list available experiments and exit")
	metricsOut := flag.String("metrics-out", "", "run an instrumented functional round and write its metric snapshot as JSON to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof on this address while experiments run (experiments build their own systems, so /metrics and /trace are empty here; use eccheck-sim -debug-addr for those)")
	flag.Parse()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof\n", dbg.Addr())
	}

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return 0
	}

	selected := flag.Args()
	if len(selected) == 0 && *metricsOut == "" {
		for _, e := range exps {
			selected = append(selected, e.name)
		}
	}
	byName := map[string]experiment{}
	for _, e := range exps {
		byName[e.name] = e
	}
	sort.Strings(selected)

	failed := false
	for i, name := range selected {
		e, ok := byName[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		if err := e.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = true
		}
	}
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "metrics dump: %v\n", err)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metricsOut)
		}
	}
	if failed {
		return 1
	}
	return 0
}
