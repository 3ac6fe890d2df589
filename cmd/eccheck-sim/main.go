// Command eccheck-sim runs an end-to-end simulated training job with
// ECCheck checkpointing and injected machine failures, on the functional
// layer: real state dicts, real erasure coding, real (in-process) network
// transfers. It demonstrates the full life cycle the paper describes —
// train, checkpoint, fail, recover, resume — and verifies byte-exact state
// recovery after every failure.
//
// Usage:
//
// After every checkpoint it prints the round's phase breakdown (the same
// partition SaveReport.Phases carries), and -metrics dumps the system's
// full metric registry in Prometheus exposition format on exit.
//
// Usage:
//
//	eccheck-sim [-nodes 4] [-gpus 2] [-k 2] [-m 2] [-iters 30]
//	            [-ckpt-every 5] [-fail-at 12,23] [-scale 32] [-seed 1]
//	            [-metrics] [-trace-out run.trace.json] [-debug-addr :6060]
//
// -trace-out records every protocol event in the flight recorder and
// writes the run's timeline as Chrome trace_event JSON on exit — open it
// in Perfetto (ui.perfetto.dev) or chrome://tracing. -debug-addr serves
// /metrics, /trace and /debug/pprof live while the simulation runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"eccheck"
)

// printPhases renders a one-round phase table in pipeline order, skipping
// phases the round did not exercise (e.g. persist on non-persisted rounds).
func printPhases(kind string, order []string, phases map[string]time.Duration, total time.Duration) {
	fmt.Printf("          %-12s %10s %6s\n", kind+" phase", "time", "share")
	for _, ph := range order {
		d := phases[ph]
		if d <= 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(d) / float64(total)
		}
		fmt.Printf("          %-12s %10s %5.1f%%\n", ph, d.Round(10*time.Microsecond), share)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nodes     = flag.Int("nodes", 4, "machine count (k+m, or a multiple of it: groups of k+m nodes)")
		gpus      = flag.Int("gpus", 2, "GPUs per machine")
		k         = flag.Int("k", 2, "data nodes")
		m         = flag.Int("m", 2, "parity nodes")
		iters     = flag.Int("iters", 30, "training iterations to simulate")
		ckptEvery = flag.Int("ckpt-every", 5, "checkpoint interval in iterations")
		failAtRaw = flag.String("fail-at", "12,23", "comma-separated iterations at which random failures strike")
		scale     = flag.Int("scale", 32, "model down-scale factor (1 = full size)")
		seed      = flag.Int64("seed", 1, "random seed for failure injection")
		metrics   = flag.Bool("metrics", false, "dump the full metric registry (Prometheus text format) on exit")
		traceOut  = flag.String("trace-out", "", "write the run's flight-recorder timeline as Chrome trace JSON to this file on exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	failAt := map[int]bool{}
	if *failAtRaw != "" {
		for _, part := range strings.Split(*failAtRaw, ",") {
			it, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -fail-at entry %q: %v\n", part, err)
				return 2
			}
			failAt[it] = true
		}
	}

	flightEvents := 0
	if *traceOut != "" || *debugAddr != "" {
		// Large enough to hold a full default run (rounds × phase spans ×
		// per-peer transfers) without the ring wrapping.
		flightEvents = 1 << 16
	}
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:        *nodes,
		GPUsPerNode:  *gpus,
		TPDegree:     *gpus,
		PPStages:     *nodes,
		K:            *k,
		M:            *m,
		BufferSize:   256 << 10,
		FlightEvents: flightEvents,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := sys.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *debugAddr != "" {
		dbg, err := sys.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer dbg.Close()
		fmt.Printf("debug server: http://%s (/metrics /trace /debug/pprof)\n", dbg.Addr())
	}
	if *traceOut != "" {
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			if err := sys.WriteTrace(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("trace written to %s (%d events) — open in ui.perfetto.dev\n",
				*traceOut, sys.FlightRecorder().Len())
		}()
	}

	fmt.Printf("cluster: %d nodes x %d GPUs, k=%d data nodes %v, m=%d parity nodes %v\n",
		*nodes, *gpus, *k, sys.DataNodes(), *m, sys.ParityNodes())

	cfg := eccheck.ModelZoo()[0] // GPT-2 1.6B
	opt := eccheck.NewBuildOptions()
	opt.Scale = *scale
	opt.Seed = 1000
	dicts, err := eccheck.BuildClusterStateDicts(cfg, sys.Topology(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("model: %s at 1/%d scale, %d workers, shard ≈ %.1f MB\n",
		cfg.Name, *scale, len(dicts), float64(dicts[0].TensorBytes())/1e6)

	rng := rand.New(rand.NewSource(*seed))
	ctx := context.Background()
	lastCkptIter := 0
	iteration := 0

	for iteration < *iters {
		iteration++
		// "Train": deterministically mutate every shard.
		for rank, sd := range dicts {
			entries := sd.TensorEntries()
			ts := entries[iteration%len(entries)].Tensor
			ts.Data()[(iteration*31+rank)%ts.NumBytes()] ^= byte(iteration)
			sd.SetMeta("iteration", eccheck.IntValue(int64(iteration)))
		}

		if iteration%*ckptEvery == 0 {
			rep, err := sys.Save(ctx, dicts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "save at iter %d: %v\n", iteration, err)
				return 1
			}
			lastCkptIter = iteration
			fmt.Printf("iter %3d: checkpoint v%d in %v (packet %.1f MB, small %d B, remote=%v)\n",
				iteration, rep.Version, rep.Elapsed.Round(10*time.Microsecond),
				float64(rep.PacketBytes)/1e6, rep.SmallBytes, rep.RemotePersisted)
			printPhases("save", eccheck.SavePhases(), rep.Phases, rep.Elapsed)
		}

		if failAt[iteration] {
			delete(failAt, iteration) // each injected failure strikes once
			// Fail up to m random distinct machines.
			count := 1 + rng.Intn(*m)
			alive := sys.AliveNodes()
			rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
			victims := alive[:count]
			fmt.Printf("iter %3d: FAILURE of node(s) %v\n", iteration, victims)
			for _, v := range victims {
				if err := sys.FailNode(v); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				if err := sys.ReplaceNode(v); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
			}
			recovered, lrep, err := sys.Load(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "recovery failed: %v\n", err)
				return 1
			}
			fmt.Printf("iter %3d: recovered v%d via %s workflow (missing chunks %v) in %v\n",
				iteration, lrep.Version, lrep.Workflow, lrep.MissingChunks, lrep.Elapsed)
			printPhases("load", eccheck.LoadPhases(), lrep.Phases, lrep.Elapsed)

			// Verify the recovered state matches the last checkpoint, then
			// roll back and resume.
			for rank := range recovered {
				v, ok := recovered[rank].Meta("iteration")
				if !ok {
					fmt.Fprintf(os.Stderr, "rank %d missing iteration meta\n", rank)
					return 1
				}
				it, _ := v.AsInt()
				if int(it) != lastCkptIter {
					fmt.Fprintf(os.Stderr, "rank %d recovered iteration %d, want %d\n", rank, it, lastCkptIter)
					return 1
				}
			}
			dicts = recovered
			iteration = lastCkptIter
			fmt.Printf("iter %3d: training resumes from iteration %d\n", iteration, lastCkptIter)
		}
	}
	fmt.Printf("done: %d iterations, final checkpoint version %d\n", *iters, sys.Version())
	if *metrics {
		fmt.Println()
		if err := sys.Metrics().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
