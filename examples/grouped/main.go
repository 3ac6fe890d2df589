// Grouped checkpointing: a larger cluster divided into independent ECCheck
// groups — the paper's scalability scheme. It is a layout, not a second
// system: Initialize with Nodes a multiple of K+M lays the cluster out as
// contiguous groups of K+M nodes, each an independent (K, M) code inside the
// same round, version and commit. Per-node communication stays m·s
// regardless of cluster size, each group survives m concurrent failures, and
// every System operation works as on a flat layout. The demo kills two
// machines in every group at once (eight failures cluster-wide) and recovers
// byte-exact, then shows the trade-off: a third failure in one group is
// beyond the in-memory checkpoint.
package main

import (
	"context"
	"fmt"
	"os"

	"eccheck"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:         16, // four groups of K+M = 4 nodes: 0-3, 4-7, 8-11, 12-15
		GPUsPerNode:   2,
		TPDegree:      2,
		PPStages:      16,
		K:             2,
		M:             2,
		BufferSize:    128 << 10,
		DisableRemote: true,
	})
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()
	fmt.Printf("16-node cluster as 4 groups of 4 (k=2, m=2 per group): data nodes %v, parity nodes %v\n",
		sys.DataNodes(), sys.ParityNodes())

	cfg := eccheck.ModelZoo()[0]
	opt := eccheck.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 61
	dicts, err := eccheck.BuildClusterStateDicts(cfg, sys.Topology(), opt)
	if err != nil {
		return err
	}

	ctx := context.Background()
	rep, err := sys.Save(ctx, dicts)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint v%d: one round over all groups in %v, fault tolerance %d per group\n",
		rep.Version, rep.Elapsed, sys.FaultTolerance())

	// Two failures in EVERY group simultaneously: eight machines down
	// cluster-wide. A flat code would need m=8 to promise this; grouping
	// buys per-group failure budgets at m=2 worth of traffic per node.
	victims := []int{0, 2, 5, 7, 8, 9, 14, 15}
	for _, v := range victims {
		if err := sys.FailNode(v); err != nil {
			return err
		}
		if err := sys.ReplaceNode(v); err != nil {
			return err
		}
	}
	fmt.Printf("machines %v failed (2 per group) and were replaced\n", victims)

	recovered, lrep, err := sys.Load(ctx)
	if err != nil {
		return err
	}
	for rank := range dicts {
		if !dicts[rank].Equal(recovered[rank]) {
			return fmt.Errorf("rank %d differs after recovery", rank)
		}
	}
	fmt.Printf("recovered v%d across all groups (%s workflow, chunks %v rebuilt) in %v: byte-exact ✓\n",
		lrep.Version, lrep.Workflow, lrep.MissingChunks, lrep.Elapsed)

	// The trade-off: m+1 failures inside one group sink the in-memory
	// checkpoint even though the rest of the cluster is untouched.
	for _, v := range []int{4, 5, 6} {
		if err := sys.FailNode(v); err != nil {
			return err
		}
		if err := sys.ReplaceNode(v); err != nil {
			return err
		}
	}
	if _, _, err = sys.Load(ctx); err == nil {
		return fmt.Errorf("three failures in one group with m=2 must not be recoverable from memory")
	}
	fmt.Printf("3 failures in group 1: %v\n", err)
	return nil
}
