// Package harness regenerates every table and figure of the paper's
// evaluation from the library's functional and timing layers. Each
// experiment returns a structured result (so tests and benchmarks can
// assert the paper's qualitative shape — who wins, by what factor, where
// crossovers fall) and can render itself as the rows/series the paper
// reports.
package harness

import (
	"fmt"
	"io"
	"time"

	"eccheck/internal/baseline"
	"eccheck/internal/cluster"
	"eccheck/internal/core"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/testbed"
	"eccheck/internal/transport"
)

// paperTopology returns the evaluation testbed: 4 nodes × 4 GPUs, TP=4
// within nodes, PP=4 across nodes.
func paperTopology() (*parallel.Topology, error) {
	return parallel.NewTopology(4, 4, 4, 4)
}

// newPaperCheckpointer builds an ECCheck engine on the paper topology for
// timing experiments (k = m = 2).
func newPaperCheckpointer(topo *parallel.Topology) (*core.Checkpointer, func(), error) {
	net, err := transport.NewMemory(topo.Nodes())
	if err != nil {
		return nil, nil, err
	}
	clus, err := cluster.New(topo.Nodes(), topo.GPUsPerNode())
	if err != nil {
		_ = net.Close()
		return nil, nil, err
	}
	ckpt, err := core.New(core.Config{Topo: topo, K: 2, M: 2}, net, clus, nil)
	if err != nil {
		_ = net.Close()
		return nil, nil, err
	}
	cleanup := func() {
		ckpt.Close()
		_ = net.Close()
	}
	return ckpt, cleanup, nil
}

// timingInput is the timing models' workload: cfg's largest per-worker
// shard on topo, on the hardware res.
func timingInput(cfg model.Config, topo *parallel.Topology, res testbed.Resources) (baseline.TimingInput, error) {
	shard, err := model.MaxShardBytes(cfg, topo)
	return baseline.TimingInput{Resources: res, ShardBytes: shard, World: topo.World(), GPUsPerNode: topo.GPUsPerNode()}, err
}

// saveTimes models one checkpoint of in's workload by each of the four
// methods — the three baselines' timing models and ECCheck's pipelined
// timed save on ckpt — and returns each method's training stall and total
// latency, keyed by method name.
func saveTimes(ckpt *core.Checkpointer, in baseline.TimingInput) (stall, total map[string]time.Duration, err error) {
	b1, err := baseline.Base1Time(in)
	if err != nil {
		return nil, nil, err
	}
	b2, err := baseline.Base2Time(in)
	if err != nil {
		return nil, nil, err
	}
	b3, err := baseline.Base3Time(in, 2)
	if err != nil {
		return nil, nil, err
	}
	ec, err := ckpt.TimedSave(core.TimedOptions{Resources: in.Resources, PacketBytes: in.ShardBytes, Pipeline: true})
	if err != nil {
		return nil, nil, err
	}
	stall = map[string]time.Duration{"base1": b1.Stall, "base2": b2.Stall, "base3": b3.Stall, "eccheck": ec.Stall}
	total = map[string]time.Duration{"base1": b1.Total, "base2": b2.Total, "base3": b3.Total, "eccheck": ec.Total}
	return stall, total, nil
}

// seconds renders a duration as seconds with sensible precision.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%8.3fs", d.Seconds())
}

// fprintf wraps fmt.Fprintf, ignoring the byte count.
func fprintf(w io.Writer, format string, args ...any) error {
	_, err := fmt.Fprintf(w, format, args...)
	return err
}

// Resources returns the default hardware model for all experiments.
func Resources() testbed.Resources { return testbed.Paper() }
