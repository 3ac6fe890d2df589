package core

import (
	"fmt"
	"time"

	"eccheck/internal/placement"
	"eccheck/internal/simnet"
	"eccheck/internal/testbed"
)

// The timing layer replays the same communication plan the functional
// engine executes, at paper-scale shard sizes, on a virtual-time resource
// model: per-GPU PCIe links for the DtoH offload, per-node NICs with the
// training traffic timeline, and per-node CPU encode pools. No bytes move;
// completion instants are computed, which is how every figure of the
// evaluation is regenerated deterministically.

// TimedOptions parameterises a timed checkpoint round.
type TimedOptions struct {
	// Resources is the hardware model (bandwidths, rates).
	Resources testbed.Resources
	// PacketBytes is the per-worker shard size s at paper scale.
	PacketBytes int64
	// Timeline carries the profiled training traffic on the inter-node
	// links; nil means an idle network.
	Timeline *simnet.Timeline
	// ScheduleIdle selects idle-slot scheduling for checkpoint
	// communication (the paper's scheme); false contends with training
	// traffic (the ablation baseline).
	ScheduleIdle bool
	// Pipeline overlaps encoding with communication per buffer (the
	// paper's pipelined execution); false serialises the stages.
	Pipeline bool
	// BufferSize is the pipeline buffer (default DefaultBufferSize).
	BufferSize int64
}

func (o TimedOptions) withDefaults() TimedOptions {
	if o.BufferSize == 0 {
		o.BufferSize = DefaultBufferSize
	}
	return o
}

func (o TimedOptions) validate() error {
	if err := o.Resources.Validate(); err != nil {
		return err
	}
	if o.PacketBytes <= 0 {
		return fmt.Errorf("core: packet bytes must be positive, got %d", o.PacketBytes)
	}
	if o.BufferSize <= 0 {
		return fmt.Errorf("core: buffer size must be positive, got %d", o.BufferSize)
	}
	return nil
}

// TimedSaveReport breaks a checkpoint round down as Fig. 11 does.
type TimedSaveReport struct {
	// Step1 is the training stall: decompose + DtoH offload.
	Step1 time.Duration
	// Step2 is the small-component broadcast.
	Step2 time.Duration
	// Step3 is the asynchronous encode/XOR-reduce/P2P pipeline.
	Step3 time.Duration
	// Total is the full checkpoint latency (save-call to completion).
	Total time.Duration
	// Stall is the training interruption (Step1 + Step2); the rest
	// overlaps training.
	Stall time.Duration
	// Interference is training busy time overlapped by unscheduled
	// checkpoint communication (zero under idle-slot scheduling).
	Interference time.Duration
}

// nodeTraffic is the per-node byte accounting extracted from the plan.
type nodeTraffic struct {
	encode int64 // bytes of coding output the node's CPU pool produces
	tx     int64 // bytes the node sends cross-machine
	rx     int64 // bytes the node receives cross-machine
}

// trafficByNode derives the per-node load of one checkpointing round with
// per-worker packet size s.
func (c *Checkpointer) trafficByNode(s int64) []nodeTraffic {
	out := make([]nodeTraffic, len(c.lay.streams))
	// Encoding: every worker produces m coefficient-multiplied copies of
	// its packet; reduction roots additionally XOR k contributions (cheap,
	// same memory rate — count the accumulation passes). Every stream a
	// node receives — partials at a root, parity and data landing in its
	// chunk — is one packet from its sender.
	recv := func(node int, streams []inStream) {
		for _, in := range streams {
			out[node].rx += s
			out[in.from].tx += s
		}
	}
	for node, st := range c.lay.streams {
		out[node].encode += int64(len(st.products)) * s
		for _, rt := range st.roots {
			out[node].encode += int64(len(rt.partials)) * s
			recv(node, rt.partials)
		}
		recv(node, st.land)
	}
	return out
}

// TimedSave models one checkpoint round at paper scale.
func (c *Checkpointer) TimedSave(opt TimedOptions) (*TimedSaveReport, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := opt.Resources
	s := opt.PacketBytes

	// Step 1: all workers offload concurrently over their PCIe links.
	step1, err := simnet.DurationForBytes(s, res.PCIeBandwidth)
	if err != nil {
		return nil, err
	}
	// Step 2: broadcast of the small components.
	step2 := res.SmallBroadcastLatency

	traffic := c.trafficByNode(s)
	numBuffers := int((s + opt.BufferSize - 1) / opt.BufferSize)
	if numBuffers < 1 {
		numBuffers = 1
	}

	start := step1 + step2
	var (
		finish       time.Duration
		interference time.Duration
	)
	for _, tr := range traffic {
		nodeFinish, nodeInterf, err := c.simulateNodeStep3(tr, start, numBuffers, opt)
		if err != nil {
			return nil, err
		}
		if nodeFinish > finish {
			finish = nodeFinish
		}
		interference += nodeInterf
	}

	return &TimedSaveReport{
		Step1:        step1,
		Step2:        step2,
		Step3:        finish - start,
		Total:        finish,
		Stall:        step1 + step2,
		Interference: interference,
	}, nil
}

// simulateNodeStep3 streams one node's encode and communication load
// through the buffer pipeline and returns its completion instant plus its
// interference with training traffic.
func (c *Checkpointer) simulateNodeStep3(tr nodeTraffic, start time.Duration, numBuffers int, opt TimedOptions) (time.Duration, time.Duration, error) {
	res := opt.Resources
	encPerBuf := tr.encode / int64(numBuffers)
	commBytes := tr.tx
	if tr.rx > commBytes {
		// The NIC is full duplex; the slower direction bounds the node.
		commBytes = tr.rx
	}
	commPerBuf := commBytes / int64(numBuffers)

	encDur, err := simnet.DurationForBytes(encPerBuf, res.EncodeRate)
	if err != nil {
		return 0, 0, err
	}

	var (
		encFree      = start
		commFree     = start
		finish       = start
		interference time.Duration
	)
	for b := 0; b < numBuffers; b++ {
		encStart := encFree
		encEnd := encStart + encDur
		encFree = encEnd

		ready := encEnd
		if !opt.Pipeline {
			// Unpipelined ablation: all encoding first, then all comm.
			ready = start + time.Duration(numBuffers)*encDur
		}
		if ready < commFree {
			ready = commFree
		}
		var commEnd time.Duration
		switch {
		case commPerBuf == 0:
			commEnd = ready
		case opt.Timeline == nil:
			d, err := simnet.DurationForBytes(commPerBuf, res.NICBandwidth)
			if err != nil {
				return 0, 0, err
			}
			commEnd = ready + d
		case opt.ScheduleIdle:
			commEnd, err = opt.Timeline.TransferIdle(ready, commPerBuf, res.NICBandwidth)
			if err != nil {
				return 0, 0, err
			}
		default:
			commEnd, err = opt.Timeline.TransferContended(ready, commPerBuf, res.NICBandwidth)
			if err != nil {
				return 0, 0, err
			}
			interference += opt.Timeline.InterferenceDuring(ready, commEnd)
		}
		commFree = commEnd
		if commEnd > finish {
			finish = commEnd
		}
		if encEnd > finish {
			finish = encEnd
		}
	}
	return finish, interference, nil
}

// TimedRecoverReport models a recovery at paper scale.
type TimedRecoverReport struct {
	// Workflow is "replacement" or "decode".
	Workflow string
	// Resume is the time until training can continue: every worker holds
	// its original packet again.
	Resume time.Duration
	// FullRestore additionally rebuilds the lost chunks, restoring the
	// full fault-tolerance capacity.
	FullRestore time.Duration
}

// TimedRecover models recovery after the given machines failed (and were
// replaced). It mirrors the two functional workflows.
func (c *Checkpointer) TimedRecover(opt TimedOptions, failedNodes []int) (*TimedRecoverReport, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := opt.Resources
	topo := c.cfg.Topo
	plan := c.Plan()
	s := opt.PacketBytes
	g := int64(topo.GPUsPerNode())
	chunkBytes := int64(plan.Span()) * s

	// Code groups recover concurrently and independently, so the worst-hit
	// group sets the pace.
	failed := map[int]bool{}
	perGroup := make([]int, plan.Groups())
	worst := 0
	dataLost := false
	for _, node := range failedNodes {
		if node < 0 || node >= topo.Nodes() {
			return nil, fmt.Errorf("core: failed node %d out of range", node)
		}
		if failed[node] {
			return nil, fmt.Errorf("core: node %d listed twice", node)
		}
		failed[node] = true
		cg := plan.GroupOfNode(node)
		perGroup[cg]++
		worst = max(worst, perGroup[cg])
		if plan.Roles[node] == placement.RoleData {
			dataLost = true
		}
	}
	if worst > c.cfg.M {
		return nil, fmt.Errorf("core: %d failures in one group exceed fault tolerance m=%d", worst, c.cfg.M)
	}

	nic := res.NICBandwidth
	if len(failedNodes) == 0 {
		return &TimedRecoverReport{Workflow: "replacement"}, nil
	}

	if !dataLost {
		// Workflow A: replaced nodes pull their workers' packets from the
		// data nodes (g·s each, concurrently); training resumes. Parity
		// rebuild then streams k·chunk contributions to each replaced
		// parity node while basis nodes encode.
		resumeDur, err := simnet.DurationForBytes(g*s, nic)
		if err != nil {
			return nil, err
		}
		resume := res.SmallBroadcastLatency + resumeDur
		rebuildRx, err := simnet.DurationForBytes(int64(c.cfg.K)*chunkBytes, nic)
		if err != nil {
			return nil, err
		}
		encodeDur, err := simnet.DurationForBytes(int64(worst)*chunkBytes, res.EncodeRate)
		if err != nil {
			return nil, err
		}
		restore := resume + max(rebuildRx, encodeDur)
		return &TimedRecoverReport{Workflow: "replacement", Resume: resume, FullRestore: restore}, nil
	}

	// Workflow B: missing chunks are decoded first — each rebuilt node
	// receives k coefficient-multiplied chunks while basis nodes encode
	// their contributions — then packets are distributed as in A.
	decodeRx, err := simnet.DurationForBytes(int64(c.cfg.K)*chunkBytes, nic)
	if err != nil {
		return nil, err
	}
	encodeDur, err := simnet.DurationForBytes(int64(worst)*chunkBytes, res.EncodeRate)
	if err != nil {
		return nil, err
	}
	packetDur, err := simnet.DurationForBytes(g*s, nic)
	if err != nil {
		return nil, err
	}
	resume := res.SmallBroadcastLatency + max(decodeRx, encodeDur) + packetDur
	return &TimedRecoverReport{Workflow: "decode", Resume: resume, FullRestore: resume}, nil
}
