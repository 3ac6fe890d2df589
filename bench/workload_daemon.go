package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"eccheck"
	"eccheck/internal/daemon"
)

// The daemon_fleet shape: an in-process eccheckd behind a real HTTP
// listener, two jobs, one closed-loop client each. ≈1 MB of payload per
// job keeps the round so short that HTTP/JSON, the fleet-wide save slot,
// round hooks, the health tracker and the flight recorder (on, at the
// daemon's default ring size) are a large share of it. It is the only
// workload with the observability surfaces on.
const (
	fleetJobs  = 2
	fleetNodes = 4
	fleetGPUs  = 2
	fleetScale = 128
	// fleetLoadEvery saves per client are followed by a machine loss, a
	// partial restore and a full restore: one cycle.
	fleetLoadEvery = 20
)

type fleetInstance struct {
	d       *daemon.Daemon
	srv     *httptest.Server
	clients []*daemon.Client
	ids     []string
	rngs    []*rand.Rand
	// probes are read between cycles, each client its own (speed.go).
	probes  []*speedProbe
	payload int64
	// detail adds the daemon.* per-layer series (HTTP overhead, slot wait,
	// status latency, response size) on top of what a traced run records.
	detail bool
}

// setupFleet boots the daemon, registers the jobs and runs the warm-up
// cycles. The daemon builds each job's model itself; the seed decides
// which machine each client kills.
func setupFleet(seed uint64, detail bool) (instance, error) {
	ctx := context.Background()
	fi := &fleetInstance{d: daemon.New(daemon.Config{}), detail: detail}
	fi.srv = httptest.NewServer(fi.d.Mux())
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < fleetJobs; i++ {
		id := fmt.Sprintf("job%d", i)
		cli := daemon.NewClient(fi.srv.URL)
		if _, err := cli.Register(ctx, daemon.JobSpec{
			ID: id, Nodes: fleetNodes, GPUsPerNode: fleetGPUs, K: 2, M: 2,
			Scale: fleetScale, DisableRemote: true,
		}); err != nil {
			_ = fi.close()
			return nil, err
		}
		fi.ids = append(fi.ids, id)
		fi.clients = append(fi.clients, cli)
		fi.rngs = append(fi.rngs, rand.New(rand.NewSource(rng.Int63())))
		fi.probes = append(fi.probes, newSpeedProbe())
	}
	payload, err := fleetJobPayload()
	if err != nil {
		_ = fi.close()
		return nil, err
	}
	fi.payload = payload
	if err := warmUp(fi); err != nil {
		_ = fi.close()
		return nil, err
	}
	return fi, nil
}

// fleetJobPayload rebuilds one job's model the way the daemon does, only
// to learn its tensor payload (the API reports reservations, not payload).
func fleetJobPayload() (int64, error) {
	topo, err := eccheck.NewTopology(fleetNodes, fleetGPUs, fleetGPUs, fleetNodes)
	if err != nil {
		return 0, err
	}
	opt := eccheck.NewBuildOptions()
	opt.Scale = fleetScale
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], topo, opt)
	if err != nil {
		return 0, err
	}
	return tensorBytes(dicts), nil
}

func (fi *fleetInstance) payloadBytes() int64 { return fi.payload }

// hostBytes is what the daemon charges the tenant for one job's coded
// checkpoint: the only host-memory figure its API exposes.
func (fi *fleetInstance) hostBytes() (int64, error) {
	st, err := fi.clients[0].Status(context.Background(), fi.ids[0])
	if err != nil {
		return 0, err
	}
	return st.MemoryReservedBytes, nil
}

func (fi *fleetInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := fi.d.Shutdown(ctx)
	fi.srv.Close()
	return err
}

// run drives one closed-loop client per job, concurrently, each until its
// own cycle count satisfies stop.
func (fi *fleetInstance) run(stop func(int) bool, rec *recorder, tr *tracer) {
	var wg sync.WaitGroup
	for i := range fi.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec.probe(fi.probes[i])
			for done := 0; !stop(done); done++ {
				if err := fi.cycle(i, rec, tr); err != nil {
					return
				}
				rec.probe(fi.probes[i])
			}
		}(i)
	}
	wg.Wait()
}

func (fi *fleetInstance) cycle(i int, rec *recorder, tr *tracer) error {
	ctx := context.Background()
	cli, id := fi.clients[i], fi.ids[i]
	op := tr.newOp()
	root := tr.begin("cycle", 0, op)
	defer func() { tr.end(root, map[string]any{"job": id}) }()

	ckptStep := 0
	for s := 0; s < fleetLoadEvery; s++ {
		var resp *daemon.SaveResponse
		r, err := measure(tr, func() (err error) {
			resp, err = cli.Save(ctx, id, daemon.SaveRequest{})
			return err
		})
		var attrs map[string]any
		if err == nil && tr != nil {
			attrs = recordSaveReport(rec, resp.Report, r.dur(), fi.payload, r.mem)
			attrs["slot_wait_ms"] = ms(resp.SlotWait)
		}
		if _, err := r.finish(rec, tr, root, op, "save", mRound, err, attrs); err != nil {
			return err
		}
		ckptStep = resp.Job.CheckpointStep
		if fi.detail {
			rec.add("daemon.http_overhead_us", float64((r.dur()-resp.SlotWait-resp.Report.Elapsed).Nanoseconds())/1e3)
			rec.add("daemon.slot_wait_ms", ms(resp.SlotWait))
			if raw, err := json.Marshal(resp); err == nil {
				rec.add("daemon.save_response_bytes", float64(len(raw)))
			}
			if s == fleetLoadEvery/2 {
				// The other client's save is usually in flight here.
				t0 := time.Now()
				_, err := cli.Status(ctx, id)
				rec.op(err)
				if err != nil {
					return fmt.Errorf("status: %w", err)
				}
				rec.add("daemon.status_us", float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}

	node := fi.rngs[i].Intn(fleetNodes)
	fr := tr.begin("fail_replace", root, op)
	_, err := cli.Fail(ctx, id, daemon.FailRequest{Node: node})
	tr.end(fr, map[string]any{"node": node})
	if err != nil {
		rec.op(err)
		return fmt.Errorf("fail: %w", err)
	}

	// The daemon byte-verifies what it restores against the job's live
	// state and reports the step it recovered; the benchmark checks that
	// step against the checkpoint position of the last committed save.
	ranks := make([]int, fleetGPUs)
	for g := range ranks {
		ranks[g] = node*fleetGPUs + g
	}
	var partialBytes int64
	for _, partial := range []bool{true, false} {
		name, metric := "load", mLoad
		if partial {
			name, metric = "partial_load", mPartial
		}
		var resp *daemon.LoadResponse
		r, err := measure(tr, func() (err error) {
			if partial {
				resp, err = cli.LoadPartial(ctx, id, ranks)
			} else {
				resp, err = cli.Load(ctx, id)
			}
			return err
		})
		var attrs map[string]any
		if err == nil {
			attrs = loadAttrs(resp.Report)
			if resp.VerifiedStep != ckptStep {
				err = fmt.Errorf("restored step %d, last committed save was step %d", resp.VerifiedStep, ckptStep)
			}
		}
		if _, err := r.finish(rec, tr, root, op, name, metric, err, attrs); err != nil {
			return err
		}
		if tr == nil {
			continue
		}
		if partial {
			partialBytes = resp.Report.BytesFetched
			continue
		}
		recordLoadReport(rec, resp.Report, r.mem)
		if resp.Report.BytesFetched > 0 {
			rec.add("core.partial_bytes_ratio", float64(partialBytes)/float64(resp.Report.BytesFetched))
		}
		rec.add("core.incr_changed_buffer_ratio", 1)
	}
	return nil
}
