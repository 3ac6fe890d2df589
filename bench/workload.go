package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"eccheck"
	"eccheck/internal/model"
)

// End-to-end metric names. They are final: BENCHMARK.json, the README and
// later issues cite them.
const (
	mSetup   = "setup_s"
	mStall   = "save_stall_ms"
	mRound   = "save_round_ms"
	mLoad    = "load_ms"
	mIncr    = "incr_save_ms"
	mPartial = "partial_load_ms"
	mRemote  = "remote_load_ms"
	mRSS     = "peak_rss_mb"
	mHost    = "host_bytes_per_payload_byte"
)

// warmupCycles is how many full cycles run (and are discarded) inside
// every set-up, so pools, schedule caches and lazily dialled sockets are
// warm before anything is timed.
const warmupCycles = 2

// workload is one benchmark input shape. setup builds the system and its
// inputs from the seed and runs the warm-up cycles; everything it does is
// timed as setup_s.
type workload struct {
	name string
	// cycles is the run length: a fixed operation count, the same on every
	// commit, so that sample counts and peak memory do not follow speed. It
	// was sized to take a little under sizedForSeconds on the 2-CPU VM the
	// benchmark was written on when the host is quiet (a busy host stretches
	// a run by a quarter, and all the driver's runs share one time limit);
	// -seconds scales it. For daemon_fleet it is the count per client.
	cycles int
	// reports lists the end-to-end metrics this workload has an operation
	// for, beyond commonMetrics.
	reports []string
	// setup builds the workload; smoke asks for the shape in which a run
	// of smokeCycles cycles still reaches every operation.
	setup func(seed uint64, smoke bool) (instance, error)
}

// commonMetrics are the end-to-end metrics every workload reports.
var commonMetrics = []string{mSetup, mRound, mLoad, mPartial, mRSS}

// reported lists every end-to-end metric w reports.
func (w *workload) reported() []string {
	return append(append([]string(nil), commonMetrics...), w.reports...)
}

// instance is a set-up workload, ready to run measured cycles.
type instance interface {
	// run executes cycles until stop(cyclesDone) is true, recording every
	// timing and operation into rec and, when tr is non-nil, spans and the
	// per-layer series into tr and rec.
	run(stop func(cycles int) bool, rec *recorder, tr *tracer)
	// payloadBytes is the tensor payload one checkpoint covers.
	payloadBytes() int64
	// hostBytes is the host memory the committed checkpoint occupies
	// across all machines (the redundancy cost); behind the daemon, where
	// that is out of reach, what the tenant is charged for it.
	hostBytes() (int64, error)
	close() error
}

var workloads = []workload{
	{
		name:    "dense_mem",
		cycles:  30,
		reports: []string{mStall, mHost},
		setup: func(seed uint64, _ bool) (instance, error) {
			return setupLib(denseShape(eccheck.TransportMemory), seed)
		},
	},
	{
		name:    "dense_tcp",
		cycles:  22,
		reports: []string{mStall, mHost},
		setup: func(seed uint64, _ bool) (instance, error) {
			return setupLib(denseShape(eccheck.TransportTCP), seed)
		},
	},
	{
		name:   "wide_small",
		cycles: 200,
		// No save_stall_ms: 0.4 ms of a 16-machine simulation on two vCPUs
		// is mostly goroutine scheduling, and when the host is busy it
		// doubles where the round grows by half. Ten runs of the same code
		// spread 31 % even at reference speed (baseline/noise.txt).
		reports: []string{mHost},
		setup:   func(seed uint64, _ bool) (instance, error) { return setupLib(wideShape(), seed) },
	},
	{
		name:    "moe_sparse",
		cycles:  128,
		reports: []string{mStall, mIncr, mRemote, mHost},
		setup: func(seed uint64, smoke bool) (instance, error) {
			shape := moeShape()
			if smoke {
				shape.cfg.RemotePersistEvery = 2 // every anchor, so two cycles restore remotely
			}
			return setupLib(shape, seed)
		},
	},
	{
		name:   "daemon_fleet",
		cycles: 190,
		setup:  func(seed uint64, _ bool) (instance, error) { return setupFleet(seed, false) },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// libShape describes a workload driven through the eccheck package.
type libShape struct {
	cfg eccheck.Config
	// scale divides the dense model (ModelZoo()[0]); unused by moe.
	scale int
	// moe switches the cycle to the sparse shape: a hot-expert mutation
	// and a delta save before the machine loss, a full save (the new
	// anchor) after the restore, and remote restores whenever that save
	// was persisted.
	moe bool
}

// denseSavesPerCycle full saves precede each machine loss on the dense
// shapes: checkpoints are far more frequent than failures.
const denseSavesPerCycle = 4

// moePersistEvery makes the remote tier keep every 32nd version: with two
// versions per moe_sparse cycle (delta, anchor) that is every 16th anchor,
// eight in a run. The tier retains every version it is given and the public
// Config cannot bound that, so a denser cadence would make what the tier
// hoards, not what the engine needs, most of peak_rss_mb (at every 8th
// version it was 1.6 GB of 2.2 GB).
const moePersistEvery = 32

// remoteLoadsPerPersist remote restores follow each persisted anchor, so
// the rare remote path still collects enough samples for a steady median.
const remoteLoadsPerPersist = 5

// denseShape is dense_mem / dense_tcp: ≈70 MB of tensor payload over 4
// machines × 2 workers, 2+2 code, 1 MiB windows, every optional surface
// off. Encode, XOR reduction, packet copies and checksummed host stores do
// nearly all the work; only the transport differs between the two.
func denseShape(tk eccheck.TransportKind) libShape {
	return libShape{
		cfg: eccheck.Config{
			Nodes: 4, GPUsPerNode: 2, TPDegree: 2, PPStages: 4, K: 2, M: 2,
			BufferSize: 1 << 20, Transport: tk, DisableRemote: true,
		},
		scale: 16,
	}
}

// wideShape is wide_small: ≈4 MB over 16 single-worker machines, 8+8
// code, 64 KiB windows. Per-message, per-window and per-goroutine costs
// dominate the round; the wide code makes decode-schedule compilation and
// m=8 reconstruction visible in the load.
func wideShape() libShape {
	return libShape{
		cfg: eccheck.Config{
			Nodes: 16, GPUsPerNode: 1, TPDegree: 1, PPStages: 16, K: 8, M: 8,
			BufferSize: 64 << 10, DisableRemote: true,
		},
		scale: 64,
	}
}

// moeShape is moe_sparse: ≈24 MB of expert-parallel state with optimizer
// moments over 8 machines × 2 workers, 4+4 code, delta saves and a remote
// tier.
func moeShape() libShape {
	return libShape{
		cfg: eccheck.Config{
			Nodes: 8, GPUsPerNode: 2, TPDegree: 1, PPStages: 1, K: 4, M: 4,
			BufferSize: 64 << 10, Incremental: true, RemotePersistEvery: moePersistEvery,
		},
		moe: true,
	}
}

// libInstance is a running library workload.
type libInstance struct {
	shape   libShape
	sys     *eccheck.System
	dicts   []*eccheck.StateDict
	payload int64
	rng     *rand.Rand
	step    int64
	// probe is read between cycles (speed.go).
	probe *speedProbe
	// failNodes die every cycle; partialRanks, the workers of failNodes[0],
	// are restored first.
	failNodes    []int
	partialRanks []int
	// dense mutation state: the tensors of each rank, listed once.
	tensors [][]*eccheck.Tensor
	// moe mutation state.
	moeCfg model.MoEConfig
	moeOpt model.BuildOptions
}

func setupLib(shape libShape, seed uint64) (instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	sys, err := eccheck.Initialize(shape.cfg)
	if err != nil {
		return nil, err
	}
	li := &libInstance{shape: shape, sys: sys, rng: rng, probe: newSpeedProbe()}
	if err := li.build(); err != nil {
		_ = sys.Close()
		return nil, err
	}
	if err := warmUp(li); err != nil {
		_ = sys.Close()
		return nil, err
	}
	return li, nil
}

// warmUp runs the discarded cycles that end every set-up.
func warmUp(inst instance) error {
	warm := newRecorder()
	inst.run(func(c int) bool { return c >= warmupCycles }, warm, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %w", errFailedOps(warm))
	}
	return nil
}

// tensorBytes is the tensor payload of one checkpoint of dicts.
func tensorBytes(dicts []*eccheck.StateDict) int64 {
	var total int64
	for _, sd := range dicts {
		total += int64(sd.TensorBytes())
	}
	return total
}

// build generates the state dicts from the seed and fixes which machines
// fail and which ranks are restored first.
func (li *libInstance) build() error {
	topo := li.sys.Topology()
	opt := eccheck.NewBuildOptions()
	opt.Seed = li.rng.Uint64()
	var err error
	if li.shape.moe {
		li.moeCfg, li.moeOpt = model.DefaultMoEConfig(topo.World()), opt
		li.dicts, err = model.BuildMoEClusterStateDicts(li.moeCfg, topo.World(), opt)
		if err != nil {
			return err
		}
		li.partialRanks = li.moeCfg.HotRanks(topo.World())
		node, err := topo.NodeOf(li.partialRanks[0])
		if err != nil {
			return err
		}
		li.failNodes = []int{node}
	} else {
		opt.Scale = li.shape.scale
		li.dicts, err = eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], topo, opt)
		if err != nil {
			return err
		}
		// Losing every data machine forces the decode workflow: the
		// restore the paper's recovery claim is about.
		li.failNodes = li.sys.DataNodes()
		for rank := 0; rank < topo.World(); rank++ {
			if node, err := topo.NodeOf(rank); err != nil {
				return err
			} else if node == li.failNodes[0] {
				li.partialRanks = append(li.partialRanks, rank)
			}
		}
		li.tensors = make([][]*eccheck.Tensor, len(li.dicts))
		for rank, sd := range li.dicts {
			for _, e := range sd.TensorEntries() {
				li.tensors[rank] = append(li.tensors[rank], e.Tensor)
			}
		}
	}
	li.payload = tensorBytes(li.dicts)
	return nil
}

// mutate advances the simulated training by one step so that every
// checkpoint version differs from the one before it: restoring a stale
// version can then never pass verification.
func (li *libInstance) mutate() error {
	li.step++
	if li.shape.moe {
		return model.MutateHotExperts(li.moeCfg, len(li.dicts), li.dicts, li.step, li.moeOpt)
	}
	for rank, sd := range li.dicts {
		ts := li.tensors[rank][int(li.step)%len(li.tensors[rank])]
		ts.Data()[li.rng.Intn(ts.NumBytes())] ^= byte(li.step) | 1
		sd.SetMeta("bench_step", eccheck.IntValue(li.step))
	}
	return nil
}

func (li *libInstance) payloadBytes() int64 { return li.payload }

func (li *libInstance) hostBytes() (int64, error) {
	if err := li.mutate(); err != nil {
		return 0, err
	}
	if _, err := li.sys.Save(context.Background(), li.dicts); err != nil {
		return 0, err
	}
	var total int64
	for node := 0; node < li.shape.cfg.Nodes; node++ {
		total += int64(li.sys.NodeMemoryBytes(node))
	}
	return total, nil
}

func (li *libInstance) close() error { return li.sys.Close() }

func (li *libInstance) run(stop func(int) bool, rec *recorder, tr *tracer) {
	if tr != nil {
		hits, misses := bufpoolCounters(li.sys)
		defer func() {
			h, m := bufpoolCounters(li.sys)
			if gets := (h - hits) + (m - misses); gets > 0 {
				rec.add("bufpool.hit_ratio", float64(h-hits)/float64(gets))
			}
		}()
	}
	rec.probe(li.probe)
	for done := 0; !stop(done); done++ {
		if err := li.cycle(rec, tr); err != nil {
			// A failed operation leaves the system in a state later
			// timings would not be comparable from; it is already counted.
			return
		}
		rec.probe(li.probe)
	}
}

// cycle is one closed-loop iteration: saves, machine losses, restores.
// Mutation, fail/replace and verification sit outside the timed intervals.
// It returns the first error after counting it as a failed operation.
func (li *libInstance) cycle(rec *recorder, tr *tracer) error {
	ctx := context.Background()
	op := tr.newOp()
	root := tr.begin("cycle", 0, op)
	defer func() { tr.end(root, nil) }()
	if li.shape.moe {
		if err := li.incrSave(ctx, rec, tr, root, op); err != nil {
			return err
		}
	} else {
		for i := 0; i < denseSavesPerCycle; i++ {
			if _, err := li.fullSave(ctx, rec, tr, root, op); err != nil {
				return err
			}
		}
	}

	// One machine is lost and its ranks are restored first (the serving
	// failover); then the rest of failNodes go and everything is restored.
	if err := li.failReplace(li.failNodes[:1], rec, tr, root, op); err != nil {
		return err
	}
	partialBytes, err := li.partialLoad(ctx, rec, tr, root, op)
	if err != nil {
		return err
	}
	if err := li.failReplace(li.failNodes[1:], rec, tr, root, op); err != nil {
		return err
	}
	fullBytes, err := li.fullLoad(ctx, rec, tr, root, op)
	if err != nil {
		return err
	}
	if tr != nil && fullBytes > 0 {
		rec.add("core.partial_bytes_ratio", float64(partialBytes)/float64(fullBytes))
	}

	if li.shape.moe {
		// The replaced machine lost its delta cache, so the next save has
		// to be a full one (SaveIncremental would fall back to it anyway):
		// the new anchor. Without it every delta save of this workload
		// would silently be a full save.
		rep, err := li.fullSave(ctx, rec, tr, root, op)
		if err != nil {
			return err
		}
		if rep.RemotePersisted {
			for i := 0; i < remoteLoadsPerPersist; i++ {
				if err := li.remoteLoad(ctx, rec, tr, root, op); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// failReplace kills the given machines (their host memory is destroyed)
// and refills the slots with empty ones. Untimed.
func (li *libInstance) failReplace(nodes []int, rec *recorder, tr *tracer, parent, op int) error {
	if len(nodes) == 0 {
		return nil
	}
	id := tr.begin("fail_replace", parent, op)
	defer tr.end(id, map[string]any{"nodes": nodes})
	for _, node := range nodes {
		if err := li.sys.FailNode(node); err != nil {
			rec.op(err)
			return err
		}
	}
	for _, node := range nodes {
		if err := li.sys.ReplaceNode(node); err != nil {
			rec.op(err)
			return err
		}
	}
	return nil
}

func (li *libInstance) fullSave(ctx context.Context, rec *recorder, tr *tracer, parent, op int) (*eccheck.SaveReport, error) {
	if err := li.mutate(); err != nil {
		rec.op(err)
		return nil, err
	}
	var before saveCounters
	if tr != nil {
		before = readSaveCounters(li.sys)
	}
	var rep *eccheck.SaveReport
	var resumed time.Time // when SaveAsync handed control back to "training"
	r, err := measure(tr, func() error {
		h, err := li.sys.SaveAsync(ctx, li.dicts)
		resumed = time.Now()
		if err == nil {
			rep, err = h.Wait(ctx)
		}
		return err
	})
	var attrs map[string]any
	if err == nil {
		rec.addAt(mStall, ms(resumed.Sub(r.start)), r.start, resumed)
		if tr != nil {
			attrs = recordSaveReport(rec, rep, r.dur(), li.payload, r.mem)
			after := readSaveCounters(li.sys)
			rec.add("transport.bytes_per_payload_byte", float64(after.sendBytes-before.sendBytes)/float64(li.payload))
			rec.add("transport.sends_per_round", float64(after.sends-before.sends))
			if !li.shape.moe {
				// Without a delta path every save ships every buffer.
				rec.add("core.incr_changed_buffer_ratio", 1)
			}
		}
	}
	id, err := r.finish(rec, tr, parent, op, "save", mRound, err, attrs)
	if err != nil {
		return nil, err
	}
	tr.record("save.snapshot", id, op, r.start, resumed, nil)
	tr.record("save.drain", id, op, resumed, r.end, nil)
	return rep, nil
}

func (li *libInstance) incrSave(ctx context.Context, rec *recorder, tr *tracer, parent, op int) error {
	if err := li.mutate(); err != nil {
		rec.op(err)
		return err
	}
	var rep *eccheck.IncrementalReport
	r, err := measure(tr, func() (err error) {
		rep, err = li.sys.SaveIncremental(ctx, li.dicts)
		return err
	})
	var attrs map[string]any
	if err == nil {
		attrs = map[string]any{"full": rep.Full, "changed_buffers": rep.ChangedBuffers, "total_buffers": rep.TotalBuffers}
		if rep.Full {
			rec.add("incr_full_fallbacks", 1)
		}
		if tr != nil {
			ratio := 1.0
			if !rep.Full && rep.TotalBuffers > 0 {
				ratio = float64(rep.ChangedBuffers) / float64(rep.TotalBuffers)
			}
			rec.add("core.incr_changed_buffer_ratio", ratio)
		}
	}
	_, err = r.finish(rec, tr, parent, op, "incr_save", mIncr, err, attrs)
	return err
}

func (li *libInstance) partialLoad(ctx context.Context, rec *recorder, tr *tracer, parent, op int) (int64, error) {
	var got map[int]*eccheck.StateDict
	var rep *eccheck.LoadReport
	r, err := measure(tr, func() (err error) {
		got, rep, err = li.sys.LoadPartial(ctx, li.partialRanks)
		return err
	})
	var attrs map[string]any
	if err == nil {
		attrs = loadAttrs(rep)
		restored := make([]*eccheck.StateDict, len(li.dicts))
		for _, rank := range li.partialRanks {
			restored[rank] = got[rank]
		}
		err = li.verify(tr, parent, op, li.partialRanks, restored)
	}
	if _, err := r.finish(rec, tr, parent, op, "partial_load", mPartial, err, attrs); err != nil {
		return 0, err
	}
	return rep.BytesFetched, nil
}

func (li *libInstance) fullLoad(ctx context.Context, rec *recorder, tr *tracer, parent, op int) (int64, error) {
	var got []*eccheck.StateDict
	var rep *eccheck.LoadReport
	r, err := measure(tr, func() (err error) {
		got, rep, err = li.sys.Load(ctx)
		return err
	})
	var attrs map[string]any
	if err == nil {
		attrs = loadAttrs(rep)
		err = li.verify(tr, parent, op, nil, got)
	}
	if _, err := r.finish(rec, tr, parent, op, "load", mLoad, err, attrs); err != nil {
		return 0, err
	}
	if tr != nil {
		recordLoadReport(rec, rep, r.mem)
	}
	return rep.BytesFetched, nil
}

func (li *libInstance) remoteLoad(ctx context.Context, rec *recorder, tr *tracer, parent, op int) error {
	var got []*eccheck.StateDict
	r, err := measure(tr, func() (err error) {
		got, err = li.sys.LoadFromRemote(ctx, li.sys.Version())
		return err
	})
	if err == nil {
		err = li.verify(tr, parent, op, nil, got)
	}
	_, err = r.finish(rec, tr, parent, op, "remote_load", mRemote, err, nil)
	return err
}

// verify compares restored dicts byte for byte with the live ones (nothing
// mutates the live dicts between a save and its verification). ranks nil
// means every rank.
func (li *libInstance) verify(tr *tracer, parent, op int, ranks []int, got []*eccheck.StateDict) error {
	v := tr.begin("verify", parent, op)
	defer tr.end(v, nil)
	if len(got) != len(li.dicts) {
		return fmt.Errorf("restored %d dicts, saved %d", len(got), len(li.dicts))
	}
	if ranks == nil {
		for rank := range li.dicts {
			ranks = append(ranks, rank)
		}
	}
	for _, rank := range ranks {
		if got[rank] == nil || !li.dicts[rank].Equal(got[rank]) {
			return fmt.Errorf("rank %d: restored bytes differ from the saved ones", rank)
		}
	}
	return nil
}

// measured is one timed operation: its bounds and, on a traced run, the
// allocation and GC counters across it.
type measured struct {
	start, end time.Time
	mem        memDelta
}

func (r measured) dur() time.Duration { return r.end.Sub(r.start) }

// measure times fn. Only fn is inside the interval: mutation before it and
// verification after it are the caller's, untimed.
func measure(tr *tracer, fn func() error) (measured, error) {
	m0 := readMem(tr)
	start := time.Now()
	err := fn()
	end := time.Now()
	return measured{start: start, end: end, mem: m0.delta(tr)}, err
}

// finish counts the operation (err, from fn or from verification, makes it
// a failed one), files its duration under metric and records its span,
// whose id it returns.
func (r measured) finish(rec *recorder, tr *tracer, parent, op int, name, metric string, err error, attrs map[string]any) (int, error) {
	rec.op(err)
	if err != nil {
		tr.record(name, parent, op, r.start, r.end, map[string]any{"error": err.Error()})
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	rec.addAt(metric, ms(r.dur()), r.start, r.end)
	return tr.record(name, parent, op, r.start, r.end, r.mem.attrs(attrs)), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memSample / memDelta carry the allocation and GC counters read around a
// traced operation. ReadMemStats stops the world, so the untraced run
// (tr == nil) never calls it.
type memSample struct{ s runtime.MemStats }

type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	valid          bool
}

func readMem(tr *tracer) *memSample {
	if tr == nil {
		return nil
	}
	m := new(memSample)
	runtime.ReadMemStats(&m.s)
	return m
}

func (m *memSample) delta(tr *tracer) memDelta {
	if tr == nil || m == nil {
		return memDelta{}
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs:   now.Mallocs - m.s.Mallocs,
		bytes:     now.TotalAlloc - m.s.TotalAlloc,
		gcCycles:  now.NumGC - m.s.NumGC,
		gcPauseNs: now.PauseTotalNs - m.s.PauseTotalNs,
		valid:     true,
	}
}

// attrs merges the allocation counters into a span's attributes.
func (d memDelta) attrs(a map[string]any) map[string]any {
	if !d.valid {
		return a
	}
	if a == nil {
		a = make(map[string]any)
	}
	a["allocs"], a["alloc_bytes"] = d.mallocs, d.bytes
	a["gc_cycles"], a["gc_pause_ns"] = d.gcCycles, d.gcPauseNs
	return a
}

func loadAttrs(rep *eccheck.LoadReport) map[string]any {
	a := map[string]any{"workflow": rep.Workflow, "bytes_fetched": rep.BytesFetched, "missing_chunks": len(rep.MissingChunks)}
	for ph, d := range rep.Phases {
		a["phase_ms."+ph] = ms(d)
	}
	return a
}

// recordSaveReport files one traced save round's report into the per-layer
// series (layer_core.go reduces them) and returns the span attributes:
// the report's phase partition, byte counts and allocation deltas.
func recordSaveReport(rec *recorder, rep *eccheck.SaveReport, round time.Duration, payload int64, md memDelta) map[string]any {
	attrs := map[string]any{"version": rep.Version, "packet_bytes": rep.PacketBytes, "small_bytes": rep.SmallBytes, "payload_bytes": payload}
	var phaseSum time.Duration
	for _, ph := range eccheck.SavePhases() {
		d := rep.Phases[ph]
		phaseSum += d
		rec.add("core.save.phase_ms."+ph, ms(d))
		attrs["phase_ms."+ph] = ms(d)
	}
	rec.add("core.save.phase_sum_ms", ms(phaseSum))
	if rep.Elapsed > 0 {
		rec.add("core.save_overlap_ratio", float64(rep.OverlapNs)/float64(rep.Elapsed))
	}
	rec.add("core.straggler_lag_ms", ms(rep.StragglerLag))
	rec.add("core.round_gbps", float64(payload)/round.Seconds()/1e9)
	if md.valid {
		rec.add("core.save_allocs_per_round", float64(md.mallocs))
		rec.add("core.alloc_bytes_per_payload_byte", float64(md.bytes)/float64(payload))
		rec.add("core.gc_cycles_per_round", float64(md.gcCycles))
		rec.add("core.gc_pause_ms_per_round", float64(md.gcPauseNs)/1e6)
	}
	return md.attrs(attrs)
}

func recordLoadReport(rec *recorder, rep *eccheck.LoadReport, md memDelta) {
	for _, ph := range eccheck.LoadPhases() {
		rec.add("core.load.phase_ms."+ph, ms(rep.Phases[ph]))
	}
	if md.valid {
		rec.add("core.load_allocs_per_round", float64(md.mallocs))
	}
}

// bufpoolCounters reads the shared buffer pool's hit and miss counters,
// which land in the registry of the System initialised last.
func bufpoolCounters(sys *eccheck.System) (hits, misses int64) {
	snap := sys.Metrics()
	hits, _ = snap.Counter("bufpool_hits_total")
	misses, _ = snap.Counter("bufpool_misses_total")
	return hits, misses
}

// saveCounters are the transport registry counters summed over every
// (node, peer) pair; their delta across one save is exact.
type saveCounters struct{ sends, sendBytes int64 }

func readSaveCounters(sys *eccheck.System) saveCounters {
	var c saveCounters
	for _, p := range sys.Metrics().Counters {
		switch p.Name {
		case "transport_sends_total":
			c.sends += p.Value
		case "transport_send_bytes_total":
			c.sendBytes += p.Value
		}
	}
	return c
}
