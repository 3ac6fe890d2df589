package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// newChaosRig wires a rig whose transport is wrapped in the fault
// injector, with a short per-op deadline so a killed peer surfaces as a
// bounded error. Kills destroy the victim's host memory, like a real
// machine crash. Optional opts mutate the Config before construction
// (e.g. to attach a flight recorder).
func newChaosRig(t *testing.T, nodes, gpus, k, m int, plan chaos.Plan, opts ...func(*Config)) (*testRig, *chaos.Network) {
	t.Helper()
	return newChaosRigOver(t, nil, nodes, gpus, k, m, plan, opts...)
}

// newChaosRigOver is newChaosRig over given state dicts (nil: the default
// model's), for tests that build many rigs over one set of contents.
func newChaosRigOver(t *testing.T, dicts []*statedict.StateDict, nodes, gpus, k, m int, plan chaos.Plan, opts ...func(*Config)) (*testRig, *chaos.Network) {
	t.Helper()
	inner, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatal(err)
	}
	net, err := chaos.Wrap(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	defaults := func(cfg *Config) {
		cfg.RemotePersistEvery = DefaultRemotePersistEvery
		cfg.OpTimeout = 2 * time.Second
	}
	rig := newRigOn(t, net, dicts, nodes, gpus, k, m, append([]func(*Config){defaults}, opts...)...)
	net.SetOnKill(func(node int) { _ = rig.clus.Fail(node) })
	return rig, net
}

// stagedKeys lists staged blobs left on the node's host memory.
func stagedKeys(clus *cluster.Cluster, node int) []string {
	var out []string
	for _, k := range clus.Keys(node) {
		if strings.HasPrefix(k, stagePrefix) {
			out = append(out, k)
		}
	}
	return out
}

// TestSaveKilledMidSaveKeepsPreviousCheckpoint is the headline crash test:
// a node dies in the middle of a save round. The save must fail with a
// bounded error, leave no staged blobs behind, and the previous
// checkpoint must remain fully loadable after the machine is replaced.
func TestSaveKilledMidSaveKeepsPreviousCheckpoint(t *testing.T) {
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1})
	ctx := context.Background()

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Fatalf("version = %d after first save", got)
	}

	// Arm the kill: node 1 dies ten sends into the next round.
	const victim = 1
	if err := net.ScheduleKill(victim, 10); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err := rig.ckpt.Save(ctx, rig.dicts)
	if err == nil {
		t.Fatal("save v2 with a mid-round kill should fail")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("failed save took %v; deadlines should bound it", elapsed)
	}
	if !net.Killed(victim) {
		t.Fatal("victim was never killed — the save failed for the wrong reason")
	}
	if rig.clus.Alive(victim) {
		t.Fatal("kill must destroy the victim's host memory (OnKill hook)")
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Fatalf("version advanced to %d on a failed save", got)
	}

	// Crash consistency: the aborted round left no staged blobs anywhere.
	for _, node := range rig.clus.AliveNodes() {
		if leftover := stagedKeys(rig.clus, node); len(leftover) != 0 {
			t.Errorf("node %d still holds staged blobs after aborted save: %v", node, leftover)
		}
	}

	// Replace the dead machine and recover: version 1 must come back whole.
	// The replacement is a fresh machine, so its transport works again.
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if err := net.Revive(victim); err != nil {
		t.Fatal(err)
	}
	got, report, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load after crash: %v", err)
	}
	if report.Version != 1 {
		t.Fatalf("recovered version %d, want 1 (v2 never committed)", report.Version)
	}
	dictsEqual(t, rig.dicts, got)

	// Fault tolerance restored: the rebuilt chunk survives another scan.
	vr, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
	if len(vr.CorruptSegments) != 0 {
		t.Fatalf("corrupt segments after recovery: %v", vr.CorruptSegments)
	}
}

// TestSaveLeavesNoStagedKeys asserts a successful round fully promotes its
// staging area.
func TestSaveLeavesNoStagedKeys(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.Save(context.Background(), rig.dicts); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		if leftover := stagedKeys(rig.clus, node); len(leftover) != 0 {
			t.Errorf("node %d holds staged blobs after successful save: %v", node, leftover)
		}
	}
}

// TestLoadTreatsCorruptionAsErasure flips a byte inside a stored data
// chunk. The checksum catches it, the chunk is rebuilt through the code,
// and the recovery both returns intact state and reports the corruption.
func TestLoadTreatsCorruptionAsErasure(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	victim := rig.ckpt.Plan().DataNodes[0]
	victimChunk := rig.ckpt.Plan().ChunkOfNode[victim]
	if err := rig.ckpt.CorruptChunkByte(victim); err != nil {
		t.Fatal(err)
	}

	got, report, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load with corrupt chunk: %v", err)
	}
	dictsEqual(t, rig.dicts, got)
	if report.Workflow != "decode" {
		t.Errorf("workflow = %q, want decode (a data chunk was lost)", report.Workflow)
	}
	if report.CorruptBlobs < 1 {
		t.Errorf("CorruptBlobs = %d, want >= 1", report.CorruptBlobs)
	}
	foundChunk := false
	for _, c := range report.CorruptedChunks {
		if c == victimChunk {
			foundChunk = true
		}
	}
	if !foundChunk {
		t.Errorf("CorruptedChunks = %v, want to include chunk %d", report.CorruptedChunks, victimChunk)
	}

	// The rebuild overwrote the damaged blob: a fresh scan is clean.
	vr, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	if len(vr.CorruptSegments) != 0 {
		t.Fatalf("corrupt segments after rebuild: %v", vr.CorruptSegments)
	}
}

// TestLoadTreatsParityCorruptionAsErasure corrupts a parity chunk: the
// recovery stays a pure replacement (all data chunks intact) but still
// detects and repairs the damage.
func TestLoadTreatsParityCorruptionAsErasure(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	victim := rig.ckpt.Plan().ParityNodes[0]
	if err := rig.ckpt.CorruptChunkByte(victim); err != nil {
		t.Fatal(err)
	}
	got, report, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load with corrupt parity: %v", err)
	}
	dictsEqual(t, rig.dicts, got)
	if report.Workflow != "replacement" {
		t.Errorf("workflow = %q, want replacement (all data chunks intact)", report.Workflow)
	}
	if report.CorruptBlobs < 1 {
		t.Errorf("CorruptBlobs = %d, want >= 1", report.CorruptBlobs)
	}
}

// mangleNet truncates the first message sent under a tag with the armed
// prefix: a peer whose bytes do not fit the protocol.
type mangleNet struct {
	transport.Network
	prefix atomic.Pointer[string] // nil when disarmed
	keep   int                    // bytes of the payload that survive
}

func (n *mangleNet) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(node)
	return &mangleEndpoint{Endpoint: ep, net: n}, err
}

type mangleEndpoint struct {
	transport.Endpoint
	net *mangleNet
}

func (e *mangleEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	if p := e.net.prefix.Load(); p != nil && strings.HasPrefix(tag, *p) && e.net.prefix.CompareAndSwap(p, nil) {
		payload = payload[:min(e.net.keep, len(payload))]
	}
	return e.Endpoint.Send(ctx, to, tag, payload)
}

// TestWrongSizedPeerMessageFailsTheRound: bytes from a peer are validated
// before they are folded or landed. One wrong-sized message on each stream
// of the save protocol — the small-component broadcast that carries the
// ship-set, the partial stream up a reduction tree, the parity and the data
// placement streams — fails the round with an error that says so, never a
// panic, and leaves the committed version loadable and the next round
// unharmed.
func TestWrongSizedPeerMessageFailsTheRound(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		prefix string
		keep   int
		want   string
	}{
		{"sm/", 1, "shorter than its"}, // a 9-window ship-set takes 2 bytes
		{"xr/", 100, "has 100 bytes, want"},
		{"pp/", 100, "has 100 bytes, want"},
		{"pd/", 100, "has 100 bytes, want"},
	} {
		t.Run(strings.TrimSuffix(tc.prefix, "/"), func(t *testing.T) {
			inner, err := transport.NewMemory(4)
			if err != nil {
				t.Fatal(err)
			}
			net := &mangleNet{Network: inner, keep: tc.keep}
			rig := newRigOn(t, net, nil, 4, 2, 2, 2, func(c *Config) { c.OpTimeout = 2 * time.Second })
			if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
				t.Fatal(err)
			}
			net.prefix.Store(&tc.prefix)
			next := stampVersion(rig.dicts, 2)
			_, err = rig.ckpt.Save(ctx, next)
			if net.prefix.Load() != nil {
				t.Fatalf("no %s message was sent: the stream is not exercised on this rig", tc.prefix)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("save with a truncated %s message: error %v, want one containing %q", tc.prefix, err, tc.want)
			}
			got, rep, err := rig.ckpt.Load(ctx)
			if err != nil || rep.Version != 1 {
				t.Fatalf("load after the failed round: version %d, %v", rep.Version, err)
			}
			dictsEqual(t, rig.dicts, got)
			if _, err := rig.ckpt.Save(ctx, next); err != nil {
				t.Fatalf("next round: %v", err)
			}
			if got, _, err = rig.ckpt.Load(ctx); err != nil {
				t.Fatal(err)
			}
			dictsEqual(t, next, got)
		})
	}
}

// lateFailNet counts the messages sent under each tag and, when armed, holds
// the nth one under one tag back for a while and then fails it.
type lateFailNet struct {
	transport.Network
	mu   sync.Mutex
	sent map[string]int
	tag  string // armed when non-empty
	nth  int
}

func (n *lateFailNet) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(node)
	return &lateFailEndpoint{Endpoint: ep, net: n}, err
}

type lateFailEndpoint struct {
	transport.Endpoint
	net *lateFailNet
}

func (e *lateFailEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	e.net.mu.Lock()
	e.net.sent[tag]++
	hit := tag == e.net.tag && e.net.sent[tag] == e.net.nth
	e.net.mu.Unlock()
	if hit {
		// The sleep is the injected fault itself, not a wait for an event: a
		// link that hangs for a while and then drops the message.
		time.Sleep(300 * time.Millisecond)
		return errors.New("injected: link dropped")
	}
	return e.Endpoint.Send(ctx, to, tag, payload)
}

// TestResidualDataSendFailureFailsTheRound: a data-placement send holds no
// window credit, so a node's windows can all retire — and its send queue
// close — while its last data message is still going out. If that send then
// fails, the round must fail with the send's error; the teardown used to
// close the already closed queue and take the process down. The last message
// of a worker's data stream is the one no later window waits behind, so
// holding it back lets the sender's windows retire first.
func TestResidualDataSendFailureFailsTheRound(t *testing.T) {
	ctx := context.Background()
	inner, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	net := &lateFailNet{Network: inner, sent: map[string]int{}}
	rig := newRigOn(t, net, nil, 4, 2, 2, 2, func(c *Config) { c.OpTimeout = 5 * time.Second })
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	for tag, count := range net.sent {
		if strings.HasPrefix(tag, "pd/") && (net.tag == "" || tag < net.tag) {
			net.tag, net.nth = tag, count
		}
	}
	net.sent = map[string]int{}
	net.mu.Unlock()
	if net.tag == "" {
		t.Fatal("no data-placement message was sent: the stream is not exercised on this rig")
	}
	next := stampVersion(rig.dicts, 2)
	if _, err := rig.ckpt.Save(ctx, next); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("save whose last %s message fails: error %v, want the injected one", net.tag, err)
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil || rep.Version != 1 {
		t.Fatalf("load after the failed round: version %d, %v", rep.Version, err)
	}
	dictsEqual(t, rig.dicts, got)
	if _, err := rig.ckpt.Save(ctx, next); err != nil {
		t.Fatalf("next round: %v", err)
	}
}
