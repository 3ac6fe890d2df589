package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/transport"
)

// spyNet sits directly over the base transport and records, per tag prefix,
// which of its methods each message reached: Send, or SendOwned through
// every wrapper above it.
type spyNet struct {
	transport.Network
	mu  sync.Mutex
	via map[string]map[string]int // tag prefix -> method -> messages
}

func (n *spyNet) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(node)
	return &spyEndpoint{Endpoint: ep, net: n}, err
}

func (n *spyNet) record(tag, method string) {
	prefix, _, _ := strings.Cut(tag, "/")
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.via == nil {
		n.via = map[string]map[string]int{}
	}
	if n.via[prefix] == nil {
		n.via[prefix] = map[string]int{}
	}
	n.via[prefix][method]++
}

// take returns what was recorded since the last take.
func (n *spyNet) take() map[string]map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	via := n.via
	n.via = nil
	return via
}

type spyEndpoint struct {
	transport.Endpoint
	net *spyNet
}

func (e *spyEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	e.net.record(tag, "Send")
	return e.Endpoint.Send(ctx, to, tag, payload)
}

func (e *spyEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	e.net.record(tag, "SendOwned")
	return transport.SendOwned(ctx, e.Endpoint, to, tag, payload)
}

// TestQueueOwnedPayloadsAreHandedOver: under the wrappers a deployment
// stacks — chaos (jitter only) and the observer with a flight recorder — every
// payload a round owns and would recycle after sending reaches the memory
// transport as a hand-over: XOR partials (xr), parity segments (pp), a delta
// round's data windows (pd) and a restore's basis terms (rc). A full round's
// data windows alias the worker packets and the small components are borrowed,
// so they reach it through Send.
func TestQueueOwnedPayloadsAreHandedOver(t *testing.T) {
	inner, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyNet{Network: inner}
	chaosNet, err := chaos.Wrap(spy, chaos.Plan{Seed: 1, Jitter: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	net := transport.Observe(chaosNet, reg, flight.New(1024))
	rig := newRigOn(t, net, nil, 4, 2, 2, 2, func(c *Config) {
		c.OpTimeout = 5 * time.Second
		c.IncrementalCache = true
		c.Metrics = reg
	}, noRemote)
	ctx := context.Background()
	expect := func(round string, owned, borrowed []string) {
		t.Helper()
		via := spy.take()
		for _, prefix := range owned {
			if m := via[prefix]; m["SendOwned"] == 0 || m["Send"] != 0 {
				t.Errorf("%s: %s/ messages reached the transport %d times by SendOwned and %d by Send, want every one by SendOwned",
					round, prefix, m["SendOwned"], m["Send"])
			}
		}
		for _, prefix := range borrowed {
			if m := via[prefix]; m["Send"] == 0 || m["SendOwned"] != 0 {
				t.Errorf("%s: %s/ messages reached the transport %d times by Send and %d by SendOwned, want every one by Send",
					round, prefix, m["Send"], m["SendOwned"])
			}
		}
	}

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	expect("full save", []string{"xr", "pp"}, []string{"pd", "sm"})

	next := mutateSomeTensors(rig.dicts, []int{0, 1, 2, 3, 4, 5, 6, 7}, 101)
	rep, err := rig.ckpt.SaveIncremental(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("the second save fell back to a full round")
	}
	expect("delta save", []string{"xr", "pp", "pd"}, []string{"sm"})

	victim := rig.ckpt.Plan().DataNodes[0]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, next, got)
	expect("restore", []string{"rc"}, nil)
}
