package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"eccheck/internal/transport"
)

// swallowNet drops every message whose tag starts with prefix: Send reports
// success and nothing arrives, so the stream's receiver waits on a peer that
// is alive but silent.
type swallowNet struct {
	transport.Network
	prefix string
}

func (n *swallowNet) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(node)
	return &swallowEndpoint{Endpoint: ep, prefix: n.prefix}, err
}

type swallowEndpoint struct {
	transport.Endpoint
	prefix string
}

func (e *swallowEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	if strings.HasPrefix(tag, e.prefix) {
		return nil
	}
	return e.Endpoint.Send(ctx, to, tag, payload)
}

func (e *swallowEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	if strings.HasPrefix(tag, e.prefix) {
		return nil
	}
	return transport.SendOwned(ctx, e.Endpoint, to, tag, payload)
}

// TestEveryRoundRootBoundsAStuckPeer: the per-op deadline rides the round's
// context from round.begin at the round's root — startSave, restore,
// fenced — so a peer
// that never sends fails each kind of round with context.DeadlineExceeded
// after OpTimeout instead of hanging it.
func TestEveryRoundRootBoundsAStuckPeer(t *testing.T) {
	const opTimeout = 200 * time.Millisecond
	ctx := context.Background()
	// The setups' rounds use other streams than the one that goes silent.
	saved := func(t *testing.T, rig *testRig) int {
		t.Helper()
		if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
			t.Fatal(err)
		}
		return rig.ckpt.Plan().DataNodes[0]
	}
	replaced := func(t *testing.T, rig *testRig) int {
		t.Helper()
		victim := saved(t, rig)
		if err := rig.clus.Fail(victim); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(victim); err != nil {
			t.Fatal(err)
		}
		return victim
	}
	for _, row := range []struct {
		name   string
		stream string // the tag prefix the silent peer never sends
		setup  func(t *testing.T, rig *testRig) int
		run    func(rig *testRig, node int) error
	}{
		{"Save", "pp/", nil, func(rig *testRig, _ int) error {
			_, err := rig.ckpt.Save(ctx, rig.dicts)
			return err
		}},
		{"LoadAfterReplace", "rc/", replaced, func(rig *testRig, _ int) error {
			_, _, err := rig.ckpt.Load(ctx)
			return err
		}},
		{"PrefetchChunk", "rc/", replaced, func(rig *testRig, node int) error {
			_, err := rig.ckpt.PrefetchChunk(ctx, node)
			return err
		}},
		{"DrainNode", "cu/", saved, func(rig *testRig, node int) error {
			_, err := rig.ckpt.DrainNode(ctx, node)
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			inner, err := transport.NewMemory(4)
			if err != nil {
				t.Fatal(err)
			}
			rig := newRigOn(t, &swallowNet{Network: inner, prefix: row.stream}, nil, 4, 2, 2, 2, noRemote, func(c *Config) { c.OpTimeout = opTimeout })
			node := -1
			if row.setup != nil {
				node = row.setup(t, rig)
			}
			errc := make(chan error, 1)
			go func() { errc <- row.run(rig, node) }()
			select {
			case err := <-errc:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(50 * opTimeout):
				t.Fatalf("the round still hangs %v after its peer went silent (OpTimeout %v)", 50*opTimeout, opTimeout)
			}
		})
	}
}
