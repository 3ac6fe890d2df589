package cluster

import (
	"testing"
)

// The membership state machine: Alive → Draining → Gone → (Replace) Alive.
func TestDrainStateMachine(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.State(0); st != StateAlive {
		t.Fatalf("initial state = %v, want alive", st)
	}
	if err := c.BeginDrain(0); err != nil {
		t.Fatalf("BeginDrain: %v", err)
	}
	if st := c.State(0); st != StateDraining {
		t.Fatalf("state after BeginDrain = %v, want draining", st)
	}
	if !c.Draining(0) {
		t.Fatal("Draining(0) = false")
	}
	if !c.Alive(0) {
		t.Fatal("a draining node must still be alive (serving its memory)")
	}
	if err := c.BeginDrain(0); err == nil {
		t.Fatal("double BeginDrain should fail")
	}
	// A draining node's memory is still fully usable.
	if err := c.Store(0, "k", []byte("v")); err != nil {
		t.Fatalf("Store on draining node: %v", err)
	}
	if _, err := c.Load(0, "k"); err != nil {
		t.Fatalf("Load on draining node: %v", err)
	}
	// EndDrain aborts the leave.
	if err := c.EndDrain(0); err != nil {
		t.Fatalf("EndDrain: %v", err)
	}
	if c.Draining(0) || c.State(0) != StateAlive {
		t.Fatal("EndDrain should restore alive")
	}
	if err := c.EndDrain(0); err == nil {
		t.Fatal("EndDrain on an alive node should fail")
	}
	// Fail works from both Alive and Draining.
	if err := c.BeginDrain(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(0); err != nil {
		t.Fatalf("Fail on draining node: %v", err)
	}
	if st := c.State(0); st != StateGone {
		t.Fatalf("state after Fail = %v, want gone", st)
	}
	if c.Alive(0) {
		t.Fatal("gone node reported alive")
	}
	if err := c.BeginDrain(0); err == nil {
		t.Fatal("BeginDrain on a gone node should fail")
	}
	if err := c.EndDrain(0); err == nil {
		t.Fatal("EndDrain on a gone node should fail")
	}
	if _, err := c.Load(0, "k"); err == nil {
		t.Fatal("Load on a gone node should fail")
	}
	// Replace refills the slot empty and alive.
	if err := c.Replace(0); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if c.State(0) != StateAlive {
		t.Fatal("replaced node not alive")
	}
	if c.Has(0, "k") {
		t.Fatal("replaced node kept old memory")
	}
	// Out-of-range queries degrade safely.
	if c.State(99) != StateGone {
		t.Fatal("out-of-range State should report gone")
	}
	if c.Draining(-1) {
		t.Fatal("out-of-range Draining should be false")
	}
}

func TestNodeStateString(t *testing.T) {
	names := map[string]bool{}
	for _, st := range []NodeState{StateAlive, StateDraining, StateGone, NodeState(99)} {
		s := st.String()
		if s == "" {
			t.Fatalf("state %d has empty name", st)
		}
		if names[s] {
			t.Fatalf("duplicate state name %q", s)
		}
		names[s] = true
	}
}

// The membership-quiescent hot path — state queries on a stable cluster —
// must not allocate (gated by make allocgate).
func TestMembershipStateZeroAlloc(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sink bool
	allocs := testing.AllocsPerRun(1000, func() {
		sink = c.Alive(1) && !c.Draining(2) && c.State(3) == StateAlive
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("membership state queries allocated %.1f times per run, want 0", allocs)
	}
}
