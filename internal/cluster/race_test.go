package cluster

import (
	"fmt"
	"sync"
	"testing"
)

// TestReplaceUnderConcurrentTraffic hammers Fail/Replace cycles on every
// node while other goroutines Store/Load/Has/FetchSummed against the same
// nodes. Run with -race. Afterwards a replaced node must come back with
// empty memory.
func TestReplaceUnderConcurrentTraffic(t *testing.T) {
	const (
		nodes  = 4
		cycles = 50
	)
	c, err := New(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup

	// One fail/replace cycler per node: every Fail is matched by exactly
	// one Replace, so every node ends alive.
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				if err := c.Fail(node); err != nil {
					t.Errorf("fail node %d: %v", node, err)
					return
				}
				if err := c.Replace(node); err != nil {
					t.Errorf("replace node %d: %v", node, err)
					return
				}
			}
		}(node)
	}

	// Concurrent traffic: stores, loads, existence checks and checksummed
	// fetches racing the fail/replace cyclers. Errors are expected (the
	// node may be failed at any instant) — only data races and panics are
	// failures here.
	for g := 0; g < nodes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				node := (g + i) % nodes
				key := fmt.Sprintf("k/%d", i%8)
				blob := []byte{byte(g), byte(i)}
				_ = c.Store(node, key, blob)
				_, _ = c.Load(node, key)
				_ = c.Has(node, key)
				_ = StoreSummed(c, node, key+"/sum", blob)
				_, _ = FetchSummed(c, node, key+"/sum")
				_ = c.Delete(node, key+"/sum")
			}
		}(g)
	}

	wg.Wait()

	for node := 0; node < nodes; node++ {
		if got := c.State(node); got != StateAlive {
			t.Errorf("node %d ends %s, want alive (every fail was matched by a replace)", node, got)
		}
	}

	// A final fail/replace cycle must wipe whatever the writers left behind.
	for node := 0; node < nodes; node++ {
		if err := c.Fail(node); err != nil {
			t.Fatalf("final fail node %d: %v", node, err)
		}
		if err := c.Replace(node); err != nil {
			t.Fatalf("final replace node %d: %v", node, err)
		}
		if keys := c.Keys(node); len(keys) != 0 {
			t.Errorf("replaced node %d came back with %d keys: %v", node, len(keys), keys)
		}
		if got := c.MemoryBytes(node); got != 0 {
			t.Errorf("replaced node %d came back with %d bytes of memory", node, got)
		}
	}
}

// TestDoubleFailAndStrayReplaceRejected pins the state-machine edges the
// race test relies on: Fail on a failed node and Replace on a live node
// are errors and leave the state where it was.
func TestDoubleFailAndStrayReplaceRejected(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace(0); err == nil {
		t.Fatal("replace of a live node should fail")
	}
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(0); err == nil {
		t.Fatal("double fail should error")
	}
	if got := c.State(0); got != StateGone {
		t.Fatalf("state moved to %s without a replace", got)
	}
	if err := c.Replace(0); err != nil {
		t.Fatal(err)
	}
	if got := c.State(0); got != StateAlive {
		t.Fatalf("state = %s after one replace, want alive", got)
	}
}
