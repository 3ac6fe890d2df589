package cluster

import (
	"bytes"
	"sync"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero nodes: want error")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("zero workers: want error")
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	c, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte{1, 2, 3}
	if err := c.Store(2, "ckpt/0", blob); err != nil {
		t.Fatal(err)
	}
	got, err := c.Load(2, "ckpt/0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Errorf("got %v", got)
	}
	// Stored blob must be a copy in both directions.
	blob[0] = 9
	got2, _ := c.Load(2, "ckpt/0")
	if got2[0] != 1 {
		t.Error("Store aliased caller buffer")
	}
	got2[1] = 9
	got3, _ := c.Load(2, "ckpt/0")
	if got3[1] != 2 {
		t.Error("Load aliased stored buffer")
	}
	if _, err := c.Load(2, "missing"); err == nil {
		t.Error("missing key: want error")
	}
	if !c.Has(2, "ckpt/0") || c.Has(2, "missing") || c.Has(99, "x") {
		t.Error("Has wrong")
	}
}

func TestFailureDestroysMemory(t *testing.T) {
	c, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(1, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	if c.Alive(1) {
		t.Error("failed node reported alive")
	}
	if _, err := c.Load(1, "a"); err == nil {
		t.Error("load from failed node: want error")
	}
	if err := c.Store(1, "b", []byte("y")); err == nil {
		t.Error("store on failed node: want error")
	}
	if err := c.Fail(1); err == nil {
		t.Error("double fail: want error")
	}

	if err := c.Replace(1); err != nil {
		t.Fatal(err)
	}
	if !c.Alive(1) {
		t.Error("replaced node not alive")
	}
	// Host memory is volatile: the blob is gone after replacement.
	if c.Has(1, "a") {
		t.Error("replaced node retained pre-failure memory")
	}
	if err := c.Replace(1); err == nil {
		t.Error("replace healthy node: want error")
	}
}

func TestAliveFailedSets(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(3); err != nil {
		t.Fatal(err)
	}
	alive := c.AliveNodes()
	if len(alive) != 2 || alive[0] != 1 || alive[1] != 2 {
		t.Errorf("AliveNodes = %v", alive)
	}
	failed := c.FailedNodes()
	if len(failed) != 2 || failed[0] != 0 || failed[1] != 3 {
		t.Errorf("FailedNodes = %v", failed)
	}
}

func TestMemoryBytesAndKeys(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(0, "b", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(0, "a", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if got := c.MemoryBytes(0); got != 15 {
		t.Errorf("MemoryBytes = %d", got)
	}
	keys := c.Keys(0)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	if got := c.MemoryBytes(1); got != 0 {
		t.Errorf("empty node bytes = %d", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for node := 0; node < 8; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := "k"
				if err := c.Store(node, key, []byte{byte(i)}); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if _, err := c.Load(node, key); err != nil {
					t.Errorf("load: %v", err)
					return
				}
				_ = c.AliveNodes()
				_ = c.MemoryBytes(node)
			}
		}(node)
	}
	wg.Wait()
}
