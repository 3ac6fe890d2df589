package cluster

import (
	"bytes"
	"errors"
	"testing"
)

// The store's one ownership rule — a stored blob is immutable while it is
// stored, and nothing in this package writes to or recycles a slice it was
// handed — is what lets View hand out the stored slice without a copy, a
// lease or a refcount. These tests pin each way the rule could be broken.

func TestStoreSummedCopiesIn(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("the caller keeps this buffer")
	want := append([]byte(nil), buf...)
	if err := StoreSummed(c, 0, "k", buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xEE // the caller scribbles on its buffer after the store
	}
	got, err := FetchSummed(c, 0, "k")
	if err != nil {
		t.Fatalf("fetch after caller scribble: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stored bytes changed with the caller's buffer: %q", got)
	}
	// FetchSummed is copy-out: scribbling on the result must not reach the
	// stored blob either.
	for i := range got {
		got[i] = 0x11
	}
	if again, err := FetchSummed(c, 0, "k"); err != nil || !bytes.Equal(again, want) {
		t.Errorf("stored bytes changed through a fetched copy: %q, %v", again, err)
	}
}

func TestAdoptSummedStoresTheSliceItself(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const window = 256
	blob := NewBlob(1<<10, window)
	for i := range blob {
		blob[i] = byte(i)
	}
	if err := AdoptSummed(c, 0, "k", blob, window); err != nil {
		t.Fatal(err)
	}
	view, err := ViewSummed(c, 0, "k", window)
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] != &blob[0] {
		t.Error("ViewSummed returned a copy, want the adopted slice itself")
	}
	if len(view) != len(blob) || cap(view) != len(blob) {
		t.Errorf("view len/cap = %d/%d, want %d/%d (footer clipped off)", len(view), cap(view), len(blob), len(blob))
	}
	// The footer — one sum per window — is the only overhead host memory
	// accounts for: no spare or staging capacity may become visible.
	if got, want := c.MemoryBytes(0), len(blob)+4*SumLen; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := ViewSummed(c, 0, "k", window); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ViewSummed allocates %.0f times per call, want 0", allocs)
	}
}

func TestAdoptSummedNeedsFooterRoom(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := AdoptSummed(c, 0, "k", make([]byte, 16), oneWindow); err == nil {
		t.Error("adopting a blob without spare footer capacity: want error")
	}
	// Room for one sum is not room for two windows' sums.
	if err := AdoptSummed(c, 0, "k", NewBlob(16, 16)[:16:20], 8); err == nil {
		t.Error("adopting a blob without spare footer capacity: want error")
	}
	if c.Has(0, "k") {
		t.Error("a refused blob was stored")
	}
}

// TestViewSurvivesOverwriteFailReplace: a borrowed view keeps reading the
// bytes it was taken over, whatever happens to the key or the node later.
func TestViewSurvivesOverwriteFailReplace(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte("version one of the blob")
	if err := StoreSummed(c, 1, "k", old); err != nil {
		t.Fatal(err)
	}
	view, err := ViewSummed(c, 1, "k", oneWindow)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(view, old) {
			t.Fatalf("view changed after %s: %q", when, view)
		}
	}
	// Same-size overwrite: the deleted in-place branch would have rewritten
	// the allocation the view aliases.
	if err := StoreSummed(c, 1, "k", []byte("version two of the blob")); err != nil {
		t.Fatal(err)
	}
	check("a same-size overwrite")
	if err := c.Store(1, "k", []byte("raw overwrite, same key")); err != nil {
		t.Fatal(err)
	}
	check("a raw overwrite")
	if _, err := c.Move(1, "k", "moved"); err != nil {
		t.Fatal(err)
	}
	check("a move")
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	check("the node failed")
	if err := c.Replace(1); err != nil {
		t.Fatal(err)
	}
	if err := StoreSummed(c, 1, "k", []byte("a fresh machine's blob!")); err != nil {
		t.Fatal(err)
	}
	check("the node was replaced and rewritten")
}

// TestCorruptIsCopyOnWrite: the fault-injection primitive must not change
// bytes behind a view that was already verified.
func TestCorruptIsCopyOnWrite(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("verified before the bit flip")
	if err := StoreSummed(c, 0, "k", want); err != nil {
		t.Fatal(err)
	}
	view, err := ViewSummed(c, 0, "k", oneWindow)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Corrupt(0, "k", 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, want) {
		t.Errorf("Corrupt changed bytes behind a verified view: %q", view)
	}
	if _, err := ViewSummed(c, 0, "k", oneWindow); !errors.Is(err, ErrChecksum) {
		t.Errorf("view after Corrupt: err = %v, want ErrChecksum", err)
	}
	if _, err := FetchSummed(c, 0, "k"); !errors.Is(err, ErrChecksum) {
		t.Errorf("fetch after Corrupt: err = %v, want ErrChecksum", err)
	}
}

// TestWindowSumsSealInOrder: a producer that lands its payload range by
// range seals each range's windows as it goes, whatever the range size, and
// the stored blob verifies; a window it left unsealed does not.
func TestWindowSumsSealInOrder(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const window = 1024
	for _, step := range []int{window, 700, 2500} {
		blob := NewBlob(3000, window)
		for lo := 0; lo < len(blob); lo += step {
			hi := min(lo+step, len(blob))
			for i := lo; i < hi; i++ {
				blob[i] = byte(i * 31)
			}
			SealWindows(blob, window, lo, hi)
		}
		if err := AdoptSealed(c, 0, "k", blob, window); err != nil {
			t.Fatal(err)
		}
		if _, err := ViewSummed(c, 0, "k", window); err != nil {
			t.Errorf("ranges of %d bytes: sealed windows do not verify: %v", step, err)
		}
	}
	blob := NewBlob(3000, window)
	blob[2999] = 1
	SealWindows(blob, window, 0, 2*window)
	if err := AdoptSealed(c, 0, "k", blob, window); err != nil {
		t.Fatal(err)
	}
	if _, err := ViewSummed(c, 0, "k", window); !errors.Is(err, ErrChecksum) {
		t.Errorf("a window left unsealed verifies: %v", err)
	}
}

// TestMoveReturnsTheDisplacedSlice: Move hands the caller the blob the
// destination key held — the slice itself, untouched — and nil when the key
// was empty. What happens to that buffer next is the caller's business, never
// the store's.
func TestMoveReturnsTheDisplacedSlice(t *testing.T) {
	c, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const node = 1
	oldBlob, newBlob := NewBlob(64, oneWindow), NewBlob(64, oneWindow)
	for i := range oldBlob {
		oldBlob[i], newBlob[i] = byte(i), byte(255-i)
	}
	want := append([]byte(nil), oldBlob...)
	if err := AdoptSummed(c, node, "final", oldBlob, oneWindow); err != nil {
		t.Fatal(err)
	}
	if err := AdoptSummed(c, node, "staged", newBlob, oneWindow); err != nil {
		t.Fatal(err)
	}
	displaced, err := c.Move(node, "staged", "final")
	if err != nil {
		t.Fatal(err)
	}
	if len(displaced) != len(oldBlob)+SumLen || &displaced[0] != &oldBlob[0] {
		t.Errorf("Move returned %d bytes at %p, want the displaced slice itself (%d bytes at %p)",
			len(displaced), displaced, len(oldBlob)+SumLen, oldBlob)
	}
	if !bytes.Equal(displaced[:len(want)], want) {
		t.Errorf("Move touched the displaced blob")
	}
	if now, err := ViewSummed(c, node, "final", oneWindow); err != nil || &now[0] != &newBlob[0] {
		t.Errorf("final key does not hold the moved slice (err %v)", err)
	}
	if got, err := c.Move(node, "final", "empty"); err != nil || got != nil {
		t.Errorf("move onto an empty key returned %v, %v; want nil, nil", got, err)
	}
	if got, err := c.Move(node, "empty", "empty"); err != nil || got != nil {
		t.Errorf("move onto itself returned %v, %v; want nil, nil (the blob stays stored)", got, err)
	}
	if _, err := c.Move(node, "missing", "empty"); err == nil {
		t.Errorf("moving a missing key: want error")
	}
}
