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
	blob := NewBlob(1 << 10)
	for i := range blob {
		blob[i] = byte(i)
	}
	if err := AdoptSummed(c, 0, "k", blob); err != nil {
		t.Fatal(err)
	}
	view, err := ViewSummed(c, 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] != &blob[0] {
		t.Error("ViewSummed returned a copy, want the adopted slice itself")
	}
	if len(view) != len(blob) || cap(view) != len(blob) {
		t.Errorf("view len/cap = %d/%d, want %d/%d (footer clipped off)", len(view), cap(view), len(blob), len(blob))
	}
	// The footer is the only overhead host memory accounts for: no spare or
	// staging capacity may become visible.
	if got, want := c.MemoryBytes(0), len(blob)+FooterLen; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := ViewSummed(c, 0, "k"); err != nil {
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
	if err := AdoptSummed(c, 0, "k", make([]byte, 16)); err == nil {
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
	view, err := ViewSummed(c, 1, "k")
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
	view, err := ViewSummed(c, 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Corrupt(0, "k", 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, want) {
		t.Errorf("Corrupt changed bytes behind a verified view: %q", view)
	}
	if _, err := ViewSummed(c, 0, "k"); !errors.Is(err, ErrChecksum) {
		t.Errorf("view after Corrupt: err = %v, want ErrChecksum", err)
	}
	if _, err := FetchSummed(c, 0, "k"); !errors.Is(err, ErrChecksum) {
		t.Errorf("fetch after Corrupt: err = %v, want ErrChecksum", err)
	}
}

func TestChecksumFoldsInOrder(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob := NewBlob(3000)
	var crc uint32
	for lo := 0; lo < len(blob); lo += 1024 {
		hi := min(lo+1024, len(blob))
		for i := lo; i < hi; i++ {
			blob[i] = byte(i * 31)
		}
		crc = Checksum(crc, blob[lo:hi])
	}
	if err := AdoptSealed(c, 0, "k", blob, crc); err != nil {
		t.Fatal(err)
	}
	if _, err := ViewSummed(c, 0, "k"); err != nil {
		t.Errorf("piecewise-folded checksum does not verify: %v", err)
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
	oldBlob, newBlob := NewBlob(64), NewBlob(64)
	for i := range oldBlob {
		oldBlob[i], newBlob[i] = byte(i), byte(255-i)
	}
	want := append([]byte(nil), oldBlob...)
	if err := AdoptSummed(c, node, "final", oldBlob); err != nil {
		t.Fatal(err)
	}
	if err := AdoptSummed(c, node, "staged", newBlob); err != nil {
		t.Fatal(err)
	}
	displaced, err := c.Move(node, "staged", "final")
	if err != nil {
		t.Fatal(err)
	}
	if len(displaced) != len(oldBlob)+FooterLen || &displaced[0] != &oldBlob[0] {
		t.Errorf("Move returned %d bytes at %p, want the displaced slice itself (%d bytes at %p)",
			len(displaced), displaced, len(oldBlob)+FooterLen, oldBlob)
	}
	if !bytes.Equal(displaced[:len(want)], want) {
		t.Errorf("Move touched the displaced blob")
	}
	if now, err := ViewSummed(c, node, "final"); err != nil || &now[0] != &newBlob[0] {
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
