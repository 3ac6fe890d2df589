package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// The footer format: a payload, then one little-endian CRC-32C per window.
// These tests pin it from outside the helpers that write it.

// TestOneWindowFooterIsFourBytes: a blob of at most one window — an empty
// one included — is stored as its payload followed by one CRC-32C over all
// of it, whatever helper stored it.
func TestOneWindowFooterIsFourBytes(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 100, 4096} {
		payload := bytes.Repeat([]byte{0x5c}, n)
		want := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...),
			crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		for _, window := range []int{4096, 1 << 20, oneWindow} {
			if err := StoreWindows(c, 0, "k", payload, window); err != nil {
				t.Fatal(err)
			}
			if got, _ := c.View(0, "k"); !bytes.Equal(got, want) {
				t.Errorf("%d bytes under %d-byte windows stored as %x, want %x", n, window, got, want)
			}
		}
		if err := StoreSummed(c, 0, "k", payload); err != nil {
			t.Fatal(err)
		}
		if got, _ := c.View(0, "k"); !bytes.Equal(got, want) {
			t.Errorf("StoreSummed of %d bytes stored %x, want %x", n, got, want)
		}
	}
}

// TestEveryWindowFlipIsDetected: a flipped bit in any window's bytes or in
// any byte of its sum fails ViewSummed, and VerifyWindow pins it on that
// window alone.
func TestEveryWindowFlipIsDetected(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const window, n = 64, 64*5 + 17 // six windows, the last one short
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := StoreWindows(c, 0, "k", payload, window); err != nil {
		t.Fatal(err)
	}
	framed, _ := c.View(0, "k")
	if len(framed) != n+6*SumLen {
		t.Fatalf("stored %d bytes, want %d", len(framed), n+6*SumLen)
	}
	for off := range framed {
		if err := c.Corrupt(0, "k", off); err != nil {
			t.Fatal(err)
		}
		if _, err := ViewSummed(c, 0, "k", window); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d: ViewSummed = %v, want ErrChecksum", off, err)
		}
		flipped := off / window
		if off >= n {
			flipped = (off - n) / SumLen
		}
		got, sums, err := ViewFramed(c, 0, "k", window)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 6; b++ {
			if err := VerifyWindow(got, sums, window, b); (err != nil) != (b == flipped) {
				t.Fatalf("flip at byte %d (window %d): VerifyWindow(%d) = %v", off, flipped, b, err)
			}
		}
		if err := c.Adopt(0, "k", framed); err != nil { // undo the flip
			t.Fatal(err)
		}
	}
}

// TestZeroWindowSums: a window sealed as zeros — ClearWindow over stale
// bytes, or SealZeroWindow over bytes already zero — carries the footer
// SealWindows writes over the zeroed bytes, byte for byte: full windows, a
// short last window and a one-window blob. Windows sealed either way mix in
// one blob, and ViewSummed accepts what it stores.
func TestZeroWindowSums(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, window int }{
		{4 * 64, 64},   // full windows only
		{3*64 + 9, 64}, // a short last window
		{40, 64},       // one window
		{64 << 10, 64 << 10},
	} {
		nw := (tc.n + tc.window - 1) / tc.window
		want := NewBlob(tc.n, tc.window)
		for i := range want {
			want[i] = byte(i*5 + 1)
		}
		for b := 0; b < nw; b += 2 {
			lo, hi := windowBounds(tc.n, tc.window, b)
			clear(want[lo:hi])
		}
		SealWindows(want, tc.window, 0, tc.n)
		framed := want[:FramedLen(tc.n, tc.window)]

		got := NewBlob(tc.n, tc.window)
		got = got[:cap(got)]
		for i := range got {
			got[i] = 0xA5
		}
		got = got[:tc.n]
		for b := 0; b < nw; b++ {
			lo, hi := windowBounds(tc.n, tc.window, b)
			switch {
			case b%2 == 1:
				copy(got[lo:hi], want[lo:hi])
				SealWindows(got, tc.window, lo, hi)
			case b%4 == 0:
				ClearWindow(got, tc.window, b)
			default:
				clear(got[lo:hi])
				SealZeroWindow(got, tc.window, b)
			}
		}
		if sealed := got[:FramedLen(tc.n, tc.window)]; !bytes.Equal(sealed, framed) {
			t.Errorf("%d bytes under %d-byte windows: sealed as zeros %x, want %x", tc.n, tc.window, sealed[tc.n:], framed[tc.n:])
		}
		if err := AdoptSealed(c, 0, "k", got, tc.window); err != nil {
			t.Fatal(err)
		}
		if _, err := ViewSummed(c, 0, "k", tc.window); err != nil {
			t.Errorf("%d bytes under %d-byte windows: %v", tc.n, tc.window, err)
		}
	}
}

// TestBadFramingIsAChecksumError: a stored blob cut short or grown by any
// number of bytes either frames no payload or fails a window — ErrChecksum
// either way, never a panic.
func TestBadFramingIsAChecksumError(t *testing.T) {
	c, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const window = 16
	payload := bytes.Repeat([]byte{0xa7, 0x13, 0x42}, 20)
	if err := StoreWindows(c, 0, "k", payload, window); err != nil {
		t.Fatal(err)
	}
	framed, _ := c.View(0, "k")
	for l := 0; l <= len(framed)+3*window; l++ {
		if l == len(framed) {
			continue
		}
		raw := make([]byte, l)
		copy(raw, framed)
		if err := c.Adopt(0, "bad", raw); err != nil {
			t.Fatal(err)
		}
		if _, err := ViewSummed(c, 0, "bad", window); !errors.Is(err, ErrChecksum) {
			t.Errorf("%d stored bytes of %d: ViewSummed = %v, want ErrChecksum", l, len(framed), err)
		}
	}
}

// FuzzViewSummed: arbitrary stored bytes read under an arbitrary window.
// The reader never panics, allocates no more than the input's length
// allows, and whatever verifies re-seals to the very bytes it was read from.
func FuzzViewSummed(f *testing.F) {
	c, err := New(2, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		n, window int
	}{{0, 8}, {5, 8}, {8, 8}, {9, 8}, {100, 16}} {
		if err := StoreWindows(c, 0, "seed", bytes.Repeat([]byte{0x3c}, seed.n), seed.window); err != nil {
			f.Fatal(err)
		}
		framed, _ := c.View(0, "seed")
		f.Add(framed, uint16(seed.window-1))
		f.Add(framed[:len(framed)/2], uint16(seed.window-1))
	}
	f.Fuzz(func(t *testing.T, framed []byte, w uint16) {
		window := int(w) + 1
		if err := c.Adopt(0, "k", framed); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := ViewSummed(c, 0, "k", window)
		runtime.ReadMemStats(&after)
		// The fuzzing engine allocates beside the target, so the bound is the
		// decoders' fuzz contract: proportional to the input, plus a constant.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(framed)+1<<16); got > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(framed), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("ViewSummed = %v, want ErrChecksum or a payload", err)
			}
			return
		}
		if err := StoreWindows(c, 1, "k", payload, window); err != nil {
			t.Fatal(err)
		}
		if resealed, _ := c.View(1, "k"); !bytes.Equal(resealed, framed) {
			t.Fatalf("a verified blob of %d bytes re-seals to %d different bytes", len(framed), len(resealed))
		}
	})
}

// TestSealedZeroTail: the tail starts after the last window that holds a
// nonzero byte or a sum other than the zero-window sum; a blob whose every
// window holds payload, or that frames no payload, has none.
func TestSealedZeroTail(t *testing.T) {
	const window = 64
	blob := func(n, payload int) []byte {
		b := NewBlob(n, window)
		for i := range payload {
			b[i] = byte(i + 1)
		}
		SealWindows(b, window, 0, n)
		return b[:FramedLen(n, window)]
	}
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 1
		return b
	}
	n := 3*window + 9
	for _, tc := range []struct {
		name   string
		framed []byte
		tail   int
	}{
		{"every window payload", blob(n, n), n},
		{"two zero windows", blob(n, window+1), 2 * window},
		{"all zero", blob(n, 0), 0},
		{"short last window zero", blob(n, 3*window), 3 * window},
		{"a zero-tail byte flipped", flip(blob(n, window+1), 2*window+5), 3 * window},
		{"a zero-tail sum flipped", flip(blob(n, window+1), n+2*SumLen), 3 * window},
		{"empty", blob(0, 0), 0},
	} {
		gotN, tail := SealedZeroTail(tc.framed, window)
		if gotN != len(tc.framed)-SumLen*windows(gotN, window) || tail != tc.tail {
			t.Errorf("%s: n %d, tail %d; want tail %d", tc.name, gotN, tail, tc.tail)
		}
	}
	if n, tail := SealedZeroTail(make([]byte, 3), window); n != 3 || tail != 3 {
		t.Errorf("a blob that frames no payload: n %d, tail %d; want 3, 3", n, tail)
	}
}
