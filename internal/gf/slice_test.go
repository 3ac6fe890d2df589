package gf

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestXORSliceMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1024, 4097} {
		dst := randomBytes(r, n)
		src := randomBytes(r, n)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		if err := XORSlice(dst, src); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: XORSlice mismatch", n)
		}
	}
}

func TestXORSliceLengthMismatch(t *testing.T) {
	if err := XORSlice(make([]byte, 4), make([]byte, 5)); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if err := XORInto(make([]byte, 4), make([]byte, 4), make([]byte, 5)); err == nil {
		t.Error("XORInto: want error for a mismatched b")
	}
	if err := XORInto(make([]byte, 4), make([]byte, 3), make([]byte, 4)); err == nil {
		t.Error("XORInto: want error for a mismatched a")
	}
}

// TestXORSliceMisaligned holds both kernels to a byte loop at every length
// 0..300 and every pair of base offsets mod 8: the vectorised body, its
// 8-byte and 1-byte tails, and operands that share no alignment.
func TestXORSliceMisaligned(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for n := 0; n <= 300; n++ {
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff++ {
				dst := randomBytes(r, n+dOff)[dOff:]
				a := randomBytes(r, n+sOff)[sOff:]
				b := randomBytes(r, n+7-sOff)[7-sOff:]
				want := make([]byte, n)
				for i := range want {
					want[i] = dst[i] ^ a[i]
				}
				if err := XORSlice(dst, a); err != nil {
					t.Fatalf("XORSlice n=%d offsets (%d,%d): %v", n, dOff, sOff, err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("XORSlice n=%d offsets (%d,%d): mismatch", n, dOff, sOff)
				}
				for i := range want {
					want[i] = a[i] ^ b[i]
				}
				if err := XORInto(dst, a, b); err != nil {
					t.Fatalf("XORInto n=%d offsets (%d,%d): %v", n, dOff, sOff, err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("XORInto n=%d offsets (%d,%d): mismatch", n, dOff, sOff)
				}
			}
		}
	}
}

// TestXOROverlap pins the aliasing contract: an operand that is dst itself
// is fine, one that overlaps dst at another offset is an error — never the
// standard library kernel's panic — and leaves dst untouched.
func TestXOROverlap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	buf := randomBytes(r, 65)
	orig := append([]byte(nil), buf...)
	dst, shifted := buf[:64], buf[1:]
	if err := XORSlice(dst, shifted); err == nil {
		t.Error("XORSlice with src shifted one byte over dst: want error")
	}
	if err := XORInto(dst, shifted, make([]byte, 64)); err == nil {
		t.Error("XORInto with a shifted one byte over dst: want error")
	}
	if err := XORInto(dst, make([]byte, 64), shifted); err == nil {
		t.Error("XORInto with b shifted one byte over dst: want error")
	}
	if !bytes.Equal(buf, orig) {
		t.Error("a rejected overlap wrote to dst")
	}

	if err := XORSlice(dst, dst); err != nil {
		t.Fatalf("XORSlice(b, b): %v", err)
	}
	if !bytes.Equal(dst, make([]byte, 64)) {
		t.Error("XORSlice(b, b) is not all zeros")
	}
	b := randomBytes(r, 64)
	a := append([]byte(nil), b...)
	if err := XORInto(b, b, a); err != nil || !bytes.Equal(b, make([]byte, 64)) {
		t.Errorf("XORInto(b, b, copy of b) = %v, want zeros", err)
	}
}

func TestXORSliceSelfInverse(t *testing.T) {
	prop := func(data []byte) bool {
		dst := append([]byte(nil), data...)
		src := make([]byte, len(data))
		for i := range src {
			src[i] = byte(i * 31)
		}
		if err := XORSlice(dst, src); err != nil {
			return false
		}
		if err := XORSlice(dst, src); err != nil {
			return false
		}
		return bytes.Equal(dst, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkXORSlice64MB(b *testing.B) {
	if testing.Short() {
		b.Skip("full-size XOR benchmark skipped in -short mode")
	}
	dst := make([]byte, 64<<20)
	src := make([]byte, 64<<20)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := XORSlice(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXORSliceKernel times both kernels at the sizes the rounds use: a
// 4 KiB tile, a 64 KiB window and a 1 MiB window (gf.xor_gbps's size).
func BenchmarkXORSliceKernel(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		dst, x, y := make([]byte, size), make([]byte, size), make([]byte, size)
		b.Run("XORSlice/"+strconv.Itoa(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := XORSlice(dst, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("XORInto/"+strconv.Itoa(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := XORInto(dst, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
