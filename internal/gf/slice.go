package gf

import (
	"crypto/subtle"
	"fmt"
	"unsafe"
)

// XORSlice computes dst[i] ^= src[i] for all i. It is the hot kernel of
// XOR-only Cauchy Reed-Solomon encoding and of the XOR-reduction step of the
// checkpointing protocol. dst and src must have the same length, and src
// must be dst itself or not overlap it.
func XORSlice(dst, src []byte) error {
	return XORInto(dst, dst, src)
}

// XORInto sets dst[i] = a[i] ^ b[i] for all i: a copy and an XOR in one
// pass over dst. All three slices must have the same length; a and b must
// each be dst itself or not overlap it.
//
// The body is the standard library's vectorised kernel (16 bytes an
// iteration on amd64, a generic word loop under the purego tag), whose speed
// does not depend on where the linker places this package.
func XORInto(dst, a, b []byte) error {
	if len(a) != len(dst) || len(b) != len(dst) {
		return fmt.Errorf("gf: xor length mismatch: dst=%d a=%d b=%d", len(dst), len(a), len(b))
	}
	if inexactOverlap(dst, a) || inexactOverlap(dst, b) {
		return fmt.Errorf("gf: xor operand overlaps dst at a different offset")
	}
	subtle.XORBytes(dst, a, b)
	return nil
}

// inexactOverlap reports whether equal-length x and y share memory at some
// non-corresponding index, the aliasing subtle.XORBytes panics on.
func inexactOverlap(x, y []byte) bool {
	if len(x) == 0 || &x[0] == &y[0] {
		return false
	}
	xp, yp := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return xp < yp+uintptr(len(y)) && yp < xp+uintptr(len(x))
}
