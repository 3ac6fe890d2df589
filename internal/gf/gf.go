// Package gf implements arithmetic over the finite fields GF(2^w) for
// w ∈ {4, 8, 16}, the fields used by Cauchy Reed-Solomon erasure coding.
//
// All operations are table-driven: a Field carries logarithm and
// anti-logarithm tables generated from a primitive polynomial, so that
// multiplication and division are two table lookups and one modular add.
// The package also provides the region kernels of the encoding hot path,
// XORSlice and XORInto.
package gf

import (
	"fmt"
	"sync"
)

// Primitive polynomials (including the leading bit) per word size. These are
// the same defaults used by classic erasure-coding libraries such as
// Jerasure, so encoding matrices generated here are interoperable with the
// standard literature values.
const (
	polyW4  = 0x13    // x^4 + x + 1
	polyW8  = 0x11d   // x^8 + x^4 + x^3 + x^2 + 1
	polyW16 = 0x1100b // x^16 + x^12 + x^3 + x + 1
)

// Field is an instance of GF(2^w). It is immutable after construction and
// safe for concurrent use.
type Field struct {
	w      uint  // word size in bits
	size   int   // 2^w
	max    int   // 2^w - 1 (multiplicative group order)
	poly   int   // primitive polynomial
	logTbl []int // logTbl[x] = log_α(x), x in [1, 2^w)
	expTbl []int // expTbl[i] = α^i, extended to 2*max to skip a mod
}

var (
	fieldCache   = map[uint]*Field{}
	fieldCacheMu sync.Mutex
)

// NewField returns the field GF(2^w). Supported word sizes are 4, 8 and 16.
// Instances are cached: repeated calls with the same w return the same
// *Field.
func NewField(w uint) (*Field, error) {
	fieldCacheMu.Lock()
	defer fieldCacheMu.Unlock()
	if f, ok := fieldCache[w]; ok {
		return f, nil
	}

	var poly int
	switch w {
	case 4:
		poly = polyW4
	case 8:
		poly = polyW8
	case 16:
		poly = polyW16
	default:
		return nil, fmt.Errorf("gf: unsupported word size %d (want 4, 8 or 16)", w)
	}

	f := &Field{
		w:    w,
		size: 1 << w,
		max:  (1 << w) - 1,
		poly: poly,
	}
	f.buildTables()
	fieldCache[w] = f
	return f, nil
}

// MustField is NewField for word sizes known at compile time; it panics on
// an unsupported w and is intended for package-level test helpers only.
func MustField(w uint) *Field {
	f, err := NewField(w)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Field) buildTables() {
	f.logTbl = make([]int, f.size)
	f.expTbl = make([]int, 2*f.max)
	x := 1
	for i := 0; i < f.max; i++ {
		f.expTbl[i] = x
		f.logTbl[x] = i
		x <<= 1
		if x&f.size != 0 {
			x ^= f.poly
		}
	}
	// Extend the exp table so Mul can index log(a)+log(b) directly without
	// a modulo by the group order.
	for i := f.max; i < 2*f.max; i++ {
		f.expTbl[i] = f.expTbl[i-f.max]
	}
}

// W returns the word size in bits.
func (f *Field) W() uint { return f.w }

// Size returns the number of field elements, 2^w.
func (f *Field) Size() int { return f.size }

// Mul returns a * b in GF(2^w).
func (f *Field) Mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return f.expTbl[f.logTbl[a]+f.logTbl[b]]
}

// Inv returns the multiplicative inverse of a. Zero has no inverse.
func (f *Field) Inv(a int) (int, error) {
	if a == 0 {
		return 0, fmt.Errorf("gf: zero has no inverse in GF(2^%d)", f.w)
	}
	return f.expTbl[f.max-f.logTbl[a]], nil
}
