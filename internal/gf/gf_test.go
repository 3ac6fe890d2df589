package gf

import (
	"testing"
	"testing/quick"
)

func TestNewFieldSupportedSizes(t *testing.T) {
	for _, w := range []uint{4, 8, 16} {
		f, err := NewField(w)
		if err != nil {
			t.Fatalf("NewField(%d): %v", w, err)
		}
		if f.W() != w {
			t.Errorf("W() = %d, want %d", f.W(), w)
		}
		if f.Size() != 1<<w {
			t.Errorf("Size() = %d, want %d", f.Size(), 1<<w)
		}
	}
}

func TestNewFieldUnsupportedSize(t *testing.T) {
	for _, w := range []uint{0, 1, 2, 3, 5, 7, 9, 32, 64} {
		if _, err := NewField(w); err == nil {
			t.Errorf("NewField(%d): want error, got nil", w)
		}
	}
}

func TestNewFieldCached(t *testing.T) {
	a, _ := NewField(8)
	b, _ := NewField(8)
	if a != b {
		t.Error("NewField(8) returned distinct instances; want cached")
	}
}

// The exp and log tables Mul and Inv index are inverse permutations of the
// nonzero elements.
func TestExpLogRoundTrip(t *testing.T) {
	for _, w := range []uint{4, 8, 16} {
		f := MustField(w)
		for a := 1; a < f.Size(); a++ {
			if got := f.expTbl[f.logTbl[a]]; got != a {
				t.Fatalf("w=%d exp(log(%d)) = %d", w, a, got)
			}
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for _, w := range []uint{4, 8} {
		f := MustField(w)
		for a := 0; a < f.Size(); a++ {
			if got := f.Mul(a, 1); got != a {
				t.Fatalf("w=%d: %d*1 = %d", w, a, got)
			}
			if got := f.Mul(1, a); got != a {
				t.Fatalf("w=%d: 1*%d = %d", w, a, got)
			}
			if got := f.Mul(a, 0); got != 0 {
				t.Fatalf("w=%d: %d*0 = %d", w, a, got)
			}
		}
	}
}

func TestMulCommutativeGF16Exhaustive(t *testing.T) {
	f := MustField(4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("mul not commutative at (%d, %d)", a, b)
			}
		}
	}
}

func TestMulAssociativeGF16Exhaustive(t *testing.T) {
	f := MustField(4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			for c := 0; c < 16; c++ {
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("mul not associative at (%d, %d, %d)", a, b, c)
				}
			}
		}
	}
}

func TestDistributivityGF256Quick(t *testing.T) {
	f := MustField(8)
	prop := func(a, b, c byte) bool {
		lhs := f.Mul(int(a), int(b^c)) // addition in GF(2^w) is XOR
		rhs := f.Mul(int(a), int(b)) ^ f.Mul(int(a), int(c))
		return lhs == rhs
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestInvProperty(t *testing.T) {
	for _, w := range []uint{4, 8, 16} {
		f := MustField(w)
		for a := 1; a < f.Size(); a++ {
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("w=%d Inv(%d): %v", w, a, err)
			}
			if got := f.Mul(a, inv); got != 1 {
				t.Fatalf("w=%d: %d * inv(%d)=%d = %d, want 1", w, a, a, inv, got)
			}
		}
	}
}

func TestInvZero(t *testing.T) {
	f := MustField(8)
	if _, err := f.Inv(0); err == nil {
		t.Error("Inv(0): want error")
	}
}

func TestMultiplicativeGroupIsCyclic(t *testing.T) {
	// The generator α=2 must enumerate every nonzero element exactly once.
	for _, w := range []uint{4, 8} {
		f := MustField(w)
		seen := make(map[int]bool, f.Size()-1)
		x := 1
		for i := 0; i < f.Size()-1; i++ {
			if seen[x] {
				t.Fatalf("w=%d: repeated element %d at power %d", w, x, i)
			}
			seen[x] = true
			x = f.Mul(x, 2)
		}
		if x != 1 {
			t.Fatalf("w=%d: α^(2^w-1) = %d, want 1", w, x)
		}
	}
}
