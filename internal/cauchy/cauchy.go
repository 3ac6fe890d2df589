// Package cauchy constructs Cauchy generator matrices over GF(2^w) for
// systematic Cauchy Reed-Solomon erasure codes.
//
// A Cauchy matrix C has C[i][j] = 1/(x_i + y_j) with all x_i, y_j distinct;
// every square submatrix of a Cauchy matrix is invertible, so the extended
// generator [I_k ; C] is MDS: any k rows are linearly independent and any k
// of the k+m coded chunks suffice to reconstruct the original k.
//
// The package also provides the "good" (ones-minimising) transformation from
// the CRS literature: dividing rows and columns by carefully chosen field
// elements preserves the MDS property while reducing the number of ones in
// the binary expansion of the matrix, which directly reduces the XOR count
// of bitmatrix encoding.
package cauchy

import (
	"fmt"
	"math/bits"

	"eccheck/internal/gf"
)

// Options configures generator matrix construction.
type Options struct {
	// Improve applies the ones-minimising row/column division step.
	Improve bool
}

// ParityMatrix returns the m×k Cauchy parity matrix over GF(2^w) with
// X = {0..m-1} and Y = {m..m+k-1}, i.e. C[i][j] = 1/(i XOR (m+j)).
// It requires k + m <= 2^w.
func ParityMatrix(f *gf.Field, k, m int) (*gf.Matrix, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("cauchy: k and m must be positive (k=%d, m=%d)", k, m)
	}
	if k+m > f.Size() {
		return nil, fmt.Errorf("cauchy: k+m = %d exceeds field size %d; use a larger w", k+m, f.Size())
	}
	c, err := f.NewMatrix(m, k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			inv, err := f.Inv(i ^ (m + j))
			if err != nil {
				return nil, fmt.Errorf("cauchy: building C[%d][%d]: %w", i, j, err)
			}
			c.Set(i, j, inv)
		}
	}
	return c, nil
}

// Generator returns the (k+m)×k systematic generator matrix [I_k ; C] where
// C is an m×k Cauchy parity matrix.
func Generator(f *gf.Field, k, m int, opts Options) (*gf.Matrix, error) {
	c, err := ParityMatrix(f, k, m)
	if err != nil {
		return nil, err
	}
	if opts.Improve {
		if err := improve(f, c); err != nil {
			return nil, err
		}
	}
	gen, err := f.NewMatrix(k+m, k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			gen.Set(k+i, j, c.At(i, j))
		}
	}
	return gen, nil
}

// OnesInBitmatrix counts the ones in the w×w binary expansion of element e:
// the XOR cost of multiplying a region by e in bitmatrix coding.
func OnesInBitmatrix(f *gf.Field, e int) int {
	w := int(f.W())
	ones := 0
	v := e
	for c := 0; c < w; c++ {
		ones += bits.OnesCount(uint(v))
		v = f.Mul(v, 2) // next column is e * x^c
	}
	return ones
}

// improve performs the classic CRS matrix improvement: first divide every
// column by its first-row element (making row 0 all ones), then for each
// remaining row pick the divisor that minimises the total bitmatrix ones of
// that row. Dividing a whole row or column by a nonzero constant preserves
// the Cauchy (and hence MDS) structure.
func improve(f *gf.Field, c *gf.Matrix) error {
	m, k := c.Rows(), c.Cols()
	// Column step: make row 0 all ones.
	for j := 0; j < k; j++ {
		d := c.At(0, j)
		if d == 0 {
			return fmt.Errorf("cauchy: zero element at (0, %d) during improvement", j)
		}
		dinv, err := f.Inv(d)
		if err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			c.Set(i, j, f.Mul(c.At(i, j), dinv))
		}
	}
	// Row step: for every row below the first, choose the divisor from the
	// row's own elements that minimises the bitmatrix ones of the row.
	for i := 1; i < m; i++ {
		best := -1
		bestDiv := 1
		for j := 0; j < k; j++ {
			div := c.At(i, j)
			if div == 0 {
				continue
			}
			dinv, err := f.Inv(div)
			if err != nil {
				return err
			}
			ones := 0
			for jj := 0; jj < k; jj++ {
				ones += OnesInBitmatrix(f, f.Mul(c.At(i, jj), dinv))
			}
			if best == -1 || ones < best {
				best = ones
				bestDiv = div
			}
		}
		if bestDiv != 1 {
			dinv, err := f.Inv(bestDiv)
			if err != nil {
				return err
			}
			for j := 0; j < k; j++ {
				c.Set(i, j, f.Mul(c.At(i, j), dinv))
			}
		}
	}
	return nil
}
