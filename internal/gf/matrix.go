package gf

import (
	"fmt"
	"strings"
)

// Matrix is a dense matrix over GF(2^w). Elements are stored row-major as
// ints in [0, 2^w). A Matrix is bound to the Field that created it.
type Matrix struct {
	f    *Field
	rows int
	cols int
	data []int
}

// NewMatrix returns a zero rows×cols matrix over f.
func (f *Field) NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("gf: invalid matrix dimensions %dx%d", rows, cols)
	}
	return &Matrix{f: f, rows: rows, cols: cols, data: make([]int, rows*cols)}, nil
}

// Identity returns the n×n identity matrix over f.
func (f *Field) Identity(n int) (*Matrix, error) {
	m, err := f.NewMatrix(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Field returns the field this matrix is defined over.
func (m *Matrix) Field() *Field { return m.f }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) int { return m.data[r*m.cols+c] }

// Set assigns the element at (r, c). The value is masked to the field size.
func (m *Matrix) Set(r, c, v int) { m.data[r*m.cols+c] = v & m.f.max }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{f: m.f, rows: m.rows, cols: m.cols, data: make([]int, len(m.data))}
	copy(out.data, m.data)
	return out
}

// SubMatrix returns the matrix consisting of the given rows of m, in order.
func (m *Matrix) SubMatrix(rows []int) (*Matrix, error) {
	out, err := m.f.NewMatrix(len(rows), m.cols)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("gf: submatrix row %d out of range [0, %d)", r, m.rows)
		}
		copy(out.data[i*m.cols:(i+1)*m.cols], m.data[r*m.cols:(r+1)*m.cols])
	}
	return out, nil
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("gf: matrix shape mismatch for product: %dx%d * %dx%d",
			m.rows, m.cols, other.rows, other.cols)
	}
	out, err := m.f.NewMatrix(m.rows, other.cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < other.cols; j++ {
				b := other.data[k*other.cols+j]
				if b == 0 {
					continue
				}
				out.data[i*other.cols+j] ^= m.f.Mul(a, b)
			}
		}
	}
	return out, nil
}

// Invert returns the inverse of a square matrix via Gauss-Jordan elimination
// over GF(2^w). It returns an error when the matrix is singular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gf: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv, err := m.f.Identity(n)
	if err != nil {
		return nil, err
	}

	for col := 0; col < n; col++ {
		// Find a pivot row at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.data[r*n+col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("gf: matrix is singular (no pivot in column %d)", col)
		}
		if pivot != col {
			work.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		// Scale the pivot row so the diagonal element becomes 1.
		p := work.data[col*n+col]
		if p != 1 {
			pinv, err := m.f.Inv(p)
			if err != nil {
				return nil, err
			}
			work.scaleRow(col, pinv)
			inv.scaleRow(col, pinv)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := work.data[r*n+col]
			if factor == 0 {
				continue
			}
			work.addScaledRow(r, col, factor)
			inv.addScaledRow(r, col, factor)
		}
	}
	return inv, nil
}

// IsIdentity reports whether m is a square identity matrix.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			want := 0
			if i == j {
				want = 1
			}
			if m.data[i*m.cols+j] != want {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%3d", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (m *Matrix) swapRows(a, b int) {
	for j := 0; j < m.cols; j++ {
		m.data[a*m.cols+j], m.data[b*m.cols+j] = m.data[b*m.cols+j], m.data[a*m.cols+j]
	}
}

func (m *Matrix) scaleRow(r, c int) {
	for j := 0; j < m.cols; j++ {
		m.data[r*m.cols+j] = m.f.Mul(m.data[r*m.cols+j], c)
	}
}

// addScaledRow does row[dst] ^= factor * row[src].
func (m *Matrix) addScaledRow(dst, src, factor int) {
	for j := 0; j < m.cols; j++ {
		m.data[dst*m.cols+j] ^= m.f.Mul(factor, m.data[src*m.cols+j])
	}
}
