package erasure

import (
	"fmt"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/gf"
)

// Scalar schedules implement the distributed (per-worker) form of the code:
// a worker in data group j encodes its own packet for parity index i by
// multiplying the packet region with the single generator coefficient
// E[k+i][j]; XOR reduction across the reduction group then sums those
// contributions into the parity packet. Likewise, recovery multiplies
// surviving packets by decode-transform coefficients. Both are region ×
// scalar products over GF(2^w). A source that is multiplied by several
// coefficients — a worker's packet by its m parity coefficients, a basis
// chunk by one coefficient per missing chunk — is one column product: the
// whole column compiled into one schedule (Column), run in one pass over
// the source.

// Column compiles a coefficient column into one smart 1-chunk-in,
// len(coefs)-chunk-out XOR schedule: run over a source region, it writes
// out[i] = coefs[i] · src for every i in one pass over src. Smart
// scheduling derives an output packet from an earlier one when that is
// cheaper, across the products as well as within one, which per-coefficient
// schedules cannot. A zero coefficient clears its output. Columns are not
// cached here: a caller compiles the columns it runs once and keeps them.
func (c *Code) Column(coefs []int) (*bitmatrix.Schedule, error) {
	return c.column(coefs, c.cfg.smart)
}

// column is Column with the scheduling strategy given: a plain expansion
// when smart is false.
func (c *Code) column(coefs []int, smart bool) (*bitmatrix.Schedule, error) {
	if len(coefs) == 0 {
		return nil, fmt.Errorf("erasure: empty coefficient column")
	}
	var nonzero []int // the output of each nonzero coefficient, in order
	for i, coef := range coefs {
		if coef < 0 || coef >= c.field.Size() {
			return nil, fmt.Errorf("erasure: coefficient %d outside [0, 2^%d)", coef, wordSize)
		}
		if coef != 0 {
			nonzero = append(nonzero, i)
		}
	}
	s := &bitmatrix.Schedule{W: wordSize, K: 1, DstChunks: len(coefs)}
	if len(nonzero) > 0 {
		mat, err := c.field.NewMatrix(len(nonzero), 1)
		if err != nil {
			return nil, fmt.Errorf("erasure: %w", err)
		}
		for r, i := range nonzero {
			mat.Set(r, 0, coefs[i])
		}
		sub, err := c.compileMatrix(mat, smart)
		if err != nil {
			return nil, err
		}
		// sub's output chunk 1+r is the column's output nonzero[r], as a
		// destination and as the base a smart row is derived from.
		s.Ops = sub.Ops
		for i := range s.Ops {
			op := &s.Ops[i]
			if op.SrcChunk > 0 {
				op.SrcChunk = 1 + nonzero[op.SrcChunk-1]
			}
			op.DstChunk = 1 + nonzero[op.DstChunk-1]
		}
	}
	for i, coef := range coefs {
		for p := 0; coef == 0 && p < wordSize; p++ {
			s.Ops = append(s.Ops, bitmatrix.Op{Kind: bitmatrix.OpZero, DstChunk: 1 + i, DstPacket: p})
		}
	}
	return s, nil
}

// ScalarSchedule returns a 1-chunk-in, 1-chunk-out XOR schedule computing
// dst = coef · src over GF(2^w) — the one-row Column — or dst ^= coef · src
// when accumulate is set. The coefficient must be nonzero (a zero
// contribution is simply skipped by callers). Schedules are cached on the
// Code.
//
// An accumulating schedule is the plain expansion of coef with every op an
// OpXOR into dst, never a smart one: a smart row starts as a copy of an
// earlier output packet, and in an accumulator that packet also holds what
// dst held before.
func (c *Code) ScalarSchedule(coef int, accumulate bool) (*bitmatrix.Schedule, error) {
	if coef <= 0 || coef >= c.field.Size() {
		return nil, fmt.Errorf("erasure: coefficient %d outside (0, 2^%d)", coef, wordSize)
	}
	key := coef // an accumulating schedule is cached under -coef
	if accumulate {
		key = -coef
	}
	c.scalarMu.Lock()
	defer c.scalarMu.Unlock()
	if c.scalarSchedules == nil {
		c.scalarSchedules = make(map[int]*bitmatrix.Schedule)
	}
	if s, ok := c.scalarSchedules[key]; ok {
		return s, nil
	}
	s, err := c.column([]int{coef}, c.cfg.smart && !accumulate)
	if err != nil {
		return nil, err
	}
	if accumulate {
		for i := range s.Ops {
			s.Ops[i].Kind = bitmatrix.OpXOR
		}
	}
	c.scalarSchedules[key] = s
	return s, nil
}

// ParityCoefficient returns the generator coefficient E[k+i][j]: the factor
// a data-group-j worker applies to its packet when contributing to parity
// chunk i.
func (c *Code) ParityCoefficient(parityIndex, dataGroup int) (int, error) {
	if parityIndex < 0 || parityIndex >= c.m {
		return 0, fmt.Errorf("erasure: parity index %d out of range [0, %d)", parityIndex, c.m)
	}
	if dataGroup < 0 || dataGroup >= c.k {
		return 0, fmt.Errorf("erasure: data group %d out of range [0, %d)", dataGroup, c.k)
	}
	return c.gen.At(c.k+parityIndex, dataGroup), nil
}

// ScalarMulInto computes dst = coef · src via the cached schedule. src and
// dst must be equal-length, ChunkAlign-ed buffers. A zero coefficient
// clears dst.
func (c *Code) ScalarMulInto(coef int, dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("erasure: scalar mul length mismatch: dst=%d src=%d", len(dst), len(src))
	}
	if coef == 0 {
		clear(dst)
		return nil
	}
	s, err := c.ScalarSchedule(coef, false)
	if err != nil {
		return err
	}
	return s.Execute([][]byte{src}, [][]byte{dst})
}

// ScalarMulAdd computes dst ^= coef · src in one pass over dst. Every linear
// use of the code is a sum of these: a decode is Σ coef·basis, and a parity
// update after a data change Δ is P ^= coef·Δ (ECRM's linearity). src and
// dst must be equal-length, ChunkAlign-ed and must not overlap. A zero
// coefficient leaves dst as it is.
func (c *Code) ScalarMulAdd(coef int, dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("erasure: scalar mul-add length mismatch: dst=%d src=%d", len(dst), len(src))
	}
	switch coef {
	case 0:
		return nil
	case 1:
		return gf.XORSlice(dst, src)
	}
	s, err := c.ScalarSchedule(coef, true)
	if err != nil {
		return err
	}
	return s.Execute([][]byte{src}, [][]byte{dst})
}

// UpdateParity applies the incremental repair P_i ^= E[k+i][dataGroup]·Δ
// in place for every parity region after a data-group region changed by
// delta. parity[i] is parity chunk i's region covering the same bytes;
// all regions and delta must be equal length. The result is byte-
// identical to re-encoding the full data.
func (c *Code) UpdateParity(dataGroup int, delta []byte, parity [][]byte) error {
	if len(parity) != c.m {
		return fmt.Errorf("erasure: got %d parity regions, want m=%d", len(parity), c.m)
	}
	for i, p := range parity {
		coef, err := c.ParityCoefficient(i, dataGroup)
		if err != nil {
			return err
		}
		if err := c.ScalarMulAdd(coef, p, delta); err != nil {
			return fmt.Errorf("erasure: parity region %d: %w", i, err)
		}
	}
	return nil
}

// TransformMatrix returns the matrix expressing the wanted chunks in terms
// of the available chunks (the same computation TransformSchedule compiles,
// exposed so the distributed recovery path can extract per-worker scalar
// coefficients).
func (c *Code) TransformMatrix(available, wanted []int) (*gf.Matrix, error) {
	if len(available) != c.k {
		return nil, fmt.Errorf("erasure: need exactly k=%d available chunks, got %d", c.k, len(available))
	}
	sub, err := c.gen.SubMatrix(available)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	inv, err := sub.Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: decode system is singular: %w", err)
	}
	wantedRows, err := c.gen.SubMatrix(wanted)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	out, err := wantedRows.Mul(inv)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	return out, nil
}
