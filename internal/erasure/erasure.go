// Package erasure implements a systematic Cauchy Reed-Solomon erasure code:
// k data chunks are extended with m parity chunks such that any k of the
// k+m chunks reconstruct the original data. Encoding and reconstruction are
// XOR-only, driven by bitmatrix schedules, which is the coding scheme
// ECCheck uses for checkpoint chunks.
package erasure

import (
	"fmt"
	"sync"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/cauchy"
	"eccheck/internal/gf"
)

// Option configures a Code.
type Option func(*config)

type config struct {
	improve bool
	smart   bool
}

// wordSize is the GF(2^w) word size of every code: w = 8.
const wordSize = 8

// WithImprovedMatrix enables the ones-minimising Cauchy matrix improvement.
// Default is on.
func WithImprovedMatrix(v bool) Option {
	return func(c *config) { c.improve = v }
}

// WithSmartSchedule enables differential XOR scheduling. Default is on.
func WithSmartSchedule(v bool) Option {
	return func(c *config) { c.smart = v }
}

// Code is an immutable (k, m) Cauchy Reed-Solomon code. It is safe for
// concurrent use: encoding state lives entirely in caller-provided buffers.
type Code struct {
	k, m  int
	field *gf.Field
	cfg   config
	gen   *gf.Matrix // (k+m) x k systematic generator
	enc   *bitmatrix.Schedule

	scalarMu        sync.Mutex
	scalarSchedules map[int]*bitmatrix.Schedule
}

// New constructs a (k, m) code. k and m must be positive and k+m must fit
// in GF(2^8).
func New(k, m int, opts ...Option) (*Code, error) {
	cfg := config{improve: true, smart: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	field, err := gf.NewField(wordSize)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	gen, err := cauchy.Generator(field, k, m, cauchy.Options{Improve: cfg.improve})
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	c := &Code{k: k, m: m, field: field, cfg: cfg, gen: gen}
	parityRows := make([]int, m)
	for i := range parityRows {
		parityRows[i] = k + i
	}
	c.enc, err = c.compile(parityRows)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// K returns the number of data chunks.
func (c *Code) K() int { return c.k }

// M returns the number of parity chunks.
func (c *Code) M() int { return c.m }

// WordSize returns the field word size w.
func (c *Code) WordSize() uint { return wordSize }

// Generator returns a copy of the (k+m)×k generator matrix.
func (c *Code) Generator() *gf.Matrix { return c.gen.Clone() }

// EncodeXORCount returns the number of XOR ops in the compiled encoding
// schedule; used by ablation benchmarks comparing scheduling strategies.
func (c *Code) EncodeXORCount() int { return c.enc.XORCount() }

// ChunkAlign returns the smallest chunk size >= size that the code can
// operate on: a multiple of 8·w bytes. The schedules need only w (a chunk
// is w packets) and the XOR kernel no alignment; the factor 8 is the
// format: core validates BufferSize against the same 8·w, and it keeps
// packet sizes, so stored layouts, what they were.
func (c *Code) ChunkAlign(size int) int {
	unit := 8 * wordSize
	if size%unit == 0 {
		return size
	}
	return (size/unit + 1) * unit
}

// compile builds an XOR schedule computing the given generator rows from
// the k data chunks.
func (c *Code) compile(rows []int) (*bitmatrix.Schedule, error) {
	sub, err := c.gen.SubMatrix(rows)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	return c.compileMatrix(sub, c.cfg.smart)
}

func (c *Code) compileMatrix(m *gf.Matrix, smart bool) (*bitmatrix.Schedule, error) {
	bm, err := bitmatrix.FromMatrix(c.field, m)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	if smart {
		s, err := bitmatrix.CompileSmart(bm, m.Cols(), m.Rows(), wordSize)
		if err != nil {
			return nil, fmt.Errorf("erasure: %w", err)
		}
		return s, nil
	}
	s, err := bitmatrix.Compile(bm, m.Cols(), m.Rows(), wordSize)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	return s, nil
}

func (c *Code) checkChunks(chunks [][]byte, want int, label string) (int, error) {
	if len(chunks) != want {
		return 0, fmt.Errorf("erasure: got %d %s chunks, want %d", len(chunks), label, want)
	}
	size := -1
	for i, ch := range chunks {
		if ch == nil {
			continue
		}
		if size == -1 {
			size = len(ch)
		} else if len(ch) != size {
			return 0, fmt.Errorf("erasure: %s chunk %d has size %d, want %d", label, i, len(ch), size)
		}
	}
	if size == -1 {
		return 0, fmt.Errorf("erasure: all %s chunks are nil", label)
	}
	if size%(8*wordSize) != 0 {
		return 0, fmt.Errorf("erasure: chunk size %d not a multiple of %d (use ChunkAlign)",
			size, 8*wordSize)
	}
	return size, nil
}

// Encode fills the m parity chunks from the k data chunks. All chunks must
// be non-nil, equal-sized, and ChunkAlign-ed.
func (c *Code) Encode(data, parity [][]byte) error {
	if _, err := c.checkChunks(data, c.k, "data"); err != nil {
		return err
	}
	if _, err := c.checkChunks(parity, c.m, "parity"); err != nil {
		return err
	}
	for i, d := range data {
		if d == nil {
			return fmt.Errorf("erasure: data chunk %d is nil", i)
		}
	}
	return c.enc.Execute(data, parity)
}

// EncodeRange encodes only the packet byte range [lo, hi) of every chunk,
// enabling a worker pool to split one encode across cores. lo and hi index
// within a packet (chunk size / w).
func (c *Code) EncodeRange(data, parity [][]byte, lo, hi int) error {
	return c.enc.ExecuteRange(data, parity, lo, hi)
}

// TransformSchedule compiles an XOR schedule that computes the chunks in
// wanted (indices in [0, k+m)) from the chunks in available (exactly k
// distinct indices in [0, k+m)). This single primitive serves both
// reconstruction after failures and ECCheck's recovery encoding (where
// surviving data and parity chunks act as the "data" of a fresh encode).
func (c *Code) TransformSchedule(available, wanted []int) (*bitmatrix.Schedule, error) {
	if len(available) != c.k {
		return nil, fmt.Errorf("erasure: need exactly k=%d available chunks, got %d", c.k, len(available))
	}
	seen := make(map[int]bool, len(available))
	for _, idx := range available {
		if idx < 0 || idx >= c.k+c.m {
			return nil, fmt.Errorf("erasure: available index %d out of range [0, %d)", idx, c.k+c.m)
		}
		if seen[idx] {
			return nil, fmt.Errorf("erasure: duplicate available index %d", idx)
		}
		seen[idx] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("erasure: no wanted chunks")
	}
	for _, idx := range wanted {
		if idx < 0 || idx >= c.k+c.m {
			return nil, fmt.Errorf("erasure: wanted index %d out of range [0, %d)", idx, c.k+c.m)
		}
	}

	// The available chunks are gen[available] · D where D is the original
	// data. Inverting that k×k system expresses D in terms of the available
	// chunks, and composing with the wanted generator rows expresses each
	// wanted chunk directly in terms of the available chunks.
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
	transform, err := wantedRows.Mul(inv)
	if err != nil {
		return nil, fmt.Errorf("erasure: %w", err)
	}
	return c.compileMatrix(transform, c.cfg.smart)
}

// Reconstruct fills in the missing (nil) chunks of a full chunk vector.
// chunks has length k+m: chunks[0..k) are data, chunks[k..k+m) are parity.
// At least k chunks must be present. Present chunks are left untouched;
// missing chunks are allocated and recomputed.
func (c *Code) Reconstruct(chunks [][]byte) error {
	if len(chunks) != c.k+c.m {
		return fmt.Errorf("erasure: got %d chunks, want %d", len(chunks), c.k+c.m)
	}
	size, err := c.checkChunks(chunks, c.k+c.m, "coded")
	if err != nil {
		return err
	}

	available := make([]int, 0, c.k)
	missing := make([]int, 0, c.m)
	for i, ch := range chunks {
		if ch != nil {
			if len(available) < c.k {
				available = append(available, i)
			}
		} else {
			missing = append(missing, i)
		}
	}
	if len(available) < c.k {
		return fmt.Errorf("erasure: only %d chunks present, need at least k=%d",
			len(available), c.k)
	}
	if len(missing) == 0 {
		return nil
	}

	sched, err := c.TransformSchedule(available, missing)
	if err != nil {
		return err
	}
	in := make([][]byte, c.k)
	for i, idx := range available {
		in[i] = chunks[idx]
	}
	out := make([][]byte, len(missing))
	for i := range out {
		out[i] = make([]byte, size)
	}
	if err := sched.Execute(in, out); err != nil {
		return err
	}
	for i, idx := range missing {
		chunks[idx] = out[i]
	}
	return nil
}
