package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
)

// Host-memory blobs are volatile and uninspected between checkpoints, so a
// silently flipped bit is indistinguishable from good data until a recovery
// depends on it. Every blob the engine stores therefore carries a CRC-32C
// (Castagnoli) footer: one sum per window of the blob, in window order, so a
// reader that uses a few windows verifies those and no others. A blob of at
// most one window carries one sum over all of it. ViewSummed verifies every
// window and surfaces a mismatch as ErrChecksum, which the load path treats
// exactly like an erased chunk.
//
// The framed layout is the payload, then SumLen bytes per window
// (little-endian), and nothing else: the window size is the reader's, never
// stored, and it fixes the only payload length a framed length can have.

// ErrChecksum marks a blob whose stored CRC-32C footer does not match its
// payload, or whose length fits no footer: silent host-memory corruption.
var ErrChecksum = errors.New("cluster: blob checksum mismatch")

// SumLen is the size of one window's sum in a blob's footer.
const SumLen = 4

// oneWindow is the window size under which every blob is one window: the
// footer is one sum over the whole payload.
const oneWindow = math.MaxInt

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BlobStore is the minimal node-addressed blob interface the checksum
// helpers need: an adopting put and a borrowing read (see the ownership
// rule on Cluster.Adopt). Cluster implements it, and so do the wrappers
// the engine's tests put around one.
type BlobStore interface {
	Adopt(node int, key string, blob []byte) error
	View(node int, key string) ([]byte, error)
}

// windows is the number of window sums an n-byte payload carries: one per
// window of the given size (positive, as every window argument here), the
// last possibly shorter, and one for an empty payload.
func windows(n, window int) int {
	if n <= window {
		return 1
	}
	return (n-1)/window + 1
}

// FramedLen is the stored length of an n-byte payload: the payload and its
// footer.
func FramedLen(n, window int) int { return n + SumLen*windows(n, window) }

// NewBlob returns a zeroed n-byte payload buffer with its footer's room as
// spare capacity: the shape AdoptSummed and AdoptSealed store in place.
// Payload-sized producers assemble their bytes directly in one and hand it
// over, so the stored value is the buffer they wrote, never a copy of it.
func NewBlob(n, window int) []byte { return make([]byte, n, FramedLen(n, window)) }

// checksum returns the CRC-32C of p: the sum of a window whose bytes p is.
func checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// windowBounds is window b's byte range in an n-byte payload.
func windowBounds(n, window, b int) (int, int) {
	lo := b * window
	return lo, min(lo+window, n)
}

// SealWindows writes into blob's footer room (its spare capacity, see
// NewBlob) the sum of every window that overlaps blob[lo:hi]. A producer
// that finishes its payload range by range seals each range while it is
// still cache-hot; one that finishes window by window seals exactly the
// windows it wrote.
func SealWindows(blob []byte, window, lo, hi int) {
	n := len(blob)
	footer := blob[n:FramedLen(n, window)]
	last := 0 // an empty payload's one window
	if hi > lo {
		last = (hi - 1) / window
	} else if n > 0 {
		return
	}
	for b := lo / window; b <= last; b++ {
		wlo, whi := windowBounds(n, window, b)
		binary.LittleEndian.PutUint32(footer[b*SumLen:], checksum(blob[wlo:whi]))
	}
}

// ClearWindow zeroes window b of blob and seals it (see SealZeroWindow): a
// producer that writes nothing into a stale window lands it as zeros.
func ClearWindow(blob []byte, window, b int) {
	lo, hi := windowBounds(len(blob), window, b)
	clear(blob[lo:hi])
	SealZeroWindow(blob, window, b)
}

// SealZeroWindow writes into blob's footer room the sum of window b, whose
// bytes the caller knows to be zero: the constant sum of that many zero
// bytes, so no CRC pass runs over them.
func SealZeroWindow(blob []byte, window, b int) {
	n := len(blob)
	lo, hi := windowBounds(n, window, b)
	binary.LittleEndian.PutUint32(blob[n+b*SumLen:FramedLen(n, window)], zeroSum(hi-lo))
}

// SealedZeroTail returns a framed blob's payload length n and the start of
// its sealed zero tail: the trailing windows whose bytes are all zero and
// whose stored sum is the zero-window sum. A copy may leave payload[tail:n]
// out and write it back as zeros under the footer it carries, and the blob
// reads the same. A window whose bytes or sum are off is never in the tail,
// so a corrupt one travels and stays detectable. A blob that frames no
// payload under window has no tail: n and tail are its length.
func SealedZeroTail(framed []byte, window int) (n, tail int) {
	payload, sums, ok := frame(framed, window)
	if !ok {
		return len(framed), len(framed)
	}
	n, tail = len(payload), len(payload)
	for b := len(sums)/SumLen - 1; b >= 0; b-- {
		lo, hi := windowBounds(n, window, b)
		if binary.LittleEndian.Uint32(sums[b*SumLen:]) != zeroSum(hi-lo) || !isZero(payload[lo:hi]) {
			break
		}
		tail = lo
	}
	return n, tail
}

// zeroPage is a page of zeros to compare and sum against.
var zeroPage [4096]byte

func isZero(p []byte) bool {
	for len(p) > 0 {
		n := min(len(p), len(zeroPage))
		if !bytes.Equal(p[:n], zeroPage[:n]) {
			return false
		}
		p = p[n:]
	}
	return true
}

// zeroSums caches the CRC-32C of n zero bytes by n: a blob shape has at
// most two window lengths, a full one and a short last one.
var zeroSums = struct {
	sync.Mutex
	byLen map[int]uint32
}{byLen: map[int]uint32{}}

func zeroSum(n int) uint32 {
	zeroSums.Lock()
	sum, ok := zeroSums.byLen[n]
	if !ok {
		for left := n; left > 0; left -= len(zeroPage) {
			sum = crc32.Update(sum, crcTable, zeroPage[:min(left, len(zeroPage))])
		}
		zeroSums.byLen[n] = sum
	}
	zeroSums.Unlock()
	return sum
}

// VerifyWindow checks window b of payload against its sum in sums (a
// footer as ViewFramed returns it). A mismatch wraps ErrChecksum.
func VerifyWindow(payload, sums []byte, window, b int) error {
	lo, hi := windowBounds(len(payload), window, b)
	if checksum(payload[lo:hi]) != binary.LittleEndian.Uint32(sums[b*SumLen:]) {
		return fmt.Errorf("cluster: window %d: %w", b, ErrChecksum)
	}
	return nil
}

// AdoptSummed seals every window of payload into its footer room and hands
// the framed slice to the store without copying it. payload must come from
// NewBlob with the same window and, like any adopted blob, must never be
// written again or recycled by the caller.
func AdoptSummed(s BlobStore, node int, key string, payload []byte, window int) error {
	if err := footerRoom(key, payload, window); err != nil {
		return err
	}
	SealWindows(payload, window, 0, len(payload))
	return AdoptSealed(s, node, key, payload, window)
}

// AdoptSealed is AdoptSummed with every window's sum already in the footer
// room (SealWindows over every payload byte, or a copied footer whose
// windows still hold the bytes they were summed over).
func AdoptSealed(s BlobStore, node int, key string, payload []byte, window int) error {
	if err := footerRoom(key, payload, window); err != nil {
		return err
	}
	return s.Adopt(node, key, payload[:FramedLen(len(payload), window)])
}

func footerRoom(key string, payload []byte, window int) error {
	if cap(payload) < FramedLen(len(payload), window) {
		return fmt.Errorf("cluster: blob %q has no spare capacity for its checksum footer", key)
	}
	return nil
}

// StoreWindows writes a copy of blob under key with a footer of window
// sums, so any later in-memory corruption is detectable when it is read.
// The caller keeps its buffer: the one copy made here is the stored value.
func StoreWindows(s BlobStore, node int, key string, blob []byte, window int) error {
	framed := NewBlob(len(blob), window)
	copy(framed, blob)
	return AdoptSummed(s, node, key, framed, window)
}

// StoreSummed is StoreWindows with one window: a 4-byte footer over the
// whole blob.
func StoreSummed(s BlobStore, node int, key string, blob []byte) error {
	return StoreWindows(s, node, key, blob, oneWindow)
}

// frame splits a framed blob into its payload and footer without reading
// either. A length no payload frames to under the window fails.
func frame(framed []byte, window int) (payload, sums []byte, ok bool) {
	nw := 1
	if len(framed)-SumLen > window {
		// n > window: len = n + SumLen·ceil(n/window), so ceil(len/(window+SumLen))
		// is the only window count the length can carry.
		nw = (len(framed)-1)/(window+SumLen) + 1
	}
	n := len(framed) - SumLen*nw
	if n < 0 || windows(n, window) != nw {
		return nil, nil, false
	}
	return framed[:n:n], framed[n:], true
}

// ViewFramed borrows a checksummed blob without verifying it: the stored
// payload (capacity clipped) and its window sums, both read-only. Its
// framing is checked; a reader verifies each window it uses with
// VerifyWindow before it trusts the window's bytes.
func ViewFramed(s BlobStore, node int, key string, window int) (payload, sums []byte, err error) {
	framed, err := s.View(node, key)
	if err != nil {
		return nil, nil, err
	}
	payload, sums, ok := frame(framed, window)
	if !ok {
		return nil, nil, fmt.Errorf("cluster: node %d blob %q of %d bytes frames no payload: %w",
			node, key, len(framed), ErrChecksum)
	}
	return payload, sums, nil
}

// ViewSummed borrows a checksummed blob and verifies every window,
// returning the stored payload itself (footer excluded, capacity clipped) —
// no copy. The result is read-only. A mismatch wraps ErrChecksum.
func ViewSummed(s BlobStore, node int, key string, window int) ([]byte, error) {
	payload, sums, err := ViewFramed(s, node, key, window)
	if err != nil {
		return nil, err
	}
	for b := range len(sums) / SumLen {
		if err := VerifyWindow(payload, sums, window, b); err != nil {
			return nil, fmt.Errorf("cluster: node %d blob %q: %w", node, key, err)
		}
	}
	return payload, nil
}

// FetchSummed reads a private copy of a one-window checksummed blob's
// payload (see StoreSummed), verifying its footer. A mismatch wraps
// ErrChecksum.
func FetchSummed(s BlobStore, node int, key string) ([]byte, error) {
	payload, err := ViewSummed(s, node, key, oneWindow)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), payload...), nil
}

// Delete removes a blob from a node's host memory. Deleting a missing key
// is a no-op; deleting on a failed node is an error (its memory is gone).
func (c *Cluster) Delete(node int, key string) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] == StateGone {
		return fmt.Errorf("cluster: node %d is failed", node)
	}
	delete(c.hostMem[node], key)
	return nil
}

// Corrupt flips one bit of a stored blob, the fault-injection primitive for
// silent host-memory corruption. It is copy-on-write — the stored blob is
// replaced by a flipped copy — so bytes behind a view that was already
// verified never change. offset indexes the raw stored bytes (including any
// checksum footer).
func (c *Cluster) Corrupt(node int, key string, offset int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] == StateGone {
		return fmt.Errorf("cluster: node %d is failed", node)
	}
	blob, ok := c.hostMem[node][key]
	if !ok {
		return fmt.Errorf("cluster: node %d has no blob %q", node, key)
	}
	if offset < 0 || offset >= len(blob) {
		return fmt.Errorf("cluster: corrupt offset %d out of range [0, %d)", offset, len(blob))
	}
	flipped := append([]byte(nil), blob...)
	flipped[offset] ^= 0x01
	c.hostMem[node][key] = flipped
	return nil
}
