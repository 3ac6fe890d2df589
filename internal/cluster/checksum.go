package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Host-memory blobs are volatile and uninspected between checkpoints, so a
// silently flipped bit is indistinguishable from good data until a recovery
// depends on it. Every blob the engine stores therefore carries a CRC32
// (Castagnoli) footer; fetch verifies it and surfaces mismatches as
// ErrChecksum, which the load path treats exactly like an erased chunk.

// ErrChecksum marks a blob whose stored CRC32 footer does not match its
// payload: silent host-memory corruption.
var ErrChecksum = errors.New("cluster: blob checksum mismatch")

// FooterLen is the CRC32 footer size appended to every checksummed blob.
const FooterLen = 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BlobStore is the minimal node-addressed blob interface the checksum
// helpers need: an adopting put and a borrowing read (see the ownership
// rule on Cluster.Adopt). Cluster implements it, and so do the wrappers
// the engine's tests put around one.
type BlobStore interface {
	Adopt(node int, key string, blob []byte) error
	View(node int, key string) ([]byte, error)
}

// NewBlob returns a zeroed n-byte payload buffer with FooterLen bytes of
// spare capacity: the shape AdoptSummed seals in place. Payload-sized
// producers assemble their bytes directly in one and hand it over, so the
// stored value is the buffer they wrote, never a copy of it.
func NewBlob(n int) []byte { return make([]byte, n, n+FooterLen) }

// Checksum extends a running blob checksum over the next payload bytes
// (start from 0). A producer that writes its payload strictly in order can
// fold each piece in while it is still cache-hot and seal with AdoptSealed,
// instead of paying one cold pass over the whole blob in AdoptSummed.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, crcTable, p) }

// AdoptSummed seals payload's CRC32 footer into its spare capacity and
// hands the framed slice to the store without copying it. payload must
// come from NewBlob (cap >= len + FooterLen) and, like any adopted blob,
// must never be written again or recycled by the caller.
func AdoptSummed(s BlobStore, node int, key string, payload []byte) error {
	return AdoptSealed(s, node, key, payload, Checksum(0, payload))
}

// AdoptSealed is AdoptSummed with the payload's checksum already folded
// by the caller (Checksum over every payload byte, in order).
func AdoptSealed(s BlobStore, node int, key string, payload []byte, crc uint32) error {
	n := len(payload)
	if cap(payload)-n < FooterLen {
		return fmt.Errorf("cluster: blob %q has no spare capacity for its checksum footer", key)
	}
	framed := payload[:n+FooterLen]
	binary.LittleEndian.PutUint32(framed[n:], crc)
	return s.Adopt(node, key, framed)
}

// StoreSummed writes a copy of blob under key with a CRC32 footer, so any
// later in-memory corruption is detectable at fetch time. The caller keeps
// its buffer: the one copy made here is the stored value.
func StoreSummed(s BlobStore, node int, key string, blob []byte) error {
	framed := NewBlob(len(blob))
	copy(framed, blob)
	return AdoptSummed(s, node, key, framed)
}

// ViewSummed borrows a checksummed blob and verifies its footer, returning
// the stored payload itself (footer excluded, capacity clipped) — no copy.
// The result is read-only. A mismatch wraps ErrChecksum.
func ViewSummed(s BlobStore, node int, key string) ([]byte, error) {
	framed, err := s.View(node, key)
	if err != nil {
		return nil, err
	}
	n := len(framed) - FooterLen
	if n < 0 {
		return nil, fmt.Errorf("cluster: node %d blob %q of %d bytes has no checksum footer: %w",
			node, key, len(framed), ErrChecksum)
	}
	if crc32.Checksum(framed[:n], crcTable) != binary.LittleEndian.Uint32(framed[n:]) {
		return nil, fmt.Errorf("cluster: node %d blob %q: %w", node, key, ErrChecksum)
	}
	return framed[:n:n], nil
}

// FetchSummed reads a private copy of a checksummed blob's payload,
// verifying its footer. A mismatch wraps ErrChecksum.
func FetchSummed(s BlobStore, node int, key string) ([]byte, error) {
	payload, err := ViewSummed(s, node, key)
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
