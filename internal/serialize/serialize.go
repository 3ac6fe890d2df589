// Package serialize implements whole-checkpoint serialization: the
// torch.save-style path that conventional checkpointing (baselines 1 and 2)
// uses before shipping bytes to remote storage. Unlike ECCheck's
// serialization-free protocol, Marshal copies every tensor byte into one
// contiguous stream — that copy is precisely the overhead Fig. 4 of the
// paper measures, so this package keeps it observable rather than clever.
package serialize

import (
	"encoding/binary"
	"fmt"

	"eccheck/internal/statedict"
)

const (
	// streamMagic identifies a serialized checkpoint stream.
	streamMagic uint32 = 0x45434B50 // "ECKP"
	// streamVersion is bumped on format changes.
	streamVersion = 1
)

// Marshal serializes a full state dict into one compact byte stream,
// including a copy of all tensor data.
func Marshal(sd *statedict.StateDict) ([]byte, error) {
	dec, err := sd.Decompose()
	if err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	// Pre-size: header + blobs + every tensor buffer with a small frame.
	total := 4 + 1 + 2*binary.MaxVarintLen64 + len(dec.MetaBlob) + len(dec.KeysBlob)
	for _, b := range dec.TensorData {
		total += binary.MaxVarintLen64 + len(b)
	}
	out := make([]byte, 0, total)

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], streamMagic)
	out = append(out, hdr[:]...)
	out = append(out, streamVersion)
	out = binary.AppendUvarint(out, uint64(len(dec.MetaBlob)))
	out = append(out, dec.MetaBlob...)
	out = binary.AppendUvarint(out, uint64(len(dec.KeysBlob)))
	out = append(out, dec.KeysBlob...)
	out = binary.AppendUvarint(out, uint64(len(dec.TensorData)))
	for _, b := range dec.TensorData {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...) // the serialization copy the paper avoids
	}
	return out, nil
}

// Unmarshal reconstructs a state dict from a Marshal stream. Tensor buffers
// are copied out of the stream so the result does not alias the input.
func Unmarshal(stream []byte) (*statedict.StateDict, error) {
	if len(stream) < 5 {
		return nil, fmt.Errorf("serialize: stream too short (%d bytes)", len(stream))
	}
	if got := binary.LittleEndian.Uint32(stream); got != streamMagic {
		return nil, fmt.Errorf("serialize: bad magic %#x", got)
	}
	if stream[4] != streamVersion {
		return nil, fmt.Errorf("serialize: unsupported version %d", stream[4])
	}
	off := 5

	next := func() ([]byte, error) {
		n, used := binary.Uvarint(stream[off:])
		if used <= 0 {
			return nil, fmt.Errorf("serialize: truncated length at offset %d", off)
		}
		off += used
		if n > uint64(len(stream)-off) {
			return nil, fmt.Errorf("serialize: field of %d bytes exceeds remaining %d", n, len(stream)-off)
		}
		b := stream[off : off+int(n)]
		off += int(n)
		return b, nil
	}

	metaBlob, err := next()
	if err != nil {
		return nil, err
	}
	keysBlob, err := next()
	if err != nil {
		return nil, err
	}
	count, used := binary.Uvarint(stream[off:])
	if used <= 0 {
		return nil, fmt.Errorf("serialize: truncated tensor count at offset %d", off)
	}
	off += used
	// Every tensor costs at least its one-byte length varint, so a count
	// beyond the bytes left is hostile or corrupt: reject it before it sizes
	// an allocation.
	if count > uint64(len(stream)-off) {
		return nil, fmt.Errorf("serialize: tensor count %d exceeds remaining %d bytes", count, len(stream)-off)
	}
	buffers := make([][]byte, count)
	for i := range buffers {
		view, err := next()
		if err != nil {
			return nil, err
		}
		buffers[i] = append([]byte(nil), view...)
	}
	if off != len(stream) {
		return nil, fmt.Errorf("serialize: %d trailing bytes", len(stream)-off)
	}
	sd, err := statedict.Reassemble(metaBlob, keysBlob, buffers)
	if err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	return sd, nil
}
