package serialize

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
)

// Unmarshal reads what the remote tier hands back (LoadFromRemote), so
// whatever the bytes it returns an error or a dict — it never panics, and
// what it allocates follows the size of the input, not a count or length
// field inside it.

// hostileCount is a 13-byte stream whose tensor count is 2^40: magic,
// version, two empty blobs, then the count. Sized by the count, its tensor
// table alone would be 24 TiB.
func hostileCount() []byte {
	stream := binary.LittleEndian.AppendUint32(nil, streamMagic)
	stream = append(stream, streamVersion, 0, 0)
	return binary.AppendUvarint(stream, 1<<40)
}

func FuzzUnmarshal(f *testing.F) {
	empty, err := Marshal(statedict.New())
	if err != nil {
		f.Fatal(err)
	}
	sd := statedict.New()
	sd.SetMeta("iteration", statedict.Int(7))
	tn, err := tensor.New(tensor.Float32, 2, 3)
	if err != nil {
		f.Fatal(err)
	}
	tn.FillPattern(7)
	if err := sd.SetTensor("w", tn); err != nil {
		f.Fatal(err)
	}
	tiny, err := Marshal(sd)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny)
	f.Add(empty)
	f.Add(hostileCount())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Unmarshal(stream)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(stream)+1<<16); alloc > limit {
			t.Fatalf("unmarshaling %d bytes allocated %d, limit %d", len(stream), alloc, limit)
		}
		if err != nil {
			return
		}
		// Round trip: what decoded marshals to a stream that decodes to the
		// same dict.
		again, err := Marshal(got)
		if err != nil {
			t.Fatalf("marshal of an unmarshaled dict: %v", err)
		}
		back, err := Unmarshal(again)
		if err != nil || !back.Equal(got) {
			t.Fatalf("unmarshaled dict does not survive a round trip: %v", err)
		}
		if again2, _ := Marshal(back); !bytes.Equal(again, again2) {
			t.Fatal("re-marshaling a round-tripped dict changed its bytes")
		}
	})
}
