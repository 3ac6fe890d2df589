package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
	"eccheck/internal/transport"
)

// The restore path decodes bytes a failed machine may have mangled under a
// checksum that still passes (or that a buggy writer produced): a manifest,
// and a worker's small-component blob around its packet. Whatever the bytes,
// the decoders return an error or a value — they never panic, and what they
// allocate follows the size of the input, not a length field inside it.

// allocBound runs fn and fails if it allocated far more than the input it
// was given: 64 bytes per input byte plus a constant for fixed structures.
func allocBound(t *testing.T, input int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*input+1<<16); got > limit {
		t.Fatalf("decoding %d input bytes allocated %d bytes, limit %d", input, got, limit)
	}
}

// savedTinyRig runs one real save round over state dicts of a few hundred
// bytes per worker, so the seeds taken from host memory stay small enough for
// the fuzzer to mutate and minimize quickly.
func savedTinyRig(f *testing.F) *testRig {
	dicts := make([]*statedict.StateDict, 8)
	for rank := range dicts {
		sd := statedict.New()
		sd.SetMeta("iteration", statedict.Int(int64(100+rank)))
		sd.SetMeta("name", statedict.String("tiny"))
		for i, shape := range [][]int{{4, 8}, {8}, {2, 3, 5}} {
			tn, err := tensor.New(tensor.Float32, shape...)
			if err != nil {
				f.Fatal(err)
			}
			tn.FillPattern(uint64(rank*10 + i))
			if err := sd.SetTensor(fmt.Sprintf("layer.%d", i), tn); err != nil {
				f.Fatal(err)
			}
		}
		dicts[rank] = sd
	}
	net, err := transport.NewMemory(4)
	if err != nil {
		f.Fatal(err)
	}
	rig := newRigOn(f, net, dicts, 4, 2, 2, 2, func(c *Config) { c.BufferSize = 64 })
	if _, err := rig.ckpt.Save(context.Background(), rig.dicts); err != nil {
		f.Fatal(err)
	}
	return rig
}

func FuzzParseManifest(f *testing.F) {
	rig := savedTinyRig(f)
	real, err := rig.ckpt.fetch(0, keyManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 30))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var v, p, b int
		var err error
		allocBound(t, len(blob), func() { v, p, b, err = parseManifest(blob) })
		if err != nil {
			return
		}
		if v < 0 || p < 0 || b < 0 {
			t.Fatalf("parsed negative fields %d %d %d from %x", v, p, b, blob)
		}
		v2, p2, b2, err := parseManifest(manifestBlob(v, p, b))
		if err != nil || v2 != v || p2 != p || b2 != b {
			t.Fatalf("manifest %d/%d/%d re-encodes to %d/%d/%d, %v", v, p, b, v2, p2, b2, err)
		}
	})
}

// FuzzAssemblePacket feeds assemblePacket a worker's small-component blob
// and packet: seeds from a real round, a short packet, and a blob whose
// metadata length prefix overruns it.
func FuzzAssemblePacket(f *testing.F) {
	rig := savedTinyRig(f)
	lay := rig.ckpt.lay
	for _, rank := range []int{0, 5} {
		chunk := lay.plan.DataGroupOf[rank]
		var blobs [2][]byte
		for i, key := range []string{lay.keys.small[rank], lay.keys.segment[chunk][lay.plan.SegmentOf[rank]]} {
			blob, err := rig.ckpt.fetch(lay.plan.DataNodes[chunk], key)
			if err != nil {
				f.Fatal(err)
			}
			blobs[i] = blob
		}
		small, packet := blobs[0], blobs[1]
		if sd, err := assemblePacket(rank, small, packet); err != nil || !sd.Equal(rig.dicts[rank]) {
			f.Fatalf("seed for rank %d does not reassemble: %v", rank, err)
		}
		f.Add(small, packet)
		f.Add(small, packet[:len(packet)/2])
		_, hdr := binary.Uvarint(small)
		f.Add(append(binary.AppendUvarint(nil, uint64(len(small))), small[hdr:]...), packet)
	}
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, small, packet []byte) {
		var first *statedict.StateDict
		var err error
		allocBound(t, len(small)+len(packet), func() { first, err = assemblePacket(0, small, packet) })
		if err != nil {
			return
		}
		// Round trip: what came out decomposes into components that
		// reassemble to the same state dict.
		dec, err := first.Decompose()
		if err != nil {
			t.Fatalf("decompose of an assembled dict: %v", err)
		}
		repacked, err := assemblePacket(0, appendSmall(nil, dec.MetaBlob, dec.KeysBlob), bytes.Join(dec.TensorData, nil))
		if err != nil || !repacked.Equal(first) {
			t.Fatalf("assembled dict does not survive a round trip: %v", err)
		}
	})
}

// remoteKeyModel is the remote catalog's key grammar as a regular
// expression: remoteKey's output for a non-negative version and rank.
var remoteKeyModel = regexp.MustCompile(`^eccheck/v(0|[1-9][0-9]*)/rank(0|[1-9][0-9]*)$`)

// FuzzParseRemoteKey holds the catalog parser behind LoadFromRemote's
// discovery to remoteKey: a key parses iff remoteKey writes it, checked
// against the grammar (and the int range) on arbitrary keys, and as a round
// trip from arbitrary versions and ranks.
func FuzzParseRemoteKey(f *testing.F) {
	for _, key := range []string{remoteKey(9, 0), remoteKey(0, 17), "eccheck/v9/rank0.partial",
		"eccheck/v+9/rank0", "eccheck/v9/rank00", "eccheck/v-1/rank0", "eccheck/v9/rank", "eccheck/v/rank0",
		"eccheck/v99999999999999999999/rank0", ""} {
		f.Add(key, uint32(8), uint32(3))
	}
	f.Fuzz(func(t *testing.T, key string, version, rank uint32) {
		var v, r int
		var ok bool
		allocBound(t, len(key), func() { v, r, ok = parseRemoteKey(key) })
		want := false
		if m := remoteKeyModel.FindStringSubmatch(key); m != nil {
			_, errV := strconv.Atoi(m[1])
			_, errR := strconv.Atoi(m[2])
			want = errV == nil && errR == nil
		}
		if ok != want {
			t.Fatalf("parseRemoteKey(%q) ok = %v, the grammar says %v", key, ok, want)
		}
		if ok && remoteKey(v, r) != key {
			t.Fatalf("parseRemoteKey(%q) = %d, %d, which remoteKey writes as %q", key, v, r, remoteKey(v, r))
		}
		key = remoteKey(int(version), int(rank))
		if v, r, ok = parseRemoteKey(key); !ok || v != int(version) || r != int(rank) {
			t.Fatalf("parseRemoteKey(%q) = %d, %d, %v; want %d, %d", key, v, r, ok, version, rank)
		}
	})
}

// FuzzRemoteDiscovery holds LoadFromRemote's discovery to its model on
// arbitrary catalogs: every byte pair of spec adds one object, a version
// (1-16) and a rank (0-15, some of them past the world) written as remoteKey
// writes it or as a stray that merely starts like one. remoteVersions must
// list, newest first, exactly the versions whose ranks 0..world-1 are all
// written by remoteKey — never a torn version. LoadFromRemote restores the
// first, and persist keeps the first remoteRetain.
func FuzzRemoteDiscovery(f *testing.F) {
	f.Add(uint8(8), []byte{2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 4, 0, 4, 1, 4, 2})
	f.Add(uint8(2), []byte{9, 0x80, 9, 0x90, 3, 0, 3, 1})
	f.Add(uint8(1), []byte{5, 0xa0, 5, 0xb0, 5, 0xc0, 5, 0xd0})
	f.Fuzz(func(t *testing.T, worldB uint8, spec []byte) {
		world := int(worldB%8) + 1
		catalog := make(map[string]bool) // a store holds each name once
		written := make(map[[2]int]bool)
		for i := 0; i+1 < len(spec); i += 2 {
			v, rank := int(spec[i]%16)+1, int(spec[i+1]&15)
			switch spec[i+1] >> 4 {
			case 8:
				catalog[remoteKey(v, rank)+".partial"] = true
			case 9:
				catalog[fmt.Sprintf(remoteKeyPrefix+"%d/rank0%d", v, rank)] = true
			case 10:
				catalog[fmt.Sprintf(remoteKeyPrefix+"0%d/rank%d", v, rank)] = true
			case 11:
				catalog[fmt.Sprintf(remoteKeyPrefix+"+%d/rank%d", v, rank)] = true
			case 12:
				catalog[fmt.Sprintf("eccheck/w%d/rank%d", v, rank)] = true
			default:
				catalog[remoteKey(v, rank)] = true
				written[[2]int{v, rank}] = true
			}
		}
		keys := make([]string, 0, len(catalog))
		for key := range catalog {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		var want []int
		for v := 16; v >= 1; v-- {
			complete := true
			for rank := 0; rank < world; rank++ {
				complete = complete && written[[2]int{v, rank}]
			}
			if complete {
				want = append(want, v)
			}
		}
		if got := remoteVersions(keys, world); !slices.Equal(got, want) {
			t.Fatalf("world %d, catalog %q: discovered versions %v, want %v", world, keys, got, want)
		}
	})
}
