package core

import (
	"context"
	"fmt"
	"testing"

	"eccheck/internal/cluster"
)

func TestVerifyIntegrityClean(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	rep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 {
		t.Errorf("version %d", rep.Version)
	}
	if rep.SegmentsChecked != 4 { // W/k = 8/2
		t.Errorf("checked %d segments, want 4", rep.SegmentsChecked)
	}
	if len(rep.CorruptSegments) != 0 {
		t.Errorf("clean checkpoint reported corrupt segments %v", rep.CorruptSegments)
	}
}

func TestVerifyIntegrityDetectsCorruption(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	// Flip one byte of a stored data segment on its node.
	plan := rig.ckpt.Plan()
	node := plan.DataNodes[0]
	key := keySegment(0, 2)
	blob, err := rig.clus.Load(node, key)
	if err != nil {
		t.Fatal(err)
	}
	blob[13] ^= 0xFF
	if err := rig.clus.Store(node, key, blob); err != nil {
		t.Fatal(err)
	}

	rep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptSegments) != 1 || rep.CorruptSegments[0] != 2 {
		t.Errorf("CorruptSegments = %v, want [2]", rep.CorruptSegments)
	}
}

// TestVerifyIntegrityDetectsRecomputedMismatch rewrites one stored segment
// with a valid checksum, so the scan passes it and only the re-encode of
// parity from data can tell. The flipped byte sits past the first
// BufferSize window, so a segment of several coding windows is judged on
// all of them. Exactly that segment must be reported corrupt.
func TestVerifyIntegrityDetectsRecomputedMismatch(t *testing.T) {
	for _, shape := range []struct {
		name              string
		nodes, gpus, k, m int
	}{{"k2m2", 4, 2, 2, 2}, {"k4m4", 8, 1, 4, 4}} {
		for _, parity := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parity=%v", shape.name, parity), func(t *testing.T) {
				rig := newRig(t, shape.nodes, shape.gpus, shape.k, shape.m)
				rep, err := rig.ckpt.Save(context.Background(), rig.dicts)
				if err != nil {
					t.Fatal(err)
				}
				bufSize := rig.ckpt.cfg.BufferSize
				if rep.PacketBytes <= bufSize {
					t.Fatalf("packet of %d bytes is one %d-byte window", rep.PacketBytes, bufSize)
				}
				plan := rig.ckpt.Plan()
				chunk, seg := 0, plan.Span()-1
				if parity {
					chunk = shape.k + shape.m - 1
				}
				node := plan.ChunkOwner(0, chunk)
				stored, err := rig.ckpt.fetch(node, keySegment(chunk, seg))
				if err != nil {
					t.Fatal(err)
				}
				rewritten := append([]byte(nil), stored...)
				rewritten[bufSize+13] ^= 0x5a
				if err := cluster.StoreWindows(rig.clus, node, keySegment(chunk, seg), rewritten, bufSize); err != nil {
					t.Fatal(err)
				}
				vrep, err := rig.ckpt.VerifyIntegrity()
				if err != nil {
					t.Fatal(err)
				}
				if len(vrep.CorruptSegments) != 1 || vrep.CorruptSegments[0] != seg {
					t.Errorf("CorruptSegments = %v, want [%d]", vrep.CorruptSegments, seg)
				}
			})
		}
	}
}

func TestVerifyIntegrityErrors(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	// No checkpoint yet: no manifest anywhere.
	if _, err := rig.ckpt.VerifyIntegrity(); err == nil {
		t.Error("verify before any save: want error")
	}
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.VerifyIntegrity(); err == nil {
		t.Error("verify with failed node: want error")
	}
}
