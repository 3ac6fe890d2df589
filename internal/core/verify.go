package core

import (
	"bytes"
	"fmt"
	"time"

	"eccheck/internal/cluster"
)

// VerifyReport summarises an integrity scan of the in-memory checkpoint.
type VerifyReport struct {
	// Version is the checkpoint version scanned.
	Version int
	// SegmentsChecked is the number of (segment) code words verified:
	// every segment index of every code group.
	SegmentsChecked int
	// CorruptSegments lists the segments whose parity does not match their
	// data, as group·(segments per chunk) + segment index (empty means the
	// checkpoint is consistent).
	CorruptSegments []int
}

// VerifyIntegrity recomputes the parity of every stored segment from the
// data chunks and compares it against the stored parity chunks, detecting
// silent host-memory corruption before it is needed for a recovery. All
// nodes must be alive and hold their chunks. It reads through the restore
// engine's deep scan under the shared commit lock, so a save committing
// meanwhile is seen entirely or not at all.
func (c *Checkpointer) VerifyIntegrity() (*VerifyReport, error) {
	started := time.Now()
	c.commitMu.RLock()
	defer c.commitMu.RUnlock()
	n := c.cfg.Topo.Nodes()
	rd := &restoreRound{scan: make([]nodeScan, n)}
	nodes := upTo(n)
	for _, node := range nodes {
		if !c.clus.Alive(node) {
			return nil, fmt.Errorf("core: node %d is failed; cannot verify", node)
		}
	}
	c.scanNodes(rd, nodes, false)
	c.scanNodes(rd, nodes, true)
	first := &rd.scan[0]
	for node := range rd.scan {
		switch st := &rd.scan[node]; {
		case st.lost != nil:
			return nil, fmt.Errorf("core: node %d checkpoint unreadable: %w", node, st.lost)
		case !st.manifestOK:
			return nil, fmt.Errorf("core: node %d has no checkpoint manifest: %w", node, cluster.ErrChecksum)
		case st.version != first.version:
			return nil, fmt.Errorf("core: version skew: node %d has v%d, expected v%d", node, st.version, first.version)
		case st.packet != first.packet:
			return nil, fmt.Errorf("core: node %d has %d-byte packets, expected %d", node, st.packet, first.packet)
		}
	}
	packetBytes, bufSize := first.packet, c.cfg.BufferSize

	report := &VerifyReport{Version: first.version}
	plan, span, k := c.lay.plan, c.lay.plan.Span(), c.cfg.K
	chunks := make([][]byte, k+c.cfg.M)
	// Each parity window is re-encoded into one scratch window with the save's
	// own arithmetic, Σ_j E[k+i][j]·data_j, and compared with the stored one.
	scratch := c.buf.Get(min(bufSize, packetBytes))
	defer c.buf.Put(scratch)
	for id := 0; id < plan.Groups()*span; id++ {
		cg, seg := id/span, id%span
		report.SegmentsChecked++
		// A checksum mismatch on any stored blob is itself corruption: the
		// scan left no view of it, and the segment is recorded as corrupt.
		segOK := true
		for chunk := range chunks {
			chunks[chunk] = rd.scan[plan.ChunkOwner(cg, chunk)].segs[seg]
			segOK = segOK && chunks[chunk] != nil
		}
		// The coding region is the buffer slice, so verify slice by slice
		// exactly as the save encoded.
		for lo := 0; segOK && lo < packetBytes; lo += bufSize {
			hi := min(lo+bufSize, packetBytes)
			fresh := scratch[:hi-lo]
			for i := 0; segOK && i < c.cfg.M; i++ {
				for j, data := range chunks[:k] {
					coef, err := c.code.ParityCoefficient(i, j)
					if err == nil {
						err = c.scalarMulPooled(coef, fresh, data[lo:hi], j > 0)
					}
					if err != nil {
						return nil, err
					}
				}
				segOK = bytes.Equal(fresh, chunks[k+i][lo:hi])
			}
		}
		if !segOK {
			report.CorruptSegments = append(report.CorruptSegments, id)
		}
	}
	if reg := c.cfg.Metrics; reg != nil {
		reg.Counter("verify_runs_total").Inc()
		reg.Counter("verify_segments_total").Add(int64(report.SegmentsChecked))
		reg.Counter("verify_corrupt_segments_total").Add(int64(len(report.CorruptSegments)))
		reg.Histogram("verify_ns").ObserveDuration(time.Since(started))
	}
	return report, nil
}
