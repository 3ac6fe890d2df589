// Package sweepline solves the maximum-overlap interval pairing problem at
// the heart of ECCheck's data/parity node selection: given origin_group
// (workers grouped by host machine) and data_group (workers partitioned
// into k logical groups), find for each data-group interval the
// origin-group interval overlapping it the most. The machines selected this
// way already hold the largest share of "their" data chunk, minimising the
// P2P traffic of checkpoint placement.
//
// The implementation is a single left-to-right sweep over all interval
// endpoints in O((n+m) log(n+m)), as in the paper.
package sweepline

import (
	"fmt"
	"sort"

	"eccheck/internal/parallel"
)

// Pairing reports, for one data-group interval, the best matching
// origin-group interval.
type Pairing struct {
	// DataIndex is the index into the data_group array.
	DataIndex int
	// OriginIndex is the index into the origin_group array with maximum
	// overlap (the machine chosen as this chunk's data node).
	OriginIndex int
	// Overlap is the size of the intersection, in workers.
	Overlap int
}

type eventKind int

const (
	evStart eventKind = iota + 1
	evEnd
)

type event struct {
	pos    int
	kind   eventKind
	origin bool // origin_group event vs data_group event
	idx    int
}

// MaxOverlapPairing computes for each interval in dataGroups the index of
// the maximally overlapping interval in originGroups. Intervals within each
// array must be non-overlapping (they are partitions of the worker range in
// the checkpointing use case). Ties break toward the lower origin index.
func MaxOverlapPairing(originGroups, dataGroups []parallel.Interval) ([]Pairing, error) {
	if len(originGroups) == 0 || len(dataGroups) == 0 {
		return nil, fmt.Errorf("sweepline: empty interval set (origins=%d, data=%d)",
			len(originGroups), len(dataGroups))
	}
	for i, iv := range originGroups {
		if iv.Len() <= 0 {
			return nil, fmt.Errorf("sweepline: origin interval %d is empty: %+v", i, iv)
		}
	}
	for i, iv := range dataGroups {
		if iv.Len() <= 0 {
			return nil, fmt.Errorf("sweepline: data interval %d is empty: %+v", i, iv)
		}
	}

	events := make([]event, 0, 2*(len(originGroups)+len(dataGroups)))
	for i, iv := range originGroups {
		events = append(events,
			event{pos: iv.Start, kind: evStart, origin: true, idx: i},
			event{pos: iv.End, kind: evEnd, origin: true, idx: i})
	}
	for i, iv := range dataGroups {
		events = append(events,
			event{pos: iv.Start, kind: evStart, origin: false, idx: i},
			event{pos: iv.End, kind: evEnd, origin: false, idx: i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].pos != events[b].pos {
			return events[a].pos < events[b].pos
		}
		// Close intervals before opening new ones so zero-length
		// intersections at shared endpoints contribute nothing.
		return events[a].kind == evEnd && events[b].kind == evStart
	})

	best := make([]Pairing, len(dataGroups))
	for i := range best {
		best[i] = Pairing{DataIndex: i, OriginIndex: -1}
	}

	// Because each array is a set of disjoint intervals, at most one origin
	// and one data interval are active at any sweep position.
	activeOrigin, activeData := -1, -1
	prevPos := 0
	flush := func(pos int) {
		if activeOrigin >= 0 && activeData >= 0 && pos > prevPos {
			span := pos - prevPos
			b := &best[activeData]
			// Strict improvement only: on ties the earlier (lower-index)
			// origin encountered by the sweep wins.
			if span > b.Overlap {
				b.Overlap = span
				b.OriginIndex = activeOrigin
			}
		}
		prevPos = pos
	}

	for _, ev := range events {
		flush(ev.pos)
		switch {
		case ev.kind == evStart && ev.origin:
			if activeOrigin >= 0 {
				return nil, fmt.Errorf("sweepline: origin intervals %d and %d overlap", activeOrigin, ev.idx)
			}
			activeOrigin = ev.idx
		case ev.kind == evEnd && ev.origin:
			activeOrigin = -1
		case ev.kind == evStart && !ev.origin:
			if activeData >= 0 {
				return nil, fmt.Errorf("sweepline: data intervals %d and %d overlap", activeData, ev.idx)
			}
			activeData = ev.idx
		default:
			activeData = -1
		}
	}

	for i := range best {
		if best[i].OriginIndex < 0 {
			return nil, fmt.Errorf("sweepline: data interval %d overlaps no origin interval", i)
		}
	}
	return best, nil
}

// elementary spans between consecutive events accumulate per-(data, origin)
// overlap; the flush above records only the currently active pair, which is
// correct because disjointness means a (data, origin) pair's overlap is one
// contiguous span. SelectDataNodes additionally guarantees the chosen data
// nodes are distinct machines.

// Selection is the outcome of data/parity node selection.
type Selection struct {
	// DataNodes[j] is the machine storing data chunk j.
	DataNodes []int
	// ParityNodes[i] is the machine storing parity chunk i, in ascending
	// machine order.
	ParityNodes []int
	// Overlaps[j] is the worker overlap between data group j and its node.
	Overlaps []int
}

// SelectDataNodes chooses k distinct machines as data nodes via maximum
// overlap pairing; the remaining machines become parity nodes. When two
// data groups prefer the same machine (possible only under tied overlaps),
// the group with the larger overlap wins and the other takes its best
// remaining machine.
func SelectDataNodes(originGroups, dataGroups []parallel.Interval) (*Selection, error) {
	k := len(dataGroups)
	n := len(originGroups)
	if k > n {
		return nil, fmt.Errorf("sweepline: %d data groups exceed %d machines", k, n)
	}
	pairings, err := MaxOverlapPairing(originGroups, dataGroups)
	if err != nil {
		return nil, err
	}

	sel := &Selection{
		DataNodes: make([]int, k),
		Overlaps:  make([]int, k),
	}
	taken := make(map[int]bool, k)

	// Assign in descending overlap order so contested machines go to the
	// group that benefits most; break ties toward the earlier data group to
	// keep the assignment deterministic.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pairings[order[a]].Overlap > pairings[order[b]].Overlap
	})

	for _, j := range order {
		choice := pairings[j].OriginIndex
		overlap := pairings[j].Overlap
		if taken[choice] {
			choice, overlap = bestRemaining(originGroups, dataGroups[j], taken)
			if choice < 0 {
				return nil, fmt.Errorf("sweepline: no machine left for data group %d", j)
			}
		}
		taken[choice] = true
		sel.DataNodes[j] = choice
		sel.Overlaps[j] = overlap
	}

	for i := 0; i < n; i++ {
		if !taken[i] {
			sel.ParityNodes = append(sel.ParityNodes, i)
		}
	}
	return sel, nil
}

func bestRemaining(originGroups []parallel.Interval, dg parallel.Interval, taken map[int]bool) (int, int) {
	best, bestOverlap := -1, -1
	for i, og := range originGroups {
		if taken[i] {
			continue
		}
		if ov := og.Overlap(dg); ov > bestOverlap {
			best, bestOverlap = i, ov
		}
	}
	return best, bestOverlap
}
