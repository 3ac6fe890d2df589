package placement

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// treeMembers returns the sorted non-root machines reachable in the tree.
func treeMembers(t *FanInTree) []int {
	out := make([]int, 0, len(t.Parent))
	for n := range t.Parent {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// checkTreeShape asserts the structural invariants every fan-in tree must
// hold: each member's parent chain terminates at the root without cycles,
// and Children is the exact inverse of Parent.
func checkTreeShape(t *testing.T, tree *FanInTree) {
	t.Helper()
	for node := range tree.Parent {
		seen := map[int]bool{node: true}
		cur := node
		for cur != tree.Root {
			next, ok := tree.Parent[cur]
			if !ok {
				t.Fatalf("node %d: parent chain breaks at %d before reaching root %d", node, cur, tree.Root)
			}
			if seen[next] {
				t.Fatalf("node %d: parent chain cycles through %d", node, next)
			}
			seen[next] = true
			cur = next
		}
	}
	// Children must mirror Parent exactly, with each list ascending.
	fromParent := map[int][]int{}
	for child, parent := range tree.Parent {
		fromParent[parent] = append(fromParent[parent], child)
	}
	for _, ch := range fromParent {
		sort.Ints(ch)
	}
	if len(fromParent) != len(tree.Children) {
		t.Fatalf("Children lists %d folding machines, Parent implies %d", len(tree.Children), len(fromParent))
	}
	for parent, want := range fromParent {
		got := tree.Children[parent]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Children[%d] = %v, want %v (ascending, mirroring Parent)", parent, got, want)
		}
	}
}

func TestBuildFanInTreeShapeAndBounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sources int
		fanIn   int
	}{
		{"binary-65", 65, 2},
		{"quad-64", 64, 4},
		{"oct-256", 256, 8},
		{"oct-31", 31, 8},
		{"wide-512", 512, 16},
		{"arity-3-10", 10, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sources := make([]int, tc.sources)
			for i := range sources {
				sources[i] = i
			}
			const root = 0
			tree := BuildFanInTree(sources, root, tc.fanIn)
			checkTreeShape(t, tree)
			if got := len(tree.Parent); got != tc.sources-1 {
				t.Fatalf("tree has %d members, want %d (root excluded)", got, tc.sources-1)
			}
			if got := maxFanIn(tree); got > tc.fanIn {
				t.Fatalf("max fan-in %d exceeds bound %d", got, tc.fanIn)
			}
			// Depth bound from the doc comment: ceil(log_f S) + 1 hops for S
			// non-root sources folded with arity f.
			s := float64(tc.sources - 1)
			bound := int(math.Ceil(math.Log(s)/math.Log(float64(tc.fanIn)))) + 1
			if got := tree.Depth(); got > bound {
				t.Fatalf("depth %d exceeds ceil(log_%d(%v))+1 = %d", got, tc.fanIn, s, bound)
			}
		})
	}
}

// TestBuildFanInTreeDeterministic checks the property the protocol relies
// on: every machine derives the identical tree no matter how its local view
// orders (or repeats) the source list.
func TestBuildFanInTreeDeterministic(t *testing.T) {
	sources := []int{4, 9, 1, 12, 7, 3, 30, 22, 15, 6, 11, 2}
	const root, fanIn = 7, 3
	want := BuildFanInTree(sources, root, fanIn)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]int(nil), sources...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Duplicates and an explicit root mention must not change the shape.
		shuffled = append(shuffled, shuffled[trial%len(shuffled)], root)
		got := BuildFanInTree(shuffled, root, fanIn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted sources produced a different tree:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestBuildFanInTreeFlat checks the degenerate arities: fanIn 0 (unbounded)
// and fanIn >= source count both compile to the single-level flat reduction.
func TestBuildFanInTreeFlat(t *testing.T) {
	sources := []int{5, 2, 8, 3, 11}
	const root = 3
	wantChildren := []int{2, 5, 8, 11} // sorted, root excluded
	for _, fanIn := range []int{0, len(wantChildren), len(wantChildren) + 1, 100} {
		tree := BuildFanInTree(sources, root, fanIn)
		checkTreeShape(t, tree)
		if got := tree.Depth(); got != 1 {
			t.Fatalf("fanIn %d: depth %d, want 1 (flat)", fanIn, got)
		}
		if got := tree.Children[root]; !reflect.DeepEqual(got, wantChildren) {
			t.Fatalf("fanIn %d: root children %v, want %v", fanIn, got, wantChildren)
		}
		for _, s := range wantChildren {
			if p := tree.Parent[s]; p != root {
				t.Fatalf("fanIn %d: source %d forwards to %d, want root %d", fanIn, s, p, root)
			}
		}
	}
}

// TestBuildFanInTreeRootOnly checks the empty tree: a reduction whose only
// participant is the target's own machine has no forwarding edges.
func TestBuildFanInTreeRootOnly(t *testing.T) {
	tree := BuildFanInTree([]int{4, 4}, 4, 2)
	if len(tree.Parent) != 0 || len(tree.Children) != 0 {
		t.Fatalf("root-only tree has edges: %+v", tree)
	}
	if got := tree.Depth(); got != 0 {
		t.Fatalf("root-only depth %d, want 0", got)
	}
	if got := maxFanIn(tree); got != 0 {
		t.Fatalf("root-only max fan-in %d, want 0", got)
	}
}

// maxFanIn returns the largest child count any machine in the tree folds.
func maxFanIn(t *FanInTree) int {
	most := 0
	for _, ch := range t.Children {
		most = max(most, len(ch))
	}
	return most
}
