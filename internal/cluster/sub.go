package cluster

import "fmt"

// SubCluster is a view onto a subset of a parent cluster's nodes, with
// local node indices 0..len(nodes)-1 mapping to the parent's global
// indices. Grouped checkpointing runs one ECCheck instance per group over
// such views; storage and failure state live in the parent.
type SubCluster struct {
	parent *Cluster
	nodes  []int
}

// Sub creates a view of the given parent nodes (which must be distinct and
// in range).
func Sub(parent *Cluster, nodes []int) (*SubCluster, error) {
	if parent == nil {
		return nil, fmt.Errorf("cluster: nil parent")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node set")
	}
	seen := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if err := parent.checkNode(n); err != nil {
			return nil, err
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %d in view", n)
		}
		seen[n] = true
	}
	return &SubCluster{parent: parent, nodes: append([]int(nil), nodes...)}, nil
}

func (s *SubCluster) global(local int) (int, error) {
	if local < 0 || local >= len(s.nodes) {
		return 0, fmt.Errorf("cluster: local node %d out of range [0, %d)", local, len(s.nodes))
	}
	return s.nodes[local], nil
}

// Nodes returns the view's node count.
func (s *SubCluster) Nodes() int { return len(s.nodes) }

// WorkersPerNode returns the parent's per-node worker count.
func (s *SubCluster) WorkersPerNode() int { return s.parent.WorkersPerNode() }

// Alive reports whether the local node is up in the parent.
func (s *SubCluster) Alive(local int) bool {
	g, err := s.global(local)
	if err != nil {
		return false
	}
	return s.parent.Alive(g)
}

// Store writes into the mapped parent node.
func (s *SubCluster) Store(local int, key string, blob []byte) error {
	g, err := s.global(local)
	if err != nil {
		return err
	}
	return s.parent.Store(g, key, blob)
}

// Adopt stores the slice itself on the mapped parent node (see
// Cluster.Adopt).
func (s *SubCluster) Adopt(local int, key string, blob []byte) error {
	g, err := s.global(local)
	if err != nil {
		return err
	}
	return s.parent.Adopt(g, key, blob)
}

// View borrows a stored blob from the mapped parent node (see
// Cluster.View).
func (s *SubCluster) View(local int, key string) ([]byte, error) {
	g, err := s.global(local)
	if err != nil {
		return nil, err
	}
	return s.parent.View(g, key)
}

// Load reads from the mapped parent node.
func (s *SubCluster) Load(local int, key string) ([]byte, error) {
	g, err := s.global(local)
	if err != nil {
		return nil, err
	}
	return s.parent.Load(g, key)
}

// Move renames a blob on the mapped parent node without copying and returns
// the blob it displaced (see Cluster.Move).
func (s *SubCluster) Move(local int, srcKey, dstKey string) ([]byte, error) {
	g, err := s.global(local)
	if err != nil {
		return nil, err
	}
	return s.parent.Move(g, srcKey, dstKey)
}

// Has reports key presence on the mapped parent node.
func (s *SubCluster) Has(local int, key string) bool {
	g, err := s.global(local)
	if err != nil {
		return false
	}
	return s.parent.Has(g, key)
}
