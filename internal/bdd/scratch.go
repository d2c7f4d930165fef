package bdd

// Manager-owned, generation-stamped scratch memo tables.
//
// The per-node analyses (SatCount, Probability, ShortestPathToFalse,
// ShortestPathToTrue, MinFalseWitness, NodeCount) and Write's
// topological walk are pure traversals: they create no nodes, so the
// node table cannot grow mid-call and a flat array indexed by Node is a
// valid memo. Instead of clearing the array between calls — O(nodes)
// per call — each slot carries the generation that wrote it: begin()
// bumps the generation, invalidating every slot in O(1). Slots are only
// zeroed on the (rare) 32-bit generation wrap.
//
// The tables belong to the Manager and grow monotonically with the node
// table, so steady-state analysis calls allocate nothing. Managers are
// single-goroutine (the parallel scheduler gives every task its own
// manager), so no locking is needed.

// memo memoizes one value of type T per node.
type memo[T any] struct {
	stamp []uint32
	val   []T
	gen   uint32
}

// begin invalidates the table and ensures capacity for n nodes.
func (t *memo[T]) begin(n int) {
	if len(t.stamp) < n {
		t.stamp = append(t.stamp, make([]uint32, n-len(t.stamp))...)
		t.val = append(t.val, make([]T, n-len(t.val))...)
	}
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps could alias; hard reset
		clear(t.stamp)
		t.gen = 1
	}
}

func (t *memo[T]) get(n Node) (T, bool) {
	if t.stamp[n] == t.gen {
		return t.val[n], true
	}
	var zero T
	return zero, false
}

func (t *memo[T]) put(n Node, v T) {
	t.stamp[n] = t.gen
	t.val[n] = v
}

// witStep is MinFalseWitness's entry per node: the shortest dashed
// distance to False, the child on the optimal path, and whether the
// optimal step takes the dashed edge.
type witStep struct {
	dist int32
	via  Node
	down bool
}
