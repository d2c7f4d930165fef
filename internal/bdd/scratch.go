package bdd

// Manager-owned, generation-stamped scratch memo tables.
//
// The per-node analyses (SatCount, Probability, ShortestPathToFalse,
// ShortestPathToTrue, MinFalseWitness, NodeCount) and Write's
// topological walk are pure traversals: they create no nodes, so the
// node table cannot grow mid-call and a flat array indexed by Node is a
// valid memo. SplitBySub and Permute are the exceptions: they make
// nodes, but key their memos only by nodes that existed when the
// generation began.
// Instead of clearing the array between calls — O(nodes)
// per call — each slot carries the generation that wrote it: begin()
// bumps the generation, invalidating every slot in O(1). Slots are only
// zeroed on the (rare) 32-bit generation wrap. The memos of a manager
// share one stamp array and generation: no analysis runs inside
// another, so a generation begun for one invalidates the others at no
// cost, and an analysis that needs a second kind of value pays for its
// values only.
//
// The tables belong to the Manager and are sized to the node table's
// capacity (see begin): they reallocate only when the table has doubled,
// so steady-state analysis calls allocate nothing, and a table grown to
// capacity c has cost each array about 2c entries in all, however many
// calls ran while it grew. Managers are
// single-goroutine (the parallel scheduler gives every task its own
// manager), so no locking is needed.

// stamps is the generation stamp per node that a manager's memos share,
// and the last generation begun.
type stamps struct {
	stamp []uint32
	gen   uint32
}

// memo memoizes one value of type T per node. stamp and gen are copies
// of the manager's, taken by begin, so that get and put read no
// pointer.
type memo[T any] struct {
	stamp []uint32
	val   []T
	gen   uint32
}

// begin invalidates every memo of m and ensures this one has room for
// every node m can hold without growing. An array too small is
// replaced, not extended: begin invalidates every slot anyway, and a
// zeroed stamp never matches a generation.
func (t *memo[T]) begin(m *Manager) {
	s, n := &m.stamps, cap(m.tab)
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	if len(t.val) < n {
		t.val = make([]T, n)
	}
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could alias; hard reset
		clear(s.stamp)
		s.gen = 1
	}
	t.stamp, t.gen = s.stamp, s.gen
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
