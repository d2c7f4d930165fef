package bdd

// Relational product: AndExists(f, g, cube) = ∃cube (f ∧ g) computed in
// one pass. This is the image step of symbolic execution — conjoin a
// transition/filter BDD with a state BDD and immediately quantify the
// intermediate variables — and doing it fused avoids materializing the
// conjunction, whose node count can dwarf both operands and the result.
// The operation has its own direct-mapped cache (axCache) keyed on the
// canonical operand pair plus the hash-consed varset cube, separate from
// the shared cache so the triple-keyed entries don't evict hot binary
// apply entries.

// AndExists returns ∃cube (f ∧ g), where cube is a positive cube over
// the quantified variables (see CubeVars). The quantification
// distributes over the disjunction introduced at each quantified level,
// with an early exit as soon as a branch saturates to True.
func (m *Manager) AndExists(f, g, cube Node) Node {
	return m.andExistsRec(f, g, cube)
}

// AndExistsVars is AndExists with the varset given as a variable list.
func (m *Manager) AndExistsVars(f, g Node, vars []int) Node {
	return m.andExistsRec(f, g, m.CubeVars(vars))
}

func (m *Manager) andExistsRec(f, g, cube Node) Node {
	if f == False || g == False {
		return False
	}
	if f > g { // ∧ is commutative; canonicalize for the cache
		f, g = g, f
	}
	// Find the top decision level and drop quantified variables above it
	// (they are in neither support, so ∃ is the identity on them). This
	// also normalizes the cache key.
	top := m.lvl[f]
	if m.lvl[g] < top {
		top = m.lvl[g]
	}
	for cube > True && m.lvl[cube] < top {
		cube = Node(m.hi[cube])
	}
	if cube == True {
		return m.apply(opAnd, f, g)
	}
	if f == True { // g is the only operand left (f ≤ g, so f is the terminal)
		return m.existsRec(g, cube)
	}
	if f == g {
		return m.existsRec(f, cube)
	}
	if r, ok := m.axLookup(f, g, cube); ok {
		return r
	}
	m.pollInterrupt()
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	var r Node
	if m.lvl[cube] == top {
		rest := Node(m.hi[cube])
		lo := m.andExistsRec(f0, g0, rest)
		if lo == True { // the disjunction is already saturated
			r = True
		} else {
			r = m.Or(lo, m.andExistsRec(f1, g1, rest))
		}
	} else {
		lo := m.andExistsRec(f0, g0, cube)
		hi := m.andExistsRec(f1, g1, cube)
		r = m.mk(top, lo, hi)
	}
	m.axStore(f, g, cube, r)
	return r
}

func (m *Manager) axSlot(f, g, cube Node) uint32 {
	x := uint32(f)*0x9e3779b9 + uint32(g)*0x85ebca6b + uint32(cube)*0xc2b2ae35
	x ^= x >> 13
	return x & m.axMask
}

func (m *Manager) axLookup(f, g, cube Node) (Node, bool) {
	e := &m.axCache[m.axSlot(f, g, cube)]
	if e.f == f && e.g == g && e.cube == cube {
		m.stats.AxCacheHits++
		return e.res, true
	}
	m.stats.AxCacheMiss++
	return 0, false
}

func (m *Manager) axStore(f, g, cube, res Node) {
	e := &m.axCache[m.axSlot(f, g, cube)]
	e.f, e.g, e.cube, e.res = f, g, cube, res
}
