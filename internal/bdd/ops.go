package bdd

import (
	"cmp"
	"slices"
)

// Operation codes for the operation cache, which every memoized
// operation shares. Every op packs its key into the (f, g, h) fields
// with a packing of its own: ops whose keys are pure node-handle
// triples (apply, Not, Ite, ExistsCube and the satisfiability ops) are
// distinguished by op code from ops that pack scalars into a field —
// restrict stores a variable LEVEL in g, which may numerically collide
// with a node handle of another op but never shares an op code with
// one. The GC sweep relies on this
// discipline to know which fields are node handles when deciding
// whether an entry survives a collection (see sweepCache).
const (
	opAnd int32 = iota + 1
	opOr
	opXor
	opDiff // f ∧ ¬g
	opNot
	opIte
	// opExists keys (f, cube, 0) for ExistsCube: cube is the hash-consed
	// positive cube of the quantified varset, so equal varsets share
	// entries across calls — no per-call map.
	opExists
	// opRestrictF/opRestrictT key (f, Node(level), 0). The level in g is
	// NOT a node handle; the value bit lives in the op code itself so
	// the packing of the remaining fields is disjoint from every
	// node-keyed op.
	opRestrictF
	opRestrictT
	// opAndSat/opDiffSat key (f, g, 0) and store a terminal result:
	// True iff f∧g (resp. f∧¬g) is satisfiable.
	opAndSat
	opDiffSat
)

// cacheLookup probes the 2-way set for (op, f, g, h). A hit in the LRU
// way is promoted to the MRU way, so the hotter of two colliding entries
// stays resident.
func (m *Manager) cacheLookup(op int32, f, g, h Node) (Node, bool) {
	s := m.cacheSlot(op, f, g, h) << 1
	e := &m.cache[s]
	if e.op == op && e.f == f && e.g == g && e.h == h {
		m.stats.CacheHits++
		return e.res, true
	}
	e2 := &m.cache[s|1]
	if e2.op == op && e2.f == f && e2.g == g && e2.h == h {
		m.cache[s], m.cache[s|1] = m.cache[s|1], m.cache[s]
		m.stats.CacheHits++
		return m.cache[s].res, true
	}
	m.stats.CacheMiss++
	return 0, false
}

// cacheStore inserts at the MRU way, demoting the previous MRU entry to
// the LRU way (which evicts the previous LRU entry).
func (m *Manager) cacheStore(op int32, f, g, h, res Node) {
	s := m.cacheSlot(op, f, g, h) << 1
	m.cache[s|1] = m.cache[s]
	e := &m.cache[s]
	e.op, e.f, e.g, e.h, e.res = op, f, g, h, res
}

// cacheSlot maps a key to its set index.
func (m *Manager) cacheSlot(op int32, f, g, h Node) uint32 {
	x := uint32(op)*0x27d4eb2f + uint32(f)*0x9e3779b9 + uint32(g)*0x85ebca6b + uint32(h)*0xc2b2ae35
	x ^= x >> 13
	return x & m.setMask
}

// sweepCache drops exactly the cache entries whose operands or result
// died in the collection that produced mark, keeping the rest warm.
// Restrict entries pack a level (not a handle) into g, so only f and the
// result decide their fate — the level is skipped by construction.
func (m *Manager) sweepCache(mark []bool) {
	retained, invalidated := uint64(0), uint64(0)
	for i := range m.cache {
		e := &m.cache[i]
		if e.op == 0 {
			continue
		}
		live := mark[e.f] && mark[e.res]
		switch e.op {
		case opRestrictF, opRestrictT:
			// g is a level, h unused.
		default:
			live = live && mark[e.g] && mark[e.h]
		}
		if live {
			retained++
		} else {
			invalidated++
			*e = cacheEntry{}
		}
	}
	m.stats.CacheRetained += retained
	m.stats.CacheInvalidated += invalidated
}

// Operation-cache sizing. A manager starts with cacheStart sets and, at
// each safe point — MaybeGC and the end of Read — grows the cache by
// cacheStep while the node table's extent exceeds cacheNodesPerSet
// nodes per set, up to cacheCap sets. Growth never happens inside an
// operation, so a manager decoded for queries stops growing when Read
// returns. The steps are ×4, not ×2: every smaller table is left behind
// as garbage, and a ×2 ramp allocates about one extra final cache.
const (
	cacheStart       = 1 << 12 // sets a manager starts with
	cacheNodesPerSet = 1       // grow while the extent exceeds this many nodes per set
	cacheStep        = 4       // growth factor of one step
	cacheCap         = 1 << 18 // sets a manager grows to at most
)

// allocCache replaces the cache by an empty one of sets sets.
func (m *Manager) allocCache(sets int) {
	m.cache = make([]cacheEntry, 2*sets) // sets × 2 ways
	m.setMask = uint32(sets - 1)
}

// growCache applies the sizing rule above at a safe point. Entries are
// re-inserted, not dropped: an entry's old set index is the low bits of
// its new one, so entries of different old sets never collide, and each
// set's LRU entry goes in before its MRU entry, which stays MRU.
func (m *Manager) growCache() {
	sets, steps := len(m.cache)/2, 0
	for sets < cacheCap && len(m.lvl) > sets*cacheNodesPerSet {
		sets = min(sets*cacheStep, cacheCap)
		steps++
	}
	if steps == 0 {
		return
	}
	old := m.cache
	m.allocCache(sets)
	for s := 0; s < len(old); s += 2 {
		for _, e := range [2]cacheEntry{old[s+1], old[s]} {
			if e.op != 0 {
				m.cacheStore(e.op, e.f, e.g, e.h, e.res)
			}
		}
	}
	m.stats.CacheGrows += steps
	m.telGrows.Add(int64(steps))
}

// And returns f ∧ g.
func (m *Manager) And(f, g Node) Node { return m.apply(opAnd, f, g) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Node) Node { return m.apply(opOr, f, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Node) Node { return m.apply(opXor, f, g) }

// Diff returns f ∧ ¬g.
func (m *Manager) Diff(f, g Node) Node { return m.apply(opDiff, f, g) }

// AndN returns the conjunction of all operands (True for none). The
// operands are folded as a balanced tree: a linear fold over k conjuncts
// drags a lopsided intermediate through k-1 apply calls, while the
// balanced tree keeps intermediates small and cache-friendly. The result
// is the same canonical node either way.
func (m *Manager) AndN(ns ...Node) Node {
	return m.foldBalanced(opAnd, ns, True)
}

// OrN returns the disjunction of all operands (False for none), folded
// as a balanced tree like AndN.
func (m *Manager) OrN(ns ...Node) Node {
	return m.foldBalanced(opOr, ns, False)
}

func (m *Manager) foldBalanced(op int32, ns []Node, unit Node) Node {
	switch len(ns) {
	case 0:
		return unit
	case 1:
		return ns[0]
	}
	mid := len(ns) / 2
	return m.apply(op, m.foldBalanced(op, ns[:mid], unit), m.foldBalanced(op, ns[mid:], unit))
}

// apply computes a binary boolean operation with memoization.
func (m *Manager) apply(op int32, f, g Node) Node {
	m.pollInterrupt()
	// Terminal cases.
	switch op {
	case opAnd:
		if f == g {
			return f
		}
		if f == False || g == False {
			return False
		}
		if f == True {
			return g
		}
		if g == True {
			return f
		}
		if f > g { // commutative: canonical order improves cache hits
			f, g = g, f
		}
	case opOr:
		if f == g {
			return f
		}
		if f == True || g == True {
			return True
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
		if f > g {
			f, g = g, f
		}
	case opXor:
		if f == g {
			return False
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
		if f == True {
			return m.Not(g)
		}
		if g == True {
			return m.Not(f)
		}
		if f > g {
			f, g = g, f
		}
	case opDiff:
		if f == False || g == True || f == g {
			return False
		}
		if g == False {
			return f
		}
		if f == True {
			return m.Not(g)
		}
	}
	if r, ok := m.cacheLookup(op, f, g, 0); ok {
		return r
	}
	lf, lg := m.lvl[f], m.lvl[g]
	var lvl int32
	var f0, f1, g0, g1 Node
	switch {
	case lf == lg:
		lvl = lf
		f0, f1 = Node(m.lo[f]), Node(m.hi[f])
		g0, g1 = Node(m.lo[g]), Node(m.hi[g])
	case lf < lg:
		lvl = lf
		f0, f1 = Node(m.lo[f]), Node(m.hi[f])
		g0, g1 = g, g
	default:
		lvl = lg
		f0, f1 = f, f
		g0, g1 = Node(m.lo[g]), Node(m.hi[g])
	}
	lo := m.apply(op, f0, g0)
	hi := m.apply(op, f1, g1)
	r := m.mk(lvl, lo, hi)
	m.cacheStore(op, f, g, 0, r)
	return r
}

// Not returns ¬f.
func (m *Manager) Not(f Node) Node {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := m.cacheLookup(opNot, f, 0, 0); ok {
		return r
	}
	r := m.mk(m.lvl[f], m.Not(Node(m.lo[f])), m.Not(Node(m.hi[f])))
	m.cacheStore(opNot, f, 0, 0, r)
	return r
}

// Ite returns if-then-else(f, g, h) = (f ∧ g) ∨ (¬f ∧ h).
func (m *Manager) Ite(f, g, h Node) Node {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.Not(f)
	}
	if r, ok := m.cacheLookup(opIte, f, g, h); ok {
		return r
	}
	lvl := m.lvl[f]
	if m.lvl[g] < lvl {
		lvl = m.lvl[g]
	}
	if m.lvl[h] < lvl {
		lvl = m.lvl[h]
	}
	f0, f1 := m.cofactor(f, lvl)
	g0, g1 := m.cofactor(g, lvl)
	h0, h1 := m.cofactor(h, lvl)
	lo := m.Ite(f0, g0, h0)
	hi := m.Ite(f1, g1, h1)
	r := m.mk(lvl, lo, hi)
	m.cacheStore(opIte, f, g, h, r)
	return r
}

// cofactor returns the (lo, hi) cofactors of n with respect to level lvl.
func (m *Manager) cofactor(n Node, lvl int32) (Node, Node) {
	if m.lvl[n] == lvl {
		return Node(m.lo[n]), Node(m.hi[n])
	}
	return n, n
}

// Restrict returns f with variable v fixed to the given value.
func (m *Manager) Restrict(f Node, v int, value bool) Node {
	op := opRestrictF
	if value {
		op = opRestrictT
	}
	return m.restrictRec(f, int32(v), op)
}

func (m *Manager) restrictRec(f Node, lvl int32, op int32) Node {
	if m.lvl[f] > lvl {
		return f
	}
	if m.lvl[f] == lvl {
		if op == opRestrictT {
			return Node(m.hi[f])
		}
		return Node(m.lo[f])
	}
	if r, ok := m.cacheLookup(op, f, Node(lvl), 0); ok {
		return r
	}
	lo := m.restrictRec(Node(m.lo[f]), lvl, op)
	hi := m.restrictRec(Node(m.hi[f]), lvl, op)
	r := m.mk(m.lvl[f], lo, hi)
	m.cacheStore(op, f, Node(lvl), 0, r)
	return r
}

// ExistsCube existentially quantifies every variable of the positive
// cube out of f. The cube is the canonical varset representation: build
// it once with CubeVars, keep it referenced, and every projection over
// it shares operation-cache entries.
func (m *Manager) ExistsCube(f, cube Node) Node {
	return m.existsRec(f, cube)
}

func (m *Manager) existsRec(f, cube Node) Node {
	if f <= True {
		return f
	}
	lf := m.lvl[f]
	// Quantified variables above f's root are not in f's support: drop
	// them so calls with supersets of the relevant varset share cache
	// entries.
	for cube > True && m.lvl[cube] < lf {
		cube = Node(m.hi[cube])
	}
	if cube == True {
		return f
	}
	if r, ok := m.cacheLookup(opExists, f, cube, 0); ok {
		return r
	}
	m.pollInterrupt()
	var r Node
	if m.lvl[cube] == lf {
		rest := Node(m.hi[cube])
		lo := m.existsRec(Node(m.lo[f]), rest)
		if lo == True { // ∃-abstraction saturated; skip the hi branch
			r = True
		} else {
			r = m.Or(lo, m.existsRec(Node(m.hi[f]), rest))
		}
	} else {
		lo := m.existsRec(Node(m.lo[f]), cube)
		hi := m.existsRec(Node(m.hi[f]), cube)
		r = m.mk(lf, lo, hi)
	}
	m.cacheStore(opExists, f, cube, 0, r)
	return r
}

// Compose returns f with variable v replaced by the function g:
// f[v := g] = Ite(g, f|v=1, f|v=0). g may itself mention v.
func (m *Manager) Compose(f Node, v int, g Node) Node {
	hi := m.Restrict(f, v, true)
	lo := m.Restrict(f, v, false)
	return m.Ite(g, hi, lo)
}

// AndSat reports whether f ∧ g is satisfiable without materializing the
// conjunction: the recursion terminates on the first path both operands
// keep alive. Any node other than False is satisfiable, so the terminal
// cases collapse fast and the cached result is a terminal.
func (m *Manager) AndSat(f, g Node) bool {
	return m.andSatRec(f, g) == True
}

func (m *Manager) andSatRec(f, g Node) Node {
	if f == False || g == False {
		return False
	}
	if f == True || g == True || f == g {
		return True
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.cacheLookup(opAndSat, f, g, 0); ok {
		return r
	}
	m.pollInterrupt()
	lvl := m.lvl[f]
	if m.lvl[g] < lvl {
		lvl = m.lvl[g]
	}
	f0, f1 := m.cofactor(f, lvl)
	g0, g1 := m.cofactor(g, lvl)
	r := m.andSatRec(f0, g0)
	if r != True {
		r = m.andSatRec(f1, g1)
	}
	m.cacheStore(opAndSat, f, g, 0, r)
	return r
}

// DiffSat reports whether f ∧ ¬g is satisfiable — i.e. whether f covers
// anything outside g — without materializing the difference. It is the
// kernel primitive behind "does the property hold everywhere" checks.
func (m *Manager) DiffSat(f, g Node) bool {
	return m.diffSatRec(f, g) == True
}

func (m *Manager) diffSatRec(f, g Node) Node {
	if f == False || g == True || f == g {
		return False
	}
	if g == False || f == True {
		// f ≠ False and ¬g ≠ False: both have satisfying paths, and one
		// side is unconstrained.
		return True
	}
	if r, ok := m.cacheLookup(opDiffSat, f, g, 0); ok {
		return r
	}
	m.pollInterrupt()
	lvl := m.lvl[f]
	if m.lvl[g] < lvl {
		lvl = m.lvl[g]
	}
	f0, f1 := m.cofactor(f, lvl)
	g0, g1 := m.cofactor(g, lvl)
	r := m.diffSatRec(f0, g0)
	if r != True {
		r = m.diffSatRec(f1, g1)
	}
	m.cacheStore(opDiffSat, f, g, 0, r)
	return r
}

// Cube returns the conjunction of the given literals: vars[i] appears
// positively if values[i] is true, negatively otherwise. The cube is
// built bottom-up from the deepest level with mk — one canonical node
// per literal — instead of n And calls through the operation cache.
func (m *Manager) Cube(vars []int, values []bool) Node {
	if len(vars) != len(values) {
		panic("bdd: Cube length mismatch")
	}
	order := m.sortedVarOrder(vars)
	r := True
	prev := -1
	for i := len(order) - 1; i >= 0; i-- {
		k := order[i]
		v := vars[k]
		if v == prev {
			// Duplicate literal: identical polarity is redundant,
			// conflicting polarity empties the cube.
			if values[k] != values[order[i+1]] {
				return False
			}
			continue
		}
		prev = v
		if values[k] {
			r = m.mk(int32(v), False, r)
		} else {
			r = m.mk(int32(v), r, False)
		}
	}
	return r
}

// CubeVars returns the positive cube over vars — the canonical varset
// node ExistsCube quantifies. Built bottom-up with mk.
func (m *Manager) CubeVars(vars []int) Node {
	order := m.sortedVarOrder(vars)
	r := True
	prev := -1
	for i := len(order) - 1; i >= 0; i-- {
		v := vars[order[i]]
		if v == prev {
			continue
		}
		prev = v
		r = m.mk(int32(v), False, r)
	}
	return r
}

// sortedVarOrder returns the indices of vars sorted by ascending
// variable (cube construction is bottom-up), leaving vars itself
// untouched (callers pass shared slices). Ties break on the original
// index so duplicate literals stay in declaration order for Cube's
// adjacent-duplicate polarity check.
func (m *Manager) sortedVarOrder(vars []int) []int {
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(vars[a], vars[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// NodeCount returns the number of distinct decision nodes reachable from
// f (excluding terminals) — the "BDD size" reported in experiments.
func (m *Manager) NodeCount(f Node) int {
	m.i32memo.begin(len(m.lvl))
	return m.nodeCountRec(f)
}

func (m *Manager) nodeCountRec(n Node) int {
	if n <= True {
		return 0
	}
	if _, seen := m.i32memo.get(n); seen {
		return 0
	}
	m.i32memo.put(n, 0)
	return 1 + m.nodeCountRec(Node(m.lo[n])) + m.nodeCountRec(Node(m.hi[n]))
}
