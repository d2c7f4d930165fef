package bdd

import (
	"fmt"
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

// An entry keys its op code and first operand in one word (cacheKey):
// the op in the top opBits bits, f below them. Every op's f is a node
// handle, and handles stay below the node limit, at most MaxNodeLimit =
// 1<<opShift, so the two never overlap; op codes start at 1, so no key
// is zero and a zero key marks an empty entry.
const (
	opBits  = 5
	opShift = 32 - opBits
)

// cacheKey packs op and f into an entry's key word.
func cacheKey(op int32, f Node) uint32 { return uint32(op)<<opShift | uint32(f) }

// op and f unpack the entry's key word.
func (e *cacheEntry) op() int32 { return int32(e.key >> opShift) }
func (e *cacheEntry) f() Node   { return Node(e.key & (1<<opShift - 1)) }

// cacheLookup probes the 2-way set for (op, f, g, h). A hit in the LRU
// way is promoted to the MRU way, so the hotter of two colliding entries
// stays resident.
func (m *Manager) cacheLookup(op int32, f, g, h Node) (Node, bool) {
	s, k := m.cacheSlot(op, f, g, h)<<1, cacheKey(op, f)
	e := &m.cache[s]
	if e.key == k && e.g == g && e.h == h {
		m.stats.CacheHits++
		return e.res, true
	}
	e2 := &m.cache[s|1]
	if e2.key == k && e2.g == g && e2.h == h {
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
	m.cache[s] = cacheEntry{cacheKey(op, f), g, h, res}
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
func (m *Manager) sweepCache(mark bitset) {
	retained, invalidated := uint64(0), uint64(0)
	for i := range m.cache {
		e := &m.cache[i]
		if e.key == 0 {
			continue
		}
		live := mark.has(int32(e.f())) && mark.has(int32(e.res))
		switch e.op() {
		case opRestrictF, opRestrictT:
			// g is a level, h unused.
		default:
			live = live && mark.has(int32(e.g)) && mark.has(int32(e.h))
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
	for sets < cacheCap && len(m.tab) > sets*cacheNodesPerSet {
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
			if e.key != 0 {
				m.cacheStore(e.op(), e.f(), e.g, e.h, e.res)
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
	nf, ng := m.tab[f], m.tab[g]
	var lvl int32
	var f0, f1, g0, g1 Node
	switch {
	case nf.lvl == ng.lvl:
		lvl = nf.lvl
		f0, f1 = Node(nf.lo), Node(nf.hi)
		g0, g1 = Node(ng.lo), Node(ng.hi)
	case nf.lvl < ng.lvl:
		lvl = nf.lvl
		f0, f1 = Node(nf.lo), Node(nf.hi)
		g0, g1 = g, g
	default:
		lvl = ng.lvl
		f0, f1 = f, f
		g0, g1 = Node(ng.lo), Node(ng.hi)
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
	n := m.tab[f]
	r := m.mk(n.lvl, m.Not(Node(n.lo)), m.Not(Node(n.hi)))
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
	lvl := m.tab[f].lvl
	if m.tab[g].lvl < lvl {
		lvl = m.tab[g].lvl
	}
	if m.tab[h].lvl < lvl {
		lvl = m.tab[h].lvl
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
	if r := &m.tab[n]; r.lvl == lvl {
		return Node(r.lo), Node(r.hi)
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
	n := m.tab[f]
	if n.lvl > lvl {
		return f
	}
	if n.lvl == lvl {
		if op == opRestrictT {
			return Node(n.hi)
		}
		return Node(n.lo)
	}
	if r, ok := m.cacheLookup(op, f, Node(lvl), 0); ok {
		return r
	}
	lo := m.restrictRec(Node(n.lo), lvl, op)
	hi := m.restrictRec(Node(n.hi), lvl, op)
	r := m.mk(n.lvl, lo, hi)
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
	nf := m.tab[f]
	lf := nf.lvl
	// Quantified variables above f's root are not in f's support: drop
	// them so calls with supersets of the relevant varset share cache
	// entries.
	for cube > True && m.tab[cube].lvl < lf {
		cube = Node(m.tab[cube].hi)
	}
	if cube == True {
		return f
	}
	if r, ok := m.cacheLookup(opExists, f, cube, 0); ok {
		return r
	}
	m.pollInterrupt()
	var r Node
	if m.tab[cube].lvl == lf {
		rest := Node(m.tab[cube].hi)
		lo := m.existsRec(Node(nf.lo), rest)
		if lo == True { // ∃-abstraction saturated; skip the hi branch
			r = True
		} else {
			r = m.Or(lo, m.existsRec(Node(nf.hi), rest))
		}
	} else {
		lo := m.existsRec(Node(nf.lo), cube)
		hi := m.existsRec(Node(nf.hi), cube)
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

// Permute returns each root with every variable v replaced by variable
// to[v], negated where neg[v] (neg may be nil): the simultaneous
// substitution f[v := x_to[v] ⊕ neg[v]]. to has one entry per variable;
// a permutation is the intended use, and identity entries leave their
// variables alone.
//
// The roots share one memoized walk: each node is rebuilt once, keyed
// by its handle in i32memo, after its children. Where the new variable
// lies above both rebuilt children the node is made with mk directly;
// elsewhere (the map broke the order there) it is Ite(x, hi, lo), which
// sinks the variable to its level. The operation cache holds only those
// Ite steps.
func (m *Manager) Permute(roots []Node, to []int, neg []bool) []Node {
	if len(to) != m.vars || neg != nil && len(neg) != m.vars {
		panic(fmt.Sprintf("bdd: Permute needs a map of %d variables", m.vars))
	}
	for _, t := range to {
		if t < 0 || t >= m.vars {
			panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", t, m.vars))
		}
	}
	out := make([]Node, len(roots))
	// The memo is keyed by the roots' nodes only, which exist before the
	// generation starts; the nodes made are never looked up.
	m.i32memo.begin(m)
	for i, f := range roots {
		out[i] = m.permuteRec(f, to, neg)
	}
	return out
}

// permuteRec is n renamed through to and neg; the caller owns the
// current i32memo generation.
func (m *Manager) permuteRec(n Node, to []int, neg []bool) Node {
	if n <= True {
		return n
	}
	if r, ok := m.i32memo.get(n); ok {
		return Node(r)
	}
	m.pollInterrupt()
	rec := m.tab[n]
	v := rec.lvl
	lo := m.permuteRec(Node(rec.lo), to, neg)
	hi := m.permuteRec(Node(rec.hi), to, neg)
	if neg != nil && neg[v] {
		lo, hi = hi, lo
	}
	t := int32(to[v])
	var r Node
	if t < m.tab[lo].lvl && t < m.tab[hi].lvl {
		r = m.mk(t, lo, hi)
	} else {
		r = m.Ite(m.mk(t, False, True), hi, lo)
	}
	m.i32memo.put(n, int32(r))
	return r
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
	lvl := m.tab[f].lvl
	if m.tab[g].lvl < lvl {
		lvl = m.tab[g].lvl
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
	lvl := m.tab[f].lvl
	if m.tab[g].lvl < lvl {
		lvl = m.tab[g].lvl
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

// CubeVars returns the positive cube over vars — the canonical varset
// node ExistsCube quantifies. Built bottom-up with mk, one node per
// distinct variable; vars itself is left untouched (callers pass shared
// slices).
func (m *Manager) CubeVars(vars []int) Node {
	sorted := slices.Clone(vars)
	slices.Sort(sorted)
	r := True
	for i := len(sorted) - 1; i >= 0; i-- {
		if i+1 < len(sorted) && sorted[i] == sorted[i+1] {
			continue
		}
		r = m.mk(int32(sorted[i]), False, r)
	}
	return r
}

// NodeCount returns the number of distinct decision nodes reachable from
// f (excluding terminals) — the "BDD size" reported in experiments.
func (m *Manager) NodeCount(f Node) int {
	m.i32memo.begin(m)
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
	r := &m.tab[n]
	return 1 + m.nodeCountRec(Node(r.lo)) + m.nodeCountRec(Node(r.hi))
}
