package bdd

import "fmt"

// checkInvariants verifies the manager's structural invariants and
// returns the first violation found, or nil:
//   - every allocated node is reduced (lo ≠ hi), names allocated
//     children at strictly greater levels, and is the only allocated
//     node with its (level, lo, hi);
//   - the free list holds exactly freeCnt slots, all with ref == -1, and
//     no other slot has ref == -1; nodes counts the rest;
//   - every hash chain holds only allocated nodes of its own bucket, and
//     every allocated node is on one;
//   - no op-cache or AndExists-cache entry names a free slot;
//   - both caches have a power-of-two size that setMask and axMask
//     match, and every entry sits in the set (or slot) its key hashes
//     to;
//   - after a safe point (afterSafePoint), the table extent is within
//     the growth rule or the cache has reached its cap.
//
// A sweep frees whatever it leaves unmarked, so the fourth point is
// what keeps a cache hit from returning a recycled handle; the fifth
// is what makes a wrong re-insert on growth fail loudly instead of
// silently losing hits.
func (m *Manager) checkInvariants(afterSafePoint bool) error {
	free := func(n Node) bool { return n > True && m.ref[n] < 0 }
	type triple struct{ lvl, lo, hi int32 }
	canon := make(map[triple]int32)
	freeSlots := 0
	for i := int32(2); i < int32(len(m.lvl)); i++ {
		if m.ref[i] < 0 {
			if m.ref[i] != -1 {
				return fmt.Errorf("slot %d: ref %d", i, m.ref[i])
			}
			freeSlots++
			continue
		}
		lvl, lo, hi := m.lvl[i], m.lo[i], m.hi[i]
		switch {
		case lo == hi:
			return fmt.Errorf("node %d: lo == hi == %d", i, lo)
		case free(Node(lo)) || free(Node(hi)):
			return fmt.Errorf("node %d: child %d or %d is a free slot", i, lo, hi)
		case m.lvl[lo] <= lvl || m.lvl[hi] <= lvl:
			return fmt.Errorf("node %d at level %d: children at levels %d, %d", i, lvl, m.lvl[lo], m.lvl[hi])
		}
		key := triple{lvl, lo, hi}
		if j, dup := canon[key]; dup {
			return fmt.Errorf("nodes %d and %d are both (%d, %d, %d)", j, i, lvl, lo, hi)
		}
		canon[key] = i
	}

	onList := 0
	for i := m.freeList; i >= 0; i = m.next[i] {
		if m.ref[i] != -1 {
			return fmt.Errorf("free list holds slot %d with ref %d", i, m.ref[i])
		}
		if onList++; onList > len(m.lvl) {
			return fmt.Errorf("free list cycles")
		}
	}
	if onList != m.freeCnt || freeSlots != m.freeCnt {
		return fmt.Errorf("free list length %d, free slots %d, freeCnt %d", onList, freeSlots, m.freeCnt)
	}
	if m.nodes != len(m.lvl)-m.freeCnt {
		return fmt.Errorf("nodes %d, table %d - free %d", m.nodes, len(m.lvl), m.freeCnt)
	}

	chained := 0
	for b, head := range m.hash {
		for i := head; i >= 0; i = m.next[i] {
			if m.ref[i] < 0 {
				return fmt.Errorf("bucket %d chains free slot %d", b, i)
			}
			if got := m.hashNode(m.lvl[i], m.lo[i], m.hi[i]); int(got) != b {
				return fmt.Errorf("node %d hashes to bucket %d, chained in %d", i, got, b)
			}
			if chained++; chained > len(m.lvl) {
				return fmt.Errorf("hash chains cycle")
			}
		}
	}
	if chained != len(canon) {
		return fmt.Errorf("%d nodes chained, %d allocated", chained, len(canon))
	}

	sets := len(m.cache) / 2
	switch {
	case sets == 0 || sets&(sets-1) != 0 || len(m.cache) != 2*sets:
		return fmt.Errorf("op cache has %d entries, not two ways of a power-of-two set count", len(m.cache))
	case m.setMask != uint32(sets-1):
		return fmt.Errorf("setMask %#x for %d sets", m.setMask, sets)
	case len(m.axCache) != max(sets/4, 1) || m.axMask != uint32(len(m.axCache)-1):
		return fmt.Errorf("AndExists cache has %d entries, axMask %#x, for %d sets", len(m.axCache), m.axMask, sets)
	case afterSafePoint && sets < cacheCap && len(m.lvl) > sets*cacheNodesPerSet:
		return fmt.Errorf("after a safe point: %d sets for a table extent of %d", sets, len(m.lvl))
	}
	for s, e := range m.cache {
		if e.op == 0 {
			continue
		}
		if got := m.cacheSlot(e.op, e.f, e.g, e.h); int(got) != s/2 {
			return fmt.Errorf("op-cache entry %d (op %d) hashes to set %d, sits in set %d", s, e.op, got, s/2)
		}
		names := []Node{e.f, e.res, e.g, e.h}
		if e.op == opRestrictF || e.op == opRestrictT {
			names = names[:2] // g is a level, h unused
		}
		for _, n := range names {
			if free(n) {
				return fmt.Errorf("op-cache entry %d (op %d) names free slot %d", s, e.op, n)
			}
		}
	}
	for s, e := range m.axCache {
		if e.f == False {
			continue
		}
		if got := m.axSlot(e.f, e.g, e.cube); int(got) != s {
			return fmt.Errorf("AndExists-cache entry %d hashes to slot %d", s, got)
		}
		for _, n := range []Node{e.f, e.g, e.cube, e.res} {
			if free(n) {
				return fmt.Errorf("AndExists-cache entry %d names free slot %d", s, n)
			}
		}
	}
	return nil
}
