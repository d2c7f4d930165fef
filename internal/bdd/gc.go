package bdd

import (
	"fmt"
	"time"

	"sre/internal/obs"
)

// Garbage collection. The manager reference-counts external roots
// (Ref/Deref); GC marks everything reachable from a referenced node and
// returns all other slots to the free list. Node handles of collected
// nodes become invalid; handles of surviving nodes are stable (no
// compaction), matching the behaviour of classic BDD packages.
//
// GC must only run at safe points: no BDD operation may be in flight,
// because operation intermediates live on the Go stack and are invisible
// to the mark phase. The engines therefore call MaybeGC between top-level
// steps, with every persistent BDD (topology conditions, predicates,
// PFECs) protected by Ref.
//
// Automatic collection looks only when there may be garbage worth
// having: once the allocated nodes reach gcGrowth times the live count
// of the last look (never below gcFloor), MaybeGC marks, and sweeps
// only if at least 1/gcYield of the allocated nodes turned out dead —
// every sweep invalidates the op-cache entries that name dead nodes, so
// a sweep that frees little costs more recomputation than it saves.
// At three quarters of the node limit the sweep is unconditional.
const (
	gcFloor  = 64 << 10 // never look below this many allocated nodes
	gcGrowth = 2        // look again at gcGrowth × the live count of the last look
	gcYield  = 4        // sweep when at least 1/gcYield of the allocated nodes is dead
)

// GC runs a mark-and-sweep collection, empties the operation cache and
// reports how many nodes were freed. Callers collect explicitly where a
// piece of work ends, so few entries would be asked again, and emptying
// the cache costs a fraction of sweeping it; MaybeGC keeps the entries
// whose operands and result all survive.
func (m *Manager) GC() int { return m.collect(false, false) }

// MaybeGC collects at a safe point. With threshold zero it applies the
// collection policy above; a positive threshold instead collects
// unconditionally once the allocated node count reaches it. It returns
// the number of freed nodes, zero if no sweep ran. Afterwards — with or
// without automatic collection, and after the sweep, so only surviving
// entries are re-inserted — the operation cache grows to the node
// table (see growCache).
func (m *Manager) MaybeGC(threshold int) int {
	defer m.growCache()
	if !m.autoGC {
		return 0
	}
	if threshold != 0 {
		if m.nodes < threshold {
			return 0
		}
		return m.collect(false, true)
	}
	pressure := m.limit / 4 * 3
	if m.nodes < min(m.gcAt, pressure) {
		return 0
	}
	return m.collect(m.nodes < pressure, true)
}

// collect marks the live nodes, moves the next look to gcGrowth times
// their count and sweeps — unless onlyIfWorthIt is set and the mark
// found less than 1/gcYield of the allocated nodes dead. A sweep empties
// the operation cache unless keepCache keeps the entries that survive.
func (m *Manager) collect(onlyIfWorthIt, keepCache bool) int {
	var gcT0 time.Time
	recording := m.tel.Recording()
	if recording {
		gcT0 = time.Now()
	}
	mark, live := m.mark()
	m.gcAt = max(gcFloor, gcGrowth*live)
	if onlyIfWorthIt && (m.nodes-live)*gcYield < m.nodes {
		return 0
	}
	freed := m.sweep(mark)
	if keepCache {
		m.sweepCache(mark)
	} else {
		clear(m.cache)
	}
	m.stats.HitsAtLastGC = m.stats.CacheHits
	m.stats.MissAtLastGC = m.stats.CacheMiss
	m.stats.GCRuns++
	m.telGCRuns.Inc()
	m.telGCFreed.Add(int64(freed))
	m.SampleTelemetry()
	if m.tel.Active() {
		m.tel.Emit(obs.Event{Stage: "bdd",
			Detail: fmt.Sprintf("gc #%d freed %s nodes, live %s (peak %s)",
				m.stats.GCRuns, obs.HumanCount(int64(freed)),
				obs.HumanCount(int64(m.nodes)), obs.HumanCount(int64(m.stats.PeakNodes)))})
	}
	if recording {
		m.tel.Record(gcT0, obs.TraceEvent{Stage: "bdd.gc",
			Wall:  time.Since(gcT0).Nanoseconds(),
			Count: int64(freed), Nodes: -int64(freed), Outcome: "ok"})
	}
	return freed
}

// bitset is a set of node slots, one bit per slot.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) add(i int32)      { b[i>>6] |= 1 << (i & 63) }

// mark flags every slot reachable from a referenced node (terminals
// included) and returns the flags with their count. The flags and the
// walk's stack are the manager's own, kept from one collection to the
// next: the bitmap is sized to the node table's capacity, so it is
// reallocated only when the table has doubled, and cleared otherwise.
func (m *Manager) mark() (bitset, int) {
	if words := (cap(m.tab) + 63) / 64; len(m.marks) < words {
		m.marks = make(bitset, words)
	} else {
		clear(m.marks)
	}
	mark := m.marks
	mark.add(0)
	mark.add(1)
	live := 2
	// Iterative DFS to avoid deep recursion on big diagrams.
	stack := m.markStack[:0]
	for i := int32(2); i < int32(len(m.tab)); i++ {
		if m.ref[i] > 0 {
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark.has(n) {
			continue
		}
		mark.add(n)
		live++
		r := &m.tab[n]
		if !mark.has(r.lo) {
			stack = append(stack, r.lo)
		}
		if !mark.has(r.hi) {
			stack = append(stack, r.hi)
		}
	}
	m.markStack = stack
	return mark, live
}

// sweep rebuilds the unique table and the free list from mark and
// returns how many allocated slots it freed.
func (m *Manager) sweep(mark bitset) int {
	for i := range m.hash {
		m.hash[i] = -1
	}
	m.freeList = -1
	m.freeCnt = 0
	freed := 0
	for i := int32(len(m.tab)) - 1; i >= 2; i-- {
		n := &m.tab[i]
		if mark.has(i) {
			if m.ref[i] < 0 {
				m.ref[i] = 0 // resurrect bookkeeping consistency
				m.nodes++    // the slot leaves the free list and counts as allocated again
			}
			b := m.hashNode(n.lvl, n.lo, n.hi)
			n.next = m.hash[b]
			m.hash[b] = i
			continue
		}
		if m.ref[i] >= 0 {
			m.ref[i] = -1
			m.nodes--
			freed++
		}
		n.next = m.freeList
		m.freeList = i
		m.freeCnt++
	}
	return freed
}
