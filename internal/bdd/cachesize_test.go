package bdd

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestCacheGrowthKeepsEntries fills the operation cache of a 4-set
// manager, grows it at a MaybeGC(0) safe point and repeats the
// operations whose entries were resident: every one must hit (one more
// CacheHits each) and return the node it returned before. The fill is
// chosen so that both entries of every set land in one set of the
// grown cache, where the MRU entry must still be MRU.
func TestCacheGrowthKeepsEntries(t *testing.T) {
	const n, sets = 16, 4
	m := newSized(Config{Vars: n}, sets, initialNodes)
	x := make([]Node, n)
	for v := range x {
		x[v] = m.Var(v)
	}

	// And(x_a, x_b) makes one op-cache entry and one node. Two per set
	// fill the cache; pick, for every set, two that share a set of the
	// cache the table will grow it to, and make them last.
	extent := len(m.tab) + 2*sets
	grown := sets
	for grown < cacheCap && extent > grown*cacheNodesPerSet {
		grown *= cacheStep
	}
	probe := newSized(Config{Vars: n}, grown, initialNodes)
	type pair struct{ a, b int }
	var lru, mru [sets]pair
	var found [sets]bool
	first := map[[2]uint32]pair{}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s := m.cacheSlot(opAnd, x[a], x[b], 0)
			ns := probe.cacheSlot(opAnd, x[a], x[b], 0)
			if found[s] {
				continue
			}
			if p, ok := first[[2]uint32{s, ns}]; ok {
				lru[s], mru[s], found[s] = p, pair{a, b}, true
			} else {
				first[[2]uint32{s, ns}] = pair{a, b}
			}
		}
	}
	andRes := map[pair]Node{}
	for s := range found {
		if !found[s] {
			t.Fatalf("no two Ands share set %d at both sizes", s)
		}
		for _, p := range []pair{lru[s], mru[s]} {
			andRes[p] = m.And(x[p.a], x[p.b])
		}
	}
	if len(m.tab) != extent {
		t.Fatalf("table extent %d, want %d", len(m.tab), extent)
	}
	for s, e := range m.cache {
		if e.op() != opAnd {
			t.Fatalf("op-cache entry %d is not one of the Ands: %+v", s, e)
		}
	}

	m.MaybeGC(0)
	if got := len(m.cache) / 2; got != grown || m.Statistics().CacheGrows == 0 {
		t.Fatalf("MaybeGC(0) left %d sets (%d grows), want %d", got, m.Statistics().CacheGrows, grown)
	}
	if err := m.checkInvariants(true); err != nil {
		t.Fatal(err)
	}
	for s := range mru {
		ns := m.cacheSlot(opAnd, x[mru[s].a], x[mru[s].b], 0) << 1
		if e := m.cache[ns]; e.f() != x[mru[s].a] || e.g != x[mru[s].b] {
			t.Errorf("set %d's MRU entry is not MRU in set %d after growth", s, ns/2)
		}
		if e := m.cache[ns|1]; e.f() != x[lru[s].a] || e.g != x[lru[s].b] {
			t.Errorf("set %d's LRU entry is not LRU in set %d after growth", s, ns/2)
		}
	}

	for p, want := range andRes {
		h0 := m.stats.CacheHits
		if r := m.And(x[p.a], x[p.b]); r != want || m.stats.CacheHits != h0+1 {
			t.Errorf("And(x%d, x%d) after growth: %d (want %d), %d hits (want 1)", p.a, p.b, r, want, m.stats.CacheHits-h0)
		}
	}
}

// TestNewManagerIsSmall pins the starting size: a manager that will
// hold few nodes allocates a 2¹²-set cache (128 KB), not the 2¹⁸-set
// cap (8 MB).
func TestNewManagerIsSmall(t *testing.T) {
	const calls = 50
	keep := make([]*Manager, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(Config{Vars: 200})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 512<<10 {
		t.Errorf("New allocates %d KB per call, want < 512 KB", per>>10)
	}
	if sets := len(keep[0].cache) / 2; sets != cacheStart {
		t.Errorf("a new manager has %d sets, want %d", sets, cacheStart)
	}
}

// TestGrowthFollowsTheTable checks the sizing rule: the cache stays at
// its start until a safe point finds the table extent past the set
// count, then grows by ×4 steps, as many at once as the table needs;
// the end of Read is such a safe point.
func TestGrowthFollowsTheTable(t *testing.T) {
	m := newSized(Config{Vars: 20}, 4, initialNodes)
	for i := 0; i < 3; i++ {
		m.Var(i) // extent 5 > 4 sets
	}
	if len(m.cache) != 8 {
		t.Fatalf("the cache grew outside a safe point: %d entries", len(m.cache))
	}
	m.MaybeGC(0)
	if sets := len(m.cache) / 2; sets != 16 || m.Statistics().CacheGrows != 1 {
		t.Fatalf("after one look: %d sets, %d grows; want 16 sets, 1 grow", sets, m.Statistics().CacheGrows)
	}

	src := New(Config{Vars: 20})
	r := rand.New(rand.NewSource(5))
	var roots []Node
	for len(src.tab) < 2000 {
		f, _ := buildRandom(src, r, 6)
		roots = append(roots, f)
	}
	var buf bytes.Buffer
	if err := src.Write(&buf, roots...); err != nil {
		t.Fatal(err)
	}
	dst := newSized(Config{Vars: 20}, 4, initialNodes)
	if _, err := dst.Read(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.checkInvariants(true); err != nil {
		t.Fatal(err)
	}
	if got := dst.Statistics().CacheGrows; got < 2 {
		t.Fatalf("Read of %d nodes grew the cache %d steps, want several", len(dst.tab), got)
	}
}
