package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ring builds a cycle of n routers.
func ring(n int) *Topology {
	t := NewTopology()
	for i := 0; i < n; i++ {
		t.AddRouter(string(rune('A' + i)))
	}
	for i := 0; i < n; i++ {
		t.AddLink(RouterID(i), RouterID((i+1)%n))
	}
	return t
}

func TestBasics(t *testing.T) {
	topo := NewTopology()
	a := topo.AddRouter("a")
	b := topo.AddRouter("b")
	l := topo.AddLink(a, b)
	if topo.NumRouters() != 2 || topo.NumLinks() != 1 {
		t.Fatal("counts")
	}
	if topo.Link(l).Other(a) != b || topo.Link(l).Other(b) != a {
		t.Fatal("Other")
	}
	if got, ok := topo.LinkBetween(a, b); !ok || got != l {
		t.Fatal("LinkBetween")
	}
	if _, ok := topo.RouterByName("c"); ok {
		t.Fatal("phantom router")
	}
	if topo.Name(a) != "a" {
		t.Fatal("Name")
	}
	if len(topo.Neighbors(a)) != 1 || topo.Neighbors(a)[0] != b {
		t.Fatal("Neighbors")
	}
}

func TestDuplicateRouterPanics(t *testing.T) {
	topo := NewTopology()
	topo.AddRouter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	topo.AddRouter("x")
}

func TestSelfLoopPanics(t *testing.T) {
	topo := NewTopology()
	a := topo.AddRouter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	topo.AddLink(a, a)
}

func TestConnected(t *testing.T) {
	topo := ring(4)
	if !topo.Connected(0, 2, nil) {
		t.Fatal("ring should be connected")
	}
	// Cutting links 0 and 3 (the two incident to router 0) isolates it.
	alive := func(l LinkID) bool { return l != 0 && l != 3 }
	if topo.Connected(0, 2, alive) {
		t.Fatal("router 0 should be isolated")
	}
	if !topo.Connected(1, 2, alive) {
		t.Fatal("1-2 should remain connected")
	}
	if !topo.Connected(2, 2, func(LinkID) bool { return false }) {
		t.Fatal("self connectivity")
	}
}

func TestMinCutRing(t *testing.T) {
	topo := ring(5)
	for i := 1; i < 5; i++ {
		if got := topo.MinCut(0, RouterID(i)); got != 2 {
			t.Errorf("ring min-cut(0,%d) = %d, want 2", i, got)
		}
	}
}

func TestMinCutLine(t *testing.T) {
	topo := NewTopology()
	a := topo.AddRouter("a")
	b := topo.AddRouter("b")
	c := topo.AddRouter("c")
	topo.AddLink(a, b)
	topo.AddLink(b, c)
	if got := topo.MinCut(a, c); got != 1 {
		t.Errorf("line min-cut = %d, want 1", got)
	}
	if got := topo.MinCut(a, a); got != 0 {
		t.Errorf("self min-cut = %d, want 0", got)
	}
}

func TestMinCutParallelPaths(t *testing.T) {
	// a connects to b via 3 disjoint 2-hop paths.
	topo := NewTopology()
	a := topo.AddRouter("a")
	b := topo.AddRouter("b")
	for i := 0; i < 3; i++ {
		m := topo.AddRouter(string(rune('m' + i)))
		topo.AddLink(a, m)
		topo.AddLink(m, b)
	}
	if got := topo.MinCut(a, b); got != 3 {
		t.Errorf("min-cut = %d, want 3", got)
	}
}

func TestMinCutMatchesEnumeration(t *testing.T) {
	// Random small graphs: min-cut equals the smallest link set whose
	// removal disconnects the pair.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(3)
		topo := NewTopology()
		for i := 0; i < n; i++ {
			topo.AddRouter(string(rune('a' + i)))
		}
		// Random connected graph: a spanning tree plus extra links.
		for i := 1; i < n; i++ {
			topo.AddLink(RouterID(i), RouterID(r.Intn(i)))
		}
		for e := 0; e < n; e++ {
			x, y := r.Intn(n), r.Intn(n)
			if x != y {
				if _, dup := topo.LinkBetween(RouterID(x), RouterID(y)); !dup {
					topo.AddLink(RouterID(x), RouterID(y))
				}
			}
		}
		s, d := RouterID(0), RouterID(n-1)
		got := topo.MinCut(s, d)
		want := bruteMinCut(topo, s, d)
		if got != want {
			t.Fatalf("trial %d: min-cut %d, brute force %d", trial, got, want)
		}
	}
}

func bruteMinCut(t *Topology, s, d RouterID) int {
	m := t.NumLinks()
	for k := 0; k <= m; k++ {
		if existsCut(t, s, d, k) {
			return k
		}
	}
	return m
}

func existsCut(t *Topology, s, d RouterID, k int) bool {
	m := t.NumLinks()
	var rec func(start int, down []LinkID) bool
	rec = func(start int, down []LinkID) bool {
		if len(down) == k {
			dead := make(map[LinkID]bool)
			for _, l := range down {
				dead[l] = true
			}
			return !t.Connected(s, d, func(l LinkID) bool { return !dead[l] })
		}
		for i := start; i < m; i++ {
			if rec(i+1, append(down, LinkID(i))) {
				return true
			}
		}
		return false
	}
	return rec(0, nil)
}

func TestQuickMinCutSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		topo := NewTopology()
		for i := 0; i < n; i++ {
			topo.AddRouter(string(rune('a' + i)))
		}
		for i := 1; i < n; i++ {
			topo.AddLink(RouterID(i), RouterID(r.Intn(i)))
		}
		for e := 0; e < n/2; e++ {
			x, y := r.Intn(n), r.Intn(n)
			if x != y {
				if _, dup := topo.LinkBetween(RouterID(x), RouterID(y)); !dup {
					topo.AddLink(RouterID(x), RouterID(y))
				}
			}
		}
		s, d := RouterID(r.Intn(n)), RouterID(r.Intn(n))
		return topo.MinCut(s, d) == topo.MinCut(d, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
