package src

import (
	"errors"
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/symbol"
)

// figure1 builds the paper's walkthrough network (Figure 1(a)): routers
// A, B, C running BGP; C originates 128.0.0.0/1 and 192.0.0.0/2 and is
// configured with an outbound route-map denying 192/2 towards A and an
// inbound ACL dropping 192/2 packets arriving from A.
const figure1 = `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end

router A
  bgp 65001
end

router B
  bgp 65002
end

router C
  bgp 65003
    network 128.0.0.0/1
    network 192.0.0.0/2
    neighbor A export-map NO192
  route-map NO192
    10 deny prefix 192.0.0.0/2
    20 permit any
  interface A
    acl-in deny 192.0.0.0/2
    acl-in permit any
end
`

func mustNet(t *testing.T, text string) *config.Network {
	t.Helper()
	n, err := config.ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return n
}

func runEngine(t *testing.T, net *config.Network, opts Options) *Engine {
	t.Helper()
	e := New(net, opts)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

// linkVars returns the BDDs of links AB, BC, AC of the figure1 network.
func linkVars(e *Engine) (lAB, lBC, lAC bdd.Node) {
	topo := e.Net.Topology
	a, b, c := topo.MustRouter("A"), topo.MustRouter("B"), topo.MustRouter("C")
	ab, _ := topo.LinkBetween(a, b)
	bc, _ := topo.LinkBetween(b, c)
	ac, _ := topo.LinkBetween(a, c)
	return e.Sp.LinkVar(ab), e.Sp.LinkVar(bc), e.Sp.LinkVar(ac)
}

func TestFigure1SymbolicRIB(t *testing.T) {
	net := mustNet(t, figure1)
	e := runEngine(t, net, Options{PruneK: -1})
	m := e.Sp.M
	lAB, lBC, lAC := linkVars(e)
	a := net.Topology.MustRouter("A")
	p128 := route.MustParsePrefix("128.0.0.0/1")
	p192 := route.MustParsePrefix("192.0.0.0/2")

	// Paper Figure 1(b): A's symbolic RIB.
	// 128/1 via C has tc = lAC; 128/1 via B has tc = ¬lAC·lBC·lAB.
	routes := e.RIB(a).Routes(p128)
	if len(routes) != 2 {
		t.Fatalf("A should have 2 routes for 128/1, got %d", len(routes))
	}
	c := net.Topology.MustRouter("C")
	b := net.Topology.MustRouter("B")
	var viaC, viaB *SymRoute
	for _, sr := range routes {
		switch sr.Route.NextHop {
		case int(c):
			viaC = sr
		case int(b):
			viaB = sr
		}
	}
	if viaC == nil || viaB == nil {
		t.Fatalf("missing route: viaC=%v viaB=%v", viaC, viaB)
	}
	if viaC.TcRib != lAC {
		t.Errorf("tc(128/1 via C) = node %d, want lAC", viaC.TcRib)
	}
	wantViaB := m.AndN(m.Not(lAC), lBC, lAB)
	if viaB.TcRib != wantViaB {
		t.Errorf("tc(128/1 via B) = node %d, want !lAC&lBC&lAB", viaB.TcRib)
	}

	// 192/2 at A: only via B (C denies it towards A), tc = lBC·lAB.
	routes = e.RIB(a).Routes(p192)
	if len(routes) != 1 {
		t.Fatalf("A should have 1 route for 192/2, got %d", len(routes))
	}
	if routes[0].Route.NextHop != int(b) {
		t.Errorf("192/2 next hop = %d, want B", routes[0].Route.NextHop)
	}
	if want := m.And(lBC, lAB); routes[0].TcRib != want {
		t.Errorf("tc(192/2 via B) = node %d, want lBC&lAB", routes[0].TcRib)
	}
}

func TestFigure1OriginRIB(t *testing.T) {
	net := mustNet(t, figure1)
	e := runEngine(t, net, Options{PruneK: -1})
	cID := net.Topology.MustRouter("C")
	p128 := route.MustParsePrefix("128.0.0.0/1")
	routes := e.RIB(cID).Routes(p128)
	// C's own origination always wins: every learned route has tcRib
	// False and is either absent or dominated.
	foundLocal := false
	for _, sr := range routes {
		if sr.Route.Protocol == route.Connected {
			foundLocal = true
			if sr.TcRib != bdd.True {
				t.Errorf("origin tcRib should be True, got node %d", sr.TcRib)
			}
		} else if sr.TcRib != bdd.False {
			t.Errorf("learned route at origin has tcRib node %d, want False", sr.TcRib)
		}
	}
	if !foundLocal {
		t.Fatal("origin lacks its connected route")
	}
}

func TestFigure1RoutePruningK0(t *testing.T) {
	net := mustNet(t, figure1)
	e := runEngine(t, net, Options{PruneK: 0})
	m := e.Sp.M
	a := net.Topology.MustRouter("A")
	b := net.Topology.MustRouter("B")
	p128 := route.MustParsePrefix("128.0.0.0/1")
	// With k=0 (no failures), the backup route via B requires lAC down
	// and must be pruned to False or dropped.
	for _, sr := range e.RIB(a).Routes(p128) {
		if sr.Route.NextHop == int(b) && sr.TcRib != bdd.False {
			allUp := e.Sp.AllLinksUp()
			if m.And(sr.TcRib, allUp) != bdd.False {
				t.Errorf("backup route live under no-failure scenario with k=0")
			}
		}
	}
	st := e.Statistics()
	if st.RoutesImported == 0 {
		t.Error("stats: no imports counted")
	}
}

func TestFigure1PruneReducesRoutes(t *testing.T) {
	net := mustNet(t, figure1)
	full := runEngine(t, net, Options{PruneK: -1}).Statistics()
	pruned := runEngine(t, net, Options{PruneK: 0}).Statistics()
	if pruned.RIBRoutes > full.RIBRoutes {
		t.Errorf("pruned RIB has more routes (%d) than full (%d)", pruned.RIBRoutes, full.RIBRoutes)
	}
}

func TestStaticRoute(t *testing.T) {
	net := mustNet(t, `
topology
  router A
  router B
  link A B
end
router A
  static 10.0.0.0/8 via B
end
router B
  ospf
    network 10.0.0.0/8
  exit
end
`)
	e := runEngine(t, net, Options{PruneK: -1})
	a := net.Topology.MustRouter("A")
	p := route.MustParsePrefix("10.0.0.0/8")
	routes := e.RIB(a).LiveRoutes(p)
	if len(routes) != 1 {
		t.Fatalf("want 1 static route, got %d", len(routes))
	}
	if routes[0].Route.Protocol != route.Static {
		t.Fatalf("protocol = %v, want static", routes[0].Route.Protocol)
	}
	ab, _ := net.Topology.LinkBetween(a, net.Topology.MustRouter("B"))
	if routes[0].TcRib != e.Sp.LinkVar(ab) {
		t.Errorf("static tc = node %d, want lAB", routes[0].TcRib)
	}
}

// ospfSquare is a 4-router OSPF ring: A-B-D-C-A, with D originating a
// network. Costs are uniform (1).
const ospfSquare = `
topology
  router A
  router B
  router C
  router D
  link A B
  link A C
  link B D
  link C D
end
router A
  ospf
  exit
end
router B
  ospf
  exit
end
router C
  ospf
  exit
end
router D
  ospf
    network 10.0.0.0/24
  exit
end
`

func TestOSPFECMP(t *testing.T) {
	net := mustNet(t, ospfSquare)
	e := runEngine(t, net, Options{PruneK: -1})
	m := e.Sp.M
	topo := net.Topology
	a := topo.MustRouter("A")
	p := route.MustParsePrefix("10.0.0.0/24")
	routes := e.RIB(a).LiveRoutes(p)
	// A reaches D at cost 2 via both B and C: an ECMP tier of two
	// routes, both installed when their respective paths are up.
	if len(routes) != 2 {
		t.Fatalf("want 2 ECMP routes at A, got %d: %v", len(routes), routes)
	}
	ab, _ := topo.LinkBetween(a, topo.MustRouter("B"))
	bd, _ := topo.LinkBetween(topo.MustRouter("B"), topo.MustRouter("D"))
	lAB, lBD := e.Sp.LinkVar(ab), e.Sp.LinkVar(bd)
	for _, sr := range routes {
		if sr.Route.Cost != 2 {
			t.Errorf("route cost = %d, want 2", sr.Route.Cost)
		}
		if sr.Route.NextHop == int(topo.MustRouter("B")) {
			// ECMP member is installed whenever its own path is up:
			// no negation by the equal-priority sibling.
			if want := m.And(lAB, lBD); sr.TcRib != want {
				t.Errorf("tc(via B) = node %d, want lAB&lBD", sr.TcRib)
			}
		}
	}
}

func TestOSPFNoECMP(t *testing.T) {
	net := mustNet(t, ospfSquare)
	e := runEngine(t, net, Options{PruneK: -1, NoECMP: true})
	m := e.Sp.M
	topo := net.Topology
	a := topo.MustRouter("A")
	p := route.MustParsePrefix("10.0.0.0/24")
	routes := e.RIB(a).LiveRoutes(p)
	if len(routes) < 2 {
		t.Fatalf("want >=2 routes, got %d", len(routes))
	}
	// Without ECMP, equal-cost routes are strictly ordered and their
	// installed conditions must be disjoint.
	for i := 0; i < len(routes); i++ {
		for j := i + 1; j < len(routes); j++ {
			if m.And(routes[i].TcRib, routes[j].TcRib) != bdd.False {
				t.Errorf("routes %d and %d have overlapping tcRib without ECMP", i, j)
			}
		}
	}
}

func TestOSPFCosts(t *testing.T) {
	// Ring where one path is cheap and the other expensive.
	net := mustNet(t, `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end
router A
  ospf
  exit
  interface C
    cost 10
  exit
end
router B
  ospf
  exit
end
router C
  ospf
    network 10.0.0.0/24
  exit
end
`)
	e := runEngine(t, net, Options{PruneK: -1})
	m := e.Sp.M
	topo := net.Topology
	a := topo.MustRouter("A")
	routes := e.RIB(a).LiveRoutes(route.MustParsePrefix("10.0.0.0/24"))
	if len(routes) != 2 {
		t.Fatalf("want 2 routes, got %d", len(routes))
	}
	// Preferred: via B at cost 2; backup: direct via C at cost 10.
	best := routes[0]
	if best.Route.NextHop != int(topo.MustRouter("B")) || best.Route.Cost != 2 {
		t.Fatalf("best route should be via B cost 2, got %+v", best.Route)
	}
	backup := routes[1]
	if backup.Route.Cost != 10 {
		t.Fatalf("backup cost = %d, want 10", backup.Route.Cost)
	}
	ab, _ := topo.LinkBetween(a, topo.MustRouter("B"))
	bc, _ := topo.LinkBetween(topo.MustRouter("B"), topo.MustRouter("C"))
	ac, _ := topo.LinkBetween(a, topo.MustRouter("C"))
	wantBackup := m.AndN(m.Not(m.And(e.Sp.LinkVar(ab), e.Sp.LinkVar(bc))), e.Sp.LinkVar(ac))
	if backup.TcRib != wantBackup {
		t.Errorf("backup tc = node %d, want !(lAB&lBC)&lAC", backup.TcRib)
	}
}

func TestBGPLocalPref(t *testing.T) {
	// A prefers the longer path through B due to local-pref.
	net := mustNet(t, `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end
router A
  bgp 65001
    neighbor B import-map PREFER
  route-map PREFER
    10 permit any set local-pref 200
end
router B
  bgp 65002
end
router C
  bgp 65003
    network 128.0.0.0/1
end
`)
	e := runEngine(t, net, Options{PruneK: -1})
	m := e.Sp.M
	topo := net.Topology
	a, b := topo.MustRouter("A"), topo.MustRouter("B")
	routes := e.RIB(a).Routes(route.MustParsePrefix("128.0.0.0/1"))
	if len(routes) != 2 {
		t.Fatalf("want 2 routes, got %d", len(routes))
	}
	if routes[0].Route.NextHop != int(b) {
		t.Fatalf("best route should be via B (local-pref 200), got next hop %d", routes[0].Route.NextHop)
	}
	if routes[0].Route.LocalPref != 200 {
		t.Fatalf("local-pref = %d, want 200", routes[0].Route.LocalPref)
	}
	ab, _ := topo.LinkBetween(a, b)
	bc, _ := topo.LinkBetween(b, topo.MustRouter("C"))
	if want := m.And(e.Sp.LinkVar(ab), e.Sp.LinkVar(bc)); routes[0].TcRib != want {
		t.Errorf("tc best = node %d, want lAB&lBC", routes[0].TcRib)
	}
}

func TestBGPCommunityFiltering(t *testing.T) {
	// C tags 192/2 with community 666; A drops routes with that tag.
	net := mustNet(t, `
topology
  router A
  router C
  link A C
end
router A
  bgp 65001
    neighbor C import-map NOTAG
  route-map NOTAG
    10 deny community 666
    20 permit any
end
router C
  bgp 65003
    network 128.0.0.0/1
    network 192.0.0.0/2
    neighbor A export-map TAG
  route-map TAG
    10 permit prefix 192.0.0.0/2 set community 666
    20 permit any
end
`)
	e := runEngine(t, net, Options{PruneK: -1})
	a := net.Topology.MustRouter("A")
	if got := len(e.RIB(a).Routes(route.MustParsePrefix("192.0.0.0/2"))); got != 0 {
		t.Errorf("192/2 should be filtered by community, got %d routes", got)
	}
	if got := len(e.RIB(a).Routes(route.MustParsePrefix("128.0.0.0/1"))); got != 1 {
		t.Errorf("128/1 should be present, got %d routes", got)
	}
}

func TestBGPAggregation(t *testing.T) {
	// B aggregates two /9s from C into 10.0.0.0/8 towards A.
	net := mustNet(t, `
topology
  router A
  router B
  router C
  link A B
  link B C
end
router A
  bgp 65001
end
router B
  bgp 65002
    aggregate 10.0.0.0/8
end
router C
  bgp 65003
    network 10.0.0.0/9
    network 10.128.0.0/9
end
`)
	e := runEngine(t, net, Options{PruneK: -1})
	m := e.Sp.M
	topo := net.Topology
	a, b := topo.MustRouter("A"), topo.MustRouter("B")
	agg := route.MustParsePrefix("10.0.0.0/8")
	// A sees only the aggregate.
	if got := len(e.RIB(a).Routes(route.MustParsePrefix("10.0.0.0/9"))); got != 0 {
		t.Errorf("more-specific should be suppressed at A, got %d routes", got)
	}
	routes := e.RIB(a).Routes(agg)
	if len(routes) != 1 {
		t.Fatalf("A should have the aggregate, got %d routes", len(routes))
	}
	ab, _ := topo.LinkBetween(a, b)
	bc, _ := topo.LinkBetween(b, topo.MustRouter("C"))
	// Aggregate live iff at least one contributor is received at B and
	// the link to A is up: tc = lAB & lBC (both contributors share lBC).
	if want := m.And(e.Sp.LinkVar(ab), e.Sp.LinkVar(bc)); routes[0].TcRib != want {
		t.Errorf("aggregate tc = node %d, want lAB&lBC", routes[0].TcRib)
	}
}

func TestASPathPrepending(t *testing.T) {
	// C prepends towards A, making the direct path look longer, so A
	// prefers the path through B.
	net := mustNet(t, `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end
router A
  bgp 65001
end
router B
  bgp 65002
end
router C
  bgp 65003
    network 128.0.0.0/1
    neighbor A export-map PREPEND
  route-map PREPEND
    10 permit any set prepend 3
end
`)
	e := runEngine(t, net, Options{PruneK: -1})
	topo := net.Topology
	a, b := topo.MustRouter("A"), topo.MustRouter("B")
	routes := e.RIB(a).Routes(route.MustParsePrefix("128.0.0.0/1"))
	if len(routes) != 2 {
		t.Fatalf("want 2 routes, got %d", len(routes))
	}
	if routes[0].Route.NextHop != int(b) {
		t.Errorf("prepending should make the path via B preferred")
	}
}

// TestConvergenceGuard: the bad gadget oscillates, and the activation
// cap turns that into ErrNoConvergence instead of hanging.
func TestConvergenceGuard(t *testing.T) {
	e := New(mustNet(t, badGadget), Options{PruneK: -1})
	if err := e.Run(); !errors.Is(err, resil.ErrNoConvergence) {
		t.Fatalf("bad gadget: err = %v, want ErrNoConvergence", err)
	}
}

func TestNodeLimitSurfaces(t *testing.T) {
	net := mustNet(t, figure1)
	sp := symbol.NewSpace(net.Topology.NumLinks(), bdd.Config{NodeLimit: 8, DisableGC: true}, 0, nil)
	e := NewWithSpace(net, sp, Options{PruneK: -1})
	err := e.Run()
	if !errors.Is(err, bdd.ErrNodeLimit) {
		t.Fatalf("expected ErrNodeLimit, got %v", err)
	}
}
