package src

import (
	"testing"

	"sre/internal/bdd"
	"sre/internal/route"
	"sre/internal/topology"
)

// ibgpLine: external AS 200 router E attaches to border router R3 of
// AS 100; AS 100 runs OSPF internally on the line R1–R2–R3 and a full
// iBGP mesh. R1 learns E's prefix over the virtual session to R3, whose
// condition is the OSPF reachability R1→R3.
const ibgpLine = `
topology
  router R1
  router R2
  router R3
  router E
  link R1 R2
  link R2 R3
  link R3 E
end
router R1
  bgp 100
  ospf
  exit
end
router R2
  bgp 100
  ospf
  exit
end
router R3
  bgp 100
  ospf
  exit
end
router E
  bgp 200
    network 100.0.0.0/8
end
`

// ibgpDiamond adds a second internal path R1–R4–R3.
const ibgpDiamond = `
topology
  router R1
  router R2
  router R3
  router R4
  router E
  link R1 R2
  link R2 R3
  link R1 R4
  link R4 R3
  link R3 E
end
router R1
  bgp 100
  ospf
  exit
end
router R2
  bgp 100
  ospf
  exit
end
router R3
  bgp 100
  ospf
  exit
end
router R4
  bgp 100
  ospf
  exit
end
router E
  bgp 200
    network 100.0.0.0/8
end
`

func TestIBGPMeshLine(t *testing.T) {
	net := mustNet(t, ibgpLine)
	e := runEngine(t, net, Options{PruneK: -1, IBGPFullMesh: true})
	m := e.Sp.M
	topo := net.Topology
	r1 := topo.MustRouter("R1")
	r3 := topo.MustRouter("R3")
	pfx := route.MustParsePrefix("100.0.0.0/8")

	routes := e.RIB(r1).LiveRoutes(pfx)
	if len(routes) != 1 {
		t.Fatalf("R1 should have one iBGP route, got %d", len(routes))
	}
	sr := routes[0]
	if sr.Route.Protocol != route.IBGP {
		t.Fatalf("protocol = %v, want ibgp", sr.Route.Protocol)
	}
	if sr.Route.NextHop != int(r3) {
		t.Fatalf("next hop = %d, want R3 (the border router)", sr.Route.NextHop)
	}
	// Condition: session up (lR1R2 ∧ lR2R3) and R3 has the route (lR3E).
	l12, _ := topo.LinkBetween(r1, topo.MustRouter("R2"))
	l23, _ := topo.LinkBetween(topo.MustRouter("R2"), r3)
	l3e, _ := topo.LinkBetween(r3, topo.MustRouter("E"))
	want := m.AndN(e.Sp.LinkVar(l12), e.Sp.LinkVar(l23), e.Sp.LinkVar(l3e))
	if sr.TcRib != want {
		t.Errorf("tc = node %d, want l12&l23&l3e", sr.TcRib)
	}
	// Local-pref is preserved over iBGP (default 100 here) and the AS
	// path is NOT prepended with the local AS.
	if sr.Route.ContainsAS(100) {
		t.Error("iBGP must not prepend the local AS")
	}
}

func TestIBGPMeshDiamondTolerance(t *testing.T) {
	net := mustNet(t, ibgpDiamond)
	e := runEngine(t, net, Options{PruneK: -1, IBGPFullMesh: true})
	m := e.Sp.M
	topo := net.Topology
	r1 := topo.MustRouter("R1")
	pfx := route.MustParsePrefix("100.0.0.0/8")
	routes := e.RIB(r1).LiveRoutes(pfx)
	if len(routes) == 0 {
		t.Fatal("R1 lacks the external route")
	}
	// The union of installed conditions must survive any single
	// internal link failure as long as R3–E is up: the session rides
	// on both internal paths.
	cond := bdd.False
	for _, sr := range routes {
		cond = m.Or(cond, sr.TcRib)
	}
	l3e, _ := topo.LinkBetween(topo.MustRouter("R3"), topo.MustRouter("E"))
	for l := 0; l < topo.NumLinks(); l++ {
		lid := topology.LinkID(l)
		if lid == l3e {
			continue
		}
		holds := m.Eval(cond, func(v int) bool {
			return v != e.Sp.LinkVarIndex(lid)
		})
		if !holds {
			t.Errorf("route should survive failure of internal link %d", l)
		}
	}
	// But it cannot survive the external link.
	if m.Eval(cond, func(v int) bool { return v != e.Sp.LinkVarIndex(l3e) }) {
		t.Error("route must die with the external link")
	}
}

func TestIBGPWithoutMeshHasNoRemoteRoute(t *testing.T) {
	net := mustNet(t, ibgpLine)
	e := runEngine(t, net, Options{PruneK: -1}) // mesh disabled
	r1 := net.Topology.MustRouter("R1")
	pfx := route.MustParsePrefix("100.0.0.0/8")
	// Without the mesh, R3's iBGP advertisement reaches only its
	// physical neighbor R2 and is not reflected to R1.
	if got := len(e.RIB(r1).LiveRoutes(pfx)); got != 0 {
		t.Errorf("R1 has %d routes without a mesh; expected none (no route reflection)", got)
	}
}

func TestIBGPLoopbacksStayInternal(t *testing.T) {
	net := mustNet(t, ibgpLine)
	e := runEngine(t, net, Options{PruneK: -1, IBGPFullMesh: true})
	// Loopbacks are engine-internal: they must not appear in the
	// network's originated prefixes (analyses never iterate them).
	for _, p := range net.AllPrefixes() {
		if p.Addr>>20 == (172<<4 | 1) {
			t.Errorf("loopback %s leaked into AllPrefixes", p)
		}
	}
	// But they exist in RIBs for resolution.
	r1 := net.Topology.MustRouter("R1")
	r3 := net.Topology.MustRouter("R3")
	if len(e.RIB(r1).LiveRoutes(LoopbackPrefix(r3))) == 0 {
		t.Error("R1 lacks an OSPF route to R3's loopback")
	}
}
