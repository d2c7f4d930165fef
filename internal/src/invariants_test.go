package src

import (
	"fmt"
	"math/rand"
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/topology"
)

// Structural invariants of symbolic RIBs, checked over randomized
// networks. These encode the semantics of equation (1):
//
//  1. tcRib ⊆ tcIn — a route can only be installed where it is imported;
//  2. within one prefix, the installed conditions of routes in
//     DIFFERENT priority tiers are pairwise disjoint (at most one tier
//     materializes per scenario);
//  3. with NoECMP, ALL installed conditions of a prefix are pairwise
//     disjoint (exactly one best route per scenario);
//  4. the union of installed conditions equals the union of imported
//     conditions (whenever any route is available, one is installed).
func checkRIBInvariants(t *testing.T, e *Engine) {
	t.Helper()
	m := e.Sp.M
	topo := e.Net.Topology
	for r := 0; r < topo.NumRouters(); r++ {
		rib := e.RIB(topology.RouterID(r))
		for _, p := range rib.Prefixes() {
			routes := rib.Routes(p)
			unionIn, unionRib := bdd.False, bdd.False
			for _, sr := range routes {
				if m.Diff(sr.TcRib, sr.TcIn) != bdd.False {
					t.Errorf("router %d prefix %s: tcRib ⊄ tcIn for %v", r, p, sr.Route)
				}
				unionIn = m.Or(unionIn, sr.TcIn)
				unionRib = m.Or(unionRib, sr.TcRib)
			}
			if unionIn != unionRib {
				t.Errorf("router %d prefix %s: some scenario imports a route but installs none", r, p)
			}
			for i := 0; i < len(routes); i++ {
				for j := i + 1; j < len(routes); j++ {
					differentTier := route.Compare(routes[i].Route, routes[j].Route) != 0 || e.Opts.NoECMP
					if differentTier && m.And(routes[i].TcRib, routes[j].TcRib) != bdd.False {
						t.Errorf("router %d prefix %s: overlapping installed conditions across tiers (%v, %v)",
							r, p, routes[i].Route, routes[j].Route)
					}
				}
			}
		}
	}
}

// randomInvariantNet builds a random connected network with mixed
// features for invariant fuzzing.
func randomInvariantNet(r *rand.Rand, useBGP bool) *config.Network {
	n := 4 + r.Intn(4)
	topo := topology.NewTopology()
	for i := 0; i < n; i++ {
		topo.AddRouter(fmt.Sprintf("r%d", i))
	}
	for i := 1; i < n; i++ {
		topo.AddLink(topology.RouterID(i), topology.RouterID(r.Intn(i)))
	}
	for e := 0; e < n; e++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			if _, dup := topo.LinkBetween(topology.RouterID(a), topology.RouterID(b)); !dup {
				topo.AddLink(topology.RouterID(a), topology.RouterID(b))
			}
		}
	}
	net := config.NewNetwork(topo)
	for i := 0; i < n; i++ {
		rc := net.Router(topology.RouterID(i))
		if useBGP {
			rc.BGP = &config.BGP{ASN: uint32(65000 + i),
				ImportPolicy: map[string]string{}, ExportPolicy: map[string]string{}}
			if r.Intn(3) == 0 {
				rc.BGP.Networks = []route.Prefix{{Addr: uint32(10+i) << 24, Len: 8}}
			}
			// A local-pref boost at a single router cannot form a
			// dispute wheel; random boosts at several routers can
			// (BGP's "bad gadget"), on which BGP genuinely diverges —
			// see TestBadGadgetDiverges.
			if i == 0 {
				rc.RouteMaps["LP"] = &config.RouteMap{Clauses: []*config.Clause{
					{Seq: 10, Action: config.Permit, SetLocalPref: 150 + r.Intn(100)},
				}}
				nbrs := topo.Neighbors(topology.RouterID(i))
				rc.BGP.ImportPolicy[topo.Name(nbrs[r.Intn(len(nbrs))])] = "LP"
			}
		} else {
			rc.OSPF = &config.OSPF{}
			if r.Intn(3) == 0 {
				rc.OSPF.Networks = []route.Prefix{{Addr: uint32(10+i) << 24, Len: 8}}
			}
			for _, lid := range topo.Router(topology.RouterID(i)).Links {
				rc.Interface(lid).OSPFCost = 1 + r.Intn(4)
			}
		}
	}
	// Guarantee at least one prefix exists.
	rc := net.Router(0)
	if useBGP && len(rc.BGP.Networks) == 0 {
		rc.BGP.Networks = []route.Prefix{{Addr: 10 << 24, Len: 8}}
	}
	if !useBGP && len(rc.OSPF.Networks) == 0 {
		rc.OSPF.Networks = []route.Prefix{{Addr: 10 << 24, Len: 8}}
	}
	return net
}

func TestRIBInvariantsRandomBGP(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := randomInvariantNet(r, true)
		for _, opts := range []Options{{PruneK: -1}, {PruneK: 2}, {PruneK: -1, NoECMP: true}} {
			e := New(net, opts)
			if err := e.Run(); err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			checkRIBInvariants(t, e)
		}
	}
}

func TestRIBInvariantsRandomOSPF(t *testing.T) {
	for seed := int64(50); seed < 65; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := randomInvariantNet(r, false)
		for _, opts := range []Options{{PruneK: -1}, {PruneK: 1}, {PruneK: -1, NoECMP: true}} {
			e := New(net, opts)
			if err := e.Run(); err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			checkRIBInvariants(t, e)
		}
	}
}

// badGadget is Griffin's "bad gadget": three ASes around an origin,
// each preferring the route through its clockwise neighbor. It has no
// stable BGP solution.
const badGadget = `
topology
  router O
  router A
  router B
  router C
  link O A
  link O B
  link O C
  link A B
  link B C
  link C A
end
router O
  bgp 65000
    network 10.0.0.0/8
end
router A
  bgp 65001
    neighbor B import-map PREF
  route-map PREF
    10 permit any set local-pref 200
end
router B
  bgp 65002
    neighbor C import-map PREF
  route-map PREF
    10 permit any set local-pref 200
end
router C
  bgp 65003
    neighbor A import-map PREF
  route-map PREF
    10 permit any set local-pref 200
end
`

// TestPruneSoundness: pruned computation must agree with the unpruned
// one on every scenario within the budget: tcRib_pruned = tcRib_full ∧ lf^k
// as a union per prefix (individual routes may split differently).
func TestPruneSoundness(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := randomInvariantNet(r, true)
		full := New(net, Options{PruneK: -1})
		if err := full.Run(); err != nil {
			t.Fatal(err)
		}
		const k = 1
		pruned := New(net, Options{PruneK: k})
		if err := pruned.Run(); err != nil {
			t.Fatal(err)
		}
		mf, mp := full.Sp.M, pruned.Sp.M
		topo := net.Topology
		for rr := 0; rr < topo.NumRouters(); rr++ {
			id := topology.RouterID(rr)
			for _, p := range full.RIB(id).Prefixes() {
				unionFull := bdd.False
				for _, sr := range full.RIB(id).Routes(p) {
					unionFull = mf.Or(unionFull, sr.TcRib)
				}
				unionFull = mf.And(unionFull, full.Sp.AtMostKLinkFailures(k))
				unionPruned := bdd.False
				for _, sr := range pruned.RIB(id).Routes(p) {
					unionPruned = mp.Or(unionPruned, sr.TcRib)
				}
				unionPruned = mp.And(unionPruned, pruned.Sp.AtMostKLinkFailures(k))
				// Spaces have identical layouts: compare by evaluating
				// both on every ≤k-failure scenario.
				links := topo.NumLinks()
				agree := true
				for down := -1; down < links && agree; down++ {
					ev := func(v int) bool {
						return down < 0 || v != full.Sp.LinkVarIndex(topology.LinkID(down))
					}
					if mf.Eval(unionFull, ev) != mp.Eval(unionPruned, ev) {
						agree = false
					}
				}
				if !agree {
					t.Errorf("seed %d router %d prefix %s: pruned disagrees within budget", seed, rr, p)
				}
			}
		}
	}
}
