package spf

import (
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
	"sre/internal/workload"
)

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

func build(t *testing.T, text string, opts src.Options) (*src.Engine, *Forwarder) {
	t.Helper()
	net, err := config.ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	eng := src.New(net, opts)
	if err := eng.Run(); err != nil {
		t.Fatalf("src: %v", err)
	}
	fw, err := NewForwarder(eng)
	if err != nil {
		t.Fatalf("spf: %v", err)
	}
	return eng, fw
}

func TestFigure1PFECs(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	m := eng.Sp.M
	topo := eng.Net.Topology
	a := topo.MustRouter("A")
	b := topo.MustRouter("B")
	c := topo.MustRouter("C")
	ab, _ := topo.LinkBetween(a, b)
	bc, _ := topo.LinkBetween(b, c)
	ac, _ := topo.LinkBetween(a, c)
	lAB, lBC, lAC := eng.Sp.LinkVar(ab), eng.Sp.LinkVar(bc), eng.Sp.LinkVar(ac)

	pfecs, err := fw.Forward(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePFECs(eng.Sp, pfecs)

	p128 := eng.Sp.Prefix(route.MustParsePrefix("128.0.0.0/1"))
	p192 := eng.Sp.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	p128only := m.Diff(p128, p192) // 128/2, the paper's p1·¬p2

	// Expected (Figure 1(b) / Figure 3(c)):
	//   (128/2 ∧ lAC,            A→C)
	//   (128/2 ∧ ¬lAC·lAB·lBC,   A→B→C)
	//   (192/2 ∧ lAB·lBC,        A→B→C)
	// The direct path for 192/2 is blocked by C's inbound ACL.
	wantDirect := m.And(p128only, lAC)
	wantViaB128 := m.AndN(p128only, m.Not(lAC), lAB, lBC)
	wantViaB192 := m.AndN(p192, lAB, lBC)

	var gotDirect, gotViaB bdd.Node = bdd.False, bdd.False
	for _, p := range pfecs {
		if !p.Delivered {
			continue
		}
		if p.Dst() != c {
			t.Errorf("delivery at unexpected router %d", p.Dst())
		}
		switch len(p.Path) {
		case 2:
			gotDirect = m.Or(gotDirect, p.Pred)
		case 3:
			if p.Path[1] != b {
				t.Errorf("3-hop path should go via B")
			}
			gotViaB = m.Or(gotViaB, p.Pred)
		default:
			t.Errorf("unexpected path length %d", len(p.Path))
		}
	}
	if gotDirect != wantDirect {
		t.Errorf("direct PFEC = node %d\nwant node %d", gotDirect, wantDirect)
	}
	if want := m.Or(wantViaB128, wantViaB192); gotViaB != want {
		t.Errorf("via-B PFEC = node %d\nwant node %d", gotViaB, want)
	}
}

func TestFigure1NoLoops(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	for r := 0; r < eng.Net.Topology.NumRouters(); r++ {
		pfecs, err := fw.Forward(topology.RouterID(r))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pfecs {
			if p.Looped {
				t.Errorf("loop detected from router %d: %v", r, p)
			}
		}
		ReleasePFECs(eng.Sp, pfecs)
	}
}

func TestPFECsAreDisjointPerSource(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	m := eng.Sp.M
	a := eng.Net.Topology.MustRouter("A")
	pfecs, err := fw.Forward(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePFECs(eng.Sp, pfecs)
	// Definition 1: PFECs partition the (packet, failure) tuples that
	// are delivered — distinct paths must not share tuples.
	for i := 0; i < len(pfecs); i++ {
		for j := i + 1; j < len(pfecs); j++ {
			if m.And(pfecs[i].Pred, pfecs[j].Pred) != bdd.False {
				t.Errorf("PFECs %v and %v overlap", pfecs[i], pfecs[j])
			}
		}
	}
}

func TestSymbolicFIBOrdering(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	a := eng.Net.Topology.MustRouter("A")
	fib := fw.FIBOf(a)
	if len(fib.Rules) == 0 {
		t.Fatal("empty FIB at A")
	}
	for i := 1; i < len(fib.Rules); i++ {
		if fib.Rules[i].Prefix.Len > fib.Rules[i-1].Prefix.Len {
			t.Fatal("FIB not ordered by descending prefix length")
		}
	}
}

func TestACLPredicate(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	m := eng.Sp.M
	topo := eng.Net.Topology
	c := topo.MustRouter("C")
	a := topo.MustRouter("A")
	ac, _ := topo.LinkBetween(a, c)
	// C's inbound ACL on the port to A must deny exactly 192/2.
	idx := -1
	for i, lid := range topo.Router(c).Links {
		if lid == ac {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("port not found")
	}
	pred := fw.aclIn[c][idx]
	p192 := eng.Sp.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	if m.And(pred, p192) != bdd.False {
		t.Error("ACL permits 192/2")
	}
	if got := m.Or(pred, p192); got != bdd.True {
		t.Errorf("ACL should permit everything else, got node %d", got)
	}
}

func TestForwardHeadersRestricts(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	m := eng.Sp.M
	a := eng.Net.Topology.MustRouter("A")
	p192 := eng.Sp.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	pfecs, err := fw.ForwardHeaders(a, p192)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePFECs(eng.Sp, pfecs)
	for _, p := range pfecs {
		if m.Diff(eng.Sp.HeaderOnly(p.Pred), p192) != bdd.False {
			t.Errorf("PFEC leaked outside requested headers: %v", p)
		}
	}
	if len(pfecs) == 0 {
		t.Fatal("192/2 should be deliverable via B")
	}
}

func TestLinkFailureBlocksForwarding(t *testing.T) {
	// Two routers, one link: delivery requires the link up.
	eng, fw := build(t, `
topology
  router A
  router B
  link A B
end
router A
  ospf
  exit
end
router B
  ospf
    network 10.0.0.0/24
  exit
end
`, src.Options{PruneK: -1})
	m := eng.Sp.M
	topo := eng.Net.Topology
	a, b := topo.MustRouter("A"), topo.MustRouter("B")
	ab, _ := topo.LinkBetween(a, b)
	pfecs, err := fw.Forward(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePFECs(eng.Sp, pfecs)
	if len(pfecs) != 1 || !pfecs[0].Delivered {
		t.Fatalf("want exactly one delivered PFEC, got %v", pfecs)
	}
	want := m.And(eng.Sp.Prefix(route.MustParsePrefix("10.0.0.0/24")), eng.Sp.LinkVar(ab))
	if pfecs[0].Pred != want {
		t.Errorf("PFEC pred = node %d, want prefix∧lAB", pfecs[0].Pred)
	}
}

func TestAllPFECs(t *testing.T) {
	eng, fw := build(t, figure1, src.Options{PruneK: -1})
	pfecs, err := fw.AllPFECs()
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePFECs(eng.Sp, pfecs)
	srcs := make(map[topology.RouterID]bool)
	for _, p := range pfecs {
		srcs[p.Src()] = true
	}
	if len(srcs) != eng.Net.Topology.NumRouters() {
		t.Errorf("PFECs should cover every source, got %d", len(srcs))
	}
}

func TestECMPProducesMultiplePaths(t *testing.T) {
	eng, fw := build(t, `
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
`, src.Options{PruneK: -1})
	m := eng.Sp.M
	a := eng.Net.Topology.MustRouter("A")
	pfecs, err := fw.Forward(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePFECs(eng.Sp, pfecs)
	// Under all links up, both 2-hop ECMP paths must carry the packets.
	allUp := eng.Sp.AllLinksUp()
	paths := 0
	for _, p := range pfecs {
		if p.Delivered && len(p.Path) == 3 && m.And(p.Pred, allUp) != bdd.False {
			paths++
		}
	}
	if paths != 2 {
		t.Errorf("want 2 ECMP paths under all-up, got %d", paths)
	}
}

// BenchmarkForwarderFatTree6 is SPF alone on ROADMAP's standing
// workload, FatTree(6) BGP k=1 in one space.
func BenchmarkForwarderFatTree6(b *testing.B) {
	benchForwarder(b, workload.FatTree(6, workload.BGP), src.Options{PruneK: 1})
}

// BenchmarkForwarderCampus200 is SPF alone on the campus of the
// campus200_queries workload, Campus(200) k=2: 200 VLANs originated by
// nine distribution pairs, so each length group of a FIB holds few
// prefix classes.
func BenchmarkForwarderCampus200(b *testing.B) {
	benchForwarder(b, workload.Campus(workload.CampusOptions{VLANs: 200, Snapshot: 1}), src.Options{PruneK: 2})
}

// benchForwarder times NewForwarder and AllPFECs over the RIBs of an
// SRC run made outside the timer, a fresh one per iteration so every
// iteration starts from the same operation cache.
func benchForwarder(b *testing.B, net *config.Network, opts src.Options) {
	b.ReportAllocs()
	pfecs, lookups := 0, uint64(0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := src.New(net, opts)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		before := eng.Sp.M.Statistics()
		b.StartTimer()
		fw, err := NewForwarder(eng)
		if err != nil {
			b.Fatal(err)
		}
		all, err := fw.AllPFECs()
		if err != nil {
			b.Fatal(err)
		}
		after := eng.Sp.M.Statistics()
		pfecs += len(all)
		lookups += after.CacheHits + after.CacheMiss - before.CacheHits - before.CacheMiss
	}
	b.ReportMetric(float64(pfecs)/float64(b.N), "pfecs/op")
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
}
