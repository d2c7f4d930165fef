package symmetry

import (
	"fmt"
	"strings"
	"testing"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/topology"
	"sre/internal/workload"
)

// checkOrbits fails unless every carry Find returned is a symmetry
// Check accepts, a graph automorphism, and maps the orbit's first
// member to the member it was returned for.
func checkOrbits(t testing.TB, net *config.Network, o *Orbits) {
	t.Helper()
	tp := net.Topology
	for _, orbit := range o.All() {
		for _, p := range orbit {
			pi := o.Carry(orbit[0], p)
			if err := Check(net, pi); err != nil {
				t.Fatalf("carry %s → %s: %v", orbit[0], p, err)
			}
			for _, l := range tp.Links() {
				if _, ok := tp.LinkBetween(pi[l.A], pi[l.B]); !ok {
					t.Fatalf("carry %s → %s maps link %s %s onto no link", orbit[0], p, tp.Name(l.A), tp.Name(l.B))
				}
			}
			sigma, _, err := induced(net, pi)
			if err != nil {
				t.Fatal(err)
			}
			if img, moved := sigma[orbit[0]]; p != orbit[0] && (!moved || img != p) {
				t.Fatalf("carry %s → %s maps %s to %s", orbit[0], p, orbit[0], img)
			}
		}
	}
}

// TestFatTreesAreOneOrbit: a fat-tree automorphism maps any edge router
// to any other, so every prefix lies in one orbit, under BGP (AS
// numbers permute with their routers) and OSPF alike.
func TestFatTreesAreOneOrbit(t *testing.T) {
	for _, arity := range []int{2, 4, 6, 8} {
		for _, proto := range []workload.Protocol{workload.BGP, workload.OSPF} {
			net := workload.FatTree(arity, proto)
			o := Find(net)
			if o.Len() != 1 || len(o.All()[0]) != arity*arity/2 {
				t.Fatalf("FatTree(%d) protocol %d: orbits %v, want one of all %d prefixes", arity, proto, o.All(), arity*arity/2)
			}
			checkOrbits(t, net, o)
			orbit := o.All()[0]
			last := orbit[len(orbit)-1]
			if err := Check(net, o.Carry(last, orbit[0])); err != nil {
				t.Fatalf("carry %s → %s: %v", last, orbit[0], err)
			}
		}
	}
}

// TestOrbitsRefinementAloneRulesOutCampusAndWAN pins that the finder formats
// no candidate, and searches for none, where colour refinement already
// tells every prefix apart: the benchmark's Campus(200) and its
// 33-router OSPF WAN.
func TestOrbitsRefinementAloneRulesOutCampusAndWAN(t *testing.T) {
	for name, net := range map[string]*config.Network{
		"campus200": workload.Campus(workload.CampusOptions{VLANs: 200, Snapshot: 1}),
		"wan33":     workload.SyntheticWAN("wan", 33, 48, workload.OSPF, 1),
		"bics-bgp":  workload.WAN(workload.Bics, workload.BGP),
	} {
		o := Find(net)
		if o.Len() != 0 || o.Candidates != 0 || o.Searches != 0 {
			t.Errorf("%s: %d orbits, %d candidates formatted, %d searches; want none",
				name, o.Len(), o.Candidates, o.Searches)
		}
	}
}

// TestOrbitCheckRejectsWhatTellsPrefixesApart takes a symmetry of FatTree(4)
// that swaps pods 0 and 1 and adds configuration it must respect.
func TestOrbitCheckRejectsWhatTellsPrefixesApart(t *testing.T) {
	base := workload.FatTree(4, workload.BGP)
	o := Find(base)
	p0, p2 := route.MustParsePrefix("10.0.0.0/24"), route.MustParsePrefix("10.0.2.0/24")
	pi := o.Carry(p0, p2)
	if pi == nil {
		t.Fatal("no symmetry carries 10.0.0.0/24 to 10.0.2.0/24")
	}
	if err := Check(base, pi); err != nil {
		t.Fatal(err)
	}
	withACL := func(entry string) *config.Network {
		net := workload.FatTree(4, workload.BGP)
		for _, name := range []string{"core0", "core1", "core2", "core3"} {
			id := net.Topology.MustRouter(name)
			for _, l := range net.Topology.Router(id).Links {
				net.Router(id).Interface(l).ACLIn = &config.ACL{Entries: []config.ACLEntry{
					{Action: config.Deny, Prefix: route.MustParsePrefix(entry)}, {Action: config.Permit, Any: true}}}
			}
		}
		return net
	}
	for _, c := range []struct {
		name   string
		net    *config.Network
		reject string // "" accepts
	}{
		{"acl-covering-all", withACL("10.0.0.0/16"), ""},
		{"acl-naming-a-moved-prefix", withACL("10.0.0.0/24"), "ACL entry 10.0.0.0/24"},
		{"acl-covering-some", withACL("10.0.0.0/23"), "ACL entry 10.0.0.0/23"},
		{"acl-inside-a-moved-prefix", withACL("10.0.2.128/25"), "ACL entry 10.0.2.128/25"},
		{"static-covering-all", func() *config.Network {
			net := workload.FatTree(4, workload.BGP)
			net.RouterByName("core0").Static = []config.StaticRoute{{Prefix: route.MustParsePrefix("0.0.0.0/0"), NextHop: "agg0-0"}}
			return net
		}(), "static route 0.0.0.0/0"},
		{"community", func() *config.Network {
			net := workload.FatTree(4, workload.BGP)
			for _, rc := range net.Routers {
				rc.RouteMaps["TAG"] = &config.RouteMap{Clauses: []*config.Clause{{Seq: 10, Action: config.Permit, AddCommunity: 64512<<16 | 1}}}
			}
			return net
		}(), ""},
		{"one-cost", func() *config.Network {
			net := workload.FatTree(4, workload.BGP)
			l, _ := net.Topology.LinkBetween(net.Topology.MustRouter("agg0-0"), net.Topology.MustRouter("edge0-0"))
			net.RouterByName("edge0-0").Interface(l).OSPFCost = 3
			return net
		}(), "formats differently"},
	} {
		err := Check(c.net, pi)
		switch {
		case c.reject == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)):
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.reject)
		}
		checkOrbits(t, c.net, Find(c.net))
	}
	// Communities pin every AS number, and each fat-tree router has its
	// own: no symmetry is left to find.
	net := workload.FatTree(4, workload.BGP)
	net.RouterByName("edge0-0").RouteMaps["AS"] = &config.RouteMap{Clauses: []*config.Clause{{Seq: 10, Action: config.Permit, MatchCommunity: 64516<<16 | 100}}}
	if o := Find(net); o.Len() != 0 {
		t.Errorf("a community match left orbits %v", o.All())
	}
}

// TestRenamingAppliesEverywhere renames a policied network and checks
// the formatted result name by name.
func TestRenamingAppliesEverywhere(t *testing.T) {
	net, err := config.ParseString(`
topology
  router A
  router B
  router C
  link A B
  link B C
end
router A
  bgp 65001
    network 10.0.0.0/24
    neighbor B export-map OUT
  route-map OUT
    10 permit any set prepend 1
  interface B
    cost 3
    acl-out deny 10.9.0.0/16
    acl-out permit any
end
router B
  bgp 65002
  static 10.8.0.0/16 via C
end
router C
  bgp 65003
    network 10.0.1.0/24
end
`)
	if err != nil {
		t.Fatal(err)
	}
	rn := Renaming{Routers: Perm{2, 0, 1}, Names: []string{"x", "y", "z"}, Links: []topology.LinkID{1, 0},
		ASNs:     map[uint32]uint32{65001: 7, 65002: 8},
		Prefixes: map[route.Prefix]route.Prefix{route.MustParsePrefix("10.0.0.0/24"): route.MustParsePrefix("10.5.0.0/24")}}
	got := config.Format(rn.Apply(net))
	want := `topology
  router x
  router y
  router z
  link x y
  link z x
end

router x
  bgp 8
  exit
  static 10.8.0.0/16 via y
end

router y
  bgp 65003
    network 10.0.1.0/24
  exit
end

router z
  bgp 7
    network 10.5.0.0/24
    neighbor x export-map OUT
  exit
  interface x
    cost 3
    acl-out deny 10.9.0.0/16
    acl-out permit any
  exit
  route-map OUT
    10 permit any set prepend 1
  exit
end
`
	if got != want {
		t.Errorf("renamed network:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkFindOrbits measures the finder on the largest fat tree the
// benchmark table reports and on the two networks without symmetry:
// ns/op, candidates formatted per op and searches per op.
func BenchmarkFindOrbits(b *testing.B) {
	for _, c := range []struct {
		name string
		net  *config.Network
	}{
		{"fattree14", workload.FatTree(14, workload.BGP)},
		{"campus200", workload.Campus(workload.CampusOptions{VLANs: 200, Snapshot: 1})},
		{"wan33", workload.SyntheticWAN("wan", 33, 48, workload.OSPF, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var o *Orbits
			for b.Loop() {
				o = Find(c.net)
			}
			b.ReportMetric(float64(o.Candidates), "candidates/op")
			b.ReportMetric(float64(o.Searches), "searches/op")
			b.ReportMetric(float64(o.Len()), "orbits")
		})
	}
}

// fuzzNetwork builds a small network from fuzz bytes: up to 8 routers,
// up to 12 links, BGP (per-router or shared AS numbers), OSPF or both,
// one or two originated /24s per router, and now and then an OSPF
// cost, an ACL, a static route or a community route map.
func fuzzNetwork(data []byte) *config.Network {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	n := 2 + next()%7
	topo := topology.NewTopology()
	for r := range n {
		topo.AddRouter(fmt.Sprintf("r%d", r))
	}
	for range next() % 13 {
		a, b := topology.RouterID(next()%n), topology.RouterID(next()%n)
		if _, dup := topo.LinkBetween(a, b); a != b && !dup {
			topo.AddLink(a, b)
		}
	}
	net := config.NewNetwork(topo)
	proto := next() % 3
	shared := next()%2 == 0
	for r, rc := range net.Routers {
		var prefixes []route.Prefix
		for k := range next() % 3 {
			prefixes = append(prefixes, route.Prefix{Addr: 10<<24 | uint32(k)<<16 | uint32(r)<<8, Len: 24})
		}
		if proto != 1 {
			asn := uint32(64512 + r)
			if shared {
				asn = 65000
			}
			rc.BGP = &config.BGP{ASN: asn, Networks: prefixes,
				ImportPolicy: map[string]string{}, ExportPolicy: map[string]string{}}
		}
		if proto != 0 {
			rc.OSPF = &config.OSPF{}
			if proto == 1 {
				rc.OSPF.Networks = prefixes
			}
		}
		links := topo.Router(topology.RouterID(r)).Links
		if len(links) == 0 {
			continue
		}
		l := links[next()%len(links)]
		switch next() % 8 {
		case 0:
			rc.Interface(l).OSPFCost = 1 + next()%3
		case 1:
			rc.Interface(l).ACLIn = &config.ACL{Entries: []config.ACLEntry{
				{Action: config.Deny, Prefix: route.Prefix{Addr: 10<<24 | uint32(next()%n)<<8, Len: 23 + next()%2}},
				{Action: config.Permit, Any: true}}}
		case 2:
			rc.Static = append(rc.Static, config.StaticRoute{Prefix: route.Prefix{Addr: 10<<24 | 2<<16, Len: 16},
				NextHop: topo.Name(topo.Link(l).Other(topology.RouterID(r)))})
		case 3:
			rc.RouteMaps["TAG"] = &config.RouteMap{Clauses: []*config.Clause{
				{Seq: 10, Action: config.Permit, AddCommunity: uint64(next())}}}
		}
	}
	return net
}

// FuzzFindOrbits: on small random networks the finder never panics,
// and every symmetry it returns re-formats the network byte for byte, is
// a graph automorphism and carries its orbit's first member where it
// says.
func FuzzFindOrbits(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 0, 1, 1})
	f.Add([]byte{4, 8, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 1, 3, 0, 1, 1, 1, 1, 7, 7, 7, 7})
	f.Add([]byte{6, 12, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 2, 6, 1, 5, 1, 0, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		net := fuzzNetwork(data)
		checkOrbits(t, net, Find(net))
	})
}
