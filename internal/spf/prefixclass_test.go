package spf

import (
	"slices"
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
	"sre/internal/workload"
)

// classed runs OSPF with an iBGP full mesh inside AS 100 (R1, R2, R3),
// so the eBGP routes of E and F resolve recursively at the routers that
// learn them over iBGP. E and F each originate several /24s that share
// their FIB rules where they are learnt, R2 aggregates them into a /8
// (a discard rule masked by the more-specifics), and ACLs sit on R1–R2
// and R2–R3.
const classed = `
topology
  router R1
  router R2
  router R3
  router E
  router F
  link R1 R2
  link R2 R3
  link R1 R3
  link R3 E
  link R1 F
end

router R1
  bgp 100
  ospf
  exit
  interface R2
    acl-out deny 10.1.0.0/23
    acl-out permit any
end

router R2
  bgp 100
    aggregate 10.0.0.0/8
  ospf
  exit
  interface R3
    acl-in deny 10.2.1.0/24
    acl-in permit any
end

router R3
  bgp 100
  ospf
  exit
end

router E
  bgp 200
    network 10.1.0.0/24
    network 10.1.1.0/24
    network 10.1.2.0/24
end

router F
  bgp 300
    network 10.2.0.0/24
    network 10.2.1.0/24
    network 10.3.0.0/16
end
`

// perRulePorts builds the port and local-delivery predicates as the
// forwarder did before it matched prefix classes: one And, Diff and two
// Ors per FIB rule over that rule's own prefix, then the same fold of
// outbound ACL, link variable and the peer's inbound ACL.
func perRulePorts(fw *Forwarder) (port [][]bdd.Node, local []bdd.Node) {
	t := fw.Net.Topology
	m := fw.Sp.M
	for ri := 0; ri < t.NumRouters(); ri++ {
		id := topology.RouterID(ri)
		fwd := make([]bdd.Node, len(t.Router(id).Links))
		loc := bdd.False
		rules := fw.FIBOf(id).Rules
		matched := bdd.False
		for i := 0; i < len(rules); {
			j := i
			for j < len(rules) && rules[j].Prefix.Len == rules[i].Prefix.Len {
				j++
			}
			groupMatch := bdd.False
			for _, rule := range rules[i:j] {
				match := m.And(fw.Sp.Prefix(rule.Prefix), rule.TC)
				eff := m.Diff(match, matched)
				groupMatch = m.Or(groupMatch, match)
				switch rule.Egress {
				case Local:
					loc = m.Or(loc, eff)
				case Discard:
				default:
					p := portIndex(t, id, rule.Egress)
					fwd[p] = m.Or(fwd[p], eff)
				}
			}
			matched = m.Or(matched, groupMatch)
			i = j
		}
		port = append(port, fwd)
		local = append(local, loc)
	}
	for ri, ports := range port {
		id := topology.RouterID(ri)
		for i, lid := range t.Router(id).Links {
			peer := t.Link(lid).Other(id)
			p := m.And(ports[i], fw.aclOut[ri][i])
			p = m.And(p, fw.Sp.LinkVar(lid))
			ports[i] = m.And(p, fw.aclIn[peer][portIndex(t, peer, lid)])
		}
	}
	return port, local
}

// TestPortPredicatesMatchPerRuleReference requires the port and
// local-delivery predicates built once per prefix class to be the very
// nodes the per-rule loop builds. Campus(40) and the classed network
// must actually share classes, and the classed network must install
// what it is there to cover: a discard rule under more-specifics,
// iBGP routes resolved through the IGP, and ACLs. In the policied
// network C's aggregate discards 10.0.0.0/8 under the very condition
// on which C forwards 30.0.0.0/8 to D, so a class key blind to the
// egress would drop 30.0.0.0/8 there.
func TestPortPredicatesMatchPerRuleReference(t *testing.T) {
	for _, c := range []struct {
		name   string
		net    func(*testing.T) *config.Network
		opts   src.Options
		shared bool // some length group must hold a class of several prefixes
	}{
		{"campus40", func(*testing.T) *config.Network {
			return workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1})
		}, src.Options{PruneK: 2}, true},
		{"fattree4-bgp", func(*testing.T) *config.Network {
			return workload.FatTree(4, workload.BGP)
		}, src.Options{PruneK: 2}, false},
		{"policied", parsed(policied), src.Options{PruneK: -1}, false},
		{"classed", parsed(classed), src.Options{PruneK: -1, IBGPFullMesh: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := src.New(c.net(t), c.opts)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			fw, err := NewForwarder(eng)
			if err != nil {
				t.Fatal(err)
			}
			defer fw.Release()
			switch c.name {
			case "policied":
				requirePolicied(t, eng, fw)
			case "classed":
				requireClassed(t, eng, fw)
			}
			shared := 0
			topo := eng.Net.Topology
			for r := 0; r < topo.NumRouters(); r++ {
				rules := fw.FIBOf(topology.RouterID(r)).Rules
				for i := 0; i < len(rules); {
					j := i
					for j < len(rules) && rules[j].Prefix.Len == rules[i].Prefix.Len {
						j++
					}
					for _, cl := range prefixClasses(rules[i:j]) {
						if len(cl.prefixes) > 1 {
							shared++
						}
					}
					i = j
				}
			}
			if c.shared && shared == 0 {
				t.Fatal("no length group holds a class of several prefixes")
			}
			port, local := perRulePorts(fw)
			for r := range port {
				if fw.local[r] != local[r] {
					t.Errorf("router %d: local predicate %d, per-rule reference %d", r, fw.local[r], local[r])
				}
				if !slices.Equal(fw.port[r], port[r]) {
					t.Errorf("router %d: port predicates %v, per-rule reference %v", r, fw.port[r], port[r])
				}
			}
			t.Logf("%d shared classes", shared)
		})
	}
}

func parsed(text string) func(*testing.T) *config.Network {
	return func(t *testing.T) *config.Network {
		net, err := config.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
}

// requireClassed checks that the classed network installs a discard
// rule for R2's aggregate, an iBGP route at R2 without an egress link
// (so its FIB rules come from recursive resolution), and ACLs.
func requireClassed(t *testing.T, eng *src.Engine, fw *Forwarder) {
	t.Helper()
	topo := eng.Net.Topology
	r2 := topo.MustRouter("R2")
	if !slices.ContainsFunc(fw.FIBOf(r2).Rules, func(r FIBRule) bool { return r.Egress == Discard }) {
		t.Error("R2 has no discard rule")
	}
	ibgp := false
	for _, p := range []string{"10.1.0.0/24", "10.2.0.0/24"} {
		for _, sr := range eng.RIB(r2).Routes(route.MustParsePrefix(p)) {
			ibgp = ibgp || (sr.Route.Protocol == route.IBGP && sr.TcRib != bdd.False && sr.Route.EgressLink < 0)
		}
	}
	if !ibgp {
		t.Error("R2 installs no iBGP route that needs recursive resolution")
	}
	acls := 0
	for r := range fw.aclIn {
		for i := range fw.aclIn[r] {
			if fw.aclIn[r][i] != bdd.True || fw.aclOut[r][i] != bdd.True {
				acls++
			}
		}
	}
	if acls < 2 {
		t.Errorf("%d ports with an ACL, want at least 2", acls)
	}
}
