package spf

import (
	"slices"
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
)

// policied puts inbound and outbound ACLs at both ends of the link A–B,
// a static route at A and a BGP aggregate (a discard rule) at C.
const policied = `
topology
  router A
  router B
  router C
  router D
  link A B
  link B C
  link A C
  link C D
end

router A
  bgp 65001
  static 20.0.0.0/8 via B
  interface B
    acl-out deny 10.0.0.0/9
    acl-out permit any
    acl-in deny 10.128.0.0/9
    acl-in permit any
end

router B
  bgp 65002
    network 20.0.0.0/8
  interface A
    acl-in deny 20.0.0.0/9
    acl-in permit any
    acl-out deny 30.0.0.0/8
    acl-out permit any
end

router C
  bgp 65003
    aggregate 10.0.0.0/8
end

router D
  bgp 65004
    network 10.0.0.0/9
    network 10.128.0.0/9
    network 30.0.0.0/8
end
`

// perHopReference walks the network as the forwarder did before it
// fused each port's predicates: forwarding predicates re-derived from
// the FIBs, and per hop one And each with the forwarding predicate, the
// outbound ACL, the link variable and the peer's inbound ACL.
type perHopReference struct {
	fw            *Forwarder
	fwd           [][]bdd.Node
	local         []bdd.Node
	aclIn, aclOut [][]bdd.Node
}

func newPerHopReference(fw *Forwarder) *perHopReference {
	t := fw.Net.Topology
	m := fw.Sp.M
	ref := &perHopReference{fw: fw}
	for ri := 0; ri < t.NumRouters(); ri++ {
		id := topology.RouterID(ri)
		links := t.Router(id).Links
		fwd := make([]bdd.Node, len(links))
		for i := range fwd {
			fwd[i] = bdd.False
		}
		local := bdd.False
		rules := fw.FIBOf(id).Rules
		matched := bdd.False
		for i := 0; i < len(rules); {
			j := i
			for j < len(rules) && rules[j].Prefix.Len == rules[i].Prefix.Len {
				j++
			}
			notMatched := m.Not(matched)
			groupMatch := bdd.False
			for _, rule := range rules[i:j] {
				match := m.And(fw.Sp.Prefix(rule.Prefix), rule.TC)
				eff := m.And(match, notMatched)
				groupMatch = m.Or(groupMatch, match)
				switch rule.Egress {
				case Local:
					local = m.Or(local, eff)
				case Discard:
				default:
					p := portIndex(t, id, rule.Egress)
					fwd[p] = m.Or(fwd[p], eff)
				}
			}
			matched = m.Or(matched, groupMatch)
			i = j
		}
		in := make([]bdd.Node, len(links))
		out := make([]bdd.Node, len(links))
		for i, lid := range links {
			var aclIn, aclOut *config.ACL
			if itf := fw.Net.Router(id).Interfaces[lid]; itf != nil {
				aclIn, aclOut = itf.ACLIn, itf.ACLOut
			}
			in[i] = m.Ref(fw.aclPredicate(aclIn))
			out[i] = m.Ref(fw.aclPredicate(aclOut))
			m.Ref(fwd[i])
		}
		ref.fwd = append(ref.fwd, fwd)
		ref.local = append(ref.local, m.Ref(local))
		ref.aclIn = append(ref.aclIn, in)
		ref.aclOut = append(ref.aclOut, out)
	}
	return ref
}

func (ref *perHopReference) forward(srcRouter topology.RouterID, initial bdd.Node) []*PFEC {
	t := ref.fw.Net.Topology
	m := ref.fw.Sp.M
	var out []*PFEC
	var path []topology.RouterID
	emit := func(pred bdd.Node, delivered, looped bool) {
		out = append(out, &PFEC{Path: slices.Clone(path), Pred: m.Ref(pred), Delivered: delivered, Looped: looped})
	}
	var visit func(r topology.RouterID, pkt bdd.Node)
	visit = func(r topology.RouterID, pkt bdd.Node) {
		if slices.Contains(path, r) {
			emit(pkt, false, true)
			return
		}
		path = append(path, r)
		defer func() { path = path[:len(path)-1] }()
		if delivered := m.And(pkt, ref.local[r]); delivered != bdd.False {
			emit(delivered, true, false)
		}
		for i, lid := range t.Router(r).Links {
			nbr := t.Link(lid).Other(r)
			outPkt := m.And(pkt, ref.fwd[r][i])
			outPkt = m.And(outPkt, ref.aclOut[r][i])
			outPkt = m.And(outPkt, ref.fw.Sp.LinkVar(lid))
			outPkt = m.And(outPkt, ref.aclIn[nbr][portIndex(t, nbr, lid)])
			if outPkt != bdd.False {
				visit(nbr, outPkt)
			}
		}
	}
	visit(srcRouter, initial)
	return out
}

// TestForwardMatchesPerHopReference requires the forwarder's one And per
// port to find exactly the PFECs of the per-hop walk: the same paths
// and flags in the same order, and the same predicate nodes.
func TestForwardMatchesPerHopReference(t *testing.T) {
	for _, c := range []struct {
		name, text string
		headers    []string
		covers     func(*testing.T, *src.Engine, *Forwarder) // what the network must install
	}{
		{"figure1", figure1, []string{"192.0.0.0/2", "128.0.0.0/1"}, nil},
		{"policied", policied, []string{"10.0.0.0/8", "10.128.0.0/9", "20.0.0.0/8", "30.0.0.0/8"}, requirePolicied},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, fw := build(t, c.text, src.Options{PruneK: -1})
			defer fw.Release()
			if c.covers != nil {
				c.covers(t, eng, fw)
			}
			ref := newPerHopReference(fw)
			compare := func(what string, r topology.RouterID, initial bdd.Node, got []*PFEC, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				want := ref.forward(r, initial)
				defer ReleasePFECs(eng.Sp, want)
				defer ReleasePFECs(eng.Sp, got)
				if len(got) != len(want) {
					t.Fatalf("%s from %d: %d PFECs, per-hop reference %d", what, r, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if !slices.Equal(g.Path, w.Path) || g.Delivered != w.Delivered || g.Looped != w.Looped || g.Pred != w.Pred {
						t.Errorf("%s from %d, PFEC %d: got %v pred %d, per-hop reference %v pred %d",
							what, r, i, g, g.Pred, w, w.Pred)
					}
				}
			}
			delivered := 0
			for r := 0; r < eng.Net.Topology.NumRouters(); r++ {
				id := topology.RouterID(r)
				pfecs, err := fw.Forward(id)
				for _, p := range pfecs {
					if p.Delivered {
						delivered++
					}
				}
				compare("Forward", id, bdd.True, pfecs, err)
				for _, h := range c.headers {
					hdr := eng.Sp.Prefix(route.MustParsePrefix(h))
					pfecs, err := fw.ForwardHeaders(id, hdr)
					compare("ForwardHeaders "+h, id, hdr, pfecs, err)
				}
			}
			if delivered == 0 {
				t.Fatal("no PFEC was delivered")
			}
		})
	}
}

// requirePolicied checks that the policied network installs what it is
// there to cover: A's static route, C's discard rule for the aggregate,
// and ACLs that deny something in both directions at both ends of A–B.
func requirePolicied(t *testing.T, eng *src.Engine, fw *Forwarder) {
	t.Helper()
	topo := eng.Net.Topology
	a, b, c := topo.MustRouter("A"), topo.MustRouter("B"), topo.MustRouter("C")
	static := false
	for _, sr := range eng.RIB(a).Routes(route.MustParsePrefix("20.0.0.0/8")) {
		static = static || (sr.Route.Protocol == route.Static && sr.TcRib != bdd.False)
	}
	if !static {
		t.Error("A has no installed static route")
	}
	if !slices.ContainsFunc(fw.FIBOf(c).Rules, func(r FIBRule) bool { return r.Egress == Discard }) {
		t.Error("C has no discard rule")
	}
	ab, _ := topo.LinkBetween(a, b)
	for _, r := range []topology.RouterID{a, b} {
		i := portIndex(topo, r, ab)
		if fw.aclIn[r][i] == bdd.True || fw.aclOut[r][i] == bdd.True {
			t.Errorf("router %d lacks an inbound or outbound ACL on A–B", r)
		}
	}
}
