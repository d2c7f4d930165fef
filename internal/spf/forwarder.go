// Package spf implements Symbolic Packet Forwarding (§5 of the paper):
// converting symbolic RIBs into symbolic FIBs whose rules match on both
// the destination prefix and the topology condition, pre-computing port
// predicates (forwarding predicates and ACL predicates, following the
// atomic-predicates idea of §5.3), and forwarding fully symbolic packets
// — BDDs over header bits and link variables — through the network to
// discover Packet Failure Equivalence Classes (PFECs).
package spf

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// Discard is the pseudo egress of FIB rules that drop traffic (BGP
// aggregates install a discard route at the aggregating router).
const Discard topology.LinkID = -2

// Local is the pseudo egress of FIB rules that deliver traffic locally
// (connected networks).
const Local topology.LinkID = -1

// FIBRule is one symbolic forwarding rule: packets matching Prefix under
// failure scenarios satisfying TC are sent out Egress (§5.2).
type FIBRule struct {
	Prefix route.Prefix
	TC     bdd.Node
	Egress topology.LinkID
}

// FIB is the ordered symbolic FIB of one router (longest prefix first).
type FIB struct {
	Rules []FIBRule
}

// PFEC is a packet failure equivalence class (Definition 1): the set of
// (packet, failure) tuples — encoded by Pred, a BDD over header and link
// variables — that traverse exactly the forwarding path Path starting at
// Path[0].
type PFEC struct {
	Path      []topology.RouterID
	Pred      bdd.Node
	Delivered bool // packet reached a local-delivery rule at the last hop
	Looped    bool // defensive: forwarding revisited a router
}

// Src returns the injection router of the PFEC.
func (p *PFEC) Src() topology.RouterID { return p.Path[0] }

// Dst returns the final router of the PFEC.
func (p *PFEC) Dst() topology.RouterID { return p.Path[len(p.Path)-1] }

// Traverses reports whether the forwarding path visits router w.
func (p *PFEC) Traverses(w topology.RouterID) bool {
	for _, r := range p.Path {
		if r == w {
			return true
		}
	}
	return false
}

// String formats the PFEC for debugging.
func (p *PFEC) String() string {
	names := make([]string, len(p.Path))
	for i, r := range p.Path {
		names[i] = fmt.Sprintf("%d", r)
	}
	return fmt.Sprintf("PFEC(%s, delivered=%v)", strings.Join(names, "->"), p.Delivered)
}

// Forwarder executes symbolic packets over the symbolic FIBs of a
// network.
type Forwarder struct {
	Net *config.Network
	Sp  *symbol.Space

	fibs []*FIB
	// port[r][i] is the port predicate of router r's i-th port (port
	// i = i-th incident link l), §5.3: the (packet, failure) tuples r
	// forwards out of l that pass its outbound ACL, find l up and pass
	// the peer's inbound ACL — forwarding ∧ aclOut ∧ x_l ∧ peer aclIn,
	// built once so a hop costs one And. Forwarding is matched per
	// prefix class: within one prefix length, prefixes whose rules
	// form the same sequence of (topology condition, egress) pairs are
	// matched once, over the union of their prefixes, rule by rule. A
	// prefix that shares its sequence with no other is matched rule by
	// rule over its own prefix, the very operations of a per-rule
	// loop, so per-prefix spaces see the same operation cache.
	port [][]bdd.Node
	// local[r] is the local-delivery predicate of router r.
	local []bdd.Node
	// aclIn[r][i] / aclOut[r][i] are the ACL predicates of port i.
	aclIn  [][]bdd.Node
	aclOut [][]bdd.Node

	// Telemetry handles, inherited from the engine's options (nil-safe
	// no-ops when telemetry is disabled).
	telPFECs     *obs.Counter
	telDelivered *obs.Counter
}

// NewForwarder builds symbolic FIBs and port predicates from the
// symbolic RIBs computed by eng. The engine must have Run successfully.
func NewForwarder(eng *src.Engine) (*Forwarder, error) {
	f := &Forwarder{Net: eng.Net, Sp: eng.Sp}
	f.telPFECs = eng.Opts.Telemetry.Counter("spf.pfecs")
	f.telDelivered = eng.Opts.Telemetry.Counter("spf.pfecs_delivered")
	if err := f.build(eng); err != nil {
		return nil, err
	}
	return f, nil
}

// build generates FIBs and predicates (§5.2, §5.3). A node-table
// overflow or an interruption returns as the error.
func (f *Forwarder) build(eng *src.Engine) (err error) {
	defer resil.Catch("spf", &err)
	t := f.Net.Topology
	m := f.Sp.M
	n := t.NumRouters()
	f.fibs = make([]*FIB, n)
	f.port = make([][]bdd.Node, n)
	f.local = make([]bdd.Node, n)
	f.aclIn = make([][]bdd.Node, n)
	f.aclOut = make([][]bdd.Node, n)

	for ri := 0; ri < n; ri++ {
		id := topology.RouterID(ri)
		fib := f.buildFIB(eng, id)
		f.fibs[ri] = fib
		links := t.Router(id).Links
		f.port[ri] = make([]bdd.Node, len(links)) // all bdd.False, the zero Node

		// Effective matches with longest-prefix-match masking: rules
		// are grouped by prefix length (groups of equal length have
		// disjoint header spaces, and rules of the same prefix are
		// already condition-disjoint across priority tiers or
		// intentionally overlapping for ECMP), so masking applies
		// between length groups only. Within a group, the prefixes of
		// one class (see prefixClasses) are matched once, over the
		// union of their headers. Discard rules (BGP aggregates) match
		// no port, which is how they drop.
		matched := bdd.False
		var cubes []bdd.Node
		i := 0
		for i < len(fib.Rules) {
			j := i
			for j < len(fib.Rules) && fib.Rules[j].Prefix.Len == fib.Rules[i].Prefix.Len {
				j++
			}
			groupMatch := bdd.False
			for _, c := range prefixClasses(fib.Rules[i:j]) {
				cubes = cubes[:0]
				for _, p := range c.prefixes {
					cubes = append(cubes, f.Sp.Prefix(p))
				}
				headers := m.OrN(cubes...) // no operation for one prefix
				for _, rule := range c.rules {
					match := m.And(headers, rule.TC)
					eff := m.Diff(match, matched)
					groupMatch = m.Or(groupMatch, match)
					if eff == bdd.False {
						continue
					}
					switch rule.Egress {
					case Local:
						f.local[ri] = m.Or(f.local[ri], eff)
					case Discard:
					default:
						port := portIndex(t, id, rule.Egress)
						f.port[ri][port] = m.Or(f.port[ri][port], eff)
					}
				}
			}
			matched = m.Or(matched, groupMatch)
			i = j
		}
		m.Ref(f.local[ri])
		for i := range f.port[ri] {
			m.Ref(f.port[ri][i])
		}

		// ACL predicates.
		rc := f.Net.Router(id)
		f.aclIn[ri] = make([]bdd.Node, len(links))
		f.aclOut[ri] = make([]bdd.Node, len(links))
		for i, lid := range links {
			itf := rc.Interfaces[lid]
			var in, out *config.ACL
			if itf != nil {
				in, out = itf.ACLIn, itf.ACLOut
			}
			f.aclIn[ri][i] = m.Ref(f.aclPredicate(in))
			f.aclOut[ri][i] = m.Ref(f.aclPredicate(out))
		}
		m.MaybeGC(0)
	}

	// Fold the ACLs and the link into each forwarding predicate.
	for ri, ports := range f.port {
		id := topology.RouterID(ri)
		for i, lid := range t.Router(id).Links {
			fwd := ports[i]
			peer := t.Link(lid).Other(id)
			p := m.And(fwd, f.aclOut[ri][i])
			p = m.And(p, f.Sp.LinkVar(lid))
			p = m.And(p, f.aclIn[peer][portIndex(t, peer, lid)])
			ports[i] = m.Ref(p)
			m.Deref(fwd)
		}
	}
	return nil
}

// buildFIB converts router r's symbolic RIB into a symbolic FIB ordered
// by descending prefix length. Routes learned over iBGP carry no egress
// link; they resolve recursively through the IGP routes towards the BGP
// next hop's loopback (§4, multi-protocol support).
func (f *Forwarder) buildFIB(eng *src.Engine, r topology.RouterID) *FIB {
	m := f.Sp.M
	rib := eng.RIB(r)
	fib := &FIB{}
	for _, p := range rib.Prefixes() {
		for _, sr := range rib.Routes(p) {
			if sr.TcRib == bdd.False {
				continue
			}
			rt := sr.Route
			if rt.Protocol == route.IBGP && rt.EgressLink < 0 && rt.NextHop >= 0 {
				lb := src.LoopbackPrefix(topology.RouterID(rt.NextHop))
				for _, igp := range rib.Routes(lb) {
					if igp.TcRib == bdd.False || igp.Route.EgressLink < 0 {
						continue
					}
					tc := m.And(sr.TcRib, igp.TcRib)
					if tc != bdd.False {
						fib.Rules = append(fib.Rules, FIBRule{Prefix: p, TC: tc,
							Egress: topology.LinkID(igp.Route.EgressLink)})
					}
				}
				continue
			}
			egress := topology.LinkID(rt.EgressLink)
			if rt.EgressLink < 0 {
				if rt.Aggregate {
					egress = Discard
				} else {
					egress = Local
				}
			}
			fib.Rules = append(fib.Rules, FIBRule{Prefix: p, TC: sr.TcRib, Egress: egress})
		}
	}
	sort.SliceStable(fib.Rules, func(i, j int) bool {
		if fib.Rules[i].Prefix.Len != fib.Rules[j].Prefix.Len {
			return fib.Rules[i].Prefix.Len > fib.Rules[j].Prefix.Len
		}
		if fib.Rules[i].Prefix.Addr != fib.Rules[j].Prefix.Addr {
			return fib.Rules[i].Prefix.Addr < fib.Rules[j].Prefix.Addr
		}
		return false
	})
	return fib
}

// prefixClass is a set of equal-length prefixes whose FIB rules form
// the same sequence of (topology condition, egress) pairs: rules are
// that sequence (the rules of the first prefix), prefixes the members
// in FIB order.
type prefixClass struct {
	rules    []FIBRule
	prefixes []route.Prefix
}

// prefixClasses partitions the rules of one length group (sorted by
// prefix, so each prefix's rules are contiguous) into prefix classes,
// in order of first appearance. Topology conditions are canonical
// handles, so equal sequences denote equal conditions. Masking treats
// every member alike: their header spaces are disjoint and share the
// group's matched set, so the class's matches are the union of the
// members' matches.
func prefixClasses(rules []FIBRule) []*prefixClass {
	var classes []*prefixClass
	index := make(map[string]*prefixClass)
	var key []byte
	for i := 0; i < len(rules); {
		j := i
		for j < len(rules) && rules[j].Prefix == rules[i].Prefix {
			j++
		}
		key = key[:0]
		for _, r := range rules[i:j] {
			key = binary.LittleEndian.AppendUint32(key, uint32(r.TC))
			key = binary.LittleEndian.AppendUint32(key, uint32(r.Egress))
		}
		c, ok := index[string(key)]
		if !ok {
			c = &prefixClass{rules: rules[i:j]}
			index[string(key)] = c
			classes = append(classes, c)
		}
		c.prefixes = append(c.prefixes, rules[i].Prefix)
		i = j
	}
	return classes
}

// aclPredicate compiles an ACL into a BDD over header variables using
// first-match semantics with implicit deny (§5.3 "ACL predicates").
func (f *Forwarder) aclPredicate(acl *config.ACL) bdd.Node {
	if acl == nil {
		return bdd.True
	}
	m := f.Sp.M
	permit := bdd.False
	matched := bdd.False
	for _, e := range acl.Entries {
		var match bdd.Node
		if e.Any {
			match = bdd.True
		} else {
			match = f.Sp.Prefix(e.Prefix)
		}
		eff := m.Diff(match, matched)
		if e.Action == config.Permit {
			permit = m.Or(permit, eff)
		}
		matched = m.Or(matched, match)
	}
	return permit
}

// FIBOf returns the symbolic FIB of router r.
func (f *Forwarder) FIBOf(r topology.RouterID) *FIB { return f.fibs[r] }

// portIndex returns the index of link lid among r's incident links.
func portIndex(t *topology.Topology, r topology.RouterID, lid topology.LinkID) int {
	for i, l := range t.Router(r).Links {
		if l == lid {
			return i
		}
	}
	panic(fmt.Sprintf("spf: link %d not incident to router %d", lid, r))
}

// Forward injects a fully symbolic packet (all headers × all failure
// scenarios) at src and returns the PFECs discovered (§5.4). Every
// returned predicate is Ref'd; call ReleasePFECs when done.
func (f *Forwarder) Forward(srcRouter topology.RouterID) (out []*PFEC, err error) {
	defer resil.Catch("spf", &err)
	return f.forward(srcRouter, bdd.True), nil
}

// ForwardHeaders is Forward restricted to an initial packet set (a BDD
// over header variables), used by single-prefix analyses.
func (f *Forwarder) ForwardHeaders(srcRouter topology.RouterID, headers bdd.Node) (out []*PFEC, err error) {
	defer resil.Catch("spf", &err)
	return f.forward(srcRouter, headers), nil
}

func (f *Forwarder) forward(srcRouter topology.RouterID, initial bdd.Node) []*PFEC {
	t := f.Net.Topology
	m := f.Sp.M
	var out []*PFEC
	onPath := make(map[topology.RouterID]bool)
	var path []topology.RouterID

	emit := func(pred bdd.Node, delivered, looped bool) {
		cp := make([]topology.RouterID, len(path))
		copy(cp, path)
		out = append(out, &PFEC{Path: cp, Pred: m.Ref(pred), Delivered: delivered, Looped: looped})
		f.telPFECs.Inc()
		if delivered {
			f.telDelivered.Inc()
		}
	}

	var visit func(r topology.RouterID, pkt bdd.Node)
	visit = func(r topology.RouterID, pkt bdd.Node) {
		if onPath[r] {
			emit(pkt, false, true)
			return
		}
		onPath[r] = true
		path = append(path, r)
		defer func() {
			delete(onPath, r)
			path = path[:len(path)-1]
		}()
		if delivered := m.And(pkt, f.local[r]); delivered != bdd.False {
			emit(delivered, true, false)
		}
		for i, lid := range t.Router(r).Links {
			if outPkt := m.And(pkt, f.port[r][i]); outPkt != bdd.False {
				visit(t.Link(lid).Other(r), outPkt)
			}
		}
	}
	visit(srcRouter, initial)
	return out
}

// AllPFECs runs Forward from every router and returns the concatenated
// PFEC sets.
func (f *Forwarder) AllPFECs() ([]*PFEC, error) {
	var out []*PFEC
	t := f.Net.Topology
	for r := 0; r < t.NumRouters(); r++ {
		pfecs, err := f.Forward(topology.RouterID(r))
		if err != nil {
			ReleasePFECs(f.Sp, out)
			return nil, err
		}
		out = append(out, pfecs...)
		f.Sp.M.MaybeGC(0)
	}
	return out, nil
}

// ReleasePFECs drops the references held by a PFEC set.
func ReleasePFECs(sp *symbol.Space, pfecs []*PFEC) {
	for _, p := range pfecs {
		sp.M.Deref(p.Pred)
	}
}

// Release drops the references held by the forwarder's predicates.
// The forwarder must not be used afterwards.
func (f *Forwarder) Release() {
	m := f.Sp.M
	for r := range f.port {
		for i := range f.port[r] {
			m.Deref(f.port[r][i])
			m.Deref(f.aclIn[r][i])
			m.Deref(f.aclOut[r][i])
		}
		m.Deref(f.local[r])
	}
}
