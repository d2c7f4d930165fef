package src

import (
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/topology"
)

// iBGP support (§4, "Supporting multiple protocols"): when several
// routers share an AS, they peer over iBGP sessions that ride on the
// IGP. SRE models each session as a VIRTUAL LINK whose topology
// condition is the OSPF reachability condition between the two peers:
// the session is up exactly when the underlay delivers between them.
//
// The engine implements this in two phases, as the paper describes:
// first it computes symbolic OSPF routes for per-router loopbacks on an
// underlay-only copy of the network (sharing the same BDD space), and
// derives each session's condition as the disjunction of the installed
// loopback routes' conditions; then the main computation runs with the
// virtual sessions in place. Forwarding of iBGP-learned routes resolves
// recursively through the loopback routes (see the spf package).

// loopbackPrefix returns the /32 loopback assigned to router r
// (172.16.0.0/12 space, disjoint from the workload prefixes).
func loopbackPrefix(r topology.RouterID) route.Prefix {
	return route.Prefix{Addr: 172<<24 | 16<<20 | uint32(r), Len: 32}
}

// LoopbackPrefix exposes the engine's loopback numbering (the spf
// package resolves iBGP next hops through these prefixes).
func LoopbackPrefix(r topology.RouterID) route.Prefix { return loopbackPrefix(r) }

// virtualSession is an iBGP session between non-adjacent (or adjacent)
// same-AS routers, guarded by the underlay reachability condition.
type virtualSession struct {
	peer topology.RouterID
	cond bdd.Node
}

// setupVirtualSessions computes the underlay conditions and registers
// the iBGP full-mesh sessions. Must run before originate.
func (e *Engine) setupVirtualSessions() error {
	t := e.Net.Topology
	// Group BGP+OSPF routers by AS; asns keeps the ASes in router order,
	// because the session conditions below are BDD work and must be
	// built in the same order on every run.
	byAS := make(map[uint32][]topology.RouterID)
	var asns []uint32
	for i := 0; i < t.NumRouters(); i++ {
		rc := e.Net.Router(topology.RouterID(i))
		if rc.BGP != nil && rc.OSPF != nil {
			if byAS[rc.BGP.ASN] == nil {
				asns = append(asns, rc.BGP.ASN)
			}
			byAS[rc.BGP.ASN] = append(byAS[rc.BGP.ASN], topology.RouterID(i))
		}
	}
	meshed := make(map[topology.RouterID]bool)
	for _, members := range byAS {
		if len(members) > 1 {
			for _, r := range members {
				meshed[r] = true
			}
		}
	}
	if len(meshed) == 0 {
		return nil
	}
	e.meshMembers = meshed
	// Loopbacks originate into OSPF on the main engine too (needed for
	// next-hop resolution in the data plane).
	e.loopbackOSPF = make(map[topology.RouterID]route.Prefix, len(meshed))
	for r := range meshed {
		e.loopbackOSPF[r] = loopbackPrefix(r)
	}
	// Phase 1: underlay-only network (OSPF configs plus loopbacks).
	underlay := config.NewNetwork(t)
	for i := 0; i < t.NumRouters(); i++ {
		id := topology.RouterID(i)
		rc := e.Net.Router(id)
		if rc.OSPF == nil {
			continue
		}
		uc := underlay.Router(id)
		uc.OSPF = rc.OSPF.Clone()
		for lid, itf := range rc.Interfaces {
			cp := itf.Clone()
			cp.ACLIn, cp.ACLOut = nil, nil // session reachability ignores data ACLs
			uc.Interfaces[lid] = cp
		}
		if pfx, ok := e.loopbackOSPF[id]; ok {
			uc.OSPF.Networks = append(uc.OSPF.Networks, pfx)
		}
	}
	sub := NewWithSpace(underlay, e.Sp, Options{
		PruneK: e.Opts.PruneK,
		NoECMP: e.Opts.NoECMP,
	})
	if err := sub.Run(); err != nil {
		return err
	}
	// Conditions: virt(R→N) = ∨ tcRib of R's routes for N's loopback.
	// For a converged ACL-free OSPF underlay, having an installed route
	// is equivalent to end-to-end delivery along it.
	m := e.Sp.M
	e.vsessions = make(map[topology.RouterID][]virtualSession)
	for _, asn := range asns {
		members := byAS[asn]
		if len(members) < 2 {
			continue
		}
		for _, r := range members {
			for _, n := range members {
				if r == n {
					continue
				}
				cond := bdd.False
				for _, sr := range sub.RIB(r).Routes(loopbackPrefix(n)) {
					cond = m.Or(cond, sr.TcRib)
				}
				if cond == bdd.False {
					continue
				}
				e.vsessions[r] = append(e.vsessions[r], virtualSession{peer: n, cond: m.Ref(cond)})
			}
		}
	}
	return nil
}

// exportVirtual diffs and sends prefix p's advertisement over every
// virtual session of r.
func (e *Engine) exportVirtual(r topology.RouterID, p route.Prefix) {
	for _, vs := range e.vsessions[r] {
		e.advertise(advKey{link: -1, from: r, to: vs.peer, prefix: p}, e.computeVirtualExports(r, vs, p))
	}
}

// computeVirtualExports builds the iBGP advertisement set of prefix p
// from r over a virtual session: eBGP-learned and locally originated
// BGP routes only (iBGP routes are not reflected), conditions conjoined
// with the session condition.
func (e *Engine) computeVirtualExports(r topology.RouterID, vs virtualSession, p route.Prefix) *advSet {
	m := e.Sp.M
	rc := e.Net.Router(r)
	out := new(advSet)
	suppressed := false
	for _, agg := range rc.BGP.Aggregates {
		if agg.Covers(p) && agg != p {
			suppressed = true
		}
	}
	if suppressed {
		return out
	}
	for _, sr := range e.ribs[r].prefixes[p] {
		if sr.TcRib == bdd.False {
			continue
		}
		rt := sr.Route
		eligible := false
		switch rt.Protocol {
		case route.EBGP:
			eligible = true
		case route.Connected:
			for _, net := range bgpNetworks(rc) {
				if net == p {
					eligible = true
				}
			}
		}
		if rt.Aggregate {
			eligible = true
		}
		if !eligible {
			continue
		}
		adv := rt.Clone()
		adv.Aggregate = false
		// iBGP preserves local-pref and does not prepend the AS.
		adv.Protocol = route.IBGP
		adv.NextHop = int(r)
		adv.EgressLink = -1
		e.addAdvertisement(out, adv, m.And(sr.TcRib, vs.cond))
	}
	return out
}
