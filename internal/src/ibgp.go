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
// virtual sessions in each member's session table, after its links
// (see buildSessions). One export builder serves both kinds: a virtual
// session differs from a link only in its condition and in the BGP
// rewrite, where it sends iBGP, applies no export map, prepends nothing
// and keeps local-pref. Forwarding of iBGP-learned routes resolves
// recursively through the loopback routes (see the spf package).

// loopbackPrefix returns the /32 loopback assigned to router r
// (172.16.0.0/12 space, disjoint from the workload prefixes).
func loopbackPrefix(r topology.RouterID) route.Prefix {
	return route.Prefix{Addr: 172<<24 | 16<<20 | uint32(r), Len: 32}
}

// LoopbackPrefix exposes the engine's loopback numbering (the spf
// package resolves iBGP next hops through these prefixes).
func LoopbackPrefix(r topology.RouterID) route.Prefix { return loopbackPrefix(r) }

// setupVirtualSessions computes the underlay conditions of the iBGP
// full mesh. It returns the mesh members and, per router, its virtual
// sessions, and must run before originate.
func (e *Engine) setupVirtualSessions() (mesh map[topology.RouterID]bool, virtual map[topology.RouterID][]session, err error) {
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
	mesh = make(map[topology.RouterID]bool)
	for _, members := range byAS {
		if len(members) > 1 {
			for _, r := range members {
				mesh[r] = true
			}
		}
	}
	if len(mesh) == 0 {
		return nil, nil, nil
	}
	// Loopbacks originate into OSPF on the main engine too (needed for
	// next-hop resolution in the data plane).
	e.loopbackOSPF = make(map[topology.RouterID]route.Prefix, len(mesh))
	for r := range mesh {
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
		return nil, nil, err
	}
	e.underlay = sub
	// Conditions: virt(R→N) = ∨ tcRib of R's routes for N's loopback.
	// For a converged ACL-free OSPF underlay, having an installed route
	// is equivalent to end-to-end delivery along it.
	m := e.Sp.M
	virtual = make(map[topology.RouterID][]session)
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
				virtual[r] = append(virtual[r], session{peer: n, link: -1, cond: m.Ref(cond), bgp: true})
			}
		}
	}
	return mesh, virtual, nil
}
