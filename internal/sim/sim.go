// Package sim is a concrete control-plane and data-plane simulator: it
// computes, for ONE failure scenario, the routes every router installs
// and the forwarding behaviour of concrete packets.
//
// It serves two roles in the reproduction:
//
//  1. It is the Batfish substitute: Batfish-style verification answers
//     questions about a failure scenario by simulating it concretely, so
//     checking a property across failure scenarios means enumerating
//     them — exactly the cost profile Figure 5 and 6 compare against.
//
//  2. It is the ground-truth oracle for SRE itself: the test suite
//     enumerates failure scenarios on small networks and checks that
//     the PFECs computed symbolically agree with concrete simulation in
//     every scenario.
//
// The simulator shares the configuration model and route-ranking logic
// with the symbolic engine but none of its mechanism; agreement between
// the two is therefore meaningful evidence of correctness.
package sim

import (
	"fmt"
	"sort"

	"sre/internal/config"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/topology"
)

// Scenario says which links are down.
type Scenario struct {
	down map[topology.LinkID]bool
}

// NewScenario builds a scenario with the given failed links.
func NewScenario(down ...topology.LinkID) Scenario {
	s := Scenario{down: make(map[topology.LinkID]bool, len(down))}
	for _, l := range down {
		s.down[l] = true
	}
	return s
}

// Up reports whether link l is up.
func (s Scenario) Up(l topology.LinkID) bool { return !s.down[l] }

// Result holds the converged state of one simulation.
type Result struct {
	Net *config.Network
	Sc  Scenario
	// ribs[r][prefix] is the best tier (ECMP set) installed at r.
	ribs []map[route.Prefix][]*route.Route
}

// Simulate runs the control plane to a fixed point under the scenario.
// A control plane that oscillates past its iteration bound returns a
// resil.ErrNoConvergence-wrapping error naming the oscillating routers
// instead of panicking, so baseline sweeps over many scenarios cannot
// crash the process.
func Simulate(net *config.Network, sc Scenario) (*Result, error) {
	n := net.Topology.NumRouters()
	return simulate(net, sc, 100000*(n+1))
}

// simulate is Simulate with an explicit iteration bound (tests use a
// tiny bound to exercise the non-convergence path cheaply).
func simulate(net *config.Network, sc Scenario, maxIters int) (*Result, error) {
	res := &Result{Net: net, Sc: sc}
	t := net.Topology
	n := t.NumRouters()
	res.ribs = make([]map[route.Prefix][]*route.Route, n)
	// candidate routes per router per prefix (all imported, not just best)
	cands := make([]map[route.Prefix][]*route.Route, n)
	for i := 0; i < n; i++ {
		res.ribs[i] = make(map[route.Prefix][]*route.Route)
		cands[i] = make(map[route.Prefix][]*route.Route)
	}
	// Originate.
	queue := []topology.RouterID{}
	queued := make([]bool, n)
	push := func(r topology.RouterID) {
		if !queued[r] {
			queued[r] = true
			queue = append(queue, r)
		}
	}
	for i := 0; i < n; i++ {
		id := topology.RouterID(i)
		rc := net.Router(id)
		for _, p := range rc.Originated() {
			cands[i][p] = append(cands[i][p], route.NewLocal(p, route.Connected, i))
		}
		for _, s := range rc.Static {
			nbr := t.MustRouter(s.NextHop)
			lid, ok := t.LinkBetween(id, nbr)
			if !ok || !sc.Up(lid) {
				continue
			}
			r := route.NewLocal(s.Prefix, route.Static, i)
			r.NextHop = int(nbr)
			r.EgressLink = int(lid)
			cands[i][s.Prefix] = append(cands[i][s.Prefix], r)
		}
		push(id)
	}
	maxHops := n
	for iter := 0; len(queue) > 0; iter++ {
		if iter > maxIters {
			const max = 8
			var names []string
			for _, q := range queue {
				if len(names) >= max {
					names = append(names, fmt.Sprintf("... %d more", len(queue)-max))
					break
				}
				names = append(names, t.Name(q))
			}
			return nil, &resil.StageError{Stage: "sim", Routers: names,
				Err: fmt.Errorf("%w after %d iterations", resil.ErrNoConvergence, maxIters)}
		}
		r := queue[0]
		queue = queue[1:]
		queued[r] = false
		// Select best tiers for every prefix with candidates.
		changedPrefixes := selectBest(net, r, cands[r], res.ribs[r])
		if len(changedPrefixes) == 0 {
			continue
		}
		// Export changed prefixes to neighbors over up links.
		rc := net.Router(r)
		for _, lid := range t.Router(r).Links {
			if !sc.Up(lid) {
				continue
			}
			if itf, ok := rc.Interfaces[lid]; ok && itf.Passive {
				continue
			}
			nbr := t.Link(lid).Other(r)
			nc := net.Router(nbr)
			if itf, ok := nc.Interfaces[lid]; ok && itf.Passive {
				continue
			}
			changed := false
			for _, p := range changedPrefixes {
				for _, adv := range exportRoutes(net, r, nbr, lid, p, res.ribs[r][p]) {
					if imp := importRoute(net, nbr, r, lid, adv, maxHops); imp != nil {
						if mergeCandidate(cands[nbr], imp) {
							changed = true
						}
					}
				}
				// Withdrawals: remove candidates from r over lid for
				// prefixes r no longer advertises.
				if removeStale(net, cands[nbr], nbr, r, lid, p, res.ribs[r][p]) {
					changed = true
				}
			}
			if changed {
				push(nbr)
			}
		}
	}
	return res, nil
}

// selectBest installs the best (ECMP) tier per prefix from the
// candidates and returns the prefixes whose installed set changed. It
// also derives BGP aggregates at router r.
func selectBest(net *config.Network, r topology.RouterID, cand map[route.Prefix][]*route.Route, rib map[route.Prefix][]*route.Route) []route.Prefix {
	var changed []route.Prefix
	install := func(p route.Prefix, list []*route.Route) {
		sort.SliceStable(list, func(i, j int) bool {
			if c := route.Compare(list[i], list[j]); c != 0 {
				return c < 0
			}
			return route.Tiebreak(list[i], list[j]) < 0
		})
		var best []*route.Route
		for _, rt := range list {
			if len(best) == 0 || route.Compare(best[0], rt) == 0 {
				best = append(best, rt)
			} else {
				break
			}
		}
		if !sameTier(rib[p], best) {
			rib[p] = best
			changed = append(changed, p)
		}
	}
	for p, list := range cand {
		install(p, list)
	}
	// Aggregates: a configured aggregate is generated while at least one
	// more-specific contributor is installed.
	rc := net.Router(r)
	if rc.BGP != nil {
		for _, agg := range rc.BGP.Aggregates {
			have := false
			for p, tier := range rib {
				if agg.Covers(p) && p != agg && len(tier) > 0 {
					for _, rt := range tier {
						switch rt.Protocol {
						case route.EBGP, route.IBGP, route.Connected:
							if !rt.Aggregate {
								have = true
							}
						}
					}
				}
			}
			cur := cand[agg]
			hasAgg := false
			for _, rt := range cur {
				if rt.Aggregate {
					hasAgg = true
				}
			}
			switch {
			case have && !hasAgg:
				rt := route.NewLocal(agg, route.EBGP, int(r))
				rt.Aggregate = true
				cand[agg] = append(cur, rt)
				install(agg, cand[agg])
			case !have && hasAgg:
				kept := cur[:0]
				for _, rt := range cur {
					if !rt.Aggregate {
						kept = append(kept, rt)
					}
				}
				cand[agg] = kept
				install(agg, kept)
			}
		}
	}
	return changed
}

func sameTier(a, b []*route.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !route.SameRoute(a[i], b[i]) {
			return false
		}
	}
	return true
}

// exportRoutes transforms r's best tier of prefix p for advertisement to
// nbr, mirroring the symbolic engine's export processing.
func exportRoutes(net *config.Network, r, nbr topology.RouterID, lid topology.LinkID, p route.Prefix, tier []*route.Route) []*route.Route {
	rc, nc := net.Router(r), net.Router(nbr)
	nbrName := net.Topology.Name(nbr)
	var out []*route.Route
	var seen route.Set[struct{}]
	add := func(adv *route.Route) {
		if _, added := seen.Add(adv, struct{}{}); added {
			out = append(out, adv)
		}
	}
	bgpSession := rc.BGP != nil && nc.BGP != nil
	ospfSession := rc.OSPF != nil && nc.OSPF != nil
	suppressed := false
	if rc.BGP != nil {
		for _, agg := range rc.BGP.Aggregates {
			if agg.Covers(p) && agg != p {
				suppressed = true
			}
		}
	}
	for _, rt := range tier {
		if bgpSession && !suppressed {
			eligible := false
			switch rt.Protocol {
			case route.EBGP:
				eligible = true
			case route.IBGP:
				eligible = nc.BGP.ASN != rc.BGP.ASN
			case route.Connected:
				for _, netp := range rc.BGP.Networks {
					if netp == p {
						eligible = true
					}
				}
			}
			if rt.Aggregate {
				eligible = true
			}
			if eligible {
				adv := rt.Clone()
				adv.Aggregate = false
				permit := true
				if name, ok := rc.BGP.ExportPolicy[nbrName]; ok {
					adv, permit = rc.RouteMaps[name].Apply(adv, rc.BGP.ASN)
				}
				if permit {
					if nc.BGP.ASN != rc.BGP.ASN {
						adv.LocalPref = 100
					}
					adv.ASPath = append([]uint32{rc.BGP.ASN}, adv.ASPath...)
					adv.Protocol = route.EBGP
					adv.NextHop = int(r)
					adv.EgressLink = int(lid)
					add(adv)
				}
			}
		}
		if ospfSession {
			eligible := rt.Protocol == route.OSPF
			if rt.Protocol == route.Connected && rc.OSPF != nil {
				for _, netp := range rc.OSPF.Networks {
					if netp == p {
						eligible = true
					}
				}
			}
			if eligible {
				adv := rt.Clone()
				adv.Protocol = route.OSPF
				adv.NextHop = int(r)
				adv.EgressLink = int(lid)
				add(adv)
			}
		}
	}
	return out
}

// importRoute applies receiver-side processing, mirroring the symbolic
// engine.
func importRoute(net *config.Network, r, from topology.RouterID, lid topology.LinkID, adv *route.Route, maxHops int) *route.Route {
	rc := net.Router(r)
	rt := adv.Clone()
	rt.NextHop = int(from)
	rt.EgressLink = int(lid)
	rt.Hops++
	if rt.Hops > maxHops {
		return nil
	}
	switch rt.Protocol {
	case route.EBGP, route.IBGP:
		if rc.BGP == nil {
			return nil
		}
		peerASN := net.Router(from).BGP.ASN
		if peerASN == rc.BGP.ASN {
			rt.Protocol = route.IBGP
		} else {
			rt.Protocol = route.EBGP
			if rt.ContainsAS(rc.BGP.ASN) {
				return nil
			}
		}
		if name, ok := rc.BGP.ImportPolicy[net.Topology.Name(from)]; ok {
			out, permit := rc.RouteMaps[name].Apply(rt, rc.BGP.ASN)
			if !permit {
				return nil
			}
			rt = out
		}
	case route.OSPF:
		if rc.OSPF == nil {
			return nil
		}
		rt.Cost += rc.InterfaceOf(lid).OSPFCost
	default:
		return nil
	}
	return rt
}

// mergeCandidate inserts or replaces the candidate matching rt's
// identity (same next hop, egress, protocol); returns true on change.
func mergeCandidate(cands map[route.Prefix][]*route.Route, rt *route.Route) bool {
	list := cands[rt.Prefix]
	for i, cur := range list {
		if cur.NextHop == rt.NextHop && cur.EgressLink == rt.EgressLink && cur.Protocol == rt.Protocol {
			if route.SameRoute(cur, rt) {
				return false
			}
			list[i] = rt
			return true
		}
	}
	cands[rt.Prefix] = append(list, rt)
	return true
}

// removeStale drops candidates at nbr learned from r over lid for prefix
// p that r no longer advertises; returns true if anything was removed.
func removeStale(net *config.Network, cands map[route.Prefix][]*route.Route, nbr, r topology.RouterID, lid topology.LinkID, p route.Prefix, tier []*route.Route) bool {
	maxHops := net.Topology.NumRouters()
	current := make(map[route.Protocol]bool)
	for _, adv := range exportRoutes(net, r, nbr, lid, p, tier) {
		if imp := importRoute(net, nbr, r, lid, adv, maxHops); imp != nil {
			current[imp.Protocol] = true
		}
	}
	list := cands[p]
	kept := list[:0]
	removed := false
	for _, cur := range list {
		if cur.NextHop == int(r) && cur.EgressLink == int(lid) && !current[cur.Protocol] {
			removed = true
			continue
		}
		kept = append(kept, cur)
	}
	cands[p] = kept
	return removed
}

// RIB returns the installed best tier for prefix p at router r.
func (res *Result) RIB(r topology.RouterID, p route.Prefix) []*route.Route {
	return res.ribs[r][p]
}

// Forwarding.

// ForwardResult describes what happened to a concrete packet.
type ForwardResult struct {
	Delivered bool
	Dst       topology.RouterID
	Hops      int
}

// Reachable reports whether a packet with destination addr injected at
// src is delivered at any router in dst, following every ECMP branch
// (delivered if ANY branch delivers, matching the symbolic engine's
// multipath PFEC semantics).
func (res *Result) Reachable(src topology.RouterID, addr uint32, dst map[topology.RouterID]bool) bool {
	return res.reach(src, addr, dst, nil, make(map[topology.RouterID]bool))
}

func (res *Result) reach(r topology.RouterID, addr uint32, dst map[topology.RouterID]bool, path []topology.RouterID, onPath map[topology.RouterID]bool) bool {
	if onPath[r] {
		return false // loop
	}
	onPath[r] = true
	defer delete(onPath, r)
	tier, local := res.lookup(r, addr)
	if local && dst[r] {
		return true
	}
	t := res.Net.Topology
	rc := res.Net.Router(r)
	for _, rt := range tier {
		if rt.EgressLink < 0 {
			continue
		}
		lid := topology.LinkID(rt.EgressLink)
		if !res.Sc.Up(lid) {
			continue
		}
		// Outbound ACL at r, inbound ACL at the neighbor.
		if itf, ok := rc.Interfaces[lid]; ok && itf.ACLOut != nil && !itf.ACLOut.PermitsAddr(addr) {
			continue
		}
		nbr := t.Link(lid).Other(r)
		if itf, ok := res.Net.Router(nbr).Interfaces[lid]; ok && itf.ACLIn != nil && !itf.ACLIn.PermitsAddr(addr) {
			continue
		}
		if res.reach(nbr, addr, dst, append(path, r), onPath) {
			return true
		}
	}
	return false
}

// lookup performs longest-prefix-match for addr at router r, returning
// the matching tier and whether the match is a local (connected)
// delivery.
func (res *Result) lookup(r topology.RouterID, addr uint32) ([]*route.Route, bool) {
	bestLen := -1
	var best []*route.Route
	for p, tier := range res.ribs[r] {
		if p.Contains(addr) && p.Len > bestLen && len(tier) > 0 {
			bestLen = p.Len
			best = tier
		}
	}
	if best == nil {
		return nil, false
	}
	local := false
	for _, rt := range best {
		if rt.EgressLink < 0 && !rt.Aggregate {
			local = true
		}
	}
	return best, local
}
