package analysis

import (
	"sre/internal/bdd"
	"sre/internal/route"
	"sre/internal/topology"
)

// Query is one pair query: the packets a source router sends towards a
// destination prefix, asked about on the pipeline verifying the prefix.
// Every property analysis of §6 is one graph algorithm on one property
// BDD, taken over the query's header universe and read per packet set:
// Reach and Waypoint build the property, and each reduction answers one
// question of it.
type Query struct {
	Pipe   *Pipeline
	Src    topology.RouterID
	Prefix route.Prefix
	// Dst is the set of routers originating Prefix.
	Dst map[topology.RouterID]bool
	// Hdr is the header universe: the addresses for which Prefix is the
	// longest originated prefix, within the pipeline's scope.
	Hdr bdd.Node
}

// Query builds the pair query of (s, pfx).
func (p *Pipeline) Query(s topology.RouterID, pfx route.Prefix) Query {
	return Query{Pipe: p, Src: s, Prefix: pfx, Dst: p.OriginSet(pfx), Hdr: p.OwnedHeaders(pfx)}
}

// Reach is the property BDD of Reach(src, prefix).
func (q Query) Reach() bdd.Node { return q.Pipe.ReachBDD(q.Src, q.Dst, q.Hdr) }

// Waypoint is the property BDD of Waypoint(src, prefix, w): packets that
// reach the prefix AND traverse w on the way.
func (q Query) Waypoint(w topology.RouterID) bdd.Node {
	return q.Pipe.delivered(q.Src, q.Dst, w, q.Hdr)
}

// Tolerance is the failure tolerance of the property over the query's
// universe (Theorem 1): the minimum over its packet sets, where headers
// no tuple covers count as -1.
func (q Query) Tolerance(property bdd.Node) int {
	return q.Pipe.MinTolerance(property, q.Hdr)
}

// Isolation is the failure tolerance of "the property never holds": the
// maximum k such that no combination of at most k failures makes it
// true. Isolation(src, prefix) is violated by the first failure
// combination that makes reachability true, so the tolerance is the
// shortest path to the True terminal minus one. Packets never delivered
// hold the property under every failure count and do not lower it.
func (q Query) Isolation(property bdd.Node) int {
	m := q.Pipe.Sp.M
	min := InfiniteTolerance
	for _, tup := range q.Pipe.Extract(property) {
		if k := pathTolerance(m.ShortestPathToTrue(tup.Topo)); k < min {
			min = k
		}
	}
	return min
}

// Violated reports whether some header of the universe, under some
// failure scenario of budget (a BDD over link variables, typically
// Space.AtMostKLinkFailures), is not covered by the property.
func (q Query) Violated(property, budget bdd.Node) bool {
	m := q.Pipe.Sp.M
	return m.DiffSat(m.And(q.Hdr, budget), property)
}

// LoadBalance counts the forwarding paths that simultaneously carry
// packets of the universe from the source to the prefix under the
// all-links-up scenario (Loadbalance(s, d, p, n) holds when the count is
// at least n).
func (q Query) LoadBalance() int {
	m := q.Pipe.Sp.M
	cond := m.And(q.Hdr, q.Pipe.Sp.AllLinksUp())
	n := 0
	for _, pf := range q.Pipe.pfecs[q.Src] {
		if pf.Delivered && q.Dst[pf.Dst()] && m.AndSat(pf.Pred, cond) {
			n++
		}
	}
	return n
}

// MinProbability is the probability that the property holds under the
// failure model w for the worst packet set of the query's universe
// (Theorem 2). Like Tolerance it is taken over the whole universe:
// headers no tuple covers are never delivered and count as probability
// 0. ok is false when the property has no (packet, failure) tuple at
// all; p is then 0.
func (q Query) MinProbability(property bdd.Node, w Weights) (p float64, ok bool) {
	results := q.Pipe.ProbabilityUnder(property, w)
	if len(results) == 0 {
		return 0, false
	}
	p = 1
	pkts := make([]bdd.Node, len(results))
	for i, r := range results {
		pkts[i] = r.Pkt
		if r.P < p {
			p = r.P
		}
	}
	if m := q.Pipe.Sp.M; m.DiffSat(q.Hdr, m.OrN(pkts...)) {
		return 0, true
	}
	return p, true
}
