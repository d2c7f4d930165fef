// Package order computes topology-aware static variable orders for the
// BDD link variables. The symbolic space fixes the 32 header bits at
// levels 0..31 (Algorithm 2's Extract depends on that split), but the
// relative order of the link variables underneath is free — and it is
// the single biggest lever on ROBDD size: orders that keep the links
// constrained together at adjacent levels let the per-router forwarding
// conditions share structure instead of repeating it at every level in
// between.
//
// The package produces a permutation LinkID → level offset that
// symbol.NewSpace installs under the header bits. The order is not an
// option: Compute is a pure, deterministic function of the topology, so
// two processes (a coordinator and its workers, or a run and a warm
// result cache) derive the same layout from the same network — the
// permutation is part of the meaning of every serialized BDD and every
// cache key, and only this package knows how it is chosen.
//
// The one topology-aware order (mindeg) keys on the minimum degree of a
// link's endpoints: peripheral links (edge racks, stub sites) sink to
// the low levels in tight tiers while highly-shared core links float to
// the top, and each tier keeps declaration order, so whatever locality
// the declaration already has within a tier survives. Measured on
// FatTree(6) k=1 this tiering cuts peak BDD nodes ~12% against
// declaration order; pure traversal orders (breadth-first from any
// root, greedy min-degree elimination) were measured WORSE than
// declaration there, because they interleave pods by core adjacency and
// destroy the declaration order's pod blocking, and a degree-tiered
// breadth-first order bought nothing on the WANs it was selected for —
// see EXPERIMENTS.md.
package order

import (
	"sort"

	"sre/internal/topology"
)

// Order is a computed variable order: the name of the rule that chose
// it ("mindeg" or "declaration") and the permutation. A nil Perm is the
// identity (declaration order); otherwise Perm[l] is the level offset of
// link l among the link variables, a permutation of [0, NumLinks).
type Order struct {
	Name string
	Perm []int
}

// Compute derives the link-variable order for t. The result is
// deterministic: it depends only on the topology's router/link
// structure, never on map iteration or timing.
//
// Banded hierarchies (fat trees, leaf-spine: 2-3 degree tiers, each
// holding a large share of the links) take the tiered mindeg order —
// the regime where tiering was MEASURED to cut peak BDD nodes (~12% on
// FatTree(6) k=1) even though no static locality metric predicts it.
// Everything else (WANs, hand-written configs, near-uniform meshes)
// keeps the declaration layout, link l at level HeaderBits+l: tier
// bands carry no signal without a hierarchy.
func Compute(t *topology.Topology) Order {
	if banded(t) {
		return Order{Name: "mindeg", Perm: tierPerm(t)}
	}
	return Order{Name: "declaration"}
}

// SpanCost is a locality metric of an order: the sum over routers
// of the level span (max - min) of their incident links. A router whose
// links sit at adjacent levels contributes its degree; one whose links
// are scattered contributes the full scatter width. Lower is better —
// BDD paths constrain a router's links together (a route survives iff
// some incident link is up), and the nodes between a constraint's first
// and last level are where conjunctions blow up.
func SpanCost(t *topology.Topology, perm []int) int {
	level := func(l topology.LinkID) int {
		if perm == nil {
			return int(l)
		}
		return perm[l]
	}
	cost := 0
	for r := 0; r < t.NumRouters(); r++ {
		links := t.Router(topology.RouterID(r)).Links
		if len(links) == 0 {
			continue
		}
		lo, hi := level(links[0]), level(links[0])
		for _, l := range links[1:] {
			v := level(l)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		cost += hi - lo
	}
	return cost
}

// banded reports whether the topology's links fall into a crisp degree
// hierarchy: 2 or 3 distinct tiers (minimum endpoint degree), the
// smallest of which still holds at least 20% of all links. Fat trees
// and leaf-spine fabrics are banded (FatTree(k) splits exactly in half:
// pod fabric vs core uplinks); random WANs scatter across many small
// tiers and are not.
func banded(t *topology.Topology) bool {
	counts := map[int]int{}
	for i := 0; i < t.NumLinks(); i++ {
		l := t.Link(topology.LinkID(i))
		d := len(t.Router(l.A).Links)
		if db := len(t.Router(l.B).Links); db < d {
			d = db
		}
		counts[d]++
	}
	if len(counts) < 2 || len(counts) > 3 {
		return false
	}
	for _, c := range counts {
		if c*5 < t.NumLinks() {
			return false
		}
	}
	return true
}

// tierPerm builds the tiered order: links sort by ascending minimum
// endpoint degree, ties broken by LinkID (declaration order inside each
// tier), so equal-tier links never depend on sort internals.
func tierPerm(t *topology.Topology) []int {
	n := t.NumLinks()
	idx := make([]int, n)
	tier := make([]int, n)
	for i := 0; i < n; i++ {
		idx[i] = i
		l := t.Link(topology.LinkID(i))
		d := len(t.Router(l.A).Links)
		if db := len(t.Router(l.B).Links); db < d {
			d = db
		}
		tier[i] = d
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if tier[ia] != tier[ib] {
			return tier[ia] < tier[ib]
		}
		return ia < ib
	})
	perm := make([]int, n)
	for lvl, l := range idx {
		perm[l] = lvl
	}
	return perm
}
