package symmetry

import (
	"cmp"
	"fmt"
	"slices"

	"sre/internal/config"
	"sre/internal/route"
)

// arc is one labelled edge of the graph, seen from its tail.
type arc struct {
	to, label int32
}

// graph is the vertex-coloured, arc-labelled graph refinement runs on:
// routers, then originated prefixes, then AS numbers. Routers are
// joined along links (labelled with both ends' interface settings and
// what each end configures towards the other), to the prefixes they
// originate (labelled with protocol and list position) and to their AS
// number.
type graph struct {
	n    int
	adj  [][]arc
	seed []string // initial colour text of each vertex
	arcs map[[3]int32]bool
	// scratch of refine
	items, sorted []refineItem
	start, next   []int32
}

type refineItem struct {
	side, v, colour int32
	hash            uint64
}

func buildGraph(net *config.Network, prefixes []route.Prefix) *graph {
	t := net.Topology
	nr := t.NumRouters()
	fixedASN := usesCommunities(net)
	g := &graph{arcs: map[[3]int32]bool{}}
	labels := map[string]int32{}
	label := func(s string) int32 {
		id, ok := labels[s]
		if !ok {
			id = int32(len(labels))
			labels[s] = id
		}
		return id
	}
	pv := make(map[route.Prefix]int32, len(prefixes))
	for i, p := range prefixes {
		pv[p] = int32(nr + i)
	}
	asv := map[uint32]int32{}
	var asns []uint32
	if !fixedASN {
		for _, rc := range net.Routers {
			if rc.BGP != nil {
				if _, ok := asv[rc.BGP.ASN]; !ok {
					asv[rc.BGP.ASN] = int32(nr + len(prefixes) + len(asns))
					asns = append(asns, rc.BGP.ASN)
				}
			}
		}
	}
	g.n = nr + len(prefixes) + len(asns)
	g.adj = make([][]arc, g.n)
	g.seed = make([]string, g.n)
	edge := func(a, b int32, l string) {
		id := label(l)
		g.adj[a] = append(g.adj[a], arc{b, id})
		g.arcs[[3]int32{a, b, id}] = true
	}
	for r, rc := range net.Routers {
		g.seed[r] = signature(rc, fixedASN)
		if rc.BGP != nil {
			for i, p := range rc.BGP.Networks {
				edge(int32(r), pv[p], fmt.Sprintf("bgp#%d", i))
				edge(pv[p], int32(r), fmt.Sprintf("bgp#%d", i))
			}
			if !fixedASN {
				edge(int32(r), asv[rc.BGP.ASN], "asn")
				edge(asv[rc.BGP.ASN], int32(r), "asn")
			}
		}
		if rc.OSPF != nil {
			for i, p := range rc.OSPF.Networks {
				edge(int32(r), pv[p], fmt.Sprintf("ospf#%d", i))
				edge(pv[p], int32(r), fmt.Sprintf("ospf#%d", i))
			}
		}
	}
	for _, l := range t.Links() {
		ra, rb := net.Routers[l.A], net.Routers[l.B]
		ia, ib := interfaceText(ra, l.ID), interfaceText(rb, l.ID)
		sa, sb := sessionText(ra, rb.Name), sessionText(rb, ra.Name)
		edge(int32(l.A), int32(l.B), "link from A|"+ia+"|"+ib+"|"+sa+"|"+sb)
		edge(int32(l.B), int32(l.A), "link from B|"+ib+"|"+ia+"|"+sb+"|"+sa)
	}
	refs := references(net)
	for i, p := range prefixes {
		s := fmt.Sprintf("prefix /%d", p.Len)
		var near []string
		for _, q := range prefixes {
			if q != p && q.Overlaps(p) {
				near = append(near, "originated "+q.String())
			}
		}
		for _, c := range refs {
			if c.prefix.Overlaps(p) {
				near = append(near, c.kind+" "+c.prefix.String())
				if c.kind == "static" {
					// A static route may overlap no moved prefix: pin p.
					near = append(near, "pinned "+p.String())
				}
			}
		}
		slices.Sort(near)
		for _, x := range slices.Compact(near) {
			s += " | " + x
		}
		g.seed[nr+i] = s
	}
	for i := range asns {
		g.seed[nr+len(prefixes)+i] = "asn"
	}
	return g
}

// reference is one configured prefix that no renaming rewrites.
type reference struct {
	kind   string
	prefix route.Prefix
}

// references lists the configured prefixes other than the originated
// ones: aggregates, statics, ACL entries and route-map matches.
func references(net *config.Network) []reference {
	var out []reference
	for _, rc := range net.Routers {
		if rc.BGP != nil {
			for _, agg := range rc.BGP.Aggregates {
				out = append(out, reference{"aggregate", agg})
			}
		}
		for _, st := range rc.Static {
			out = append(out, reference{"static", st.Prefix})
		}
		for _, itf := range rc.Interfaces {
			for _, acl := range []*config.ACL{itf.ACLIn, itf.ACLOut} {
				if acl == nil {
					continue
				}
				for _, e := range acl.Entries {
					if !e.Any {
						out = append(out, reference{"acl", e.Prefix})
					}
				}
			}
		}
		for _, rm := range rc.RouteMaps {
			for _, cl := range rm.Clauses {
				if cl.MatchPrefix != nil {
					out = append(out, reference{"route-map", cl.MatchPrefix.Prefix})
				}
			}
		}
	}
	return out
}

// initial returns the seed colouring: vertices with equal seed text
// share a colour, numbered in text order.
func (g *graph) initial() []int32 {
	texts := slices.Clone(g.seed)
	slices.Sort(texts)
	texts = slices.Compact(texts)
	c := make([]int32, g.n)
	for v, s := range g.seed {
		i, _ := slices.BinarySearch(texts, s)
		c[v] = int32(i)
	}
	return c
}

// refine refines one colouring, or two that must stay compatible, to
// the coarsest stable colouring: a vertex's new colour is its old one
// with the multiset of (arc label, neighbour colour) pairs, numbered in
// the order of (old colour, multiset hash) over both colourings, so
// equal colours mean the same on both sides. A hash collision can only
// leave the colouring coarser, which costs search, never soundness: a
// proposal is checked in full. refine reports false when the two
// colourings give some colour a different number of vertices.
func (g *graph) refine(cs ...[]int32) bool {
	prev := -1
	for {
		items := g.items[:0]
		for side, c := range cs {
			for v := 0; v < g.n; v++ {
				var h uint64
				for _, a := range g.adj[v] {
					h += mix(uint64(a.label)<<32 | uint64(c[a.to]))
				}
				items = append(items, refineItem{side: int32(side), v: int32(v), colour: c[v], hash: h})
			}
		}
		g.items = items
		items = g.byColour(items)
		colour := int32(-1)
		var count [2]int
		for i, it := range items {
			if i == 0 || items[i-1].colour != it.colour || items[i-1].hash != it.hash {
				if count[0] != count[1] && len(cs) == 2 {
					return false
				}
				count = [2]int{}
				colour++
			}
			count[it.side]++
			cs[it.side][it.v] = colour
		}
		if count[0] != count[1] && len(cs) == 2 {
			return false
		}
		if int(colour)+1 == prev {
			return true
		}
		prev = int(colour) + 1
	}
}

// byColour orders items by (colour, hash): a counting sort on the
// colours, which are below n + 1, then a sort of each colour's hashes.
func (g *graph) byColour(items []refineItem) []refineItem {
	start := g.start[:0]
	for range g.n + 2 {
		start = append(start, 0)
	}
	for _, it := range items {
		start[it.colour+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	out := slices.Grow(g.sorted[:0], len(items))[:len(items)]
	next := append(g.next[:0], start...)
	g.next = next
	for _, it := range items {
		out[next[it.colour]] = it
		next[it.colour]++
	}
	for c := 0; c+1 < len(start); c++ {
		if cell := out[start[c]:start[c+1]]; len(cell) > 1 {
			slices.SortFunc(cell, func(a, b refineItem) int { return cmp.Compare(a.hash, b.hash) })
		}
	}
	g.start, g.sorted = start, out
	return out
}

// mix is splitmix64's finaliser: summed over a vertex's arcs it hashes
// their multiset.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// automorphism reports whether the vertex map phi carries every arc to
// an arc with the same label.
func (g *graph) automorphism(phi []int32) bool {
	for v, arcs := range g.adj {
		for _, a := range arcs {
			if !g.arcs[[3]int32{phi[v], phi[a.to], a.label}] {
				return false
			}
		}
	}
	return true
}
