// Package topology models the physical network: routers, ports, and
// links, with one boolean "link variable" per link as in §4.1 of the
// paper (link up = true, link down = false). It also provides the graph
// utilities the verification engine and baselines need: connectivity,
// (k+1)-edge-connected components (prefix pruning, §7.2), and min-cut
// (the Tiramisu baseline).
package topology

import (
	"fmt"
)

// RouterID identifies a router, dense from 0.
type RouterID int

// LinkID identifies a link, dense from 0. The link variable of link i is
// variable (headerBits + i) of the engine's BDD manager.
type LinkID int

// Link is an undirected physical link between two routers.
type Link struct {
	ID   LinkID
	A, B RouterID
}

// Other returns the endpoint of l opposite to r.
func (l Link) Other(r RouterID) RouterID {
	if l.A == r {
		return l.B
	}
	return l.A
}

// Router is a node of the topology.
type Router struct {
	ID   RouterID
	Name string
	// Links lists the IDs of the links incident to this router, in
	// insertion order; the port number of a link at this router is its
	// index in this slice.
	Links []LinkID
}

// Topology is an immutable-after-build undirected multigraph of routers
// and links.
type Topology struct {
	routers []Router
	links   []Link
	byName  map[string]RouterID
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{byName: make(map[string]RouterID)}
}

// AddRouter adds a router with the given unique name and returns its ID.
func (t *Topology) AddRouter(name string) RouterID {
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("topology: duplicate router %q", name))
	}
	id := RouterID(len(t.routers))
	t.routers = append(t.routers, Router{ID: id, Name: name})
	t.byName[name] = id
	return id
}

// AddLink connects routers a and b and returns the new link's ID.
func (t *Topology) AddLink(a, b RouterID) LinkID {
	if a == b {
		panic("topology: self loop")
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, A: a, B: b})
	t.routers[a].Links = append(t.routers[a].Links, id)
	t.routers[b].Links = append(t.routers[b].Links, id)
	return id
}

// NumRouters returns the number of routers.
func (t *Topology) NumRouters() int { return len(t.routers) }

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Router returns the router with the given ID.
func (t *Topology) Router(id RouterID) *Router { return &t.routers[id] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns all links.
func (t *Topology) Links() []Link { return t.links }

// RouterByName returns the ID of the named router.
func (t *Topology) RouterByName(name string) (RouterID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// MustRouter returns the ID of the named router, panicking if absent.
func (t *Topology) MustRouter(name string) RouterID {
	id, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("topology: unknown router %q", name))
	}
	return id
}

// Name returns the name of router id.
func (t *Topology) Name(id RouterID) string { return t.routers[id].Name }

// LinkBetween returns the first link connecting a and b.
func (t *Topology) LinkBetween(a, b RouterID) (LinkID, bool) {
	for _, lid := range t.routers[a].Links {
		if t.links[lid].Other(a) == b {
			return lid, true
		}
	}
	return 0, false
}

// Neighbors returns the routers adjacent to r (with multiplicity for
// parallel links).
func (t *Topology) Neighbors(r RouterID) []RouterID {
	out := make([]RouterID, 0, len(t.routers[r].Links))
	for _, lid := range t.routers[r].Links {
		out = append(out, t.links[lid].Other(r))
	}
	return out
}

// Connected reports whether the subgraph restricted to links for which
// alive returns true connects routers a and b. A nil alive means all
// links are up.
func (t *Topology) Connected(a, b RouterID, alive func(LinkID) bool) bool {
	if a == b {
		return true
	}
	seen := make([]bool, len(t.routers))
	stack := []RouterID{a}
	seen[a] = true
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range t.routers[r].Links {
			if alive != nil && !alive(lid) {
				continue
			}
			n := t.links[lid].Other(r)
			if n == b {
				return true
			}
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return false
}

// MinCut returns the minimum number of links whose removal disconnects s
// from d, computed with Ford–Fulkerson on the unit-capacity undirected
// graph. This is the core computation of the ARC/Tiramisu baselines: the
// failure tolerance of plain shortest-path reachability is MinCut-1.
func (t *Topology) MinCut(s, d RouterID) int {
	if s == d {
		return 0
	}
	// Residual capacities per directed edge: undirected unit edge =
	// capacity 1 each direction.
	type edge struct {
		to      RouterID
		cap     int
		reverse int // index of reverse edge in adj[to]
	}
	adj := make([][]edge, len(t.routers))
	addEdge := func(a, b RouterID) {
		adj[a] = append(adj[a], edge{to: b, cap: 1, reverse: len(adj[b])})
		adj[b] = append(adj[b], edge{to: a, cap: 1, reverse: len(adj[a]) - 1})
	}
	for _, l := range t.links {
		addEdge(l.A, l.B)
	}
	flow := 0
	for {
		// BFS for an augmenting path.
		parent := make([]int, len(t.routers)) // edge index used to reach router
		parentR := make([]RouterID, len(t.routers))
		seen := make([]bool, len(t.routers))
		seen[s] = true
		queue := []RouterID{s}
		found := false
		for len(queue) > 0 && !found {
			r := queue[0]
			queue = queue[1:]
			for i, e := range adj[r] {
				if e.cap <= 0 || seen[e.to] {
					continue
				}
				seen[e.to] = true
				parent[e.to] = i
				parentR[e.to] = r
				if e.to == d {
					found = true
					break
				}
				queue = append(queue, e.to)
			}
		}
		if !found {
			return flow
		}
		// Augment by one unit along the path.
		for v := d; v != s; {
			r := parentR[v]
			e := &adj[r][parent[v]]
			e.cap--
			adj[v][e.reverse].cap++
			v = r
		}
		flow++
	}
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topology(%d routers, %d links)", len(t.routers), len(t.links))
}
