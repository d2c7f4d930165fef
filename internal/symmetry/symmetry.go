// Package symmetry finds the symmetries of a configured network that
// verification can use. A symmetry is a router permutation π that maps
// the network onto itself: links go to links, each router's AS number
// to the AS number of its image, and each originated prefix p to σ(p),
// the prefix the image router originates in p's place. Answers about
// (s, σ(p)) are then the answers about (π⁻¹(s), p) up to renaming, so
// one prefix per orbit of σ needs verifying.
//
// Find proposes permutations by individualisation and refinement:
// colour refinement over routers, originated prefixes and AS numbers,
// seeded with a name-free signature of each router's configuration,
// then individualising one vertex at a time and refining again until
// the colouring pairs every vertex with its image. A proposal is
// accepted only when Check holds: the network renamed by π formats to
// the same config.Format text, byte for byte, and every configured
// prefix that is not an originated prefix σ moves (ACL entries,
// route-map matches, statics, aggregates and the fixed originated
// prefixes) covers all or none of each cycle of σ and overlaps none it
// does not cover, so the address map that swaps the moved prefixes'
// blocks leaves it unchanged. The search has a budget; once it is
// spent, Find finds no further symmetry.
package symmetry

import (
	"fmt"
	"slices"
	"strings"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/topology"
)

// Perm is a router permutation: Perm[r] is the image π(r) of router r.
type Perm []topology.RouterID

// identity returns the identity permutation of n routers.
func identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = topology.RouterID(i)
	}
	return p
}

// Inverse returns π⁻¹.
func (p Perm) Inverse() Perm {
	inv := make(Perm, len(p))
	for r, img := range p {
		inv[img] = topology.RouterID(r)
	}
	return inv
}

// After returns the composition p∘q: router r goes to p[q[r]].
func (p Perm) After(q Perm) Perm {
	out := make(Perm, len(q))
	for r, img := range q {
		out[r] = p[img]
	}
	return out
}

// searchBudget bounds the search nodes (one individualisation and
// refinement each) a Find may visit over all its searches. A fat tree
// of arity 14 needs a few hundred.
const searchBudget = 1 << 13

// Orbits is the partition of a network's originated prefixes into the
// orbits of its symmetries. Prefixes that no symmetry moves are not
// listed.
type Orbits struct {
	orbits [][]route.Prefix
	index  map[route.Prefix]int
	// carry[p] is a symmetry whose σ maps p's orbit's first member to p.
	carry map[route.Prefix]Perm
	// Candidates counts the proposed permutations Check formatted.
	Candidates int
	// Searches counts the proposals the finder searched for.
	Searches int
}

// Len returns the number of orbits with more than one member.
func (o *Orbits) Len() int {
	if o == nil {
		return 0
	}
	return len(o.orbits)
}

// All returns the orbits with more than one member, each sorted, in
// the order of their first members. The slices are the Orbits' own.
func (o *Orbits) All() [][]route.Prefix {
	if o == nil {
		return nil
	}
	return o.orbits
}

// Orbit returns the sorted orbit of p, or nil when no symmetry moves p.
func (o *Orbits) Orbit(p route.Prefix) []route.Prefix {
	if o == nil {
		return nil
	}
	if i, ok := o.index[p]; ok {
		return o.orbits[i]
	}
	return nil
}

// Carry returns a symmetry whose σ maps from to to, or nil when the two
// prefixes lie in different orbits.
func (o *Orbits) Carry(from, to route.Prefix) Perm {
	if o == nil {
		return nil
	}
	i, ok1 := o.index[from]
	j, ok2 := o.index[to]
	if !ok1 || !ok2 || i != j {
		return nil
	}
	return o.carry[to].After(o.carry[from].Inverse())
}

// Find returns the prefix orbits of net's symmetries. Networks with
// parallel links have none here.
func Find(net *config.Network) *Orbits {
	o := &Orbits{index: map[route.Prefix]int{}, carry: map[route.Prefix]Perm{}}
	s := newSearch(net)
	if s == nil {
		return o
	}
	stable := s.g.initial()
	s.g.refine(stable)
	// Prefix vertices of one stable colour, in prefix order (vertex
	// order is prefix order).
	classes := map[int32][]int32{}
	var colours []int32
	for v := s.nr; v < s.nr+len(s.prefixes); v++ {
		c := stable[v]
		if classes[c] == nil {
			colours = append(colours, c)
		}
		classes[c] = append(classes[c], int32(v))
	}
	for _, c := range colours {
		remaining := classes[c]
		for len(remaining) > 1 && s.budget > 0 {
			members := s.orbit(stable, remaining)
			var rest []int32
			for _, v := range remaining {
				if _, in := members[s.prefixes[v-int32(s.nr)]]; !in {
					rest = append(rest, v)
				}
			}
			if len(members) > 1 {
				o.add(members)
			}
			remaining = rest
		}
	}
	o.Candidates, o.Searches = s.candidates, s.searches
	return o
}

// add records one orbit: members maps each prefix to its carry.
func (o *Orbits) add(members map[route.Prefix]Perm) {
	orbit := make([]route.Prefix, 0, len(members))
	for p := range members {
		orbit = append(orbit, p)
	}
	slices.SortFunc(orbit, comparePrefix)
	// Carries relative to the smallest member.
	base := members[orbit[0]].Inverse()
	for _, p := range orbit {
		o.index[p] = len(o.orbits)
		o.carry[p] = members[p].After(base)
	}
	o.orbits = append(o.orbits, orbit)
}

func comparePrefix(a, b route.Prefix) int {
	if a.Addr != b.Addr {
		if a.Addr < b.Addr {
			return -1
		}
		return 1
	}
	return a.Len - b.Len
}

// symmetryOf is one accepted symmetry: its router permutation and the
// prefix map it induces.
type symmetryOf struct {
	pi    Perm
	sigma map[route.Prefix]route.Prefix
}

// orbit grows the orbit of class[0] within class: it searches for a
// symmetry carrying class[0] to each prefix not yet reached and closes
// the orbit under every symmetry found. It returns each member with a
// symmetry carrying class[0] to it.
func (s *search) orbit(stable []int32, class []int32) map[route.Prefix]Perm {
	base := class[0]
	members := map[route.Prefix]Perm{s.prefixes[base-int32(s.nr)]: identity(s.nr)}
	var gens []symmetryOf
	for _, q := range class[1:] {
		if _, in := members[s.prefixes[q-int32(s.nr)]]; in {
			continue
		}
		if s.budget <= 0 {
			break
		}
		s.searches++
		sym, ok := s.find(stable, base, q)
		if !ok {
			continue
		}
		gens = append(gens, sym)
		// Close under the generators: their compositions are symmetries
		// too, so each image of a member is a member.
		for changed := true; changed; {
			changed = false
			for _, p := range sortedKeys(members) {
				for _, g := range gens {
					img, moved := g.sigma[p]
					if !moved {
						continue
					}
					if _, in := members[img]; !in {
						members[img] = g.pi.After(members[p])
						changed = true
					}
				}
			}
		}
	}
	return members
}

func sortedKeys(m map[route.Prefix]Perm) []route.Prefix {
	keys := make([]route.Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, comparePrefix)
	return keys
}

// search is the state of one Find: the vertex-coloured graph, the
// network's formatted text and the budget left.
type search struct {
	net      *config.Network
	g        *graph
	nr       int            // routers are vertices [0, nr)
	prefixes []route.Prefix // vertex nr+i is prefixes[i]
	text     string         // config.Format(net), once a candidate needs it
	links    map[[2]topology.RouterID]topology.LinkID
	budget   int
	// candidates counts the proposals formatted; searches the prefix
	// pairs searched.
	candidates, searches int
}

// newSearch builds the search state, or returns nil for a network the
// finder does not handle (parallel links, nothing originated).
func newSearch(net *config.Network) *search {
	t := net.Topology
	s := &search{net: net, nr: t.NumRouters(), budget: searchBudget,
		links: make(map[[2]topology.RouterID]topology.LinkID, t.NumLinks())}
	for _, l := range t.Links() {
		if _, dup := s.links[[2]topology.RouterID{l.A, l.B}]; dup {
			return nil
		}
		if _, dup := s.links[[2]topology.RouterID{l.B, l.A}]; dup {
			return nil
		}
		s.links[[2]topology.RouterID{l.A, l.B}] = l.ID
	}
	s.prefixes = net.AllPrefixes()
	if len(s.prefixes) < 2 {
		return nil
	}
	s.g = buildGraph(net, s.prefixes)
	return s
}

// find searches for a symmetry whose σ maps prefix vertex base to q.
func (s *search) find(stable []int32, base, q int32) (symmetryOf, bool) {
	cl, cr := slices.Clone(stable), slices.Clone(stable)
	fresh := int32(len(stable))
	cl[base], cr[q] = fresh, fresh
	return s.descend(cl, cr)
}

// descend refines the two colourings, tries the permutation they pair
// up, and otherwise individualises the first vertex of the first
// non-singleton cell on the left against each candidate on the right.
func (s *search) descend(cl, cr []int32) (symmetryOf, bool) {
	if s.budget <= 0 {
		return symmetryOf{}, false
	}
	s.budget--
	if !s.g.refine(cl, cr) {
		return symmetryOf{}, false
	}
	if phi, ok := pairUp(cl, cr); ok && s.g.automorphism(phi) {
		pi := make(Perm, s.nr)
		for r := range pi {
			pi[r] = topology.RouterID(phi[r])
		}
		if sym, ok := s.accept(pi); ok {
			return sym, true
		}
	}
	cell, v := firstCell(cl)
	if v < 0 {
		return symmetryOf{}, false
	}
	// The identity first: most of a symmetric fabric stays in place.
	var cands []int32
	if cr[v] == cell {
		cands = append(cands, v)
	}
	for w, c := range cr {
		if c == cell && int32(w) != v {
			cands = append(cands, int32(w))
		}
	}
	fresh := int32(len(cl))
	for _, w := range cands {
		l2, r2 := slices.Clone(cl), slices.Clone(cr)
		l2[v], r2[w] = fresh, fresh
		if sym, ok := s.descend(l2, r2); ok {
			return sym, true
		}
		if s.budget <= 0 {
			break
		}
	}
	return symmetryOf{}, false
}

// accept checks a proposed router permutation and returns it with its
// prefix map.
func (s *search) accept(pi Perm) (symmetryOf, bool) {
	s.candidates++
	if s.text == "" {
		s.text = config.Format(s.net) // only a network with a candidate pays
	}
	sigma, err := check(s.net, pi, s.text, s.links)
	if err != nil {
		return symmetryOf{}, false
	}
	return symmetryOf{pi: pi, sigma: sigma}, true
}

// pairUp maps each vertex of the left colouring to the vertex of the
// right one with its colour: singleton cells pair their one vertex, and
// a larger cell must hold the same vertices on both sides and maps each
// to itself. It fails when a larger cell differs between the sides.
// Colours are below len(cl) + 1.
func pairUp(cl, cr []int32) ([]int32, bool) {
	size := make([]int32, len(cl)+1)
	for _, c := range cl {
		size[c]++
	}
	right := make([]int32, len(cl)+1)
	for w, c := range cr {
		right[c] = int32(w)
	}
	phi := make([]int32, len(cl))
	for v, c := range cl {
		switch {
		case size[c] == 1:
			phi[v] = right[c]
		case cr[v] == c:
			phi[v] = int32(v)
		default:
			return nil, false
		}
	}
	return phi, true
}

// firstCell returns the smallest colour with more than one vertex and
// its smallest vertex, or v < 0 when the colouring is discrete.
func firstCell(c []int32) (cell, v int32) {
	count := make([]int32, len(c)+1)
	for _, x := range c {
		count[x]++
	}
	cell, v = -1, -1
	for w, x := range c {
		if count[x] > 1 && (cell < 0 || x < cell) {
			cell, v = x, int32(w)
		}
	}
	return cell, v
}

// Check reports whether π is a symmetry of net the finder would accept:
// the AS numbers and originated prefixes π induces are bijections, the
// network renamed by π formats to net's own text, and every configured
// prefix σ does not move is unchanged by the address map that swaps the
// moved prefixes' blocks (see the package comment).
func Check(net *config.Network, pi Perm) error {
	links := make(map[[2]topology.RouterID]topology.LinkID, net.Topology.NumLinks())
	for _, l := range net.Topology.Links() {
		links[[2]topology.RouterID{l.A, l.B}] = l.ID
	}
	_, err := check(net, pi, config.Format(net), links)
	return err
}

func check(net *config.Network, pi Perm, text string, links map[[2]topology.RouterID]topology.LinkID) (map[route.Prefix]route.Prefix, error) {
	t := net.Topology
	if len(pi) != t.NumRouters() {
		return nil, fmt.Errorf("symmetry: permutation of %d routers, network has %d", len(pi), t.NumRouters())
	}
	sigma, asns, err := induced(net, pi)
	if err != nil {
		return nil, err
	}
	if err := invariantPrefixes(net, sigma); err != nil {
		return nil, err
	}
	lambda := make([]topology.LinkID, t.NumLinks())
	for _, l := range t.Links() {
		img, ok := links[[2]topology.RouterID{pi[l.A], pi[l.B]}]
		if !ok {
			return nil, fmt.Errorf("symmetry: link %s %s has no image", t.Name(l.A), t.Name(l.B))
		}
		lambda[l.ID] = img
	}
	renamed := Renaming{Routers: pi, Links: lambda, ASNs: asns, Prefixes: sigma}.Apply(net)
	if config.Format(renamed) != text {
		return nil, fmt.Errorf("symmetry: the renamed network formats differently")
	}
	return sigma, nil
}

// induced returns the prefix map σ and the AS-number map π induces:
// router r's i-th BGP or OSPF network maps to π(r)'s i-th, and r's AS
// number to π(r)'s. Both must be bijections; σ lists moved prefixes
// only.
func induced(net *config.Network, pi Perm) (map[route.Prefix]route.Prefix, map[uint32]uint32, error) {
	sigma := map[route.Prefix]route.Prefix{}
	asns := map[uint32]uint32{}
	pair := func(a, b []route.Prefix) error {
		if len(a) != len(b) {
			return fmt.Errorf("symmetry: %d networks map onto %d", len(a), len(b))
		}
		for i, p := range a {
			if img, ok := sigma[p]; ok && img != b[i] {
				return fmt.Errorf("symmetry: %s maps to both %s and %s", p, img, b[i])
			}
			sigma[p] = b[i]
		}
		return nil
	}
	for r, rc := range net.Routers {
		img := net.Routers[pi[r]]
		if (rc.BGP == nil) != (img.BGP == nil) || (rc.OSPF == nil) != (img.OSPF == nil) {
			return nil, nil, fmt.Errorf("symmetry: %s and %s run different protocols", rc.Name, img.Name)
		}
		if rc.BGP != nil {
			if a, ok := asns[rc.BGP.ASN]; ok && a != img.BGP.ASN {
				return nil, nil, fmt.Errorf("symmetry: AS %d maps to both %d and %d", rc.BGP.ASN, a, img.BGP.ASN)
			}
			asns[rc.BGP.ASN] = img.BGP.ASN
			if err := pair(rc.BGP.Networks, img.BGP.Networks); err != nil {
				return nil, nil, err
			}
		}
		if rc.OSPF != nil {
			if err := pair(rc.OSPF.Networks, img.OSPF.Networks); err != nil {
				return nil, nil, err
			}
		}
	}
	seen := map[route.Prefix]bool{}
	for p, img := range sigma {
		if seen[img] {
			return nil, nil, fmt.Errorf("symmetry: two prefixes map to %s", img)
		}
		seen[img] = true
		if img == p {
			delete(sigma, p)
		}
	}
	seenAS := map[uint32]bool{}
	for _, img := range asns {
		if seenAS[img] {
			return nil, nil, fmt.Errorf("symmetry: two AS numbers map to %d", img)
		}
		seenAS[img] = true
	}
	return sigma, asns, nil
}

// invariantPrefixes checks that the moved prefixes are pairwise
// disjoint blocks that move to blocks of their own length, and that the
// address map swapping them leaves every other configured prefix
// unchanged: each covers all or none of every cycle of σ and overlaps
// none it does not cover. A static route may overlap no moved prefix at
// all: a verification restricted to one prefix per orbit would forward
// the others' addresses over it.
func invariantPrefixes(net *config.Network, sigma map[route.Prefix]route.Prefix) error {
	if len(sigma) == 0 {
		return nil
	}
	moved := make([]route.Prefix, 0, len(sigma))
	for p, img := range sigma {
		if img.Len != p.Len {
			return fmt.Errorf("symmetry: %s maps to %s of another length", p, img)
		}
		moved = append(moved, p)
	}
	slices.SortFunc(moved, comparePrefix)
	for i := 1; i < len(moved); i++ {
		if moved[i-1].Overlaps(moved[i]) {
			return fmt.Errorf("symmetry: moved prefixes %s and %s overlap", moved[i-1], moved[i])
		}
	}
	var cycles [][]route.Prefix
	done := map[route.Prefix]bool{}
	for _, p := range moved {
		var cyc []route.Prefix
		for q := p; !done[q]; q = sigma[q] {
			done[q] = true
			cyc = append(cyc, q)
		}
		if len(cyc) > 0 {
			cycles = append(cycles, cyc)
		}
	}
	invariant := func(c route.Prefix, what string) error {
		for _, cyc := range cycles {
			covered, overlapped := 0, 0
			for _, p := range cyc {
				if c.Covers(p) {
					covered++
				}
				if c.Overlaps(p) {
					overlapped++
				}
			}
			if covered != len(cyc) && overlapped != 0 {
				return fmt.Errorf("symmetry: %s %s tells %s from %s", what, c, cyc[0], cyc[1])
			}
		}
		return nil
	}
	for _, p := range net.AllPrefixes() {
		if _, isMoved := sigma[p]; !isMoved {
			if err := invariant(p, "originated prefix"); err != nil {
				return err
			}
		}
	}
	for _, rc := range net.Routers {
		if rc.BGP != nil {
			for _, agg := range rc.BGP.Aggregates {
				if err := invariant(agg, "aggregate"); err != nil {
					return err
				}
			}
		}
		for _, st := range rc.Static {
			for _, p := range moved {
				if st.Prefix.Overlaps(p) {
					return fmt.Errorf("symmetry: static route %s overlaps moved prefix %s", st.Prefix, p)
				}
			}
		}
		for _, itf := range rc.Interfaces {
			for _, acl := range []*config.ACL{itf.ACLIn, itf.ACLOut} {
				if acl == nil {
					continue
				}
				for _, e := range acl.Entries {
					if e.Any {
						continue
					}
					if err := invariant(e.Prefix, "ACL entry"); err != nil {
						return err
					}
				}
			}
		}
		for _, rm := range rc.RouteMaps {
			for _, cl := range rm.Clauses {
				if cl.MatchPrefix == nil {
					continue
				}
				if err := invariant(cl.MatchPrefix.Prefix, "route-map match"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Renaming maps a network onto a renamed copy of itself.
type Renaming struct {
	// Routers: input router r becomes output router Routers[r].
	Routers Perm
	// Names are the output routers' names by output ID; nil keeps the
	// input's names by ID.
	Names []string
	// Links: input link l becomes output link Links[l], joining the
	// images of its endpoints in the same order. Nil keeps link IDs.
	Links []topology.LinkID
	// ASNs and Prefixes map AS numbers and originated prefixes (BGP and
	// OSPF networks); values they do not list stay as they are. No other
	// prefix is renamed.
	ASNs     map[uint32]uint32
	Prefixes map[route.Prefix]route.Prefix
}

// Apply returns the renamed copy of net. It shares the input's ACLs and
// route maps, which a renaming does not change.
func (rn Renaming) Apply(net *config.Network) *config.Network {
	t := net.Topology
	n := t.NumRouters()
	name := func(out topology.RouterID) string {
		if rn.Names != nil {
			return rn.Names[out]
		}
		return t.Name(out)
	}
	linkOut := func(l topology.LinkID) topology.LinkID {
		if rn.Links != nil {
			return rn.Links[l]
		}
		return l
	}
	topo := topology.NewTopology()
	for id := 0; id < n; id++ {
		topo.AddRouter(name(topology.RouterID(id)))
	}
	links := make([]topology.Link, t.NumLinks())
	for _, l := range t.Links() {
		links[linkOut(l.ID)] = topology.Link{A: rn.Routers[l.A], B: rn.Routers[l.B]}
	}
	for _, l := range links {
		topo.AddLink(l.A, l.B)
	}
	// Neighbour names in policies and statics follow their routers.
	rename := func(nbr string) string {
		if id, ok := t.RouterByName(nbr); ok {
			return name(rn.Routers[id])
		}
		return nbr
	}
	prefixes := func(ps []route.Prefix) []route.Prefix {
		out := make([]route.Prefix, len(ps))
		for i, p := range ps {
			if img, ok := rn.Prefixes[p]; ok {
				p = img
			}
			out[i] = p
		}
		return out
	}
	policies := func(m map[string]string) map[string]string {
		out := make(map[string]string, len(m))
		for nbr, rm := range m {
			out[rename(nbr)] = rm
		}
		return out
	}
	out := &config.Network{Topology: topo, Routers: make([]*config.Router, n)}
	for r, rc := range net.Routers {
		o := rn.Routers[r]
		nr := config.NewRouter(name(o))
		if b := rc.BGP; b != nil {
			asn := b.ASN
			if img, ok := rn.ASNs[asn]; ok {
				asn = img
			}
			nr.BGP = &config.BGP{ASN: asn, Networks: prefixes(b.Networks),
				Aggregates:   slices.Clone(b.Aggregates),
				ImportPolicy: policies(b.ImportPolicy), ExportPolicy: policies(b.ExportPolicy)}
		}
		if rc.OSPF != nil {
			nr.OSPF = &config.OSPF{Networks: prefixes(rc.OSPF.Networks)}
		}
		for _, st := range rc.Static {
			nr.Static = append(nr.Static, config.StaticRoute{Prefix: st.Prefix, NextHop: rename(st.NextHop)})
		}
		for lid, itf := range rc.Interfaces {
			nr.Interfaces[linkOut(lid)] = itf
		}
		for nm, rm := range rc.RouteMaps {
			nr.RouteMaps[nm] = rm
		}
		out.Routers[o] = nr
	}
	return out
}

// usesCommunities reports whether any route map sets or matches a
// community. Communities may carry AS numbers, which a renaming does
// not rewrite, so such a network keeps every AS number in place.
func usesCommunities(net *config.Network) bool {
	for _, rc := range net.Routers {
		for _, rm := range rc.RouteMaps {
			for _, cl := range rm.Clauses {
				if cl.MatchCommunity != 0 || cl.AddCommunity != 0 {
					return true
				}
			}
		}
	}
	return false
}

// signature is the name-free text of what a router's configuration
// says about the router alone: its protocols, aggregates, static
// prefixes and route maps (names included: a renaming keeps them). Its
// networks, interfaces, policies and static next hops are edges of the
// graph.
func signature(rc *config.Router, fixedASN bool) string {
	var b strings.Builder
	b.WriteString("router")
	if rc.BGP != nil {
		b.WriteString("|bgp")
		if fixedASN {
			fmt.Fprintf(&b, " %d", rc.BGP.ASN)
		}
		for _, agg := range rc.BGP.Aggregates {
			fmt.Fprintf(&b, " agg %s", agg)
		}
	}
	if rc.OSPF != nil {
		b.WriteString("|ospf")
	}
	for _, st := range rc.Static {
		fmt.Fprintf(&b, "|static %s", st.Prefix)
	}
	names := make([]string, 0, len(rc.RouteMaps))
	for nm := range rc.RouteMaps {
		names = append(names, nm)
	}
	slices.Sort(names)
	for _, nm := range names {
		fmt.Fprintf(&b, "|route-map %s", nm)
		for _, cl := range rc.RouteMaps[nm].Clauses {
			fmt.Fprintf(&b, " [%d %v", cl.Seq, cl.Action)
			if pm := cl.MatchPrefix; pm != nil {
				fmt.Fprintf(&b, " prefix %s %d %d", pm.Prefix, pm.GE, pm.LE)
			}
			fmt.Fprintf(&b, " %d %d %d %v %d %d]", cl.MatchCommunity, cl.SetLocalPref,
				cl.SetMED, cl.SetMEDValid, cl.AddCommunity, cl.PrependAS)
		}
	}
	return b.String()
}

// interfaceText renders router rc's settings on link l ("-" without an
// interface entry, which config.Format also tells apart).
func interfaceText(rc *config.Router, l topology.LinkID) string {
	itf, ok := rc.Interfaces[l]
	if !ok {
		return "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cost %d passive %v", itf.OSPFCost, itf.Passive)
	for _, acl := range []*config.ACL{itf.ACLIn, itf.ACLOut} {
		b.WriteString(" acl")
		if acl == nil {
			b.WriteString(" none")
			continue
		}
		for _, e := range acl.Entries {
			if e.Any {
				fmt.Fprintf(&b, " %v any", e.Action)
			} else {
				fmt.Fprintf(&b, " %v %s", e.Action, e.Prefix)
			}
		}
	}
	return b.String()
}

// sessionText renders what router rc says about neighbour nbr: its BGP
// policies towards it and the statics it routes via it (by position).
func sessionText(rc *config.Router, nbr string) string {
	var b strings.Builder
	if rc.BGP != nil {
		fmt.Fprintf(&b, "import %q export %q", rc.BGP.ImportPolicy[nbr], rc.BGP.ExportPolicy[nbr])
	}
	for i, st := range rc.Static {
		if st.NextHop == nbr {
			fmt.Fprintf(&b, " static#%d", i)
		}
	}
	return b.String()
}
