// Package config defines the vendor-neutral router configuration model
// that symbolic route computation executes. It plays the role Batfish
// plays for the paper's implementation: the paper uses Batfish only to
// parse vendor configs into a neutral representation; this package *is*
// that representation, together with a textual format (see parse.go) so
// the pipeline can start from configuration files on disk.
//
// The model covers the features the paper exercises: BGP (networks,
// neighbors, per-neighbor import/export route-maps, communities,
// local-pref, AS-path prepending, route aggregation), OSPF (per-interface
// costs), static routes, and interface ACLs filtering on destination
// prefix.
package config

import (
	"fmt"
	"sort"

	"sre/internal/route"
	"sre/internal/topology"
)

// Network bundles a topology with one configuration per router. It is the
// input to both symbolic route computation and concrete simulation.
type Network struct {
	Topology *topology.Topology
	Routers  []*Router // indexed by RouterID
}

// NewNetwork creates a Network over the topology with empty router
// configurations.
func NewNetwork(t *topology.Topology) *Network {
	n := &Network{Topology: t, Routers: make([]*Router, t.NumRouters())}
	for i := range n.Routers {
		n.Routers[i] = NewRouter(t.Name(topology.RouterID(i)))
	}
	return n
}

// Router returns the configuration of router id.
func (n *Network) Router(id topology.RouterID) *Router { return n.Routers[id] }

// RouterByName returns the configuration of the named router.
func (n *Network) RouterByName(name string) *Router {
	return n.Routers[n.Topology.MustRouter(name)]
}

// Clone deep-copies the network (sharing the immutable topology); used by
// differential analysis to apply a change to a copy.
func (n *Network) Clone() *Network {
	cp := &Network{Topology: n.Topology, Routers: make([]*Router, len(n.Routers))}
	for i, r := range n.Routers {
		cp.Routers[i] = r.Clone()
	}
	return cp
}

// AllPrefixes returns the deduplicated, sorted list of destination
// prefixes originated anywhere in the network — the verification
// universe for all-pairs analyses.
func (n *Network) AllPrefixes() []route.Prefix {
	prefixes, _ := n.PrefixOrigins()
	return prefixes
}

// PrefixOrigins returns AllPrefixes and, from the same walk over every
// router's originated prefixes, the set of routers originating each
// of them (OriginsOf as a set).
func (n *Network) PrefixOrigins() ([]route.Prefix, map[route.Prefix]map[topology.RouterID]bool) {
	origins := make(map[route.Prefix]map[topology.RouterID]bool)
	var out []route.Prefix
	for i, r := range n.Routers {
		for _, p := range r.Originated() {
			set := origins[p]
			if set == nil {
				set = make(map[topology.RouterID]bool)
				origins[p] = set
				out = append(out, p)
			}
			set[topology.RouterID(i)] = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out, origins
}

// OriginsOf returns the routers that originate prefix p.
func (n *Network) OriginsOf(p route.Prefix) []topology.RouterID {
	var out []topology.RouterID
	for i, r := range n.Routers {
		for _, q := range r.Originated() {
			if q == p {
				out = append(out, topology.RouterID(i))
				break
			}
		}
	}
	return out
}

// Router is the configuration of a single router.
type Router struct {
	Name string

	BGP    *BGP
	OSPF   *OSPF
	Static []StaticRoute

	// Interfaces holds per-link interface settings (costs, ACLs),
	// keyed by link ID. Links without an entry use defaults.
	Interfaces map[topology.LinkID]*Interface

	// RouteMaps are named policies referenced by BGP neighbors.
	RouteMaps map[string]*RouteMap
}

// NewRouter returns an empty configuration for the named router.
func NewRouter(name string) *Router {
	return &Router{
		Name:       name,
		Interfaces: make(map[topology.LinkID]*Interface),
		RouteMaps:  make(map[string]*RouteMap),
	}
}

// Clone deep-copies the router configuration.
func (r *Router) Clone() *Router {
	cp := NewRouter(r.Name)
	if r.BGP != nil {
		cp.BGP = r.BGP.Clone()
	}
	if r.OSPF != nil {
		cp.OSPF = r.OSPF.Clone()
	}
	cp.Static = append([]StaticRoute(nil), r.Static...)
	for k, v := range r.Interfaces {
		cp.Interfaces[k] = v.Clone()
	}
	for k, v := range r.RouteMaps {
		cp.RouteMaps[k] = v.Clone()
	}
	return cp
}

// Interface returns the interface settings for link id, creating the
// entry on first use. It is for code that builds a configuration (the
// parser, the workload generators): a finished Network is shared by
// concurrent engines and hashed into cache keys, so its readers must
// not write — they use InterfaceOf.
func (r *Router) Interface(id topology.LinkID) *Interface {
	itf, ok := r.Interfaces[id]
	if !ok {
		itf = &Interface{OSPFCost: 1}
		r.Interfaces[id] = itf
	}
	return itf
}

// InterfaceOf returns a copy of the interface settings for link id
// without touching the router: a link with no entry has the defaults
// (OSPF cost 1, not passive, no ACLs).
func (r *Router) InterfaceOf(id topology.LinkID) Interface {
	if itf, ok := r.Interfaces[id]; ok {
		return *itf
	}
	return Interface{OSPFCost: 1}
}

// Originated returns every prefix this router originates into any
// protocol (BGP networks, OSPF networks, connected subnets).
func (r *Router) Originated() []route.Prefix {
	var out []route.Prefix
	if r.BGP != nil {
		out = append(out, r.BGP.Networks...)
	}
	if r.OSPF != nil {
		out = append(out, r.OSPF.Networks...)
	}
	return out
}

// Interface carries the per-link settings of a router.
type Interface struct {
	OSPFCost int  // cost of this interface in OSPF (default 1)
	Passive  bool // if true, no routing adjacency over this link
	ACLIn    *ACL // filters packets arriving on this interface
	ACLOut   *ACL // filters packets leaving via this interface
}

// Clone deep-copies the interface settings.
func (i *Interface) Clone() *Interface {
	cp := *i
	if i.ACLIn != nil {
		cp.ACLIn = i.ACLIn.Clone()
	}
	if i.ACLOut != nil {
		cp.ACLOut = i.ACLOut.Clone()
	}
	return &cp
}

// BGP configures a router's BGP process. Peerings are implied by the
// topology: a router peers with every adjacent router that also runs BGP
// (eBGP when AS numbers differ, iBGP otherwise), matching how the
// paper's synthetic datasets are configured.
type BGP struct {
	ASN uint32
	// Networks are locally originated prefixes ("network" statements).
	Networks []route.Prefix
	// Aggregates are "aggregate-address" summary prefixes: when at
	// least one more-specific route is present, the aggregate is
	// advertised instead (§4, route aggregation).
	Aggregates []route.Prefix
	// ImportPolicy and ExportPolicy name the route-map applied to
	// routes received from / advertised to a neighbor, keyed by
	// neighbor router name. Missing entry means permit-all.
	ImportPolicy map[string]string
	ExportPolicy map[string]string
}

// Clone deep-copies the BGP configuration.
func (b *BGP) Clone() *BGP {
	cp := &BGP{ASN: b.ASN}
	cp.Networks = append([]route.Prefix(nil), b.Networks...)
	cp.Aggregates = append([]route.Prefix(nil), b.Aggregates...)
	cp.ImportPolicy = cloneStringMap(b.ImportPolicy)
	cp.ExportPolicy = cloneStringMap(b.ExportPolicy)
	return cp
}

func cloneStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	cp := make(map[string]string, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// OSPF configures a router's OSPF process (single area).
type OSPF struct {
	// Networks are prefixes originated into OSPF at this router.
	Networks []route.Prefix
}

// Clone deep-copies the OSPF configuration.
func (o *OSPF) Clone() *OSPF {
	return &OSPF{Networks: append([]route.Prefix(nil), o.Networks...)}
}

// StaticRoute sends traffic for Prefix towards the given neighbor.
type StaticRoute struct {
	Prefix  route.Prefix
	NextHop string // neighbor router name
}

// Action is the verdict of a route-map clause or ACL entry.
type Action uint8

// Permit and Deny actions.
const (
	Permit Action = iota
	Deny
)

// String returns "permit" or "deny".
func (a Action) String() string {
	if a == Deny {
		return "deny"
	}
	return "permit"
}

// RouteMap is an ordered list of clauses evaluated first-match. A route
// matching no clause is denied (standard route-map semantics).
type RouteMap struct {
	Clauses []*Clause
}

// Clone deep-copies the route map.
func (rm *RouteMap) Clone() *RouteMap {
	cp := &RouteMap{Clauses: make([]*Clause, len(rm.Clauses))}
	for i, c := range rm.Clauses {
		cp.Clauses[i] = c.Clone()
	}
	return cp
}

// Clause is one term of a route map.
type Clause struct {
	Seq    int
	Action Action
	// Match conditions: a route matches the clause if it matches ALL
	// configured conditions. Zero-valued conditions are ignored.
	MatchPrefix    *PrefixMatch
	MatchCommunity uint64 // non-zero: route must carry this community
	// Set actions, applied when the clause permits.
	SetLocalPref int // >0: overwrite local preference
	SetMED       int // >=0 and set flag below
	SetMEDValid  bool
	AddCommunity uint64 // non-zero: append this community
	PrependAS    int    // >0: prepend own ASN this many times
}

// Clone deep-copies the clause.
func (c *Clause) Clone() *Clause {
	cp := *c
	if c.MatchPrefix != nil {
		pm := *c.MatchPrefix
		cp.MatchPrefix = &pm
	}
	return &cp
}

// PrefixMatch matches prefixes covered by Prefix whose length lies in
// [GE, LE]; zero GE/LE default to the prefix's own length (exact match).
type PrefixMatch struct {
	Prefix route.Prefix
	GE, LE int
}

// Matches reports whether p satisfies the prefix match.
func (pm *PrefixMatch) Matches(p route.Prefix) bool {
	ge, le := pm.GE, pm.LE
	if ge == 0 {
		ge = pm.Prefix.Len
	}
	if le == 0 {
		le = pm.Prefix.Len
	}
	return pm.Prefix.Covers(p) && p.Len >= ge && p.Len <= le
}

// Apply evaluates the route map on r. It returns the transformed route
// and true if permitted, or nil and false if denied. The input route is
// not mutated. ownASN is used by the prepend action.
func (rm *RouteMap) Apply(r *route.Route, ownASN uint32) (*route.Route, bool) {
	if rm == nil {
		return r, true
	}
	for _, c := range rm.Clauses {
		if c.MatchPrefix != nil && !c.MatchPrefix.Matches(r.Prefix) {
			continue
		}
		if c.MatchCommunity != 0 && !r.HasCommunity(c.MatchCommunity) {
			continue
		}
		if c.Action == Deny {
			return nil, false
		}
		out := r.Clone()
		if c.SetLocalPref > 0 {
			out.LocalPref = c.SetLocalPref
		}
		if c.SetMEDValid {
			out.MED = c.SetMED
		}
		if c.AddCommunity != 0 {
			out.Communities = append(out.Communities, c.AddCommunity)
		}
		for i := 0; i < c.PrependAS; i++ {
			out.ASPath = append([]uint32{ownASN}, out.ASPath...)
		}
		return out, true
	}
	return nil, false
}

// ACL is an ordered access list over destination addresses, evaluated
// first-match with an implicit trailing deny only when the list is
// non-empty and ends without a permit-any (standard behaviour is implicit
// deny; generators append explicit permit-any terms where needed).
type ACL struct {
	Entries []ACLEntry
}

// ACLEntry matches packets whose destination lies in Prefix.
type ACLEntry struct {
	Action Action
	// Prefix of destinations this entry matches; Any matches all.
	Prefix route.Prefix
	Any    bool
}

// Clone deep-copies the ACL.
func (a *ACL) Clone() *ACL {
	return &ACL{Entries: append([]ACLEntry(nil), a.Entries...)}
}

// PermitsAddr evaluates the ACL for a single concrete destination
// address. A nil ACL permits everything; a non-nil ACL has an implicit
// trailing deny.
func (a *ACL) PermitsAddr(addr uint32) bool {
	if a == nil {
		return true
	}
	for _, e := range a.Entries {
		if e.Any || e.Prefix.Contains(addr) {
			return e.Action == Permit
		}
	}
	return false
}

// Validate checks the network configuration for dangling references
// (route maps, static next hops) and returns a descriptive error.
func (n *Network) Validate() error {
	t := n.Topology
	for i, r := range n.Routers {
		id := topology.RouterID(i)
		if r.BGP != nil {
			for nbr, rmName := range r.BGP.ImportPolicy {
				if err := n.checkPolicyRef(id, nbr, rmName); err != nil {
					return err
				}
			}
			for nbr, rmName := range r.BGP.ExportPolicy {
				if err := n.checkPolicyRef(id, nbr, rmName); err != nil {
					return err
				}
			}
		}
		for _, s := range r.Static {
			nid, ok := t.RouterByName(s.NextHop)
			if !ok {
				return fmt.Errorf("config: router %s static %s: unknown next hop %q", r.Name, s.Prefix, s.NextHop)
			}
			if _, ok := t.LinkBetween(id, nid); !ok {
				return fmt.Errorf("config: router %s static %s: next hop %q is not adjacent", r.Name, s.Prefix, s.NextHop)
			}
		}
	}
	return nil
}

func (n *Network) checkPolicyRef(id topology.RouterID, nbr, rmName string) error {
	r := n.Routers[id]
	if _, ok := r.RouteMaps[rmName]; !ok {
		return fmt.Errorf("config: router %s references undefined route-map %q", r.Name, rmName)
	}
	nid, ok := n.Topology.RouterByName(nbr)
	if !ok {
		return fmt.Errorf("config: router %s references unknown neighbor %q", r.Name, nbr)
	}
	if _, ok := n.Topology.LinkBetween(id, nid); !ok {
		return fmt.Errorf("config: router %s has policy for non-adjacent neighbor %q", r.Name, nbr)
	}
	return nil
}
