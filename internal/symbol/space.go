// Package symbol defines the symbolic variable space shared by symbolic
// route computation, symbolic packet forwarding, and property analysis.
//
// Following §5.1 of the paper, a symbolic packet is a bit vector of
// header bits plus one boolean per link. We use the 32 destination-IP
// bits as the header (the paper's walkthrough and evaluation also match
// on destination prefixes), ordered ABOVE the link variables in the BDD:
// variable i (0 ≤ i < 32) is destination bit i counted from the most
// significant bit, and the link variables occupy levels 32..32+links-1
// (true = up). Algorithm 2's Extract depends on this split: splitting a
// property BDD at level 32 decouples packet BDDs from topology BDDs.
//
// WITHIN the link band the layout is a permutation chosen at space
// construction (internal/order computes topology-aware ones): link j
// sits at level 32+perm[j], defaulting to declaration order (perm[j] =
// j). The permutation changes only which level a link occupies — the
// set of link levels, and therefore every quantifier cube and the
// at-most-k filter, is unchanged — but it is part of the meaning of any
// serialized BDD, so producers and consumers must build their spaces
// from the same order.
package symbol

import (
	"fmt"

	"sre/internal/bdd"
	"sre/internal/route"
	"sre/internal/topology"
)

// HeaderBits is the number of packet header variables (destination IP).
const HeaderBits = 32

// Space wraps a BDD manager with the header/link variable layout.
type Space struct {
	M     *bdd.Manager
	Links int // number of links (and link variables)

	prefixCache map[route.Prefix]bdd.Node
	allLinkVars []int

	// perm maps LinkID → level offset within the link band (nil =
	// identity / declaration order); inv is its inverse, for decoding
	// witness assignments back into links.
	perm, inv []int

	// Hash-consed quantifier cubes, built lazily and kept Ref'd so they
	// survive GC: headerCube spans the header bits, nonHeaderCube spans
	// the link (and node) variables. Keying the op cache on these shared
	// cube nodes lets every TopoOnly/HeaderOnly call hit the same cache
	// entries instead of rebuilding per-call variable sets.
	headerCube    bdd.Node
	nonHeaderCube bdd.Node
}

// NewSpace creates a symbolic space for a topology with the given number
// of links. extraVars reserves additional variables after the link
// variables (used for node-failure variables in probabilistic analysis).
// perm, when non-nil, is the link variable order — a permutation of
// [0, links) placing link l at level HeaderBits+perm[l] (see
// internal/order); nil keeps declaration order. An invalid permutation
// panics: it would silently scramble every BDD the space builds.
func NewSpace(links int, cfg bdd.Config, extraVars int, perm []int) *Space {
	cfg.Vars = HeaderBits + links + extraVars
	s := &Space{
		M:           bdd.New(cfg),
		Links:       links,
		prefixCache: make(map[route.Prefix]bdd.Node),
	}
	if perm != nil {
		if len(perm) != links {
			panic(fmt.Sprintf("symbol: order permutation covers %d links, topology has %d", len(perm), links))
		}
		s.perm = perm
		s.inv = make([]int, links)
		for i := range s.inv {
			s.inv[i] = -1
		}
		for l, lev := range perm {
			if lev < 0 || lev >= links || s.inv[lev] != -1 {
				panic(fmt.Sprintf("symbol: order permutation is not a bijection at link %d → level %d", l, lev))
			}
			s.inv[lev] = l
		}
	}
	s.allLinkVars = make([]int, links)
	for i := range s.allLinkVars {
		s.allLinkVars[i] = HeaderBits + i
	}
	return s
}

// LinkVarIndex returns the BDD variable index of link l.
func (s *Space) LinkVarIndex(l topology.LinkID) int {
	if s.perm == nil {
		return HeaderBits + int(l)
	}
	return HeaderBits + s.perm[l]
}

// LinkOfVar inverts LinkVarIndex: the link whose variable is v, or
// false when v is not a link variable (a header, node, or risk-group
// variable).
func (s *Space) LinkOfVar(v int) (topology.LinkID, bool) {
	if v < HeaderBits || v >= HeaderBits+s.Links {
		return 0, false
	}
	if s.inv == nil {
		return topology.LinkID(v - HeaderBits), true
	}
	return topology.LinkID(s.inv[v-HeaderBits]), true
}

// LinkVar returns the BDD "link l is up".
func (s *Space) LinkVar(l topology.LinkID) bdd.Node {
	return s.M.Var(s.LinkVarIndex(l))
}

// LinkVars returns the variable indices of all links.
func (s *Space) LinkVars() []int { return s.allLinkVars }

// NodeVarIndex returns the variable index reserved for router r's node
// state (requires the space to have been created with extraVars ≥
// number of routers).
func (s *Space) NodeVarIndex(r topology.RouterID) int {
	return HeaderBits + s.Links + int(r)
}

// Prefix returns the BDD over header variables matching destination
// addresses inside p (a cube fixing the top p.Len bits).
func (s *Space) Prefix(p route.Prefix) bdd.Node {
	if n, ok := s.prefixCache[p]; ok {
		return n
	}
	// Build bottom-up so each intermediate node is final (levels
	// ascend from bit p.Len-1 down to 0).
	n := bdd.True
	for bit := p.Len - 1; bit >= 0; bit-- {
		if p.Addr&(1<<(31-bit)) != 0 {
			n = s.M.And(s.M.Var(bit), n)
		} else {
			n = s.M.And(s.M.NVar(bit), n)
		}
	}
	s.M.Ref(n)
	s.prefixCache[p] = n
	return n
}

// AtMostKLinkFailures returns the paper's filtering BDD lf^k (§7.1): true
// iff at most k link variables are false.
func (s *Space) AtMostKLinkFailures(k int) bdd.Node {
	return s.M.AtMostKFalse(s.allLinkVars, k)
}

// AllLinksUp returns the cube with every link variable true.
func (s *Space) AllLinksUp() bdd.Node {
	return s.M.AtMostKFalse(s.allLinkVars, 0)
}

// HeaderCube returns the positive cube over all header variables, the
// varset for quantifying packet bits away.
func (s *Space) HeaderCube() bdd.Node {
	if s.headerCube == bdd.False {
		vars := make([]int, HeaderBits)
		for i := range vars {
			vars[i] = i
		}
		s.headerCube = s.M.Ref(s.M.CubeVars(vars))
	}
	return s.headerCube
}

// NonHeaderCube returns the positive cube over the link (and node)
// variables, the varset for quantifying topology state away.
func (s *Space) NonHeaderCube() bdd.Node {
	if s.nonHeaderCube == bdd.False {
		vars := make([]int, s.M.NumVars()-HeaderBits)
		for i := range vars {
			vars[i] = HeaderBits + i
		}
		s.nonHeaderCube = s.M.Ref(s.M.CubeVars(vars))
	}
	return s.nonHeaderCube
}

// TopoOnly existentially quantifies the header bits out of f, leaving a
// condition over link variables only.
func (s *Space) TopoOnly(f bdd.Node) bdd.Node {
	return s.M.ExistsCube(f, s.HeaderCube())
}

// HeaderOnly existentially quantifies the link (and node) variables out
// of f, leaving a packet-set BDD.
func (s *Space) HeaderOnly(f bdd.Node) bdd.Node {
	return s.M.ExistsCube(f, s.NonHeaderCube())
}

// LinkProbabilities returns a probability vector assigning each link
// variable an up-probability of 1-pDown, and every other variable 1
// (deterministically true).
func (s *Space) LinkProbabilities(pDown float64) []float64 {
	p := make([]float64, s.M.NumVars())
	for i := range p {
		p[i] = 1
	}
	for _, v := range s.allLinkVars {
		p[v] = 1 - pDown
	}
	return p
}
