package sre

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sre/internal/bdd"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// ForwardingClass is the public view of one packet failure equivalence
// class (PFEC): a forwarding path plus a summary of the packet and
// failure space that uses it.
type ForwardingClass struct {
	// Path lists the router names along the forwarding path.
	Path []string
	// Delivered reports whether the path ends in local delivery.
	Delivered bool
	// Packets counts the destination addresses covered (out of 2³²).
	Packets float64
	// MinFailures is the smallest number of failed links in any
	// scenario of the class (0 = used when everything is up).
	MinFailures int
	// Scenarios counts the failure scenarios covered (out of 2^links),
	// for the class's most permissive packet.
	Scenarios float64
}

// String renders the class compactly.
func (c ForwardingClass) String() string {
	status := "delivered"
	if !c.Delivered {
		status = "in transit"
	}
	return fmt.Sprintf("%s (%s, %.3g addrs, min failures %d)",
		strings.Join(c.Path, "→"), status, c.Packets, c.MinFailures)
}

// ForwardingClasses returns the PFECs discovered from the named source
// router, most-covering first. This is the raw product-space view that
// all analyses are derived from; use it to audit which paths exist and
// under which failure regimes they activate.
func (v *Verifier) ForwardingClasses(srcRouter string) (out []ForwardingClass, err error) {
	defer guard("analysis", v.tel, &err)
	s, ok := v.net.Topology.RouterByName(srcRouter)
	if !ok {
		return nil, fmt.Errorf("sre: unknown router %q", srcRouter)
	}
	nLinks := v.net.Topology.NumLinks()
	for _, pipe := range v.part.Groups {
		m := pipe.Sp.M
		for _, pf := range pipe.PFECs(s) {
			names := make([]string, len(pf.Path))
			for i, r := range pf.Path {
				names[i] = v.net.Topology.Name(r)
			}
			hdr := pipe.Sp.HeaderOnly(pf.Pred)
			topo := pipe.Sp.TopoOnly(pf.Pred)
			// Min failures: fewest down-links in any satisfying scenario =
			// shortest dashed path to True on the topology projection.
			minFail := 0
			if topo != bdd.True {
				if down, ok := minDownToSatisfy(m, topo); ok {
					minFail = down
				}
			}
			out = append(out, ForwardingClass{
				Path:        names,
				Delivered:   pf.Delivered,
				Packets:     m.SatCount(hdr, symbol.HeaderBits),
				MinFailures: minFail,
				Scenarios:   m.SatCount(topo, nLinks),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MinFailures != out[j].MinFailures {
			return out[i].MinFailures < out[j].MinFailures
		}
		return out[i].Packets > out[j].Packets
	})
	return out, nil
}

// minDownToSatisfy returns the minimum number of links assigned down on
// any satisfying assignment of the topology BDD.
func minDownToSatisfy(m *bdd.Manager, topo bdd.Node) (int, bool) {
	sp := m.ShortestPathToTrue(topo)
	if sp == math.MaxInt32 {
		return 0, false
	}
	return sp, true
}

// RouterNames returns all router names, sorted (a convenience for
// tooling that enumerates sources).
func (v *Verifier) RouterNames() []string {
	t := v.net.Topology
	out := make([]string, t.NumRouters())
	for i := range out {
		out[i] = t.Name(topology.RouterID(i))
	}
	sort.Strings(out)
	return out
}
