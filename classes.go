package sre

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sre/internal/analysis"
	"sre/internal/bdd"
	"sre/internal/spf"
	"sre/internal/symbol"
	"sre/internal/symmetry"
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
// under which failure regimes they activate. Prefixes answered through
// their symmetry orbit contribute the classes the run verifying them
// would have found, with paths renamed through the symmetry.
func (v *Verifier) ForwardingClasses(srcRouter string) (out []ForwardingClass, err error) {
	defer guard("analysis", v.tel, &err)
	s, ok := v.net.Topology.RouterByName(srcRouter)
	if !ok {
		return nil, fmt.Errorf("sre: unknown router %q", srcRouter)
	}
	for _, c := range v.classesFrom(s, true) {
		out = append(out, v.forwardingClass(c))
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.MinFailures != b.MinFailures {
			return a.MinFailures < b.MinFailures
		}
		if a.Packets != b.Packets {
			return a.Packets > b.Packets
		}
		if pa, pb := strings.Join(a.Path, " "), strings.Join(b.Path, " "); pa != pb {
			return pa < pb
		}
		if a.Delivered != b.Delivered {
			return a.Delivered
		}
		return a.Scenarios < b.Scenarios
	})
	return out, nil
}

// classPart is one PFEC predicate on one pipeline, or the slice of one
// that a symmetry carries to another prefix, whose scenarios are read
// with every link renamed through perm (nil: as they are).
type classPart struct {
	pipe *analysis.Pipeline
	pred bdd.Node
	perm symmetry.Perm
}

// classView is one forwarding class as the run without orbits reports
// it: a path and the parts whose union is its predicate. A combined run
// merges the PFECs of every prefix that share a path into one class.
type classView struct {
	path      []topology.RouterID
	delivered bool
	parts     []classPart
}

// classesFrom lists the forwarding classes from source s. A scoped
// pipeline (one per prefix) gives each prefix it answers — itself and
// the members of its orbit imaged onto it — classes of their own. The
// combined pipeline's PFECs are merged, path by path, with the slices
// of its representatives' PFECs that each member's symmetry carries
// over; without build, the parts' predicates are left unbuilt.
func (v *Verifier) classesFrom(s topology.RouterID, build bool) []classView {
	var out []classView
	merged := map[*analysis.Pipeline]map[string]int{}
	add := func(pipe *analysis.Pipeline, pf *spf.PFEC, perm symmetry.Perm, part classPart) {
		path := pf.Path
		if perm != nil {
			path = make([]topology.RouterID, len(pf.Path))
			for i, r := range pf.Path {
				path[i] = perm[r]
			}
		}
		if pipe.Scope != nil {
			out = append(out, classView{path: path, delivered: pf.Delivered, parts: []classPart{part}})
			return
		}
		key := fmt.Sprint(path, pf.Delivered, pf.Looped)
		if i, ok := merged[pipe][key]; ok {
			out[i].parts = append(out[i].parts, part)
			return
		}
		merged[pipe][key] = len(out)
		out = append(out, classView{path: path, delivered: pf.Delivered, parts: []classPart{part}})
	}
	for _, o := range v.outcomes {
		pipes := v.part.PipelinesFor(o.Prefix)
		if len(pipes) == 0 {
			continue
		}
		pipe := pipes[0]
		img, imaged := v.part.Image(o.Prefix)
		switch {
		case pipe.Scope != nil && !imaged:
			for _, pf := range pipe.PFECs(s) {
				add(pipe, pf, nil, classPart{pipe: pipe, pred: pf.Pred})
			}
		case pipe.Scope != nil:
			for _, pf := range pipe.PFECs(img.Inv[s]) {
				add(pipe, pf, img.Perm, classPart{pipe: pipe, pred: pf.Pred})
			}
		case merged[pipe] == nil:
			merged[pipe] = map[string]int{}
			for _, pf := range pipe.PFECs(s) {
				add(pipe, pf, nil, classPart{pipe: pipe, pred: pf.Pred})
			}
		}
		if !imaged || pipe.Scope != nil {
			continue
		}
		m := pipe.Sp.M
		hdr := pipe.Sp.Prefix(img.Rep)
		for _, pf := range pipe.PFECs(img.Inv[s]) {
			if !m.AndSat(pf.Pred, hdr) {
				continue
			}
			part := classPart{pipe: pipe, perm: img.Perm}
			if build {
				part.pred = m.And(pf.Pred, hdr)
			}
			add(pipe, pf, img.Perm, part)
		}
	}
	return out
}

// forwardingClass summarises one class. Its parts' packet sets are
// disjoint, so their counts add; their scenario sets are united after
// renaming their links.
func (v *Verifier) forwardingClass(c classView) ForwardingClass {
	t := v.net.Topology
	names := make([]string, len(c.path))
	for i, r := range c.path {
		names[i] = t.Name(r)
	}
	fc := ForwardingClass{Path: names, Delivered: c.delivered}
	var topos []bdd.Node
	for i, part := range c.parts {
		sp := part.pipe.Sp
		fc.Packets += sp.M.SatCount(sp.HeaderOnly(part.pred), symbol.HeaderBits)
		topo := sp.TopoOnly(part.pred)
		// Min failures: fewest down-links in any satisfying scenario =
		// shortest dashed path to True on the topology projection.
		minFail := 0
		if topo != bdd.True {
			if down, ok := minDownToSatisfy(sp.M, topo); ok {
				minFail = down
			}
		}
		if i == 0 || minFail < fc.MinFailures {
			fc.MinFailures = minFail
		}
		if len(c.parts) > 1 && part.perm != nil {
			topo = sp.M.Permute([]bdd.Node{topo}, analysis.VarRenaming(sp, t, part.perm), nil)[0]
		}
		topos = append(topos, topo)
	}
	sp := c.parts[0].pipe.Sp
	fc.Scenarios = sp.M.SatCount(sp.M.OrN(topos...), t.NumLinks())
	return fc
}

// countPFECs is NumPFECs: the pipelines' own counts, unless prefixes
// were answered through their orbits. Then a scoped pipeline counts once
// for each prefix it answers, and a combined one counts its classes
// merged with its members' as the combined run would have found them.
func (v *Verifier) countPFECs() int {
	n := 0
	if !v.part.Imaged() {
		for _, pipe := range v.part.Groups {
			n += pipe.NumPFECs()
		}
		return n
	}
	for _, pipe := range v.part.Groups {
		if pipe.Scope == nil {
			for s := range v.net.Topology.NumRouters() {
				n += len(v.classesFrom(topology.RouterID(s), false))
			}
			return n
		}
	}
	for _, o := range v.outcomes {
		if pipes := v.part.PipelinesFor(o.Prefix); len(pipes) > 0 {
			n += pipes[0].NumPFECs()
		}
	}
	return n
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
