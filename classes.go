package sre

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
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

// ForwardingClasses returns the forwarding classes from the named source
// router, most-covering first: one per forwarding path, as Definition 1
// defines a PFEC, with the same list at every Parallelism, with or
// without a Store, Workers or Resilient. This is the raw product-space
// view that all analyses are derived from; use it to audit which paths
// exist and under which failure regimes they activate. Prefixes
// answered through their symmetry orbit contribute the classes the run
// verifying them would have found, with paths renamed through the
// symmetry.
func (v *Verifier) ForwardingClasses(srcRouter string) (out []ForwardingClass, err error) {
	defer guard("analysis", v.tel, &err)
	s, ok := v.net.Topology.RouterByName(srcRouter)
	if !ok {
		return nil, fmt.Errorf("sre: unknown router %q", srcRouter)
	}
	parts := v.classesFrom(s, nil)
	for len(parts) > 0 {
		n := 1
		for n < len(parts) && compareClass(parts[0], parts[n]) == 0 {
			n++
		}
		c, err := v.forwardingClass(parts[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		parts = parts[n:]
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

// countPFECs is NumPFECs: the classes from every source. It reuses one
// slice of parts for every source, so it allocates nothing per PFEC.
func (v *Verifier) countPFECs() int {
	var parts []classPart
	n := 0
	for s := range v.net.Topology.NumRouters() {
		parts = v.classesFrom(topology.RouterID(s), parts[:0])
		for i := range parts {
			if i == 0 || compareClass(parts[i-1], parts[i]) != 0 {
				n++
			}
		}
	}
	return n
}

// classPart is one PFEC as a part of a forwarding class: pf of pipe, its
// path read through perm (nil: as it is) and its predicate cut to the
// headers hdr (bdd.True: whole).
type classPart struct {
	pipe *analysis.Pipeline
	pf   *spf.PFEC
	perm symmetry.Perm
	hdr  bdd.Node
}

// hop is the i-th router of the part's path.
func (p classPart) hop(i int) topology.RouterID {
	if p.perm == nil {
		return p.pf.Path[i]
	}
	return p.perm[p.pf.Path[i]]
}

// compareClass orders parts by what makes them one class: the path as
// read, then whether it ends in delivery and whether it loops.
func compareClass(p, q classPart) int {
	if c := cmp.Compare(len(p.pf.Path), len(q.pf.Path)); c != 0 {
		return c
	}
	for i := range p.pf.Path {
		if c := cmp.Compare(p.hop(i), q.hop(i)); c != 0 {
			return c
		}
	}
	return cmp.Compare(btoi(p.pf.Delivered)+2*btoi(p.pf.Looped), btoi(q.pf.Delivered)+2*btoi(q.pf.Looped))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// classesFrom appends the parts of the classes from source s to parts
// and sorts them by class (compareClass), the parts of one class in the
// order they were found: each PFEC of every pipeline the run kept — a
// prefix's own scoped one, or the one combined pipeline — and, for each
// prefix answered through its orbit, each PFEC of its representative's
// pipeline from π⁻¹(s), read through π. A scope that covers another
// originated prefix also forwards that prefix's headers, whose classes
// its own pipeline reports: its pipeline contributes the PFECs that
// meet its owned headers (Pipeline.OwnedHeaders), cut to them.
func (v *Verifier) classesFrom(s topology.RouterID, parts []classPart) []classPart {
	add := func(pipe *analysis.Pipeline, src topology.RouterID, perm symmetry.Perm) {
		hdr := bdd.True
		if pipe.Scope != nil {
			if owned := pipe.OwnedHeaders(*pipe.Scope); owned != pipe.Sp.Prefix(*pipe.Scope) {
				hdr = owned
			}
		}
		for _, pf := range pipe.PFECs(src) {
			if hdr == bdd.True || pipe.Sp.M.AndSat(pf.Pred, hdr) {
				parts = append(parts, classPart{pipe: pipe, pf: pf, perm: perm, hdr: hdr})
			}
		}
	}
	for _, pipe := range v.part.Groups {
		add(pipe, s, nil)
	}
	for _, o := range v.outcomes {
		img, imaged := v.part.Image(o.Prefix)
		if pipes := v.part.PipelinesFor(o.Prefix); imaged && len(pipes) == 1 {
			add(pipes[0], img.Inv[s], img.Perm)
		}
	}
	slices.SortStableFunc(parts, compareClass)
	return parts
}

// forwardingClass summarises one class from its parts. Their packet
// sets are disjoint, so their counts add. Their scenario sets are united
// in the first part's manager, after renaming their links and carrying
// the parts of other managers over through the BDD codec.
func (v *Verifier) forwardingClass(parts []classPart) (ForwardingClass, error) {
	t := v.net.Topology
	head := parts[0]
	names := make([]string, len(head.pf.Path))
	for i := range names {
		names[i] = t.Name(head.hop(i))
	}
	fc := ForwardingClass{Path: names, Delivered: head.pf.Delivered}
	m := head.pipe.Sp.M
	var topos []bdd.Node
	var buf bytes.Buffer
	for i, part := range parts {
		sp := part.pipe.Sp
		pred := part.pf.Pred
		if part.hdr != bdd.True {
			pred = sp.M.And(pred, part.hdr)
		}
		fc.Packets += sp.M.SatCount(sp.HeaderOnly(pred), symbol.HeaderBits)
		topo := sp.TopoOnly(pred)
		// Min failures: fewest down-links in any satisfying scenario =
		// shortest dashed path to True on the topology projection (a
		// part's predicate is never False).
		minFail := sp.M.ShortestPathToTrue(topo)
		if i == 0 || minFail < fc.MinFailures {
			fc.MinFailures = minFail
		}
		if len(parts) > 1 && part.perm != nil {
			topo = sp.M.Permute([]bdd.Node{topo}, analysis.VarRenaming(sp, t, part.perm), nil)[0]
		}
		if sp.M != m {
			buf.Reset()
			if err := sp.M.Write(&buf, topo); err != nil {
				return fc, err
			}
			read, err := m.Read(&buf)
			if err != nil {
				return fc, err
			}
			topo = read[0]
		}
		topos = append(topos, topo)
	}
	fc.Scenarios = m.SatCount(m.OrN(topos...), t.NumLinks())
	return fc, nil
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
