package analysis

import (
	"fmt"
	"slices"

	"sre/internal/bdd"
	"sre/internal/route"
	"sre/internal/topology"
)

// Differential analysis (§6.5): comparing two configurations (before and
// after a change) by XOR-ing the topology BDDs of each property. Unlike
// DNA, which only compares behaviour under no failures, the comparison
// covers every failure combination within the explored budget, so
// differences that manifest only under failures are caught.

// Difference describes a behaviour change found for one (source, prefix)
// reachability property.
type Difference struct {
	Src    topology.RouterID
	Prefix route.Prefix
	// DiffBDD encodes the (packet, failure) tuples whose reachability
	// differs between the two configurations. It is False when only
	// path-level (waypoint) behaviour changed.
	DiffBDD bdd.Node
	// PathsChanged is set when the (packet, failure) → forwarding-path
	// relation differs even though end-to-end reachability may not:
	// detected by XOR-ing waypoint property BDDs for every interior
	// router of the delivering paths (§6.5 considers all properties,
	// not just reachability).
	PathsChanged bool
	// Witness is one failure scenario exposing the difference: the
	// variables assigned false are the failed links (others are up).
	WitnessDownLinks []topology.LinkID
	// ToleranceBefore/After compare failure tolerance.
	ToleranceBefore, ToleranceAfter int
	// ProbBefore/After compare reachability probabilities under the
	// weights passed to DiffReachability (nil weights → zeros). When
	// only paths changed, these carry the waypoint property's values.
	ProbBefore, ProbAfter float64
}

// ChangedUnderNoFailures reports whether the difference is visible with
// all links up (the only kind of difference DNA can detect).
func (d *Difference) ChangedUnderNoFailures(p *Pipeline) bool {
	return p.Sp.M.And(d.DiffBDD, p.Sp.AllLinksUp()) != bdd.False
}

// DiffReachability compares the reachability of every (source, prefix)
// pair between two pipelines computed from the old and new
// configurations. Both pipelines must share the same topology (the
// change is configuration-only) and the same variable layout, but use
// separate symbolic spaces; the comparison happens in the space of the
// "after" pipeline, into which the "before" PFECs are moved through the
// pipeline codec (EncodePipelines and the decoder behind
// DecodePipelines). A layout mismatch, or a node-limit overflow or
// interruption while moving, is an error.
//
// w is the failure model evaluated in after's space (LinkWeights,
// NodeWeights or RiskWeights of after), which also holds the moved
// before PFECs; nil skips the probability comparison.
func DiffReachability(before, after *Pipeline, w *Weights) ([]Difference, error) {
	if err := sameLayout(before, after); err != nil {
		return nil, err
	}
	wps, err := EncodePipelines([]*Pipeline{before}, before.Net)
	if err != nil {
		return nil, err
	}
	b, err := decodePipeline(before.Net, after.Sp, wps[0], after.Tel)
	if err != nil {
		return nil, err
	}
	defer b.Release()
	m := after.Sp.M
	var out []Difference
	t := after.Net.Topology
	prefixes := unionPrefixes(before, after)
	for s := 0; s < t.NumRouters(); s++ {
		src := topology.RouterID(s)
		for _, pfx := range prefixes {
			qb, qa := b.Query(src, pfx), after.Query(src, pfx)
			propBefore, propAfter := qb.Reach(), qa.Reach()
			diff := m.Xor(propAfter, propBefore)
			pathsChanged := false
			var wpt topology.RouterID = -1
			var wDiff bdd.Node = bdd.False
			if diff == bdd.False {
				// Reachability agrees everywhere; check waypoint
				// properties for path-level changes.
				wpt, wDiff = waypointDiff(qb, qa)
				pathsChanged = wDiff != bdd.False
				if !pathsChanged {
					continue
				}
			}
			d := Difference{Src: src, Prefix: pfx, DiffBDD: diff, PathsChanged: pathsChanged}
			witness := diff
			if witness == bdd.False {
				witness = wDiff
			}
			if assign, ok := m.AnySat(witness); ok {
				for v, val := range assign {
					// Decode through the space's order permutation, and
					// only for actual link variables (node/risk variables
					// are not failure witnesses).
					if l, isLink := after.Sp.LinkOfVar(v); isLink && !val {
						d.WitnessDownLinks = append(d.WitnessDownLinks, l)
					}
				}
				slices.Sort(d.WitnessDownLinks)
			}
			if pathsChanged {
				// Report the waypoint property's tolerance/probability:
				// that is where the change shows.
				propBefore, propAfter = qb.Waypoint(wpt), qa.Waypoint(wpt)
			}
			d.ToleranceBefore = qb.Tolerance(propBefore)
			d.ToleranceAfter = qa.Tolerance(propAfter)
			if w != nil {
				d.ProbBefore, _ = qb.MinProbability(propBefore, *w)
				d.ProbAfter, _ = qa.MinProbability(propAfter, *w)
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// sameLayout checks that BDDs of before's space mean the same in
// after's: the same routers, variable count and link permutation.
func sameLayout(before, after *Pipeline) error {
	tb, ta := before.Net.Topology, after.Net.Topology
	if tb.NumRouters() != ta.NumRouters() || before.Sp.M.NumVars() != after.Sp.M.NumVars() ||
		before.Sp.Links != after.Sp.Links {
		return fmt.Errorf("analysis: diff: spaces differ (%d/%d routers, %d/%d variables, %d/%d links)",
			tb.NumRouters(), ta.NumRouters(), before.Sp.M.NumVars(), after.Sp.M.NumVars(),
			before.Sp.Links, after.Sp.Links)
	}
	for l := 0; l < after.Sp.Links; l++ {
		if before.Sp.LinkVarIndex(topology.LinkID(l)) != after.Sp.LinkVarIndex(topology.LinkID(l)) {
			return fmt.Errorf("analysis: diff: link %d sits at different levels in the two spaces", l)
		}
	}
	return nil
}

// waypointDiff looks for a path-level difference between two queries of
// one pair, whose pipelines share one space: an interior router of some
// delivering path whose waypoint property BDD differs between them. It
// returns the distinguishing waypoint with the lowest router ID and the
// XOR of its property BDDs (-1, False when none differs).
func waypointDiff(before, after Query) (topology.RouterID, bdd.Node) {
	m := after.Pipe.Sp.M
	cands := make([]bool, after.Pipe.Net.Topology.NumRouters())
	for _, q := range []Query{before, after} {
		for _, pf := range q.Pipe.PFECs(q.Src) {
			if !pf.Delivered || !q.Dst[pf.Dst()] || len(pf.Path) < 3 {
				continue
			}
			for _, r := range pf.Path[1 : len(pf.Path)-1] {
				cands[r] = true
			}
		}
	}
	for i, cand := range cands {
		if !cand {
			continue
		}
		w := topology.RouterID(i)
		if d := m.Xor(before.Waypoint(w), after.Waypoint(w)); d != bdd.False {
			return w, d
		}
	}
	return -1, bdd.False
}

func unionPrefixes(a, b *Pipeline) []route.Prefix {
	seen := make(map[route.Prefix]bool)
	var out []route.Prefix
	for _, p := range a.Net.AllPrefixes() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range b.Net.AllPrefixes() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
