package sre_test

import (
	"fmt"
	"strings"
	"testing"

	"sre"
	"sre/internal/analysis"
	"sre/internal/prob"
	"sre/internal/src"
	"sre/internal/workload"
)

// TestDiffHonoursOptions: Diff translates its options like NewVerifier,
// so a NoECMP diff is DiffReachability over two NoECMP pipelines.
func TestDiffHonoursOptions(t *testing.T) {
	const k = 1
	before := workload.SyntheticWAN("diffopts", 12, 18, workload.BGP, 3)
	after := before.Clone()
	workload.AtomicChanges(before)[4].Apply(after) // raise-local-pref: ECMP matters
	got, err := sre.Diff(before, after, k, sre.LinkFailures(0.001), sre.Options{NoECMP: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := src.Options{PruneK: k, NoECMP: true}
	pb, err := analysis.Run(before, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	pa, err := analysis.Run(after, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Release()
	raw, err := analysis.DiffReachability(pb, pa, &prob.LinkModel{PDown: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	topo := after.Topology
	var want, have strings.Builder
	for _, d := range raw {
		var witness []string
		for _, l := range d.WitnessDownLinks {
			link := topo.Link(l)
			witness = append(witness, topo.Name(link.A)+"~"+topo.Name(link.B))
		}
		fmt.Fprintln(&want, topo.Name(d.Src), d.Prefix, !d.ChangedUnderNoFailures(pa), witness,
			[2]int{d.ToleranceBefore, d.ToleranceAfter}, [2]float64{d.ProbBefore, d.ProbAfter})
	}
	for _, d := range got {
		fmt.Fprintln(&have, d.Src, d.Prefix, d.FailuresOnly, d.WitnessDown, d.ToleranceDelta, d.ProbDelta)
	}
	if have.String() != want.String() {
		t.Errorf("Diff with NoECMP:\n%s\nDiffReachability over NoECMP pipelines:\n%s", have.String(), want.String())
	}
}

// TestDiffRejectsTopologyChange: the diff compares configurations over
// one topology; a network declaring its links in another order is an
// error (link variables would pair up the wrong links).
func TestDiffRejectsTopologyChange(t *testing.T) {
	before, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sre.ParseNetwork(strings.Replace(figure1, "link B C\n  link A C", "link A C\n  link B C", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sre.Diff(before, after, 1, sre.LinkFailures(0.001), sre.Options{}); err == nil {
		t.Fatal("Diff over different topologies returned no error")
	}
}
