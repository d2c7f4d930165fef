package sre_test

import (
	"errors"
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
	w := pa.LinkWeights(prob.LinkModel{PDown: 0.001})
	raw, err := analysis.DiffReachability(pb, pa, &w)
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

// TestDiffHonoursNodeFailures: Diff evaluates the failure model it is
// given. Under NodeAndLinkFailures every row's probabilities are what
// verifiers of the two configurations report for the pair under that
// model, and some row reads otherwise under LinkFailures.
func TestDiffHonoursNodeFailures(t *testing.T) {
	const k = 2
	before := workload.SyntheticWAN("diffnodes", 10, 15, workload.BGP, 5)
	after := before.Clone()
	workload.AtomicChanges(before)[2].Apply(after) // export-deny-prefix
	nodes, links := sre.NodeAndLinkFailures(1e-3, 1e-3), sre.LinkFailures(1e-3)
	got, err := sre.Diff(before, after, k, nodes, sre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	linkOnly, err := sre.Diff(before, after, k, links, sre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(linkOnly) {
		t.Fatalf("%d rows under node and link failures, %d under link failures; want the same non-zero count", len(got), len(linkOnly))
	}
	var vs [2]*sre.Verifier
	for i, net := range []*sre.Network{before, after} {
		if vs[i], err = sre.NewVerifier(net, sre.Options{MaxFailures: k}); err != nil {
			t.Fatal(err)
		}
		defer vs[i].Release()
	}
	differs := false
	for i, d := range got {
		for j, v := range vs {
			want, err := v.Probability(d.Src, d.Prefix, nodes)
			if err != nil && !errors.Is(err, sre.ErrNoPFECs) {
				t.Fatal(err)
			}
			if d.ProbDelta[j] != want {
				t.Errorf("%s %s: probability %d of the diff %g, verifier %g", d.Src, d.Prefix, j, d.ProbDelta[j], want)
			}
		}
		differs = differs || d.ProbDelta != linkOnly[i].ProbDelta
	}
	if !differs {
		t.Error("every row reads the same under node and link failures as under link failures alone")
	}
}
