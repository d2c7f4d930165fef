package sre_test

// Variable-order invariance. The link-variable order is not an option —
// order.Compute picks it from the topology — but it changes how BDDs
// are laid out, never what they mean. The test lays one network out
// under the identity order and under the computed one and compares what
// the two pipelines answer.

import (
	"fmt"
	"testing"

	"sre/internal/analysis"
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/order"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
	"sre/internal/workload"
)

// orderSignature runs the combined pipeline over net at failure budget
// k with the link variables laid out by perm (nil is declaration order)
// and returns its answers as counts: how many PFECs from each source
// follow each path, and the reach tolerance of each (source, prefix)
// pair.
func orderSignature(t *testing.T, net *config.Network, k int, perm []int) map[string]int {
	t.Helper()
	topo := net.Topology
	sp := symbol.NewSpace(topo.NumLinks(), bdd.Config{}, topo.NumRouters()+analysis.MaxRiskGroups, perm)
	p, err := analysis.RunWithSpace(net, sp, src.Options{PruneK: k})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	sig := make(map[string]int)
	for r := 0; r < topo.NumRouters(); r++ {
		s := topology.RouterID(r)
		for _, pf := range p.PFECs(s) {
			sig[fmt.Sprintf("pfec %v delivered=%t looped=%t", pf.Path, pf.Delivered, pf.Looped)]++
		}
		for _, pfx := range net.AllPrefixes() {
			q := p.Query(s, pfx)
			sig[fmt.Sprintf("tolerance %s %s", topo.Name(s), pfx)] = q.Tolerance(q.Reach())
		}
	}
	return sig
}

// TestVarOrderParity pins that the computed order is observationally
// identical to declaration order on FatTree(4) k=2: the same PFEC paths
// from every source and the same reach tolerance for every (source,
// prefix) pair.
func TestVarOrderParity(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	perm := order.Compute(net.Topology).Perm
	if perm == nil {
		t.Fatal("FatTree(4) computes the identity order: the fixture no longer compares two layouts")
	}
	decl, computed := orderSignature(t, net, 2, nil), orderSignature(t, net, 2, perm)
	if len(decl) == 0 {
		t.Fatal("declaration layout answered nothing")
	}
	for key := range computed {
		if _, ok := decl[key]; !ok {
			decl[key] = 0
		}
	}
	for key, want := range decl {
		if got := computed[key]; got != want {
			t.Errorf("%s: computed order %d, declaration %d", key, got, want)
		}
	}
}
