package analysis

import (
	"testing"

	"sre/internal/bdd"
	"sre/internal/order"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/workload"
)

// TestMindegShrinksLiveDiagram pins what the mindeg variable order buys
// on a fat tree: a smaller diagram for the same combined pipeline than
// declaration order. It compares live nodes after a forced collection,
// not peak nodes — the peak of a run also depends on where automatic
// collections happen to land, and on FatTree(4) k=2 mindeg's peak reads
// above declaration's while its live diagram is smaller. Run with -v to
// print the two counts.
func TestMindegShrinksLiveDiagram(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	live := func(perm []int) int {
		topo := net.Topology
		sp := symbol.NewSpace(topo.NumLinks(), bdd.Config{}, topo.NumRouters()+MaxRiskGroups, perm)
		p, err := RunWithSpace(net, sp, src.Options{PruneK: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		return liveAfterGC(p)
	}
	o := order.Compute(net.Topology)
	if o.Name != "mindeg" {
		t.Fatalf("FatTree(4) computes the %s order, want mindeg", o.Name)
	}
	decl, mindeg := live(nil), live(o.Perm)
	if mindeg >= decl {
		t.Errorf("mindeg keeps %d live nodes, declaration %d: the order no longer shrinks the diagram", mindeg, decl)
	}
	t.Logf("live nodes after a forced collection: declaration %d, mindeg %d", decl, mindeg)
}
