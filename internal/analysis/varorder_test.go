package analysis

import (
	"testing"

	"sre/internal/src"
	"sre/internal/workload"
)

// TestMindegShrinksLiveDiagram pins what the mindeg variable order buys
// on a fat tree: a smaller diagram for the same combined pipeline. It
// compares live nodes after a forced collection, not peak nodes — the
// peak of a run also depends on where automatic collections happen to
// land, and on FatTree(4) k=2 mindeg's peak reads above declaration's
// while its live diagram is smaller.
func TestMindegShrinksLiveDiagram(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	live := func(order string) int {
		p, err := Run(net, src.Options{PruneK: 2, VarOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		return liveAfterGC(p)
	}
	decl, mindeg := live("declaration"), live("mindeg")
	if mindeg >= decl {
		t.Errorf("mindeg keeps %d live nodes, declaration %d: the order no longer shrinks the diagram", mindeg, decl)
	}
	t.Logf("live nodes after a forced collection: declaration %d, mindeg %d", decl, mindeg)
}
