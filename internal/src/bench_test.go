package src

import (
	"testing"

	"sre/internal/config"
	"sre/internal/workload"
)

// importAllocBudget is the most heap allocations Engine.Run may make
// per imported advertisement on FatTree(4) BGP k=2. The import loop
// runs once per advertisement against a RIB list of tens of routes, so
// anything that allocates per comparison — route identity was once a
// formatted string: 101 here — multiplies straight into run time. 9.6
// when the budget was first set at 24; 5.9 since a route is copied to
// the heap only when an advertisement set or a RIB keeps a new identity,
// each advertisement set is sized once, and a router keeps its inbox
// between activations.
const importAllocBudget = 6.5

func TestImportAllocBudget(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	imports := 0
	// AllocsPerRun reads the process-wide malloc count with GOMAXPROCS
	// pinned to 1; a t.Parallel test in this package would still leak
	// into it, so there must be none.
	allocs := testing.AllocsPerRun(1, func() {
		e := New(net, Options{PruneK: 2})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		imports = e.Statistics().RoutesImported
	})
	if imports == 0 {
		t.Fatal("no advertisement imported")
	}
	if per := allocs / float64(imports); per > importAllocBudget {
		t.Errorf("%.1f allocations per imported advertisement (%d imports), budget %.1f",
			per, imports, importAllocBudget)
	}
}

// BenchmarkEngineRunFatTree6 is SRC alone on ROADMAP's standing
// workload: FatTree(6) BGP k=1 in one space.
func BenchmarkEngineRunFatTree6(b *testing.B) {
	benchEngineRun(b, workload.FatTree(6, workload.BGP), Options{PruneK: 1})
}

// BenchmarkEngineRunIBGPMesh is SRC alone on a 12-router iBGP mesh over
// OSPF at k=2: the underlay run, the virtual sessions it conditions and
// the exports over them, which no fat tree or OSPF WAN reaches.
func BenchmarkEngineRunIBGPMesh(b *testing.B) {
	benchEngineRun(b, workload.SyntheticWAN("m", 12, 18, workload.BGPOSPF, 2),
		Options{PruneK: 2, IBGPFullMesh: true})
}

// benchEngineRun runs SRC over net in a fresh space per iteration and
// reports advertisements imported and operation-cache lookups per run.
func benchEngineRun(b *testing.B, net *config.Network, opts Options) {
	b.ReportAllocs()
	var imports int
	var lookups uint64
	for i := 0; i < b.N; i++ {
		e := New(net, opts)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		st := e.Sp.M.Statistics()
		imports += e.Statistics().RoutesImported
		lookups += st.CacheHits + st.CacheMiss
	}
	b.ReportMetric(float64(imports)/float64(b.N), "imports/op")
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
}
