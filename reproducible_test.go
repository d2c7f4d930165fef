package sre_test

import (
	"testing"

	"sre"
	"sre/internal/workload"
)

// TestVerificationReproducible verifies the same config text three
// times in one process and requires the engine to have done exactly the
// same work each time: peak BDD nodes, collections, operation-cache
// lookups, advertisements imported and router activations, read before
// any query. Answers were always reproducible; the work was not while SRC
// ranged over Go maps as it built conditions and sent advertisements
// (FatTree(4) k=2 read 153 795 / 153 771 / 153 577 peak nodes) — and a
// benchmark row that moves by itself cannot show a small gain or loss.
// Inputs marked sweep then ask every (router, prefix) for its failure
// tolerance and probability and compare the BDD work again: the query
// side moved peak nodes and lookups by ±0.1 % while GroupBySub built
// packet cubes in map order.
func TestVerificationReproducible(t *testing.T) {
	ft4 := sre.FormatNetwork(workload.FatTree(4, workload.BGP))
	for _, in := range []struct {
		name  string
		text  string
		opts  sre.Options
		sweep bool
	}{
		{"fattree4-bgp", ft4, sre.Options{MaxFailures: 2, Parallelism: 1}, true},
		{"campus40", sre.FormatNetwork(workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1})),
			sre.Options{MaxFailures: 2, Parallelism: 1}, true},
		{"wan20-ospf", sre.FormatNetwork(workload.SyntheticWAN("w", 20, 30, workload.OSPF, 1)),
			sre.Options{MaxFailures: 2, Parallelism: 1}, true},
		{"wan8-ibgp-mesh", sre.FormatNetwork(workload.SyntheticWAN("m", 8, 12, workload.BGPOSPF, 1)),
			sre.Options{MaxFailures: 2, Parallelism: 1, IBGPFullMesh: true}, false},
		{"fattree4-parallel2", ft4, sre.Options{MaxFailures: 2, Parallelism: 2}, false},
		{"fattree4-nodelimit20k", ft4, sre.Options{MaxFailures: 2, Parallelism: 1, Resilient: true, BDDNodeLimit: 20000}, false},
	} {
		t.Run(in.name, func(t *testing.T) {
			type work struct {
				PeakNodes, GCRuns, Imported, Activations int
				Lookups                                  uint64
			}
			var first, firstSwept work
			for run := 0; run < 3; run++ {
				net, err := sre.ParseNetwork(in.text)
				if err != nil {
					t.Fatal(err)
				}
				v, err := sre.NewVerifier(net, in.opts)
				if err != nil {
					t.Fatal(err)
				}
				m := v.Metrics()
				got := work{m.BDD.PeakNodes, m.BDD.GCRuns, m.RoutesImported, m.Activations, m.BDD.CacheHits + m.BDD.CacheMisses}
				swept := got
				if in.sweep {
					for _, src := range v.RouterNames() {
						tols, err := v.FailureTolerances(src)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range tols {
							if r.Err == nil {
								_, _ = v.Probability(src, r.Prefix, sre.LinkFailures(1e-3)) // the work is compared, not the answer
							}
						}
					}
					m = v.Metrics()
					swept.PeakNodes, swept.GCRuns, swept.Lookups = m.BDD.PeakNodes, m.BDD.GCRuns, m.BDD.CacheHits+m.BDD.CacheMisses
					if swept.Lookups == got.Lookups {
						t.Fatalf("run %d: the query sweep did no BDD work", run)
					}
				}
				v.Release()
				if got.Imported == 0 || got.Lookups == 0 {
					t.Fatalf("run %d did no work: %+v", run, got)
				}
				if run == 0 {
					first, firstSwept = got, swept
				} else if got != first {
					t.Errorf("run %d did different work than run 0:\n run 0 %+v\n run %d %+v", run, first, run, got)
				} else if swept != firstSwept {
					t.Errorf("run %d's query sweep did different work than run 0's:\n run 0 %+v\n run %d %+v", run, firstSwept, run, swept)
				}
			}
		})
	}
}
