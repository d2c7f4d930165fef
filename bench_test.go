package sre_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§8). Each benchmark exercises the exact code path of the experiment
// at a CI-friendly scale; cmd/srebench runs the full-scale sweeps and
// prints the corresponding tables (see EXPERIMENTS.md for measured
// results and the comparison against the paper).

import (
	"fmt"
	"testing"

	"sre"
	"sre/internal/analysis"
	"sre/internal/baselines"
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
	"sre/internal/workload"
)

// benchWAN is the WAN used by the comparative benches: a 16-router /
// 24-link mesh, small enough that even the scenario-enumerating
// baselines finish in seconds per op. cmd/srebench runs the full
// Bics/Columbus/USCarrier sizes.
func benchWAN() *config.Network {
	return workload.SyntheticWAN("bench", 16, 24, workload.BGP, 17)
}

// run executes the full SRE pipeline (SRC + SPF) at budget k.
func runPipeline(b *testing.B, net *config.Network, opts src.Options) *analysis.Pipeline {
	b.Helper()
	pipe, err := analysis.Run(net, opts)
	if err != nil {
		b.Fatal(err)
	}
	return pipe
}

// BenchmarkFig5_AllPairReachability measures checking all-pairs
// reachability under k=2 failures, one sub-benchmark per system
// (Figure 5). SRE symbolically covers the product space once; Batfish
// enumerates scenarios; Minesweeper runs one solver query per pair;
// Tiramisu computes min-cuts.
func BenchmarkFig5_AllPairReachability(b *testing.B) {
	const k = 2
	net := benchWAN()
	b.Run("SRE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipe := runPipeline(b, net, src.Options{PruneK: k})
			pipe.AllPairsReachable(k)
			pipe.Release()
		}
	})
	b.Run("Batfish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf := &baselines.Batfish{Net: net}
			bf.AllPairsReachableUnderK(k)
		}
	})
	b.Run("Minesweeper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms := &baselines.Minesweeper{Net: net}
			ms.AllPairsReachableUnderK(k)
		}
	})
	b.Run("Tiramisu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ti := &baselines.Tiramisu{Net: net}
			ti.AllPairsReachableUnderK(k)
		}
	})
}

// BenchmarkFig6_SinglePairReachability measures one (source, prefix)
// query under k=2 failures per system (Figure 6): Tiramisu's min-cut
// wins, SRE pays the symbolic execution it would amortize over more
// queries.
func BenchmarkFig6_SinglePairReachability(b *testing.B) {
	const k = 2
	net := benchWAN()
	pfx := workload.RouterPrefix(7)
	srcID := topology.RouterID(0)
	b.Run("SRE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipe := runPipeline(b, net, src.Options{PruneK: k, Prefixes: []routePrefix{pfx}})
			budget := pipe.Sp.AtMostKLinkFailures(k)
			q := pipe.Query(srcID, pfx)
			q.Violated(q.Reach(), budget)
			pipe.Release()
		}
	})
	b.Run("Batfish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf := &baselines.Batfish{Net: net}
			bf.SinglePairReachableUnderK(srcID, pfx, k)
		}
	})
	b.Run("Minesweeper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms := &baselines.Minesweeper{Net: net}
			ms.ReachableUnderK(srcID, pfx, k)
		}
	})
	b.Run("Tiramisu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ti := &baselines.Tiramisu{Net: net}
			ti.ReachableUnderK(srcID, pfx, k)
		}
	})
}

type routePrefix = route.Prefix

// BenchmarkFig7_SpecMining measures specification mining (Figure 7):
// SRE's stratified miner vs. Config2Spec-style per-scenario enumeration.
func BenchmarkFig7_SpecMining(b *testing.B) {
	const kMax = 2
	net := benchWAN()
	b.Run("SRE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mn := &analysis.Miner{Net: net, KMax: kMax}
			if _, err := mn.Mine(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Config2Spec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf := &baselines.Batfish{Net: net}
			bf.MineSpecs(kMax)
		}
	})
}

// BenchmarkFig8_Probability measures reachability-probability
// computation under link failures (Figure 8): single property and
// all properties, SRE vs. the NetDice-substitute.
func BenchmarkFig8_Probability(b *testing.B) {
	// Bench scale: a 16-router OSPF WAN; srebench runs the NetDice-size
	// topologies.
	net := workload.SyntheticWAN("benchprob", 16, 24, workload.OSPF, 23)
	const pDown = 0.001
	budget := prob.KForImprecision(net.Topology.NumLinks(), pDown, 1e-4)
	pfx := net.AllPrefixes()[3]
	srcID := topology.RouterID(10)
	b.Run("SRE/single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipe := runPipeline(b, net, src.Options{PruneK: budget, Prefixes: []routePrefix{pfx}})
			q := pipe.Query(srcID, pfx)
			q.MinProbability(q.Reach(), pipe.LinkWeights(prob.LinkModel{PDown: pDown}))
			pipe.Release()
		}
	})
	b.Run("NetDice/single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nd := &baselines.NetDice{Net: net, PLinkDown: pDown, Imprecision: 1e-4}
			nd.Reachability(srcID, pfx)
		}
	})
	b.Run("SRE/all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipe := runPipeline(b, net, src.Options{PruneK: budget})
			w := pipe.LinkWeights(prob.LinkModel{PDown: pDown})
			for _, p := range net.AllPrefixes() {
				q := pipe.Query(0, p)
				for s := 0; s < net.Topology.NumRouters(); s++ {
					if q.Src = topology.RouterID(s); q.Dst[q.Src] {
						continue
					}
					q.MinProbability(q.Reach(), w)
				}
			}
			pipe.Release()
		}
	})
	b.Run("NetDice/all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nd := &baselines.NetDice{Net: net, PLinkDown: pDown, Imprecision: 1e-4}
			nd.AllReachability()
		}
	})
}

// BenchmarkSec83_Differential measures product-space configuration
// diffing for one atomic change (§8.3), against DNA-style no-failure
// diffing.
func BenchmarkSec83_Differential(b *testing.B) {
	base := benchWAN()
	change := workload.AtomicChanges(base)[2] // export-deny-prefix
	after := base.Clone()
	change.Apply(after)
	model := prob.LinkModel{PDown: 0.001}
	b.Run("SRE_k3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pb := runPipeline(b, base, src.Options{PruneK: 3})
			pa := runPipeline(b, after, src.Options{PruneK: 3})
			w := pa.LinkWeights(model)
			if _, err := analysis.DiffReachability(pb, pa, &w); err != nil {
				b.Fatal(err)
			}
			pb.Release()
			pa.Release()
		}
	})
	b.Run("DNA_k0", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dna := &baselines.DNA{Before: base, After: after}
			dna.Diff()
		}
	})
}

// BenchmarkFig9_PruningWAN measures failure-tolerance computation with
// different pruning configurations (Figure 9): no pruning, route
// pruning (one-shot), and route+prefix pruning (stratified).
func BenchmarkFig9_PruningWAN(b *testing.B) {
	const k = 2
	net := benchWAN()
	tolAll := func(pruneK int) {
		pipe, err := analysis.Run(net, src.Options{PruneK: pruneK})
		if err != nil {
			b.Fatal(err)
		}
		defer pipe.Release()
		for pair := range pipe.AllPairsReachable(0) {
			q := pipe.Query(pair.Src, pair.Prefix)
			q.Tolerance(q.Reach())
		}
	}
	// The unpruned variant runs on a 12-router network: without route
	// pruning the Bics-scale WAN explodes (that is Table 2's point).
	small := workload.SyntheticWAN("mini", 12, 18, workload.BGP, 3)
	b.Run("NoPrune_miniWAN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipe, err := analysis.Run(small, src.Options{PruneK: -1})
			if err != nil {
				b.Fatal(err)
			}
			pipe.AllPairsReachable(k)
			pipe.Release()
		}
	})
	b.Run("RoutePrune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tolAll(k)
		}
	})
	b.Run("RoutePlusPrefixPrune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mn := &analysis.Miner{Net: net, KMax: k}
			if _, err := mn.Mine(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2_RouteReduction measures the symbolic route counts that
// Table 2 reports, per optimization level (k=2 at bench scale).
func BenchmarkTable2_RouteReduction(b *testing.B) {
	net := benchWAN()
	variants := []struct {
		name string
		opts src.Options
	}{
		{"NoOpt", src.Options{PruneK: -1}},
		{"RoutePrune", src.Options{PruneK: 2}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var routes int
			for i := 0; i < b.N; i++ {
				eng := src.New(net, v.opts)
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				routes = eng.Statistics().RoutesImported
			}
			b.ReportMetric(float64(routes), "routes")
		})
	}
}

// BenchmarkFig11_Scalability measures SRE end-to-end on growing fat
// trees, reporting peak BDD nodes (the paper's memory proxy).
func BenchmarkFig11_Scalability(b *testing.B) {
	for _, arity := range []int{4, 8} {
		net := workload.FatTree(arity, workload.BGP)
		b.Run(fmt.Sprintf("nodes=%d", workload.FatTreeNodes(arity)), func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				sp := symbol.NewSpace(net.Topology.NumLinks(), bdd.Config{}, 0, nil)
				pipe, err := analysis.RunWithSpace(net, sp, src.Options{PruneK: 1})
				if err != nil {
					b.Fatal(err)
				}
				pipe.AllPairsReachable(1)
				peak = sp.M.Statistics().PeakNodes
				pipe.Release()
			}
			b.ReportMetric(float64(peak), "peakBDDnodes")
		})
	}
}

// BenchmarkTable3_SATEncoding measures Hoyan-style DNF topology-condition
// route computation (Table 3): the condition length explodes with k,
// unlike the BDD encoding.
func BenchmarkTable3_SATEncoding(b *testing.B) {
	net := benchWAN()
	pfx := workload.RouterPrefix(4)
	for k := 0; k <= 2; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var peakLen int
			for i := 0; i < b.N; i++ {
				h := &baselines.Hoyan{Net: net, PruneK: k, TermLimit: 100000}
				res := h.ComputePrefix(pfx)
				peakLen = res.PeakTCLength
			}
			b.ReportMetric(float64(peakLen), "tcLength")
		})
	}
	b.Run("BDD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := src.New(net, src.Options{PruneK: 2, Prefixes: []routePrefix{pfx}})
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13_Campus measures the SRC/SPF/FPA pipeline on the campus
// backbone (Figure 13).
func BenchmarkFig13_Campus(b *testing.B) {
	net := workload.Campus(workload.CampusOptions{VLANs: 40})
	for i := 0; i < b.N; i++ {
		pipe := runPipeline(b, net, src.Options{PruneK: 2})
		pipe.AllPairsReachable(2)
		pipe.Release()
	}
}

// BenchmarkFig14_WaypointProbability measures waypoint-probability
// computation (Figure 14), SRE vs. the NetDice-substitute.
func BenchmarkFig14_WaypointProbability(b *testing.B) {
	net := workload.SyntheticWAN("benchprob", 16, 24, workload.OSPF, 23)
	const pDown = 0.001
	budget := prob.KForImprecision(net.Topology.NumLinks(), pDown, 1e-4)
	pfx := net.AllPrefixes()[2]
	srcID := topology.RouterID(12)
	wp := topology.RouterID(3)
	b.Run("SRE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipe := runPipeline(b, net, src.Options{PruneK: budget, Prefixes: []routePrefix{pfx}})
			q := pipe.Query(srcID, pfx)
			q.MinProbability(q.Waypoint(wp), pipe.LinkWeights(prob.LinkModel{PDown: pDown}))
			pipe.Release()
		}
	})
	b.Run("NetDice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nd := &baselines.NetDice{Net: net, PLinkDown: pDown, Imprecision: 1e-4}
			nd.WaypointProbability(srcID, pfx, wp)
		}
	})
}

// benchMultiPrefix builds a resilient verifier over every prefix of a
// 4-ary fat tree under a BDD node limit — the workload of
// srebench -exp parallel. Every parallelism runs one scoped pipeline
// per prefix on the internal/sched pool and climbs the same ladder
// rungs; only the pool size differs, so the two benchmarks differ by
// what the host's cores give.
func benchMultiPrefix(b *testing.B, parallelism int) {
	net := workload.FatTree(4, workload.BGP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 3, Resilient: true,
			BDDNodeLimit: 80000, Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		v.Release()
	}
}

func BenchmarkMultiPrefixSequential(b *testing.B) { benchMultiPrefix(b, 1) }

func BenchmarkMultiPrefixParallel(b *testing.B) { benchMultiPrefix(b, 4) }
