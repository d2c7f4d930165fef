package main

import (
	"fmt"

	"sre/internal/analysis"
	"sre/internal/baselines"
	"sre/internal/config"
	"sre/internal/src"
	"sre/internal/topology"
	"sre/internal/workload"
)

// reachDatasets returns the Figure 5/6 datasets: three WANs plus fat
// trees, all running BGP.
func reachDatasets(sc scale) []struct {
	name string
	net  *config.Network
} {
	out := []struct {
		name string
		net  *config.Network
	}{
		{"WAN-small(Bics)", workload.WAN(workload.Bics, workload.BGP)},
	}
	if sc.paper {
		out = append(out,
			struct {
				name string
				net  *config.Network
			}{"WAN-medium(Columbus)", workload.WAN(workload.Columbus, workload.BGP)},
			struct {
				name string
				net  *config.Network
			}{"WAN-large(USCarrier)", workload.WAN(workload.USCarrier, workload.BGP)},
		)
	}
	for _, k := range sc.fatTrees {
		out = append(out, struct {
			name string
			net  *config.Network
		}{fmt.Sprintf("FatTree(%d)", workload.FatTreeNodes(k)), workload.FatTree(k, workload.BGP)})
	}
	return out
}

// sreAllPairs runs the full SRE pipeline and checks all-pairs
// reachability under budget k.
func sreAllPairs(net *config.Network, k int) (map[analysis.PairKey]bool, error) {
	pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: k}))
	if err != nil {
		return nil, err
	}
	defer pipe.Release()
	return pipe.AllPairsReachable(k), nil
}

// fig5 reproduces Figure 5: time to check all-pairs reachability under
// k link failures, for SRE, Batfish, Minesweeper and Tiramisu.
func fig5(sc scale) {
	header("Figure 5 — all-pairs reachability under k failures (time per system)")
	for _, ds := range reachDatasets(sc) {
		fmt.Printf("\n%s: %d routers, %d links, %d prefixes\n", ds.name,
			ds.net.Topology.NumRouters(), ds.net.Topology.NumLinks(), len(ds.net.AllPrefixes()))
		t := newTable("k", "SRE", "Batfish", "Minesweeper", "Tiramisu")
		ct := newCellTimer()
		for k := 0; k <= sc.maxK; k++ {
			sreT := ct.run("sre", func() {
				if _, err := sreAllPairs(ds.net, k); err != nil {
					fmt.Printf("  SRE error at k=%d: %v\n", k, err)
				}
			})
			bfT := ct.run("batfish", func() {
				bf := &baselines.Batfish{Net: ds.net}
				bf.AllPairsReachableUnderK(k)
			})
			msT := ct.run("minesweeper", func() {
				ms := &baselines.Minesweeper{Net: ds.net}
				ms.AllPairsReachableUnderK(k)
			})
			tiT := ct.run("tiramisu", func() {
				ti := &baselines.Tiramisu{Net: ds.net}
				ti.AllPairsReachableUnderK(k)
			})
			t.add(fmt.Sprint(k), sreT, bfT, msT, tiT)
		}
		t.print()
	}
}

// fig6 reproduces Figure 6: single-pair reachability under k failures.
func fig6(sc scale) {
	header("Figure 6 — single-pair reachability under k failures (time per system)")
	for _, ds := range reachDatasets(sc) {
		net := ds.net
		// Deterministic pair: router 0 towards the last originated prefix.
		prefixes := net.AllPrefixes()
		pfx := prefixes[len(prefixes)-1]
		var srcID topology.RouterID
		origins := net.OriginsOf(pfx)
		for s := 0; s < net.Topology.NumRouters(); s++ {
			if len(origins) > 0 && topology.RouterID(s) != origins[0] {
				srcID = topology.RouterID(s)
				break
			}
		}
		fmt.Printf("\n%s: %s → %s\n", ds.name, net.Topology.Name(srcID), pfx)
		t := newTable("k", "SRE", "Batfish", "Minesweeper", "Tiramisu")
		ct := newCellTimer()
		for k := 0; k <= sc.maxK; k++ {
			sreT := ct.run("sre", func() {
				pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: k,
					Prefixes: prefixes[len(prefixes)-1:]}))
				if err == nil {
					budget := pipe.Sp.AtMostKLinkFailures(k)
					q := pipe.Query(srcID, pfx)
					q.Violated(q.Reach(), budget)
					pipe.Release()
				}
			})
			bfT := ct.run("batfish", func() {
				bf := &baselines.Batfish{Net: net}
				bf.SinglePairReachableUnderK(srcID, pfx, k)
			})
			msT := ct.run("minesweeper", func() {
				ms := &baselines.Minesweeper{Net: net}
				ms.ReachableUnderK(srcID, pfx, k)
			})
			tiT := ct.run("tiramisu", func() {
				ti := &baselines.Tiramisu{Net: net}
				ti.ReachableUnderK(srcID, pfx, k)
			})
			t.add(fmt.Sprint(k), sreT, bfT, msT, tiT)
		}
		t.print()
	}
}
