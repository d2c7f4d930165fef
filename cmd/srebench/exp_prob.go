package main

import (
	"fmt"
	"math"
	"math/rand"

	"sre/internal/analysis"
	"sre/internal/baselines"
	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
	"sre/internal/workload"
)

// Probability settings matching §8.2: link failure probability 0.001,
// node failure probability 0.0001, imprecision 1e-4.
const (
	pLinkDown   = 0.001
	pNodeDown   = 0.0001
	imprecision = 1e-4
)

// fig8 reproduces Figure 8: time to compute reachability probabilities
// under link failures and node failures, single property vs. all
// properties, SRE vs. the NetDice-substitute.
func fig8(sc scale) {
	header("Figure 8 — probability of reachability (SRE vs NetDice-substitute)")
	nets := workload.NetDiceWANs(sc.netDiceWANs, workload.OSPF)
	t := newTable("topology", "links", "SRE single", "NetDice single", "SRE all", "NetDice all", "max |Δp|")
	ct := newCellTimer()
	for i, net := range nets {
		name := fmt.Sprintf("netdice%d", i)
		kBudget := prob.KForImprecision(net.Topology.NumLinks(), pLinkDown, imprecision)
		prefixes := net.AllPrefixes()
		pfx := prefixes[len(prefixes)/2]
		var srcID topology.RouterID
		origins := net.OriginsOf(pfx)
		for s := 0; s < net.Topology.NumRouters(); s++ {
			if topology.RouterID(s) != origins[0] {
				srcID = topology.RouterID(s)
				break
			}
		}
		var sreSingle, ndSingle float64
		sreSingleT := ct.run("sre1", func() {
			pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: kBudget, Prefixes: []route.Prefix{pfx}}))
			if err != nil {
				fmt.Printf("  SRE error: %v\n", err)
				return
			}
			defer pipe.Release()
			q := pipe.Query(srcID, pfx)
			sreSingle, _ = q.MinProbability(q.Reach(), pipe.LinkWeights(prob.LinkModel{PDown: pLinkDown}))
		})
		ndSingleT := ct.run("nd1", func() {
			nd := &baselines.NetDice{Net: net, PLinkDown: pLinkDown, Imprecision: imprecision}
			ndSingle, _ = nd.Reachability(srcID, pfx)
		})
		var deltas float64
		sreAllT := ct.run("sreN", func() {
			pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: kBudget}))
			if err != nil {
				fmt.Printf("  SRE error: %v\n", err)
				return
			}
			defer pipe.Release()
			w := pipe.LinkWeights(prob.LinkModel{PDown: pLinkDown})
			for _, p := range prefixes {
				q := pipe.Query(0, p)
				for s := 0; s < net.Topology.NumRouters(); s++ {
					if q.Src = topology.RouterID(s); q.Dst[q.Src] {
						continue
					}
					q.MinProbability(q.Reach(), w)
				}
			}
		})
		ndAllT := ct.run("ndN", func() {
			nd := &baselines.NetDice{Net: net, PLinkDown: pLinkDown, Imprecision: imprecision}
			nd.AllReachability()
		})
		if sreSingle > 0 && ndSingle > 0 {
			deltas = math.Abs(sreSingle - ndSingle)
		}
		t.add(name, fmt.Sprint(net.Topology.NumLinks()), sreSingleT, ndSingleT, sreAllT, ndAllT,
			fmt.Sprintf("%.2e", deltas))
	}
	t.print()
	fmt.Println("\n  node failures (one topology, single property):")
	nodeFailurePanel(nets[0], ct)
}

// nodeFailurePanel compares node-failure probability computation.
func nodeFailurePanel(net *workloadNet, ct *cellTimer) {
	prefixes := net.AllPrefixes()
	pfx := prefixes[0]
	origins := net.OriginsOf(pfx)
	var srcID topology.RouterID
	for s := 0; s < net.Topology.NumRouters(); s++ {
		if topology.RouterID(s) != origins[0] {
			srcID = topology.RouterID(s)
			break
		}
	}
	kBudget := prob.KForImprecision(net.Topology.NumLinks(), pLinkDown, imprecision)
	var sreP, ndP float64
	t := newTable("system", "time", "probability")
	sreT := ct.run("sre-node", func() {
		pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: kBudget, Prefixes: []route.Prefix{pfx}}))
		if err != nil {
			return
		}
		defer pipe.Release()
		q := pipe.Query(srcID, pfx)
		sreP, _ = q.MinProbability(q.Reach(), pipe.NodeWeights(prob.NodeModel{PLinkDown: pLinkDown, PNodeDown: pNodeDown}))
	})
	ndT := ct.run("nd-node", func() {
		nd := &baselines.NetDice{Net: net, PLinkDown: pLinkDown, Imprecision: imprecision}
		ndP, _ = nd.ReachabilityWithNodes(srcID, pfx, pNodeDown)
	})
	t.add("SRE", sreT, fmt.Sprintf("%.6f", sreP))
	t.add("NetDice-substitute", ndT, fmt.Sprintf("%.6f", ndP))
	t.print()
}

// fig14 reproduces Figure 14 (appendix): waypoint probability under
// link and node failures.
func fig14(sc scale) {
	header("Figure 14 — waypointing probability (SRE vs NetDice-substitute)")
	nets := workload.NetDiceWANs(min(sc.netDiceWANs, 4), workload.OSPF)
	r := rand.New(rand.NewSource(*seedFlag))
	t := newTable("topology", "SRE(link)", "NetDice(link)", "|Δp|", "SRE(node)")
	ct := newCellTimer()
	for i, net := range nets {
		prefixes := net.AllPrefixes()
		pfx := prefixes[r.Intn(len(prefixes))]
		origins := net.OriginsOf(pfx)
		var srcID, wp topology.RouterID = -1, -1
		for s := 0; s < net.Topology.NumRouters(); s++ {
			id := topology.RouterID(s)
			if id == origins[0] {
				continue
			}
			if srcID < 0 {
				srcID = id
			} else if wp < 0 {
				wp = id
			}
		}
		kBudget := prob.KForImprecision(net.Topology.NumLinks(), pLinkDown, imprecision)
		var sreP, ndP, srePn float64
		sreT := ct.run("sre", func() {
			pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: kBudget, Prefixes: []route.Prefix{pfx}}))
			if err != nil {
				return
			}
			defer pipe.Release()
			q := pipe.Query(srcID, pfx)
			prop := q.Waypoint(wp)
			sreP, _ = q.MinProbability(prop, pipe.LinkWeights(prob.LinkModel{PDown: pLinkDown}))
			srePn, _ = q.MinProbability(prop, pipe.NodeWeights(prob.NodeModel{PLinkDown: pLinkDown, PNodeDown: pNodeDown}))
		})
		ndT := ct.run("netdice", func() {
			nd := &baselines.NetDice{Net: net, PLinkDown: pLinkDown, Imprecision: imprecision}
			ndP, _ = nd.WaypointProbability(srcID, pfx, wp)
		})
		t.add(fmt.Sprintf("netdice%d", i), sreT+" p="+fmt.Sprintf("%.4f", sreP),
			ndT+" p="+fmt.Sprintf("%.4f", ndP),
			fmt.Sprintf("%.2e", math.Abs(sreP-ndP)),
			fmt.Sprintf("%.6f", srePn))
	}
	t.print()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
