// Probabilistic verification example (the NetDice task, §8.2): compute
// the probability that traffic reaches its destination under
// independent link failures — and node failures — and check an
// availability target ("four 9s").
//
// SRE handles this by delaying the failure model: the same PFECs
// computed once answer deterministic AND probabilistic questions. The
// failure budget is chosen from the binomial imprecision bound of §7.1:
// scenarios with more simultaneous failures than the budget carry less
// probability mass than the requested imprecision.
//
// Run with: go run ./examples/probabilistic
package main

import (
	"fmt"
	"log"

	"sre"
	"sre/internal/topology"
	"sre/internal/workload"
)

func main() {
	// A 30-router ISP-style WAN running OSPF.
	net := workload.NetDiceWANs(1, workload.OSPF)[0]
	const (
		pLink       = 0.001  // per-link failure probability
		pNode       = 0.0001 // per-node failure probability
		imprecision = 1e-4   // acceptable probability under-estimation
		target      = 0.9999 // "four 9s" availability requirement
	)
	budget, err := sre.RequiredBudget(net, sre.LinkFailures(pLink), imprecision)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d routers, %d links; failure budget for imprecision %g: %d\n\n",
		net.Topology.NumRouters(), net.Topology.NumLinks(), imprecision, budget)

	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: budget})
	if err != nil {
		log.Fatal(err)
	}
	defer v.Release()

	// Availability report: reachability probability from a sample of
	// sources to a sample of prefixes.
	prefixes := net.AllPrefixes()
	fails := 0
	total := 0
	fmt.Println("availability report (link failures only):")
	for i := 0; i < 5; i++ {
		pfx := prefixes[i*len(prefixes)/5]
		origins := net.OriginsOf(pfx)
		for s := 0; s < net.Topology.NumRouters(); s += 7 {
			id := topology.RouterID(s)
			if id == origins[0] {
				continue
			}
			src := net.Topology.Name(id)
			p, err := v.Probability(src, pfx.String(), sre.LinkFailures(pLink))
			if err != nil {
				log.Fatal(err)
			}
			status := "meets 4x9s"
			if p < target {
				status = "BELOW TARGET"
				fails++
			}
			total++
			fmt.Printf("  %-14s -> %-16s  %.6f  %s\n", src, pfx, p, status)
		}
	}
	fmt.Printf("\n%d/%d sampled properties meet the %.4f target\n", total-fails, total, target)

	// Node failures lower availability further (§6.4).
	pfx := prefixes[0]
	src := net.Topology.Name(topology.RouterID(5))
	pl, _ := v.Probability(src, pfx.String(), sre.LinkFailures(pLink))
	pn, err := v.Probability(src, pfx.String(), sre.NodeAndLinkFailures(pLink, pNode))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith node failures: %s -> %s: %.6f (links only: %.6f)\n", src, pfx, pn, pl)
}
