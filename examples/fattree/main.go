// Fat-tree example: verifying a BGP data-center fabric.
//
// Data-center fabrics run eBGP with one private AS per router (RFC
// 7938). Their heavy path redundancy is exactly what makes per-scenario
// verification explode: SRE explores every failure scenario at once,
// with each route guarded by the set of scenarios it survives.
//
// The example builds a 20-router (k=4) fat tree, runs SRE once, and
// verifies that every edge-to-edge prefix tolerates one arbitrary link
// failure (it does: each edge router has two uplinks).
//
// Run with: go run ./examples/fattree
package main

import (
	"fmt"
	"log"
	"time"

	"sre"
	"sre/internal/config"
	"sre/internal/topology"
	"sre/internal/workload"
)

func main() {
	net := workload.FatTree(4, workload.BGP)
	fmt.Printf("k=4 fat tree: %d routers, %d links, %d edge prefixes\n",
		net.Topology.NumRouters(), net.Topology.NumLinks(), len(net.AllPrefixes()))

	start := time.Now()
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer v.Release()
	fmt.Printf("%d PFECs in %v\n", v.NumPFECs(), time.Since(start).Round(time.Millisecond))
	verifyTolerance(v, net)
}

// verifyTolerance checks the fabric-wide single-failure guarantee from
// every edge router (where hosts attach) to every edge prefix.
func verifyTolerance(v *sre.Verifier, net *config.Network) {
	worst := sre.InfiniteTolerance
	var worstPair string
	checked := 0
	for _, pfx := range net.AllPrefixes() {
		origins := make(map[topology.RouterID]bool)
		for _, o := range net.OriginsOf(pfx) {
			origins[o] = true
		}
		for r := 0; r < net.Topology.NumRouters(); r++ {
			id := topology.RouterID(r)
			src := net.Topology.Name(id)
			if origins[id] || src[0] != 'e' {
				continue
			}
			k, err := v.FailureTolerance(src, pfx.String())
			if err != nil {
				log.Fatal(err)
			}
			checked++
			if k < worst {
				worst = k
				worstPair = fmt.Sprintf("%s -> %s", src, pfx)
			}
		}
	}
	fmt.Printf("checked %d edge-to-edge properties; worst tolerance: %d (%s)\n", checked, worst, worstPair)
	if worst >= 1 {
		fmt.Println("fabric survives any single link failure ✓")
	} else {
		fmt.Println("fabric has a single point of failure ✗")
	}
}
