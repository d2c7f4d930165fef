package sre

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"sre/internal/sim"
	"sre/internal/topology"
)

// communityTagged is a network where two routes reach D for one prefix
// with equal identity but different communities: B1 and B2 share an
// AS, so O's prefix arrives over both with the same AS path, and each
// tags it with its own community on export to D. D advertises both to
// E, whose import map matches one of the communities.
func communityTagged(deny int) string {
	return fmt.Sprintf(`
topology
  router O
  router B1
  router B2
  router D
  router E
  link O B1
  link O B2
  link B1 D
  link B2 D
  link D E
end
router O
  bgp 65001
    network 10.0.0.0/8
end
router B1
  bgp 65002
    neighbor D export-map TAG
  route-map TAG
    10 permit any set community 100
end
router B2
  bgp 65002
    neighbor D export-map TAG
  route-map TAG
    10 permit any set community 200
end
router D
  bgp 65003
end
router E
  bgp 65004
    neighbor D import-map DROP
  route-map DROP
    10 deny community %d
    20 permit any
end
`, deny)
}

// TestCommunityTaggedRoutesMatchSimulation answers every (router,
// prefix) pair of communityTagged through the facade, over the full
// failure space, and compares each answer with concrete simulation of
// every scenario. Failure tolerance alone would not tell: D–E is a
// single link, so E's tolerance is at most 0 whatever D advertises. The
// probability of reaching the prefix weighs each scenario, so an
// advertisement sent under the wrong scenarios changes it.
func TestCommunityTaggedRoutesMatchSimulation(t *testing.T) {
	const pDown = 0.1
	for _, deny := range []int{100, 200} {
		t.Run(fmt.Sprintf("deny%d", deny), func(t *testing.T) {
			net, err := ParseNetwork(communityTagged(deny))
			if err != nil {
				t.Fatal(err)
			}
			v, err := NewVerifier(net, Options{MaxFailures: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Release()
			topo := net.Topology
			links := topo.NumLinks()
			for _, pfx := range net.AllPrefixes() {
				origins := map[topology.RouterID]bool{}
				for _, o := range net.OriginsOf(pfx) {
					origins[o] = true
				}
				for r := 0; r < topo.NumRouters(); r++ {
					src := topology.RouterID(r)
					// Scenarios are bit sets of failed links.
					minBreak, prob := math.MaxInt, 0.0
					for sc := 0; sc < 1<<links; sc++ {
						var down []topology.LinkID
						for l := 0; l < links; l++ {
							if sc&(1<<l) != 0 {
								down = append(down, topology.LinkID(l))
							}
						}
						res, err := sim.Simulate(net, sim.NewScenario(down...))
						if err != nil {
							t.Fatal(err)
						}
						n := bits.OnesCount(uint(sc))
						if origins[src] || res.Reachable(src, pfx.Addr, origins) {
							prob += math.Pow(pDown, float64(n)) * math.Pow(1-pDown, float64(links-n))
						} else {
							minBreak = min(minBreak, n)
						}
					}
					wantTol := InfiniteTolerance
					if minBreak != math.MaxInt {
						wantTol = minBreak - 1
					}
					name := topo.Name(src)
					tol, err := v.FailureTolerance(name, pfx.String())
					if err != nil {
						t.Fatal(err)
					}
					p, err := v.Probability(name, pfx.String(), LinkFailures(pDown))
					if err != nil {
						t.Fatal(err)
					}
					if tol != wantTol || math.Abs(p-prob) > 1e-9 {
						t.Errorf("%s → %s: tolerance %d, probability %.6f; simulation %d, %.6f",
							name, pfx, tol, p, wantTol, prob)
					}
				}
			}
		})
	}
}
