package analysis

import (
	"fmt"
	"math"
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
	"sre/internal/workload"
)

const figure1 = `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end

router A
  bgp 65001
end

router B
  bgp 65002
end

router C
  bgp 65003
    network 128.0.0.0/1
    network 192.0.0.0/2
    neighbor A export-map NO192
  route-map NO192
    10 deny prefix 192.0.0.0/2
    20 permit any
  interface A
    acl-in deny 192.0.0.0/2
    acl-in permit any
end
`

func runPipe(t *testing.T, text string, opts src.Options) *Pipeline {
	t.Helper()
	net, err := config.ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pipe, err := Run(net, opts)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return pipe
}

// TestFigure4Tolerance reproduces the paper's §6.3 walkthrough: for
// packets 192/2 the failure tolerance of Reach(A, C, ·) is 0, for
// packets 128/2 it is 1.
func TestFigure4Tolerance(t *testing.T) {
	pipe := runPipe(t, figure1, src.Options{PruneK: -1})
	m := pipe.Sp.M
	a := pipe.Net.Topology.MustRouter("A")
	c := pipe.Net.Topology.MustRouter("C")
	dst := map[topology.RouterID]bool{c: true}

	p192 := pipe.Sp.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	p128 := pipe.Sp.Prefix(route.MustParsePrefix("128.0.0.0/1"))
	p128only := m.Diff(p128, p192)

	prop := pipe.ReachBDD(a, dst, bdd.True)
	results := pipe.Tolerance(prop, m.Or(p128, p192))
	var k192, k128 = -99, -99
	for _, r := range results {
		switch {
		case m.And(r.Pkt, p192) == r.Pkt && r.Pkt != bdd.False:
			k192 = r.K
		case m.And(r.Pkt, p128only) == r.Pkt && r.Pkt != bdd.False:
			k128 = r.K
		}
	}
	if k192 != 0 {
		t.Errorf("tolerance(192/2) = %d, want 0", k192)
	}
	if k128 != 1 {
		t.Errorf("tolerance(128/2) = %d, want 1", k128)
	}
	if got := pipe.MinTolerance(prop, m.Or(p128, p192)); got != 0 {
		t.Errorf("min tolerance = %d, want 0", got)
	}
}

// TestExample2Probability reproduces §3.3 example 2: with each link up
// with probability 0.9, Prob(Reach(A, C, 128/2)) = 0.981.
func TestExample2Probability(t *testing.T) {
	pipe := runPipe(t, figure1, src.Options{PruneK: -1})
	m := pipe.Sp.M
	a := pipe.Net.Topology.MustRouter("A")
	c := pipe.Net.Topology.MustRouter("C")
	dst := map[topology.RouterID]bool{c: true}
	p192 := pipe.Sp.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	p128only := m.Diff(pipe.Sp.Prefix(route.MustParsePrefix("128.0.0.0/1")), p192)

	prop := pipe.ReachBDD(a, dst, p128only)
	results := pipe.Probability(prop, prob.LinkModel{PDown: 0.1})
	if len(results) != 1 {
		t.Fatalf("want one packet set, got %d", len(results))
	}
	if math.Abs(results[0].P-0.981) > 1e-12 {
		t.Errorf("probability = %v, want 0.981", results[0].P)
	}
	// 192/2 reaches C only via A→B→C: probability 0.9² = 0.81.
	prop192 := pipe.ReachBDD(a, dst, p192)
	r192 := pipe.Probability(prop192, prob.LinkModel{PDown: 0.1})
	if len(r192) != 1 || math.Abs(r192[0].P-0.81) > 1e-12 {
		t.Errorf("probability(192/2) = %v, want 0.81", r192)
	}
}

func TestProbabilityWithNodes(t *testing.T) {
	pipe := runPipe(t, figure1, src.Options{PruneK: -1})
	m := pipe.Sp.M
	a := pipe.Net.Topology.MustRouter("A")
	c := pipe.Net.Topology.MustRouter("C")
	dst := map[topology.RouterID]bool{c: true}
	p192 := pipe.Sp.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	p128only := m.Diff(pipe.Sp.Prefix(route.MustParsePrefix("128.0.0.0/1")), p192)

	// 192/2: path A→B→C requires lAB, lBC up and node B up (A and C are
	// the endpoints; following the paper, endpoint node failures are
	// not part of the path property for its own source/destination —
	// but our model composes all endpoints, so:
	// P = P(lAB)·P(lBC)·P(nA)·P(nB)·P(nC).
	pl, pn := 0.1, 0.01
	prop := pipe.ReachBDD(a, dst, p192)
	nodes := pipe.NodeWeights(prob.NodeModel{PLinkDown: pl, PNodeDown: pn})
	got := pipe.ProbabilityUnder(prop, nodes)
	want := math.Pow(1-pl, 2) * math.Pow(1-pn, 3)
	if len(got) != 1 || math.Abs(got[0].P-want) > 1e-12 {
		t.Errorf("node-failure probability = %v, want %v", got, want)
	}
	// 128/2 must be strictly more reachable than 192/2.
	prop128 := pipe.ReachBDD(a, dst, p128only)
	got128 := pipe.ProbabilityUnder(prop128, nodes)
	if len(got128) != 1 || got128[0].P <= got[0].P {
		t.Errorf("128/2 should be more reachable: %v vs %v", got128, got)
	}
}

func TestIsolationTolerance(t *testing.T) {
	// B never reaches a prefix blocked by ACLs on every path: build a
	// net where D's prefix is ACL-blocked on the direct link but leaks
	// via a backup path — isolation tolerance 0.
	pipe := runPipe(t, `
topology
  router S
  router D
  router X
  link S D
  link S X
  link X D
end
router S
  ospf
  exit
end
router X
  ospf
  exit
end
router D
  ospf
    network 10.0.0.0/24
  exit
  interface S
    acl-in deny any
  exit
end
`, src.Options{PruneK: -1})
	m := pipe.Sp.M
	q := pipe.Query(pipe.Net.Topology.MustRouter("S"), route.MustParsePrefix("10.0.0.0/24"))
	prop := q.Reach()
	// Under all-up, S forwards directly to D where the ACL drops: not
	// reachable. If link S-D fails, trafic deflects via X and reaches D:
	// isolation is violated by one failure → tolerance 0.
	if m.And(prop, pipe.Sp.AllLinksUp()) != bdd.False {
		t.Fatal("direct path should be ACL-blocked")
	}
	if got := q.Isolation(prop); got != 0 {
		t.Errorf("isolation tolerance = %d, want 0", got)
	}
}

func TestLoadBalancePaths(t *testing.T) {
	pipe := runPipe(t, `
topology
  router A
  router B
  router C
  router D
  link A B
  link A C
  link B D
  link C D
end
router A
  ospf
  exit
end
router B
  ospf
  exit
end
router C
  ospf
  exit
end
router D
  ospf
    network 10.0.0.0/24
  exit
end
`, src.Options{PruneK: -1})
	q := pipe.Query(pipe.Net.Topology.MustRouter("A"), route.MustParsePrefix("10.0.0.0/24"))
	if got := q.LoadBalance(); got != 2 {
		t.Errorf("load-balanced paths = %d, want 2", got)
	}
}

func TestToleranceUncoveredHeaders(t *testing.T) {
	pipe := runPipe(t, figure1, src.Options{PruneK: -1})
	a := pipe.Net.Topology.MustRouter("A")
	c := pipe.Net.Topology.MustRouter("C")
	// Ask about a header space nobody originates: tolerance -1.
	hdr := pipe.Sp.Prefix(route.MustParsePrefix("1.0.0.0/8"))
	prop := pipe.ReachBDD(a, map[topology.RouterID]bool{c: true}, hdr)
	results := pipe.Tolerance(prop, hdr)
	if len(results) != 1 || results[0].K != -1 {
		t.Errorf("uncovered headers should yield K=-1, got %+v", results)
	}
}

func TestExtractReconstructs(t *testing.T) {
	pipe := runPipe(t, figure1, src.Options{PruneK: -1})
	m := pipe.Sp.M
	a := pipe.Net.Topology.MustRouter("A")
	c := pipe.Net.Topology.MustRouter("C")
	prop := pipe.ReachBDD(a, map[topology.RouterID]bool{c: true}, bdd.True)
	rebuilt := bdd.False
	for _, tup := range pipe.Extract(prop) {
		rebuilt = m.Or(rebuilt, m.And(tup.Pkt, tup.Topo))
	}
	if rebuilt != prop {
		t.Fatal("Extract tuples do not reconstruct the property BDD")
	}
}

// extractReference is Extract by Shannon expansion over the header
// variables: one packet cube per path above the first link level, OR-ed
// per topology BDD reached.
func extractReference(m *bdd.Manager, property bdd.Node) map[bdd.Node]bdd.Node {
	groups := map[bdd.Node]bdd.Node{}
	var rec func(f, cube bdd.Node, v int)
	rec = func(f, cube bdd.Node, v int) {
		if f == bdd.False {
			return
		}
		for ; v < symbol.HeaderBits; v++ {
			if f0, f1 := m.Restrict(f, v, false), m.Restrict(f, v, true); f0 != f1 {
				rec(f0, m.And(cube, m.NVar(v)), v+1)
				rec(f1, m.And(cube, m.Var(v)), v+1)
				return
			}
		}
		groups[f] = m.Or(groups[f], cube) // a missing entry reads bdd.False
	}
	rec(property, bdd.True, 0)
	return groups
}

// TestExtractMatchesReference requires Extract to return the reference's
// tuples node for node, in topology-handle order, on two verified
// networks: for the reachability property of every (router, prefix)
// pair, and for each router's disjunction of them over all prefixes
// (one pair's property is a single tuple on both networks; the
// disjunction has one per distinct topology BDD).
func TestExtractMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *config.Network
	}{
		{"campus40", workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1})},
		{"wan20-ospf", workload.SyntheticWAN("w", 20, 30, workload.OSPF, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			pipe, err := Run(c.net, src.Options{PruneK: 2})
			if err != nil {
				t.Fatal(err)
			}
			m := pipe.Sp.M
			same := func(what string, prop bdd.Node) {
				t.Helper()
				got, want := pipe.Extract(prop), extractReference(m, prop)
				if len(got) != len(want) {
					t.Fatalf("%s: %d tuples, reference has %d", what, len(got), len(want))
				}
				for i, tup := range got {
					if i > 0 && got[i-1].Topo >= tup.Topo {
						t.Fatalf("%s: tuples not in topology-handle order", what)
					}
					if want[tup.Topo] != tup.Pkt {
						t.Fatalf("%s: packet BDD of topology %d differs from the reference", what, tup.Topo)
					}
				}
			}
			for s := range c.net.Topology.NumRouters() {
				var props []bdd.Node
				for _, pfx := range pipe.prefixes {
					prop := pipe.Query(topology.RouterID(s), pfx).Reach()
					same(fmt.Sprintf("%d → %s", s, pfx), prop)
					props = append(props, prop)
				}
				same(fmt.Sprintf("%d → any prefix", s), m.OrN(props...))
			}
		})
	}
}

func TestDiffReachabilityFindsFailureOnlyDifference(t *testing.T) {
	// §6.5 scenario: deleting C's inbound ACL for 192/2 changes nothing
	// under all-up (the route-map still diverts 192/2 through B), but
	// under lAB or lBC failures packets for 192/2 start reaching C.
	netBefore, err := config.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	netAfter := netBefore.Clone()
	cID := netAfter.Topology.MustRouter("C")
	aID := netAfter.Topology.MustRouter("A")
	ac, _ := netAfter.Topology.LinkBetween(aID, cID)
	netAfter.Router(cID).Interfaces[ac].ACLIn = nil

	before, err := Run(netBefore, src.Options{PruneK: -1})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Run(netAfter, src.Options{PruneK: -1})
	if err != nil {
		t.Fatal(err)
	}
	w := after.LinkWeights(prob.LinkModel{PDown: 0.001})
	diffs, err := DiffReachability(before, after, &w)
	if err != nil {
		t.Fatal(err)
	}
	var found *Difference
	for i := range diffs {
		d := &diffs[i]
		if d.Src == aID && d.Prefix == route.MustParsePrefix("192.0.0.0/2") {
			found = d
		}
	}
	if found == nil {
		t.Fatal("expected a difference for (A, 192/2)")
	}
	if found.ChangedUnderNoFailures(after) {
		t.Error("difference should NOT be visible under all links up (DNA-invisible)")
	}
	if len(found.WitnessDownLinks) == 0 {
		t.Error("expected a failure witness")
	}
	// Tolerance increases after the change (paper: 0 → 1).
	if !(found.ToleranceBefore == 0 && found.ToleranceAfter == 1) {
		t.Errorf("tolerance before/after = %d/%d, want 0/1",
			found.ToleranceBefore, found.ToleranceAfter)
	}
	if found.ProbAfter <= found.ProbBefore {
		t.Errorf("probability should increase: %v -> %v", found.ProbBefore, found.ProbAfter)
	}
}

func TestDiffReachabilityNoChange(t *testing.T) {
	net, err := config.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Run(net, src.Options{PruneK: -1})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Run(net.Clone(), src.Options{PruneK: -1})
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := DiffReachability(before, after, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("identical configs should have no differences, got %d", len(diffs))
	}
}

func TestMinerFigure1(t *testing.T) {
	net, err := config.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	mn := &Miner{Net: net, KMax: 2}
	specs, err := mn.Mine()
	if err != nil {
		t.Fatal(err)
	}
	aID := net.Topology.MustRouter("A")
	bID := net.Topology.MustRouter("B")
	p128 := route.MustParsePrefix("128.0.0.0/1")
	p192 := route.MustParsePrefix("192.0.0.0/2")
	// A→128/1: two disjoint paths but min-cut(A,C)=2, so tolerance 1.
	if got := specs.ReachTolerance[PairKey{Src: aID, Prefix: p128}]; got != 1 {
		t.Errorf("tolerance(A,128/1) = %d, want 1", got)
	}
	// A→192/2: only via B, tolerance 0.
	if got := specs.ReachTolerance[PairKey{Src: aID, Prefix: p192}]; got != 0 {
		t.Errorf("tolerance(A,192/2) = %d, want 0", got)
	}
	// B→192/2: direct link to C, tolerance 0... but backup via A is
	// blocked by C's export map at A? No: A never receives 192/2 from
	// C; it receives it from B itself — AS-loop rejected. So B relies
	// on lBC only: tolerance 0.
	if got := specs.ReachTolerance[PairKey{Src: bID, Prefix: p192}]; got != 0 {
		t.Errorf("tolerance(B,192/2) = %d, want 0", got)
	}
	if len(specs.Isolated) != 0 {
		t.Errorf("no isolated pairs expected, got %v", specs.Isolated)
	}
}

// TestMinerOneShotAgreesWithStratified checks the stratified miner
// against a one-shot reference: a single pipeline at the full budget,
// where a pair's tolerance is the first budget k it does not survive,
// minus 1.
func TestMinerOneShotAgreesWithStratified(t *testing.T) {
	net := mustNet(t, figure1)
	const kMax = 2
	specs, err := (&Miner{Net: net, KMax: kMax}).Mine()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(net, src.Options{PruneK: kMax})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	pairs := 0
	for _, pfx := range net.AllPrefixes() {
		for s := 0; s < net.Topology.NumRouters(); s++ {
			srcID := topology.RouterID(s)
			if containsRouter(net.OriginsOf(pfx), srcID) {
				continue
			}
			pairs++
			want := InfiniteTolerance
			for k := 0; k <= kMax; k++ {
				if q := ref.Query(srcID, pfx); q.Violated(q.Reach(), ref.Sp.AtMostKLinkFailures(k)) {
					want = k - 1
					break
				}
			}
			key := PairKey{Src: srcID, Prefix: pfx}
			if got, ok := specs.ReachTolerance[key]; !ok || got != want {
				t.Errorf("pair %v: stratified %d (decided %t), one-shot %d", key, got, ok, want)
			}
		}
	}
	if len(specs.ReachTolerance) != pairs {
		t.Errorf("stratified miner decided %d pairs, the one-shot reference %d", len(specs.ReachTolerance), pairs)
	}
}

func TestMinerWaypoint(t *testing.T) {
	net, err := config.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	bID := net.Topology.MustRouter("B")
	mn := &Miner{Net: net, KMax: 2,
		Waypoint: func(s topology.RouterID, pfx route.Prefix) (topology.RouterID, bool) {
			return bID, s != bID
		}}
	specs, err := mn.Mine()
	if err != nil {
		t.Fatal(err)
	}
	aID := net.Topology.MustRouter("A")
	// Waypoint(A, C, B) for 192/2: all delivered traffic goes through
	// B, tolerance limited by the single path: 0.
	if got := specs.WaypointTolerance[PairKey{Src: aID, Prefix: route.MustParsePrefix("192.0.0.0/2")}]; got != 0 {
		t.Errorf("waypoint tolerance (A,192/2 via B) = %d, want 0", got)
	}
	// Waypoint(A, C, B) for 128/1: the direct path A→C skips B, so the
	// waypoint property fails even with no failures: -1.
	if got := specs.WaypointTolerance[PairKey{Src: aID, Prefix: route.MustParsePrefix("128.0.0.0/1")}]; got != -1 {
		t.Errorf("waypoint tolerance (A,128/1 via B) = %d, want -1", got)
	}
}

func TestPipelineTimings(t *testing.T) {
	pipe := runPipe(t, figure1, src.Options{PruneK: -1})
	if pipe.SRCTime <= 0 || pipe.SPFTime <= 0 {
		t.Error("stage timings should be positive")
	}
	if pipe.NumPFECs() == 0 {
		t.Error("pipeline should produce PFECs")
	}
}

// BenchmarkQuerySweepCampus is the query side alone on the campus of
// Campus(40) k=2: a failure-tolerance sweep over every (router, prefix)
// pair on one verified pipeline — build the pair query, its
// reachability property, Extract and the shortest paths. Each iteration
// verifies a fresh pipeline outside the timer, so every sweep starts
// from the same operation cache.
func BenchmarkQuerySweepCampus(b *testing.B) {
	net := workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1})
	b.ReportAllocs()
	lookups := uint64(0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipe, err := Run(net, src.Options{PruneK: 2})
		if err != nil {
			b.Fatal(err)
		}
		before := pipe.Sp.M.Statistics()
		b.StartTimer()
		for s := range net.Topology.NumRouters() {
			for _, pfx := range pipe.prefixes {
				q := pipe.Query(topology.RouterID(s), pfx)
				q.Tolerance(q.Reach())
			}
		}
		b.StopTimer()
		after := pipe.Sp.M.Statistics()
		lookups += after.CacheHits + after.CacheMiss - before.CacheHits - before.CacheMiss
		pipe.Release()
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
}
