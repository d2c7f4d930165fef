package baselines

import (
	"math"
	"testing"
	"time"

	"sre/internal/analysis"
	"sre/internal/config"
	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
	"sre/internal/workload"
)

// The baseline substitutes must agree with the symbolic engine on small
// networks — they are independent implementations of the same
// questions, so agreement cross-validates both sides.

func smallWAN(t *testing.T) *config.Network {
	t.Helper()
	return workload.SyntheticWAN("test", 8, 12, workload.BGP, 7)
}

func smallOSPF(t *testing.T) *config.Network {
	t.Helper()
	return workload.SyntheticWAN("test", 8, 12, workload.OSPF, 7)
}

func sreAllPairs(t *testing.T, net *config.Network, k int) map[Pair]bool {
	t.Helper()
	pipe, err := analysis.Run(net, src.Options{PruneK: k})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()
	budget := pipe.Sp.AtMostKLinkFailures(k)
	m := pipe.Sp.M
	out := make(map[Pair]bool)
	for _, pfx := range net.AllPrefixes() {
		origins := pipe.OriginSet(pfx)
		for s := 0; s < net.Topology.NumRouters(); s++ {
			srcID := topology.RouterID(s)
			if origins[srcID] {
				continue
			}
			hdr := pipe.OwnedHeaders(pfx)
			prop := pipe.ReachBDD(srcID, origins, hdr)
			holds := m.Diff(m.And(hdr, budget), prop) == 0 // no violation in budget
			out[Pair{srcID, pfx}] = holds
		}
	}
	return out
}

func TestBatfishMatchesSRE(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		net := smallWAN(t)
		want := sreAllPairs(t, net, k)
		bf := &Batfish{Net: net}
		got := bf.AllPairsReachableUnderK(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: pair counts differ: %d vs %d", k, len(got), len(want))
		}
		for pair, w := range want {
			if got[pair] != w {
				t.Errorf("k=%d pair %v: batfish %v, sre %v", k, pair, got[pair], w)
			}
		}
		if bf.Scenarios == 0 {
			t.Error("batfish did no work")
		}
	}
}

func TestMinesweeperMatchesSRE(t *testing.T) {
	net := smallWAN(t)
	for _, k := range []int{0, 1, 2} {
		want := sreAllPairs(t, net, k)
		ms := &Minesweeper{Net: net}
		got := ms.AllPairsReachableUnderK(k)
		for pair, w := range want {
			if got[pair] != w {
				t.Errorf("k=%d pair %v: minesweeper %v, sre %v", k, pair, got[pair], w)
			}
		}
		if ms.SolverCalls == 0 {
			t.Error("minesweeper did no work")
		}
	}
}

func TestMinesweeperCounterexample(t *testing.T) {
	// Line topology: one failure disconnects.
	net := workload.SyntheticWAN("line", 3, 3, workload.BGP, 1)
	ms := &Minesweeper{Net: net}
	pfx := workload.RouterPrefix(2)
	ok, cex := ms.ReachableUnderK(0, pfx, 2)
	if ok {
		t.Fatal("ring of 3: 2 failures must disconnect")
	}
	if len(cex) == 0 || len(cex) > 2 {
		t.Fatalf("counterexample %v should have 1-2 links", cex)
	}
}

func TestTiramisuMatchesSREOnPolicyFreeNets(t *testing.T) {
	// Without ACLs or policies, reach tolerance equals min-cut-1.
	net := smallOSPF(t)
	pipe, err := analysis.Run(net, src.Options{PruneK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()
	ti := &Tiramisu{Net: net}
	for _, pfx := range net.AllPrefixes() {
		origins := pipe.OriginSet(pfx)
		for s := 0; s < net.Topology.NumRouters(); s++ {
			srcID := topology.RouterID(s)
			if origins[srcID] {
				continue
			}
			want := pipe.MinTolerance(pipe.ReachBDD(srcID, origins, pipe.OwnedHeaders(pfx)), pipe.OwnedHeaders(pfx))
			got := ti.FailureTolerance(srcID, pfx)
			// SRE explored only k<=3; clamp.
			if want > 3 {
				if got < 3 {
					t.Errorf("pair (%d,%s): tiramisu %d < explored bound", srcID, pfx, got)
				}
				continue
			}
			if got != want {
				t.Errorf("pair (%d,%s): tiramisu %d, sre %d", srcID, pfx, got, want)
			}
		}
	}
}

func TestNetDiceMatchesSREProbability(t *testing.T) {
	net := smallOSPF(t)
	const pDown = 0.01
	// SRE probabilities with generous budget (k=4 covers enough mass).
	pipe, err := analysis.Run(net, src.Options{PruneK: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()
	nd := &NetDice{Net: net, PLinkDown: pDown, Imprecision: 1e-7}
	weights := pipe.LinkWeights(prob.LinkModel{PDown: pDown})
	checked, waypoints := 0, 0
	for _, pfx := range net.AllPrefixes() {
		origins := pipe.OriginSet(pfx)
		for s := 0; s < net.Topology.NumRouters() && checked < 12; s++ {
			srcID := topology.RouterID(s)
			if origins[srcID] {
				continue
			}
			q := pipe.Query(srcID, pfx)
			want, _ := q.MinProbability(q.Reach(), weights)
			got, leftover := nd.Reachability(srcID, pfx)
			if math.Abs(got-want) > 1e-4+leftover {
				t.Errorf("pair (%d,%s): netdice %v, sre %v (leftover %v)", srcID, pfx, got, want, leftover)
			}
			checked++
			// The waypoint property through an interior router of the
			// first delivering path must agree too.
			for _, pf := range pipe.PFECs(srcID) {
				if !pf.Delivered || !origins[pf.Dst()] || len(pf.Path) < 3 {
					continue
				}
				w := pf.Path[1]
				want, _ := q.MinProbability(q.Waypoint(w), weights)
				got, leftover := nd.WaypointProbability(srcID, pfx, w)
				if math.Abs(got-want) > 1e-6+leftover {
					t.Errorf("pair (%d,%s) via %d: netdice %v, sre %v (leftover %v)", srcID, pfx, w, got, want, leftover)
				}
				waypoints++
				break
			}
		}
	}
	if checked == 0 || waypoints == 0 {
		t.Fatalf("nothing checked: %d pairs, %d waypoints", checked, waypoints)
	}
	if nd.Explorations == 0 {
		t.Error("netdice did no work")
	}
}

func TestConfig2SpecMiningMatchesSREMiner(t *testing.T) {
	net := smallWAN(t)
	const kMax = 2
	bf := &Batfish{Net: net}
	got := bf.MineSpecs(kMax)
	mn := &analysis.Miner{Net: net, KMax: kMax}
	specs, err := mn.Mine()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range specs.ReachTolerance {
		w := want
		if w > kMax {
			w = kMax // enumeration reports >=kMax as kMax
		}
		pair := Pair{Src: key.Src, Prefix: key.Prefix}
		if got[pair] != w {
			t.Errorf("pair %v: enumeration %d, miner %d", pair, got[pair], w)
		}
	}
}

func TestHoyanExplosionGrowsWithK(t *testing.T) {
	net := workload.SyntheticWAN("hoyan", 12, 18, workload.BGP, 3)
	pfx := workload.RouterPrefix(0)
	var prev int
	for _, k := range []int{0, 1, 2} {
		h := &Hoyan{Net: net, PruneK: k, TermLimit: 500000}
		res := h.ComputePrefix(pfx)
		if res.TimedOut {
			t.Logf("k=%d timed out (allowed)", k)
			break
		}
		if res.PeakTCLength < prev {
			t.Errorf("k=%d: TC length %d decreased from %d", k, res.PeakTCLength, prev)
		}
		prev = res.PeakTCLength
	}
	if prev == 0 {
		t.Error("no TC length observed")
	}
}

// TestHoyanHonoursTimeout: the deadline is polled inside the DNF
// products, so a run whose conditions explode stops within its budget
// instead of finishing the product it is in.
func TestHoyanHonoursTimeout(t *testing.T) {
	net := workload.SyntheticWAN("hoyan", 12, 18, workload.BGP, 3)
	h := &Hoyan{Net: net, PruneK: 2, TermLimit: 500000, Timeout: 2 * time.Second}
	start := time.Now()
	res := h.ComputePrefix(workload.RouterPrefix(0))
	if took := time.Since(start); !res.TimedOut || took > 3*time.Second {
		t.Fatalf("2 s timeout: TimedOut=%t after %v, want true within 3 s", res.TimedOut, took)
	}
}

func TestHoyanTimeout(t *testing.T) {
	net := workload.SyntheticWAN("hoyanbig", 24, 40, workload.BGP, 5)
	h := &Hoyan{Net: net, PruneK: 3, TermLimit: 200}
	res := h.ComputePrefix(workload.RouterPrefix(0))
	if !res.TimedOut {
		t.Skip("explosion did not trip the tiny limit; topology too easy")
	}
}

func TestDNAFindsShallowMissesDeep(t *testing.T) {
	before := workload.Figure1()
	// Deep change: delete C's inbound ACL (only visible under failures).
	afterDeep := before.Clone()
	cID := afterDeep.Topology.MustRouter("C")
	aID := afterDeep.Topology.MustRouter("A")
	ac, _ := afterDeep.Topology.LinkBetween(aID, cID)
	afterDeep.Router(cID).Interfaces[ac].ACLIn = nil
	dna := &DNA{Before: before, After: afterDeep}
	if diffs := dna.Diff(); len(diffs) != 0 {
		t.Errorf("DNA should MISS the failure-only difference, got %v", diffs)
	}
	// Shallow change: withdraw a network (visible immediately).
	afterShallow := before.Clone()
	afterShallow.Router(cID).BGP.Networks = afterShallow.Router(cID).BGP.Networks[:1]
	dna = &DNA{Before: before, After: afterShallow}
	if diffs := dna.Diff(); len(diffs) == 0 {
		t.Error("DNA should find the withdrawn network")
	}
}

func TestAtomicChangesApply(t *testing.T) {
	net := workload.SyntheticWAN("chg", 8, 12, workload.BGP, 11)
	changes := workload.AtomicChanges(net)
	if len(changes) != 10 {
		t.Fatalf("want 10 atomic changes, got %d", len(changes))
	}
	for _, ch := range changes {
		cp := net.Clone()
		ch.Apply(cp)
		if err := cp.Validate(); err != nil {
			t.Errorf("change %q produces invalid config: %v", ch.Name, err)
		}
		// Changed network must still converge.
		if _, err := analysis.Run(cp, src.Options{PruneK: 1}); err != nil {
			t.Errorf("change %q: pipeline failed: %v", ch.Name, err)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, tc := range []struct {
		name           workload.WANName
		routers, links int
	}{
		{workload.Bics, 33, 48},
		{workload.Columbus, 70, 85},
		{workload.USCarrier, 158, 189},
	} {
		net := workload.WAN(tc.name, workload.BGP)
		if net.Topology.NumRouters() != tc.routers || net.Topology.NumLinks() != tc.links {
			t.Errorf("%s: got (%d, %d), want (%d, %d)", tc.name,
				net.Topology.NumRouters(), net.Topology.NumLinks(), tc.routers, tc.links)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", tc.name, err)
		}
	}
	for _, k := range []int{4, 8, 10} {
		net := workload.FatTree(k, workload.BGP)
		if got, want := net.Topology.NumRouters(), workload.FatTreeNodes(k); got != want {
			t.Errorf("fat tree k=%d: %d routers, want %d", k, got, want)
		}
	}
	if workload.FatTreeNodes(4) != 20 || workload.FatTreeNodes(8) != 80 || workload.FatTreeNodes(10) != 125 ||
		workload.FatTreeNodes(16) != 320 || workload.FatTreeNodes(20) != 500 {
		t.Error("fat-tree node counts do not match the paper's sizes")
	}
	campus := workload.Campus(workload.CampusOptions{VLANs: 20})
	if campus.Topology.NumRouters() != 28 {
		t.Errorf("campus: %d routers, want 28", campus.Topology.NumRouters())
	}
	if err := campus.Validate(); err != nil {
		t.Errorf("campus invalid: %v", err)
	}
	nd := workload.NetDiceWANs(5, workload.OSPF)
	for i, n := range nd {
		if n.Topology.NumLinks() <= 50 {
			t.Errorf("netdice WAN %d has only %d links, want >50", i, n.Topology.NumLinks())
		}
	}
}

func TestFatTreeConverges(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	pipe, err := analysis.Run(net, src.Options{PruneK: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()
	// Edge-to-edge reachability should tolerate at least 1 failure in a
	// fat tree (k=4 has 2 uplinks per edge router).
	pfx := route.Prefix{}
	for _, p := range net.AllPrefixes() {
		pfx = p
		break
	}
	origins := pipe.OriginSet(pfx)
	var other topology.RouterID = -1
	for s := 0; s < net.Topology.NumRouters(); s++ {
		name := net.Topology.Name(topology.RouterID(s))
		if !origins[topology.RouterID(s)] && name[0] == 'e' {
			other = topology.RouterID(s)
			break
		}
	}
	if other < 0 {
		t.Fatal("no non-origin edge router found")
	}
	hdr := pipe.OwnedHeaders(pfx)
	prop := pipe.ReachBDD(other, origins, hdr)
	budget := pipe.Sp.AtMostKLinkFailures(1)
	if pipe.Sp.M.Diff(pipe.Sp.M.And(hdr, budget), prop) != 0 {
		t.Error("fat-tree edge-to-edge should tolerate one failure")
	}
}
