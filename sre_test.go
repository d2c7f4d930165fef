package sre_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sre"
	"sre/internal/bdd"
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

func verifier(t *testing.T, opts sre.Options) *sre.Verifier {
	t.Helper()
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPublicFailureTolerance(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	k, err := v.FailureTolerance("A", "128.0.0.0/1")
	if err != nil {
		t.Fatal(err)
	}
	// The query covers the headers OWNED by 128/1 — excluding the
	// more-specific 192/2, which forwards along its own prefix. Both
	// disjoint paths serve 128/2: tolerance 1 (the paper's Figure 4).
	if k != 1 {
		t.Errorf("tolerance(A,128/1 owned space) = %d, want 1", k)
	}
	k, err = v.FailureTolerance("A", "192.0.0.0/2")
	if err != nil {
		t.Fatal(err)
	}
	if k != 0 {
		t.Errorf("tolerance(A,192/2) = %d, want 0", k)
	}
}

func TestPublicProbability(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	p, err := v.Probability("A", "192.0.0.0/2", sre.LinkFailures(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.81) > 1e-12 {
		t.Errorf("probability = %v, want 0.81", p)
	}
	pn, err := v.Probability("A", "192.0.0.0/2", sre.NodeAndLinkFailures(0.1, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if pn >= p {
		t.Errorf("adding node failures should lower the probability: %v >= %v", pn, p)
	}
}

func TestPublicWaypoint(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	k, err := v.WaypointTolerance("A", "192.0.0.0/2", "B")
	if err != nil {
		t.Fatal(err)
	}
	if k != 0 {
		t.Errorf("waypoint tolerance = %d, want 0", k)
	}
	k, err = v.WaypointTolerance("A", "128.0.0.0/1", "B")
	if err != nil {
		t.Fatal(err)
	}
	if k != -1 {
		t.Errorf("waypoint tolerance for 128/1 via B = %d, want -1 (direct path skips B)", k)
	}
}

func TestPublicErrors(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: 1})
	defer v.Release()
	model := sre.LinkFailures(0.01)
	queries := []struct {
		name     string
		waypoint bool
		ask      func(src, prefix, via string) error
	}{
		{"FailureTolerance", false, func(s, p, _ string) error { _, err := v.FailureTolerance(s, p); return err }},
		{"WaypointTolerance", true, func(s, p, w string) error { _, err := v.WaypointTolerance(s, p, w); return err }},
		{"WaypointOnlyTolerance", true, func(s, p, w string) error { _, err := v.WaypointOnlyTolerance(s, p, w); return err }},
		{"IsolationTolerance", false, func(s, p, _ string) error { _, err := v.IsolationTolerance(s, p); return err }},
		{"LoadBalancedPaths", false, func(s, p, _ string) error { _, err := v.LoadBalancedPaths(s, p); return err }},
		{"Probability", false, func(s, p, _ string) error { _, err := v.Probability(s, p, model); return err }},
		{"WaypointProbability", true, func(s, p, w string) error { _, err := v.WaypointProbability(s, p, w, model); return err }},
	}
	inputs := []struct {
		name, src, prefix, via string
		waypointOnly           bool
		want                   string // substring of the error
	}{
		{"unknown router", "Z", "128.0.0.0/1", "B", false, "unknown router"},
		{"malformed prefix", "A", "not-a-prefix", "B", false, "not-a-prefix"},
		{"unoriginated prefix", "A", "9.9.9.0/24", "B", false, "not originated"},
		{"unknown waypoint", "A", "128.0.0.0/1", "Z", true, "unknown waypoint"},
	}
	for _, q := range queries {
		if err := q.ask("A", "128.0.0.0/1", "B"); err != nil {
			t.Errorf("%s on a good input: %v", q.name, err)
		}
		for _, in := range inputs {
			if in.waypointOnly && !q.waypoint {
				continue
			}
			if err := q.ask(in.src, in.prefix, in.via); err == nil || !strings.Contains(err.Error(), in.want) {
				t.Errorf("%s, %s: got %v, want an error containing %q", q.name, in.name, err, in.want)
			}
		}
	}
}

func TestPublicMineSpecs(t *testing.T) {
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sre.MineSpecs(net, 2, sre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs.ReachTolerance) == 0 {
		t.Fatal("no specs mined")
	}
}

// TestFailureModelOutOfRange requires the probability queries to
// reject a failure model whose probabilities are not in [0, 1]: here
// LinkFailures(1.5) read 0.25, LinkFailures(NaN) read 1, and
// NodeAndLinkFailures(0.1, 1.5) read −0.10125.
func TestFailureModelOutOfRange(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []sre.FailureModel{
		sre.LinkFailures(1.5), sre.LinkFailures(-0.1), sre.LinkFailures(math.NaN()),
		sre.NodeAndLinkFailures(0.1, 1.5), sre.NodeAndLinkFailures(0.1, math.NaN()),
	} {
		if p, err := v.Probability("A", "192.0.0.0/2", m); err == nil {
			t.Errorf("%+v: Probability read %v, want an error", m, p)
		}
		if p, err := v.WaypointProbability("A", "192.0.0.0/2", "B", m); err == nil {
			t.Errorf("%+v: WaypointProbability read %v, want an error", m, p)
		}
		if _, err := sre.Diff(net, net.Clone(), 1, m, sre.Options{}); err == nil {
			t.Errorf("%+v: Diff accepted the model", m)
		}
		if k, err := sre.RequiredBudget(net, m, 1e-4); err == nil {
			t.Errorf("%+v: RequiredBudget read %d, want an error", m, k)
		}
	}
	for _, m := range []sre.FailureModel{sre.LinkFailures(0), sre.LinkFailures(1), sre.NodeAndLinkFailures(1, 1)} {
		if _, err := v.Probability("A", "192.0.0.0/2", m); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
		if _, err := sre.RequiredBudget(net, m, 1e-4); err != nil {
			t.Errorf("%+v: RequiredBudget: %v", m, err)
		}
	}
}

// denyImports is the triangle of figure1 without its policy, except
// that A accepts nothing from B or C: A never reaches 192.0.0.0/2.
const denyImports = `
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
    neighbor B import-map NONE
    neighbor C import-map NONE
  route-map NONE
    10 deny any
end
router B
  bgp 65002
end
router C
  bgp 65003
    network 192.0.0.0/2
end
`

// TestMineFullFailureSpace mines with no failure budget and requires
// every pair to read what FailureTolerance reads over the full failure
// space. A negative budget once ran no stratum at all and reported
// every pair as tolerating any number of failures.
func TestMineFullFailureSpace(t *testing.T) {
	for _, c := range []struct {
		name string
		net  func() (*sre.Network, error)
	}{
		{"deny-imports", func() (*sre.Network, error) { return sre.ParseNetwork(denyImports) }},
		{"figure1", func() (*sre.Network, error) { return sre.ParseNetwork(figure1) }},
		{"wan8-ospf", func() (*sre.Network, error) {
			return workload.SyntheticWAN("w", 8, 12, workload.OSPF, 1), nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, err := c.net()
			if err != nil {
				t.Fatal(err)
			}
			specs, err := sre.MineSpecs(net, -1, sre.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			v, err := sre.NewVerifier(net, sre.Options{MaxFailures: -1, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Release()
			if len(specs.ReachTolerance) == 0 {
				t.Fatal("no specs mined")
			}
			for key, got := range specs.ReachTolerance {
				src := net.Topology.Name(key.Src)
				want, err := v.FailureTolerance(src, key.Prefix.String())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s -> %s: mined tolerance %d, FailureTolerance %d", src, key.Prefix, got, want)
				}
			}
		})
	}
}

func TestPublicDiff(t *testing.T) {
	before, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	after := before.Clone()
	c := after.Topology.MustRouter("C")
	a := after.Topology.MustRouter("A")
	ac, _ := after.Topology.LinkBetween(a, c)
	after.Router(c).Interfaces[ac].ACLIn = nil
	diffs, err := sre.Diff(before, after, 3, sre.LinkFailures(0.001), sre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diffs {
		if d.Src == "A" && d.Prefix == "192.0.0.0/2" {
			found = true
			if !d.FailuresOnly {
				t.Error("the ACL deletion should be invisible under no failures")
			}
			if d.ToleranceDelta != [2]int{0, 1} {
				t.Errorf("tolerance delta %v, want {0,1}", d.ToleranceDelta)
			}
		}
	}
	if !found {
		t.Fatal("expected difference for (A, 192.0.0.0/2)")
	}
}

func TestPublicStagesAndPFECs(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	srcT, spfT := v.Stages()
	if srcT <= 0 || spfT <= 0 {
		t.Error("stage timings must be positive")
	}
	if v.NumPFECs() == 0 {
		t.Error("expected PFECs")
	}
}

func TestRequiredBudget(t *testing.T) {
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sre.RequiredBudget(net, sre.LinkFailures(0.001), 1e-4)
	if err != nil || k < 1 || k > 3 {
		t.Errorf("budget %d (%v) out of expected range for 3 links @0.001", k, err)
	}
	// A NaN or negative imprecision is no probability mass to lose.
	for _, imprecision := range []float64{math.NaN(), -1e-4} {
		if k, err := sre.RequiredBudget(net, sre.LinkFailures(0.001), imprecision); err == nil {
			t.Errorf("imprecision %v: RequiredBudget read %d, want an error", imprecision, k)
		}
	}
	// Round trip of the network format.
	text := sre.FormatNetwork(net)
	if _, err := sre.ParseNetwork(text); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestPublicNodeLimit(t *testing.T) {
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sre.NewVerifier(net, sre.Options{MaxFailures: -1, BDDNodeLimit: 8})
	if err == nil {
		t.Fatal("expected BDD limit error")
	}
}

// TestNodeLimitOutOfRange: a node limit below 0 or above what a node
// handle can address (bdd.MaxNodeLimit) is an input error, refused with
// the accepted range before any BDD is built: never reported as an
// overflow, and never sent down the resilient ladder.
func TestNodeLimitOutOfRange(t *testing.T) {
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{-1, bdd.MaxNodeLimit + 1} {
		for _, resilient := range []bool{false, true} {
			opts := sre.Options{MaxFailures: 1, BDDNodeLimit: limit, Resilient: resilient}
			_, verr := sre.NewVerifier(net, opts)
			_, merr := sre.MineSpecs(net, 1, opts)
			_, derr := sre.Diff(net, net, 1, sre.LinkFailures(0.001), opts)
			for _, err := range []error{verr, merr, derr} {
				if err == nil || errors.Is(err, sre.ErrBDDLimit) || !strings.Contains(err.Error(), "out of range [0, 134217728]") {
					t.Errorf("node limit %d (resilient %v): %v, want an out-of-range error", limit, resilient, err)
				}
			}
		}
	}
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 1, BDDNodeLimit: bdd.MaxNodeLimit})
	if err != nil {
		t.Fatalf("node limit bdd.MaxNodeLimit: %v", err)
	}
	v.Release()
}

func TestPublicLoadBalance(t *testing.T) {
	net, err := sre.ParseNetwork(`
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
`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	n, err := v.LoadBalancedPaths("A", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("load-balanced paths = %d, want 2", n)
	}
	iso, err := v.IsolationTolerance("A", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if iso != -1 {
		t.Errorf("isolation tolerance = %d, want -1 (reachable under no failures)", iso)
	}
}
