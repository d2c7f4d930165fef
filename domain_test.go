package sre_test

import (
	"reflect"
	"testing"

	"sre"
	"sre/internal/route"
)

// coveredFallback is a network whose answer for 10.0.0.0/9 depends on a
// second prefix: O9 originates the /9, O8 originates the covering /8 but
// keeps the /9 from S. S reaches the /9's addresses on its own route via
// A or, when that route is withdrawn, by longest-prefix-match fallback
// onto the /8 route via O8 (whose forwarding then carries the packet
// on to O9) — so the /9 tolerates one failure from S, but only if the
// /8's routes are computed alongside it.
const coveredFallback = `
topology
  router S
  router A
  router O8
  router O9
  link S A
  link A O9
  link S O8
  link O8 O9
end

router S
  bgp 65001
end

router A
  bgp 65002
end

router O8
  bgp 65008
    network 10.0.0.0/8
    neighbor S export-map NO9
  route-map NO9
    10 deny prefix 10.0.0.0/9
    20 permit any
end

router O9
  bgp 65009
    network 10.0.0.0/9
end
`

// TestRestrictedDomainKeepsDependencies restricts a run to one prefix
// whose failover route belongs to another: every execution path —
// combined, restricted combined, resilient, sharded — must compute the
// prefixes the answer depends on, and the miner must agree across its
// combined and per-prefix strata.
func TestRestrictedDomainKeepsDependencies(t *testing.T) {
	net, err := sre.ParseNetwork(coveredFallback)
	if err != nil {
		t.Fatal(err)
	}
	only9 := []string{"10.0.0.0/9"}
	for _, c := range []struct {
		name string
		opts sre.Options
	}{
		{"all", sre.Options{MaxFailures: 2, Parallelism: 1}},
		{"restricted", sre.Options{MaxFailures: 2, Parallelism: 1, Prefixes: only9}},
		{"restricted-resilient", sre.Options{MaxFailures: 2, Parallelism: 1, Resilient: true, Prefixes: only9}},
		{"restricted-sharded", sre.Options{MaxFailures: 2, Parallelism: 2, Prefixes: only9}},
	} {
		v, err := sre.NewVerifier(net, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		k, err := v.FailureTolerance("S", "10.0.0.0/9")
		v.Release()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if k != 1 {
			t.Errorf("%s: FailureTolerance(S, 10.0.0.0/9) = %d, want 1", c.name, k)
		}
	}

	base, err := sre.MineSpecs(net, 2, sre.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := sre.PairKey{Src: net.Topology.MustRouter("S"), Prefix: route.MustParsePrefix("10.0.0.0/9")}
	if got := base.ReachTolerance[key]; got != 1 {
		t.Errorf("mined tolerance(S, 10.0.0.0/9) = %d, want 1", got)
	}
	for _, opts := range []sre.Options{{Parallelism: 2}, {Parallelism: 1, Resilient: true}} {
		specs, err := sre.MineSpecs(net, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(specs, base) {
			t.Errorf("MineSpecs(%+v) diverges from the combined mine\n got %+v\nwant %+v", opts, specs, base)
		}
	}
}
