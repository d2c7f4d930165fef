package sre_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sre"
	"sre/internal/workload"
)

// Golden end-to-end results, recorded from the seed BDD kernel. No
// kernel change since (relational product, scratch memo tables, cache
// sweeping, balanced folds, variable orders) may move ANY of
// these numbers, at any parallelism level — BDDs are canonical, so
// every kernel change is observationally invisible. If a value here
// moves, a kernel change altered results, not just throughput.

const goldenNetwork = `
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

func TestGoldenResultsAcrossKernelAndParallelism(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			checkGoldenQuickstart(t, par)
			checkGoldenFatTree(t, par)
		})
	}
}

func checkGoldenQuickstart(t *testing.T, par int) {
	net, err := sre.ParseNetwork(goldenNetwork)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: -1, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	wantPFECs := 5
	if got := v.NumPFECs(); got != wantPFECs {
		t.Errorf("NumPFECs = %d, want %d", got, wantPFECs)
	}
	classes, err := v.ForwardingClasses("A")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, c := range classes {
		lines = append(lines, fmt.Sprintf("%s delivered=%v packets=%g minfail=%d scenarios=%g",
			strings.Join(c.Path, ">"), c.Delivered, c.Packets, c.MinFailures, c.Scenarios))
	}
	sort.Strings(lines)
	want := []string{
		"A>B>C delivered=true packets=2.147483648e+09 minfail=0 scenarios=2",
		"A>C delivered=true packets=1.073741824e+09 minfail=0 scenarios=4",
	}
	if strings.Join(lines, ";") != strings.Join(want, ";") {
		t.Errorf("forwarding classes:\n  got  %v\n  want %v", lines, want)
	}
	for _, tc := range []struct {
		prefix string
		want   int
	}{{"192.0.0.0/2", 0}, {"128.0.0.0/1", 1}} {
		k, err := v.FailureTolerance("A", tc.prefix)
		if err != nil {
			t.Fatal(err)
		}
		if k != tc.want {
			t.Errorf("FailureTolerance(A, %s) = %d, want %d", tc.prefix, k, tc.want)
		}
	}
	p, err := v.Probability("A", "128.0.0.0/1", sre.LinkFailures(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.981) > 1e-12 {
		t.Errorf("Probability(A, 128.0.0.0/1) = %.15f, want 0.981", p)
	}
}

func checkGoldenFatTree(t *testing.T, par int) {
	fv, err := sre.NewVerifier(workload.FatTree(4, workload.BGP),
		sre.Options{MaxFailures: 2, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	defer fv.Release()
	if got := fv.NumPFECs(); got != 2616 {
		t.Errorf("fat tree NumPFECs = %d, want 2616", got)
	}
	sweep, err := fv.FailureTolerances("edge0-0")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sweep {
		if r.Err != nil {
			t.Fatalf("tolerance %s: %v", r.Prefix, r.Err)
		}
		want := 1
		if r.Prefix == "10.0.0.0/24" { // edge0-0's own prefix
			want = sre.InfiniteTolerance
		}
		if r.Value != want {
			t.Errorf("fat tree tolerance %s = %d, want %d", r.Prefix, r.Value, want)
		}
	}
	if len(sweep) != 8 {
		t.Errorf("fat tree tolerance sweep covers %d prefixes, want 8", len(sweep))
	}
	fc, err := fv.ForwardingClasses("edge0-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 123 {
		t.Errorf("fat tree classes = %d, want 123", len(fc))
	}
	sumP, sumS := 0.0, 0.0
	minF := 0
	for _, c := range fc {
		sumP += c.Packets
		sumS += c.Scenarios
		minF += c.MinFailures
	}
	if sumP != 31488 {
		t.Errorf("fat tree sum packets = %g, want 31488", sumP)
	}
	if sumS != 4.294978092e+09 {
		t.Errorf("fat tree sum scenarios = %g, want 4.294978092e+09", sumS)
	}
	if minF != 192 {
		t.Errorf("fat tree sum min failures = %d, want 192", minF)
	}
}
