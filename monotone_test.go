package sre_test

import (
	"testing"

	"sre"
	"sre/internal/workload"
)

// TestToleranceMonotoneInBudget checks that a failure budget bounds
// what the tolerance answer can see, on every execution path: for every
// (source, prefix) pair and budgets k < K, an answer below k at budget
// K is exact, so budget k must give the same answer; an answer of at
// least k at budget K means no scenario of fewer than k failures breaks
// reachability, so budget k must answer at least k. The budgets run
// from 0 to 3 on the Figure-1 network and on a 12-router OSPF WAN, one
// at a time, on two workers and resilient.
func TestToleranceMonotoneInBudget(t *testing.T) {
	fig1, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name string
		net  *sre.Network
	}{
		{"figure1", fig1},
		{"wan12-ospf", workload.SyntheticWAN("w", 12, 18, workload.OSPF, 1)},
	}
	configs := []struct {
		name string
		opts sre.Options
	}{
		{"p1", sre.Options{Parallelism: 1}},
		{"p2", sre.Options{Parallelism: 2}},
		{"resilient", sre.Options{Parallelism: 1, Resilient: true}},
	}
	const budgets = 4
	for _, n := range nets {
		for _, c := range configs {
			t.Run(n.name+"/"+c.name, func(t *testing.T) {
				// answers[k][pair] is the tolerance at budget k.
				answers := make([]map[[2]string]int, budgets)
				for k := range answers {
					opts := c.opts
					opts.MaxFailures = k
					answers[k] = tolerances(t, n.net, opts)
				}
				for pair := range answers[budgets-1] {
					for K := budgets - 1; K > 0; K-- {
						ansK := answers[K][pair]
						for k := 0; k < K; k++ {
							ansk, ok := answers[k][pair]
							switch {
							case !ok:
								t.Fatalf("%v: no answer at budget %d", pair, k)
							case ansK < k && ansk != ansK:
								t.Errorf("%v: tolerance %d at budget %d but %d at budget %d", pair, ansK, K, ansk, k)
							case ansK >= k && ansk < k:
								t.Errorf("%v: tolerance %d at budget %d but only %d at budget %d", pair, ansK, K, ansk, k)
							}
						}
					}
				}
			})
		}
	}
}

// tolerances verifies net under opts and returns the failure tolerance
// of every (source, prefix) pair. No prefix may degrade: a halved
// budget answers a lower bound, to which the budget relation does not
// apply.
func tolerances(t *testing.T, net *sre.Network, opts sre.Options) map[[2]string]int {
	t.Helper()
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	out := map[[2]string]int{}
	for _, src := range v.RouterNames() {
		tols, err := v.FailureTolerances(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tols {
			if r.Err != nil {
				t.Fatalf("%s → %s at budget %d: %v", src, r.Prefix, opts.MaxFailures, r.Err)
			}
			if r.Degraded || r.Quarantined {
				t.Fatalf("%s at budget %d degraded (rungs %v)", r.Prefix, opts.MaxFailures, r.Rungs)
			}
			out[[2]string{src, r.Prefix}] = r.Value
		}
	}
	return out
}
