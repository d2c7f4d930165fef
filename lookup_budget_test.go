package sre_test

import (
	"testing"

	"sre"
	"sre/internal/workload"
)

// TestVerificationLookupBudget caps the BDD work of NewVerifier:
// operation-cache lookups may exceed the measured count by at most 3 %,
// while the routes imported and the PFECs found must not change. The
// caps hold because the priority masks of SRC and SPF take a Diff
// instead of building a complement to And away, and a hop of SPF is one
// And with a port predicate built once (forwarding ∧ outbound ACL ∧ link
// ∧ peer's inbound ACL) rather than four. Building complements and
// per-hop conjunctions again reads ≈ 1 720 776 and ≈ 1 322 636 lookups.
func TestVerificationLookupBudget(t *testing.T) {
	for _, c := range []struct {
		name               string
		net                *sre.Network
		opts               sre.Options
		lookups            uint64
		imported, numPFECs int
	}{
		{"wan20-ospf", workload.SyntheticWAN("w", 20, 30, workload.OSPF, 1),
			sre.Options{MaxFailures: 2, Parallelism: 1}, 1380257, 6567, 2277},
		{"fattree4-parallel2", workload.FatTree(4, workload.BGP),
			sre.Options{MaxFailures: 2, Parallelism: 2}, 1063015, 6944, 2616},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := sre.NewVerifier(c.net, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Release()
			m := v.Metrics()
			if got, limit := m.BDD.CacheHits+m.BDD.CacheMisses, c.lookups*103/100; got > limit {
				t.Errorf("%d operation-cache lookups, want ≤ %d (measured %d + 3 %%)", got, limit, c.lookups)
			}
			if m.RoutesImported != c.imported || m.NumPFECs != c.numPFECs {
				t.Errorf("%d routes imported, %d PFECs; want %d, %d",
					m.RoutesImported, m.NumPFECs, c.imported, c.numPFECs)
			}
		})
	}
}
