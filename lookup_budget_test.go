package sre_test

import (
	"errors"
	"testing"

	"sre"
	"sre/internal/bdd"
	"sre/internal/workload"
)

// policiedMesh is an iBGP mesh A, B, C over OSPF with eBGP neighbours
// D and E that run no OSPF. A aggregates D's prefixes, A and C prepend
// and tag a community towards D and E, and B's interface to the
// OSPF-only stub F is passive.
const policiedMesh = `
topology
  router A
  router B
  router C
  router D
  router E
  router F
  link A B
  link B C
  link C A
  link A D
  link C E
  link D E
  link B F
end
router A
  bgp 65000
    aggregate 20.0.0.0/16
    neighbor D export-map TAG
  exit
  ospf
    network 10.0.1.0/24
  exit
  route-map TAG
    10 permit any set prepend 2 set community 100
  exit
end
router B
  bgp 65000
    network 10.0.2.0/24
  exit
  ospf
    network 10.0.2.0/24
  exit
  interface F
    passive
  exit
end
router C
  bgp 65000
    network 10.0.3.0/24
    neighbor E export-map TAG
  exit
  ospf
    network 10.0.3.0/24
  exit
  route-map TAG
    10 permit any set prepend 2 set community 100
  exit
end
router D
  bgp 65001
    network 20.0.0.0/24
    network 20.0.1.0/24
  exit
end
router E
  bgp 65002
    network 30.0.0.0/24
  exit
end
router F
  ospf
    network 40.0.0.0/24
  exit
end
`

// TestVerificationLookupBudget caps the BDD work of NewVerifier:
// operation-cache lookups may exceed the measured count by at most 3 %,
// while the routes imported and the PFECs found must not change. The
// caps hold because the priority masks of SRC and SPF take a Diff
// instead of building a complement to And away, and a hop of SPF is one
// And with a port predicate built once (forwarding ∧ outbound ACL ∧ link
// ∧ peer's inbound ACL) rather than four. Building complements and
// per-hop conjunctions again reads ≈ 1 720 776 and ≈ 1 322 636 lookups.
// On campus40, whose 40 VLANs share nine originator pairs, SPF matches
// each prefix class once; matching every FIB rule over its own prefix
// again reads 1 684 754. fattree4-parallel2 verifies one prefix of its
// one symmetry orbit and answers the other seven through it (see
// internal/symmetry): 868 routes imported and 121 779 lookups, where
// verifying all eight read 6 944 and 1 063 015; its PFEC count is the
// eight prefixes' 2 616 either way. wan12-ibgp-mesh and policied pin the iBGP
// path: the OSPF underlay run, the virtual sessions it conditions, and
// (policied) a passive interface, export maps that prepend and tag a
// community, an aggregate and BGP-only routers outside the underlay.
func TestVerificationLookupBudget(t *testing.T) {
	policied, err := sre.ParseNetwork(policiedMesh)
	if err != nil {
		t.Fatal(err)
	}
	mesh := sre.Options{MaxFailures: 2, Parallelism: 1, IBGPFullMesh: true}
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
			sre.Options{MaxFailures: 2, Parallelism: 2}, 121779, 868, 2616},
		{"campus40", workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1}),
			sre.Options{MaxFailures: 2, Parallelism: 1}, 1441126, 17831, 2074},
		{"wan12-ibgp-mesh", workload.SyntheticWAN("m", 12, 18, workload.BGPOSPF, 2),
			mesh, 537957, 4284, 867},
		{"policied", policied, mesh, 12124, 110, 46},
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

// TestKernelSameWork pins the work the BDD kernel does, exactly: how the
// node table and the operation cache are laid out in memory may change
// how fast a run goes, never which lookups hit, which nodes are found in
// the unique table, how many nodes are allocated at most or when the
// collector runs. FatTree(4) without symmetry verifies all eight
// prefixes in one combined space and collects; the OSPF WAN is the
// other protocol path.
func TestKernelSameWork(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *sre.Network
		want bdd.Stats
	}{
		{"fattree4-nosymmetry", fatTreeWithoutSymmetry(4),
			bdd.Stats{CacheHits: 175892, CacheMiss: 585411, UniqueHits: 243582, PeakNodes: 84462, GCRuns: 3}},
		{"wan20-ospf", workload.SyntheticWAN("w", 20, 30, workload.OSPF, 1),
			bdd.Stats{CacheHits: 315840, CacheMiss: 1064417, UniqueHits: 467242, PeakNodes: 128873, GCRuns: 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := sre.NewVerifier(c.net, sre.Options{MaxFailures: 2, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Release()
			if got := sre.KernelWork(v); got != c.want {
				t.Errorf("kernel work %+v\nwant          %+v", got, c.want)
			}
		})
	}
}

// TestQueryLookupBudget pins the BDD work of the pair queries on the
// swept inputs of TestVerificationReproducible, counted in
// operation-cache lookups after verification. A sweep of
// FailureTolerances, IsolationTolerance and LoadBalancedPaths over every
// router and prefix must do exactly the measured work: 154 058 lookups
// on wan20-ospf, 300 220 on campus40. The count depends on what
// verification leaves in the operation cache: on campus40 it read
// 320 567 while SPF still matched every FIB rule over its own prefix,
// and 157 902 / 318 409 while a tolerance query projected the property
// onto the headers even when its one tuple already is that projection.
// A Probability sweep over the same
// pairs, run after it, may exceed its measured count (2 282 and 8 888)
// by at most 3 %. Besides the weighted sums, each probability query
// checks that its tuples cover the header universe (one OrN and one
// DiffSat); on these inputs that check costs no lookup, because one
// tuple covering the whole universe short-cuts both.
func TestQueryLookupBudget(t *testing.T) {
	lookups := func(v *sre.Verifier) uint64 {
		b := v.Metrics().BDD
		return b.CacheHits + b.CacheMisses
	}
	for _, c := range []struct {
		name               string
		net                *sre.Network
		structural, probab uint64
	}{
		{"wan20-ospf", workload.SyntheticWAN("w", 20, 30, workload.OSPF, 1), 154058, 2282},
		{"campus40", workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1}), 300220, 8888},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := sre.NewVerifier(c.net, sre.Options{MaxFailures: 2, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Release()
			var pairs [][2]string
			start := lookups(v)
			for _, src := range v.RouterNames() {
				tols, err := v.FailureTolerances(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tols {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					pairs = append(pairs, [2]string{src, r.Prefix})
					if _, err := v.IsolationTolerance(src, r.Prefix); err != nil {
						t.Fatal(err)
					}
					if _, err := v.LoadBalancedPaths(src, r.Prefix); err != nil {
						t.Fatal(err)
					}
				}
			}
			structural := lookups(v) - start
			start = lookups(v)
			for _, p := range pairs {
				if _, err := v.Probability(p[0], p[1], sre.LinkFailures(1e-3)); err != nil && !errors.Is(err, sre.ErrNoPFECs) {
					t.Fatal(err)
				}
			}
			probab := lookups(v) - start
			t.Logf("%d pairs: %d structural lookups, %d probability lookups", len(pairs), structural, probab)
			if structural != c.structural {
				t.Errorf("tolerance, isolation and load-balance sweep: %d lookups, want exactly %d", structural, c.structural)
			}
			if limit := c.probab * 103 / 100; probab > limit {
				t.Errorf("probability sweep: %d lookups, want ≤ %d (measured %d + 3 %%)", probab, limit, c.probab)
			}
		})
	}
}
