package sre_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sre"
	"sre/internal/symmetry"
	"sre/internal/topology"
	"sre/internal/workload"
)

// renamed returns net with its routers renamed and redeclared in a
// random order, its links redeclared in a random order and its AS
// numbers mapped by a random bijection, printed and parsed back. It
// returns the new name of every router.
func renamed(t *testing.T, net *sre.Network, rng *rand.Rand) (*sre.Network, map[string]string) {
	t.Helper()
	tp := net.Topology
	n := tp.NumRouters()
	rn := symmetry.Renaming{Routers: make(symmetry.Perm, n), Names: make([]string, n),
		Links: make([]topology.LinkID, tp.NumLinks()), ASNs: map[uint32]uint32{}}
	for r, img := range rng.Perm(n) {
		rn.Routers[r] = topology.RouterID(img)
	}
	for id := range rn.Names {
		rn.Names[id] = fmt.Sprintf("x%03d", rng.Intn(1000)*n+id) // unique: id breaks ties
	}
	for l, img := range rng.Perm(tp.NumLinks()) {
		rn.Links[l] = topology.LinkID(img)
	}
	var asns []uint32
	for _, rc := range net.Routers {
		if rc.BGP != nil {
			if _, ok := rn.ASNs[rc.BGP.ASN]; !ok {
				rn.ASNs[rc.BGP.ASN] = 0
				asns = append(asns, rc.BGP.ASN)
			}
		}
	}
	for i, j := range rng.Perm(len(asns)) {
		rn.ASNs[asns[i]] = 4200000000 + uint32(j)
	}
	out, err := sre.ParseNetwork(sre.FormatNetwork(rn.Apply(net)))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for r := range n {
		names[tp.Name(topology.RouterID(r))] = rn.Names[rn.Routers[r]]
	}
	return out, names
}

// TestRenamingChangesNoAnswer renames routers with a random
// permutation, maps AS numbers with a bijection and shuffles the router
// and link declarations, then asks both networks every tolerance,
// waypoint, isolation and probability question: the answers must not
// move (probabilities by at most 1e-12, a different summation order).
// Verifying one prefix per symmetry orbit rests on this, under the
// options analysis.RenamingInvariant admits. The options it leaves out
// fail here: with NoECMP, which keeps the first route of a tier by
// router ID, tolerances and probabilities moved on FatTree(4) and on the
// OSPF WAN; with Abstract, which hashes AS numbers into path blooms,
// they moved on a 20-router BGP WAN. IBGPFullMesh stays out because it
// derives loopback prefixes from router IDs; the policied mesh needs it
// for its iBGP sessions and runs with it anyway, and its answers must
// not move.
func TestRenamingChangesNoAnswer(t *testing.T) {
	policied, err := sre.ParseNetwork(policiedMesh)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		net  *sre.Network
		opts sre.Options
	}{
		{"fattree4", workload.FatTree(4, workload.BGP), sre.Options{MaxFailures: 2, Parallelism: 1}},
		{"wan20-ospf", workload.SyntheticWAN("w", 20, 30, workload.OSPF, 1), sre.Options{MaxFailures: 2, Parallelism: 1}},
		{"campus40", workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1}), sre.Options{MaxFailures: 2, Parallelism: 1}},
		{"policied", policied, sre.Options{MaxFailures: 2, Parallelism: 1, IBGPFullMesh: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			other, names := renamed(t, c.net, rng)
			a, err := sre.NewVerifier(c.net, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Release()
			b, err := sre.NewVerifier(other, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release()
			routers := a.RouterNames()
			model := sre.LinkFailures(1e-3)
			for i, s := range routers {
				tols, err := a.FailureTolerances(s)
				if err != nil {
					t.Fatal(err)
				}
				for j, r := range tols {
					w := routers[(i+j+1)%len(routers)]
					pair := fmt.Sprintf("%s → %s", s, r.Prefix)
					same := func(what string, x, y int, ex, ey error) {
						if x != y || (ex == nil) != (ey == nil) {
							t.Errorf("%s %s: %d (%v) before renaming, %d (%v) after", what, pair, x, ex, y, ey)
						}
					}
					x, ex := a.FailureTolerance(s, r.Prefix)
					y, ey := b.FailureTolerance(names[s], r.Prefix)
					same("tolerance", x, y, ex, ey)
					x, ex = a.WaypointTolerance(s, r.Prefix, w)
					y, ey = b.WaypointTolerance(names[s], r.Prefix, names[w])
					same("waypoint "+w, x, y, ex, ey)
					x, ex = a.IsolationTolerance(s, r.Prefix)
					y, ey = b.IsolationTolerance(names[s], r.Prefix)
					same("isolation", x, y, ex, ey)
					p, ep := a.Probability(s, r.Prefix, model)
					q, eq := b.Probability(names[s], r.Prefix, model)
					if !errors.Is(ep, eq) || math.Abs(p-q) > 1e-12 {
						t.Errorf("probability %s: %.15f (%v) before renaming, %.15f (%v) after", pair, p, ep, q, eq)
					}
				}
			}
		})
	}
}
