package sre_test

import (
	"testing"

	"sre"
	"sre/internal/config"
	"sre/internal/workload"
)

// TestCollectionTrigger pins automatic BDD collection through the
// facade. A combined run collects once its manager holds twice the
// live diagram of the last look, so peak nodes measure the diagram
// rather than every intermediate SRC and SPF ever built — and a node
// limit the live diagram fits is enough. Per-prefix managers stay under
// the trigger's floor, and a node limit below it keeps the old ¾-limit
// path, so those runs collect exactly as they did before the trigger.
// Their peaks are pinned exactly, so they move only when the work SRC
// and SPF do changes, and then must be measured again.
//
// FatTree(4) is one symmetry orbit, so NewVerifier would verify one
// prefix of it; these runs take the symmetry away (fatTreeWithoutSymmetry)
// to keep measuring all eight. Verifying one prefix peaks at 16 087
// nodes and never collects.
func TestCollectionTrigger(t *testing.T) {
	ft4 := fatTreeWithoutSymmetry(4)
	run := func(t *testing.T, net *sre.Network, opts sre.Options) sre.BDDMetrics {
		t.Helper()
		v, err := sre.NewVerifier(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		return v.Metrics().BDD
	}

	t.Run("fattree4-combined", func(t *testing.T) {
		// Without the trigger this run peaked at 155 869 nodes and
		// never collected; with it, 84 475.
		if m := run(t, ft4, sre.Options{MaxFailures: 2, Parallelism: 1}); m.GCRuns < 1 || m.PeakNodes > 100000 {
			t.Errorf("%d collections, peak %d nodes; want ≥ 1 and ≤ 100 000", m.GCRuns, m.PeakNodes)
		}
	})
	for _, c := range []struct {
		name         string
		opts         sre.Options
		peak, gcRuns int
	}{
		{"fattree4-parallel2", sre.Options{MaxFailures: 2, Parallelism: 2}, 142011, 0},
		{"fattree4-nodelimit20k", sre.Options{MaxFailures: 2, Parallelism: 1, Resilient: true, BDDNodeLimit: 20000}, 121592, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			if m := run(t, ft4, c.opts); m.PeakNodes != c.peak || m.GCRuns != c.gcRuns {
				t.Errorf("peak %d, %d collections; want %d, %d",
					m.PeakNodes, m.GCRuns, c.peak, c.gcRuns)
			}
		})
	}
	t.Run("campus200-nodelimit160k", func(t *testing.T) {
		// Without the trigger the diagram was never collected and
		// overflowed this table; it now peaks at 154 359.
		campus := workload.Campus(workload.CampusOptions{VLANs: 200, Snapshot: 1})
		run(t, campus, sre.Options{MaxFailures: 2, Parallelism: 1, BDDNodeLimit: 160000})
	})
}

// fatTreeWithoutSymmetry is FatTree(arity) under BGP plus a route map,
// referenced by no neighbour, that matches a community. A community may
// name an AS number, which no renaming rewrites, so every router keeps
// its own AS number in place and no symmetry is left: NewVerifier
// verifies every prefix, and routes exactly as on the plain fat tree.
func fatTreeWithoutSymmetry(arity int) *sre.Network {
	net := workload.FatTree(arity, workload.BGP)
	net.RouterByName("edge0-0").RouteMaps["UNUSED"] = &config.RouteMap{Clauses: []*config.Clause{
		{Seq: 10, Action: config.Permit, MatchCommunity: 64512<<16 | 1}}}
	return net
}
