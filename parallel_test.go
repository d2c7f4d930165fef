package sre_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"sre"
	"sre/internal/workload"
)

// The three verifications the determinism tests pin across execution
// configurations: ft4Plain, where no prefix degrades, and ft4Limited
// and ft4Halved, where the node limit (20 000 and 3 500 nodes) makes
// all 8 prefixes quarantine and verify on halve-budget at budget 1 of
// the 3 requested — so the ladder, the effective budget included, is
// compared cell by cell too.
var (
	ft4Plain   = sre.Options{MaxFailures: 2, Resilient: true}
	ft4Limited = sre.Options{MaxFailures: 3, BDDNodeLimit: 20000, Resilient: true}
	ft4Halved  = sre.Options{MaxFailures: 3, BDDNodeLimit: 3500, Resilient: true}

	ft4Variants = []struct {
		name string
		base sre.Options
		// rungs and effectiveK are what every prefix's outcome must read.
		rungs      []string
		effectiveK int
	}{
		{"plain", ft4Plain, nil, 2},
		{"nodelimit20k", ft4Limited, []string{sre.RungHalveBudget}, 1},
		{"nodelimit3500", ft4Halved, []string{sre.RungHalveBudget}, 1},
	}
)

// fatTreeRun is verifyRun over every prefix of a 4-ary fat tree at the
// given parallelism, swept from one edge router.
func fatTreeRun(t *testing.T, base sre.Options, parallelism int) ([]sre.PrefixOutcome, int, []sre.PrefixResult) {
	t.Helper()
	base.Parallelism = parallelism
	return verifyRun(t, workload.FatTree(4, workload.BGP), "edge0-0", base)
}

// verifyRun builds a verifier from opts over every prefix of net and
// condenses everything the public API observes: the per-prefix
// outcomes, the total PFEC count, and an all-prefix tolerance sweep
// from src.
func verifyRun(t *testing.T, net *sre.Network, src string, opts sre.Options) ([]sre.PrefixOutcome, int, []sre.PrefixResult) {
	t.Helper()
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	outs := v.Outcomes()
	numPFECs := v.Metrics().NumPFECs
	sweep, err := v.FailureTolerances(src)
	if err != nil {
		t.Fatal(err)
	}
	return outs, numPFECs, sweep
}

// ospfTriangle runs OSPF on three routers and configures no interface,
// so every link cost is the default: a reader that wrote the defaults
// back into the network would change its text.
const ospfTriangle = `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end

router A
  ospf
    network 10.1.0.0/16
end

router B
  ospf
    network 10.2.0.0/16
end

router C
  ospf
    network 10.3.0.0/16
end
`

// TestParallelDeterminism pins the scheduler's core contract: the same
// verification at parallelism 1, 2, and 8 returns identical outcomes
// (rungs and effective budgets included), PFEC counts, and tolerances —
// results depend on the network, never on the worker count or
// completion order.
func TestParallelDeterminism(t *testing.T) {
	for _, v := range ft4Variants {
		t.Run(v.name, func(t *testing.T) {
			baseOuts, basePFECs, baseSweep := fatTreeRun(t, v.base, 1)
			if len(baseOuts) == 0 {
				t.Fatal("resilient run reported no outcomes")
			}
			for _, o := range baseOuts {
				climbed := len(v.rungs) > 0
				if o.Err != nil || o.Quarantined != climbed || o.Degraded != climbed ||
					!reflect.DeepEqual(o.Rungs, v.rungs) || o.EffectivePruneK != v.effectiveK {
					t.Fatalf("fixture drifted: %s should verify on rungs %v at budget %d, got %+v", o.Prefix, v.rungs, v.effectiveK, o)
				}
			}
			for _, p := range []int{2, 8} {
				outs, pfecs, sweep := fatTreeRun(t, v.base, p)
				if !reflect.DeepEqual(outs, baseOuts) {
					t.Errorf("parallelism %d: outcomes diverge\n got %+v\nwant %+v", p, outs, baseOuts)
				}
				if pfecs != basePFECs {
					t.Errorf("parallelism %d: NumPFECs = %d, at one worker %d", p, pfecs, basePFECs)
				}
				if !reflect.DeepEqual(sweep, baseSweep) {
					t.Errorf("parallelism %d: tolerance sweep diverges\n got %+v\nwant %+v", p, sweep, baseSweep)
				}
			}
		})
	}
}

// TestParallelMiningDeterminism runs the stratified miner at several
// worker counts: the mined specifications must be identical maps. The
// node-limited resilient variant runs every stratum per prefix at every
// worker count (one shared pipeline would overflow on the queries).
func TestParallelMiningDeterminism(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	for _, v := range []struct {
		name string
		base sre.Options
	}{{"plain", sre.Options{}}, {"nodelimit20k", sre.Options{Resilient: true, BDDNodeLimit: 20000}}} {
		t.Run(v.name, func(t *testing.T) {
			opts := v.base
			opts.Parallelism = 1
			base, err := sre.MineSpecs(net, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(base.ReachTolerance) == 0 {
				t.Fatal("miner decided no pairs")
			}
			for _, p := range []int{2, 8} {
				opts.Parallelism = p
				specs, err := sre.MineSpecs(net, 2, opts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				if !reflect.DeepEqual(specs, base) {
					t.Errorf("parallelism %d: mined specs diverge\n got %+v\nwant %+v", p, specs, base)
				}
			}
		})
	}
}

// TestParallelDeadlineCarriesStage forces the deadline to expire inside
// a parallel run: the error must be a deadline interruption and carry
// the stage it interrupted, exactly like a one-worker run.
func TestParallelDeadlineCarriesStage(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	_, err := sre.NewVerifier(net, sre.Options{
		MaxFailures: -1, Timeout: time.Nanosecond, Resilient: true, Parallelism: 4})
	if err == nil {
		t.Fatal("nanosecond deadline did not expire")
	}
	if !errors.Is(err, sre.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if sre.ErrStage(err) == "" {
		t.Errorf("deadline error should carry the interrupted stage: %v", err)
	}
}
