package sre_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sre"
	"sre/internal/topology"
	"sre/internal/workload"
)

// heavyLight is a 5-router BGP full mesh tuned so that one prefix is
// symbolically heavy and the others stay tiny. Router A originates
// 10.0.0.0/8 and lets it flood the mesh (the BDD for its forwarding
// behaviour peaks at a few thousand nodes under an unbounded failure
// budget), while B and C originate 20.0.0.0/8 and 30.0.0.0/8 but deny
// them towards every neighbor, so those prefixes never leave their
// origin (a few dozen nodes). Driving the node limit between the two
// scales exercises every quarantine/degradation path.
const heavyLight = `
topology
  router A
  router B
  router C
  router D
  router E
  link A B
  link A C
  link A D
  link A E
  link B C
  link B D
  link B E
  link C D
  link C E
  link D E
end
router A
  bgp 65001
    network 10.0.0.0/8
end
router B
  bgp 65002
    network 20.0.0.0/8
    neighbor A export-map LOCAL
    neighbor C export-map LOCAL
    neighbor D export-map LOCAL
    neighbor E export-map LOCAL
  route-map LOCAL
    10 deny prefix 20.0.0.0/8
    20 permit any
end
router C
  bgp 65003
    network 30.0.0.0/8
    neighbor A export-map LOCAL
    neighbor B export-map LOCAL
    neighbor D export-map LOCAL
    neighbor E export-map LOCAL
  route-map LOCAL
    10 deny prefix 30.0.0.0/8
    20 permit any
end
router D
  bgp 65004
end
router E
  bgp 65005
end
`

func heavyLightNet(t *testing.T) *sre.Network {
	t.Helper()
	net, err := sre.ParseNetwork(heavyLight)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestResilientDegradesHeavyPrefix drives a three-prefix resilient run
// into a node limit that only the heavy prefix overflows. The run must
// complete: the heavy prefix is quarantined and re-verified at half the
// budget (degraded; the window where that rescues it at budget 4 runs
// from 500 to 1 150 nodes), the light prefixes verify untouched, and
// every prefix stays queryable.
func TestResilientDegradesHeavyPrefix(t *testing.T) {
	net := heavyLightNet(t)
	tel := sre.NewTelemetry()
	v, err := sre.NewVerifier(net, sre.Options{
		MaxFailures:  4,
		BDDNodeLimit: 800,
		Resilient:    true,
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatalf("resilient NewVerifier: %v", err)
	}
	defer v.Release()

	if !v.Degraded() {
		t.Error("verifier should report Degraded()")
	}
	outcomes := v.Outcomes()
	if len(outcomes) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outcomes))
	}
	for _, o := range outcomes {
		switch o.Prefix.String() {
		case "10.0.0.0/8":
			if o.Err != nil {
				t.Errorf("heavy prefix failed outright: %v", o.Err)
			}
			if !o.Quarantined || !o.Degraded {
				t.Errorf("heavy prefix: Quarantined=%v Degraded=%v, want both true", o.Quarantined, o.Degraded)
			}
			if !reflect.DeepEqual(o.Rungs, []string{sre.RungHalveBudget}) || o.EffectivePruneK != 2 {
				t.Errorf("fixture drifted: heavy prefix rungs = %v at budget %d, want [%q] at 2",
					o.Rungs, o.EffectivePruneK, sre.RungHalveBudget)
			}
		default:
			if o.Err != nil || o.Quarantined || o.Degraded {
				t.Errorf("light prefix %s: Err=%v Quarantined=%v Degraded=%v, want clean",
					o.Prefix, o.Err, o.Quarantined, o.Degraded)
			}
		}
	}

	// Every prefix — including the degraded one — answers queries.
	if k, err := v.FailureTolerance("D", "10.0.0.0/8"); err != nil {
		t.Errorf("FailureTolerance on degraded prefix: %v", err)
	} else if k < 0 {
		t.Errorf("FailureTolerance on degraded prefix = %d, want >= 0", k)
	}
	if _, err := v.FailureTolerance("B", "20.0.0.0/8"); err != nil {
		t.Errorf("FailureTolerance on light prefix: %v", err)
	}

	// The per-prefix sweep carries the outcome flags through.
	results, err := v.FailureTolerances("D")
	if err != nil {
		t.Fatalf("FailureTolerances: %v", err)
	}
	found := false
	for _, r := range results {
		if r.Prefix == "10.0.0.0/8" {
			found = true
			if !r.Degraded || !r.Quarantined {
				t.Errorf("sweep row for heavy prefix: Degraded=%v Quarantined=%v", r.Degraded, r.Quarantined)
			}
		}
	}
	if !found {
		t.Error("sweep is missing the heavy prefix")
	}

	rep := tel.Snapshot()
	if rep.Counters["resilience.quarantined"] < 1 {
		t.Errorf("resilience.quarantined = %d, want >= 1", rep.Counters["resilience.quarantined"])
	}
	if rep.Counters["resilience.degraded"] < 1 {
		t.Errorf("resilience.degraded = %d, want >= 1", rep.Counters["resilience.degraded"])
	}
	if rep.Counters["resilience.retries"] < 1 {
		t.Errorf("resilience.retries = %d, want >= 1", rep.Counters["resilience.retries"])
	}
}

// TestResilientLadderExhausted squeezes the node limit below what even
// the escalation ladder can satisfy for the heavy prefix. The run still
// completes: the heavy prefix is marked failed (outcome.Err set), its
// queries return an explanatory error, and the light prefixes remain
// fully verified.
func TestResilientLadderExhausted(t *testing.T) {
	net := heavyLightNet(t)
	v, err := sre.NewVerifier(net, sre.Options{
		MaxFailures:  -1,
		BDDNodeLimit: 400,
		Resilient:    true,
	})
	if err != nil {
		t.Fatalf("resilient NewVerifier: %v", err)
	}
	defer v.Release()

	var heavy *sre.PrefixOutcome
	for i, o := range v.Outcomes() {
		if o.Prefix.String() == "10.0.0.0/8" {
			heavy = &v.Outcomes()[i]
		} else if o.Err != nil {
			t.Errorf("light prefix %s failed: %v", o.Prefix, o.Err)
		}
	}
	if heavy == nil {
		t.Fatal("no outcome for the heavy prefix")
	}
	if heavy.Err == nil {
		t.Fatal("heavy prefix should have exhausted the ladder (Err set)")
	}
	if !errors.Is(heavy.Err, sre.ErrBDDLimit) {
		t.Errorf("heavy outcome error = %v, want ErrBDDLimit", heavy.Err)
	}
	if !heavy.Quarantined {
		t.Error("heavy prefix should be quarantined")
	}

	// Queries against the failed prefix explain themselves...
	if _, err := v.FailureTolerance("D", "10.0.0.0/8"); err == nil {
		t.Error("query on failed prefix should error")
	} else if !strings.Contains(err.Error(), "degradation ladder exhausted") {
		t.Errorf("query error %q should mention the exhausted ladder", err)
	}
	// ...while the light prefixes still answer.
	if _, err := v.FailureTolerance("B", "20.0.0.0/8"); err != nil {
		t.Errorf("light prefix query after heavy failure: %v", err)
	}
	if _, err := v.FailureTolerance("C", "30.0.0.0/8"); err != nil {
		t.Errorf("light prefix query after heavy failure: %v", err)
	}

	// Contrast: the same limit without Resilient aborts the whole run.
	if _, err := sre.NewVerifier(net, sre.Options{MaxFailures: -1, BDDNodeLimit: 400}); !errors.Is(err, sre.ErrBDDLimit) {
		t.Errorf("non-resilient run at the same limit: err = %v, want ErrBDDLimit", err)
	}
}

// TestResilientMineSpecs is the spec-mining regression from the issue:
// three prefixes, one forced over a small node limit, must still yield a
// mined spec for the others while the failing prefix is reported as
// degraded (clamped tolerances, DegradedPairs) rather than sinking the
// whole run.
func TestResilientMineSpecs(t *testing.T) {
	net := heavyLightNet(t)
	specs, err := sre.MineSpecs(net, 1, sre.Options{
		BDDNodeLimit: 100,
		Resilient:    true,
	})
	if err != nil {
		t.Fatalf("resilient MineSpecs: %v", err)
	}

	heavyReported := false
	for pfx, o := range specs.Outcomes {
		if pfx.String() != "10.0.0.0/8" {
			continue
		}
		heavyReported = true
		if !o.Quarantined {
			t.Error("heavy prefix should be quarantined in mining outcomes")
		}
	}
	if !heavyReported {
		t.Error("mining outcomes are missing the heavy prefix")
	}

	if len(specs.DegradedPairs) == 0 {
		t.Fatal("no degraded pairs recorded")
	}
	for key := range specs.DegradedPairs {
		if key.Prefix.String() != "10.0.0.0/8" {
			t.Errorf("degraded pair for %s, want only the heavy prefix", key.Prefix)
		}
		// Stratum 0 passed and stratum 1 overflowed, so the surviving
		// verdict must be the clamped lower bound k-1 = 0.
		if got := specs.ReachTolerance[key]; got != 0 {
			t.Errorf("clamped tolerance for %v = %d, want 0", key, got)
		}
	}

	// The light prefixes mined normally: a sound verdict per pair
	// (-1 = unreachable with all links up is sound — the light prefixes
	// never leave their origin).
	light := map[string]bool{}
	for key, tol := range specs.ReachTolerance {
		if specs.DegradedPairs[key] {
			continue
		}
		if tol < -1 {
			t.Errorf("nonsense tolerance %d for %v", tol, key)
		}
		light[key.Prefix.String()] = true
	}
	for _, want := range []string{"20.0.0.0/8", "30.0.0.0/8"} {
		if !light[want] {
			t.Errorf("no sound mined verdict for light prefix %s", want)
		}
	}
}

// checkRungNames fails on any outcome listing a rung the ladder does not
// have: it is halve-budget, plus the fleet's worker-crash.
func checkRungNames(t *testing.T, outs []sre.PrefixOutcome) {
	t.Helper()
	for _, o := range outs {
		for _, r := range o.Rungs {
			if r != sre.RungHalveBudget && r != sre.RungWorkerCrash {
				t.Errorf("prefix %s lists unknown rung %q (rungs %v)", o.Prefix, r, o.Rungs)
			}
		}
	}
}

// TestHalveBudgetAnswersAreLowerBounds verifies two networks under node
// limits inside their measured halve-budget windows (EXPERIMENTS.md): a
// BGP fat tree and an OSPF WAN. Every prefix must end on halve-budget
// with an effective budget below the request, and no tolerance may
// exceed the unlimited run's answer: scenarios past the effective budget
// were not explored, so they count against the property. (Only a router
// asking about its own prefix still reads InfiniteTolerance — exactly.)
// On the WAN some answers must come out lower. On FatTree(4) none can:
// every prefix's origin edge has two links, so no tolerance exceeds 1,
// the effective budget, and every answer must equal the unlimited one.
func TestHalveBudgetAnswersAreLowerBounds(t *testing.T) {
	for _, in := range []struct {
		name string
		net  *sre.Network
		opts sre.Options
		// lowered says whether some answer must read below the
		// unlimited run's, or every answer must equal it.
		lowered bool
	}{
		{"fattree4-bgp", workload.FatTree(4, workload.BGP), ft4Halved, false},
		{"wan10-ospf", workload.SyntheticWAN("wan", 10, 15, workload.OSPF, 1),
			sre.Options{MaxFailures: 2, BDDNodeLimit: 1200, Resilient: true}, true},
	} {
		t.Run(in.name, func(t *testing.T) {
			in.opts.Parallelism = 1
			limited, err := sre.NewVerifier(in.net, in.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer limited.Release()
			in.opts.BDDNodeLimit = 0
			exact, err := sre.NewVerifier(in.net, in.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer exact.Release()
			if exact.Degraded() {
				t.Fatal("the unlimited run degraded")
			}

			outs := limited.Outcomes()
			checkRungNames(t, outs)
			lower := 0
			for _, o := range outs {
				if o.Err != nil || !o.Quarantined || !o.Degraded ||
					!reflect.DeepEqual(o.Rungs, []string{sre.RungHalveBudget}) ||
					o.EffectivePruneK != 1 || o.EffectivePruneK >= in.opts.MaxFailures {
					t.Fatalf("fixture drifted: %s should verify on halve-budget at budget 1, got %+v", o.Prefix, o)
				}
				for r := 0; r < in.net.Topology.NumRouters(); r++ {
					src := in.net.Topology.Name(topology.RouterID(r))
					want, err := exact.FailureTolerance(src, o.Prefix.String())
					if err != nil {
						t.Fatal(err)
					}
					got, err := limited.FailureTolerance(src, o.Prefix.String())
					if err != nil {
						t.Fatal(err)
					}
					if got > want {
						t.Errorf("%s -> %s: tolerance %d at budget %d exceeds the unlimited run's %d",
							src, o.Prefix, got, o.EffectivePruneK, want)
					}
					if got < want {
						lower++
					}
				}
			}
			if in.lowered && lower == 0 {
				t.Error("no answer was lowered: the fixture does not exercise the smaller budget")
			}
			if !in.lowered && lower > 0 {
				t.Errorf("%d answers lowered where no tolerance exceeds the effective budget", lower)
			}
			t.Logf("%d tolerances lowered by the halved budget", lower)
		})
	}
}

// isolationDiamond is S and D joined directly and through X and Y. D
// drops everything arriving from S, so with all links up S is isolated
// from D's prefix; one failure (S–D) deflects traffic through X and Y
// (isolation tolerance 0) and a second (S–X) leaves only the path that
// bypasses X (waypoint-only tolerance 1).
const isolationDiamond = `
topology
  router S
  router D
  router X
  router Y
  link S D
  link S X
  link X D
  link S Y
  link Y D
end
router S
  ospf
end
router X
  ospf
end
router Y
  ospf
end
router D
  ospf
    network 10.0.0.0/24
  interface S
    acl-in deny any
end
`

// TestHalvedBudgetCapsIsolation: at 100 nodes the prefix verifies on
// halve-budget at effective budget 0, where no explored scenario lets
// traffic through. "No violation" then only covers 0 failures — the
// queries must report that budget, not InfiniteTolerance, which callers
// read as ">= the requested 2" when the true answers are 0 and 1.
func TestHalvedBudgetCapsIsolation(t *testing.T) {
	net, err := sre.ParseNetwork(isolationDiamond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ limit, isolation, waypointOnly int }{{0, 0, 1}, {100, 0, 0}} {
		limit := c.limit
		v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 2, Resilient: true, BDDNodeLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		outs := v.Outcomes()
		checkRungNames(t, outs)
		if limit > 0 {
			want := []string{sre.RungHalveBudget, sre.RungHalveBudget}
			if len(outs) != 1 || !reflect.DeepEqual(outs[0].Rungs, want) || outs[0].EffectivePruneK != 0 {
				t.Fatalf("fixture drifted: want rungs %v at budget 0, got %+v", want, outs)
			}
		}
		if k, err := v.IsolationTolerance("S", "10.0.0.0/24"); err != nil || k != c.isolation {
			t.Errorf("limit %d: IsolationTolerance = %d, %v; want %d", limit, k, err, c.isolation)
		}
		if k, err := v.WaypointOnlyTolerance("S", "10.0.0.0/24", "X"); err != nil || k != c.waypointOnly {
			t.Errorf("limit %d: WaypointOnlyTolerance = %d, %v; want %d", limit, k, err, c.waypointOnly)
		}
	}
}

// TestFilterOverflowIsTypedError: at 100 nodes FatTree(4) k=3 overflows
// while SRC builds its at-most-k-failures filter, before the first
// route. That is an overflow like any other: per-prefix outcomes under
// Resilient, ErrBDDLimit without — not a panic caught by a firewall.
func TestFilterOverflowIsTypedError(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 3, BDDNodeLimit: 100, Resilient: true})
	if err != nil {
		t.Fatalf("resilient run: %v", err)
	}
	defer v.Release()
	outs := v.Outcomes()
	checkRungNames(t, outs)
	if len(outs) != 8 {
		t.Fatalf("got %d outcomes, want 8", len(outs))
	}
	for _, o := range outs {
		if !errors.Is(o.Err, sre.ErrBDDLimit) || errors.Is(o.Err, sre.ErrInternal) {
			t.Errorf("prefix %s: Err = %v, want ErrBDDLimit", o.Prefix, o.Err)
		}
	}
	for _, par := range []int{1, 2} {
		_, err := sre.NewVerifier(net, sre.Options{MaxFailures: 3, BDDNodeLimit: 100, Parallelism: par})
		if !errors.Is(err, sre.ErrBDDLimit) || errors.Is(err, sre.ErrInternal) {
			t.Errorf("non-resilient run at parallelism %d: err = %v, want ErrBDDLimit", par, err)
		}
	}
}

// TestResilientMineNeverHalves mines FatTree(4) under limits inside the
// window where NewVerifier rescues every prefix by halving the budget.
// The miner must not: a stratum-k verdict is only sound at budget k. A
// prefix it cannot verify at a stratum fails there with no retry and is
// reported — DegradedPairs, with the lower bound the previous stratum
// proved — and every other pair reads exactly what an unlimited mine
// reads. At 3 500 nodes every stratum the miner runs (k ≤ 1) fits,
// queries included: no prefix fails and every pair is exact.
func TestResilientMineNeverHalves(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	exact, err := sre.MineSpecs(net, 3, sre.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		limit    int
		degraded bool
	}{{2600, true}, {3000, true}, {3500, false}} {
		limit := c.limit
		specs, err := sre.MineSpecs(net, 3, sre.Options{Resilient: true, BDDNodeLimit: limit, Parallelism: 1})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		for pfx, o := range specs.Outcomes {
			if len(o.Rungs) > 0 || o.Degraded || o.Err == nil {
				t.Errorf("limit %d: prefix %s climbed rungs %v (degraded %v, err %v); the miner's ladder is empty", limit, pfx, o.Rungs, o.Degraded, o.Err)
			}
		}
		for key, want := range exact.ReachTolerance {
			got, ok := specs.ReachTolerance[key]
			switch {
			case !ok:
				t.Errorf("limit %d: pair %v undecided", limit, key)
			case specs.DegradedPairs[key] && got > want:
				t.Errorf("limit %d: degraded pair %v reads %d, above the exact %d", limit, key, got, want)
			case !specs.DegradedPairs[key] && got != want:
				t.Errorf("limit %d: pair %v reads %d, exact %d, and is not marked degraded", limit, key, got, want)
			}
		}
		if c.degraded != (len(specs.DegradedPairs) > 0) {
			t.Errorf("limit %d: fixture drifted: %d pairs degraded, want some: %v", limit, len(specs.DegradedPairs), c.degraded)
		}
	}
}

// TestCancelMidEscalationRung cancels the run the moment the ladder
// announces its first retry rung for the overflowing heavy prefix: the
// cancellation must land inside the rung's re-verification, surface as
// ErrCanceled (an interruption is never "recoverable" — the ladder must
// not swallow it as one more overflow), and abort the whole run instead
// of producing a verifier.
func TestCancelMidEscalationRung(t *testing.T) {
	net := heavyLightNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawRung atomic.Bool
	_, err := sre.NewVerifier(net, sre.Options{
		MaxFailures:  4, // as in TestResilientDegradesHeavyPrefix: one rung
		BDDNodeLimit: 800,
		Resilient:    true,
		Context:      ctx,
		Progress: sre.ProgressFunc(func(e sre.ProgressEvent) {
			if e.Stage == "resilience" && strings.Contains(e.Detail, "retrying on rung") {
				sawRung.Store(true)
				cancel()
			}
		}),
	})
	if !sawRung.Load() {
		t.Fatal("run never reached an escalation rung (node-limit tuning drifted?)")
	}
	if err == nil {
		t.Fatal("run canceled mid-rung should not produce a verifier")
	}
	if !errors.Is(err, sre.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, sre.ErrBDDLimit) {
		t.Error("cancellation must not be misattributed to the node limit")
	}
}

// TestCancelBetweenStages cancels the run the moment SRC reports its
// final progress event; the deterministic stage-boundary check must stop
// the pipeline before forwarding starts.
func TestCancelBetweenStages(t *testing.T) {
	net := heavyLightNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := sre.NewVerifier(net, sre.Options{
		MaxFailures: -1,
		Context:     ctx,
		Progress: sre.ProgressFunc(func(e sre.ProgressEvent) {
			if e.Stage == "src" && e.Final {
				cancel()
			}
		}),
	})
	if err == nil {
		t.Fatal("canceled run should not produce a verifier")
	}
	if !errors.Is(err, sre.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stage := sre.ErrStage(err); stage != "spf" {
		t.Errorf("ErrStage = %q, want %q (the SRC→SPF boundary)", stage, "spf")
	}
}

// TestPreCanceledContext aborts before any symbolic work happens.
func TestPreCanceledContext(t *testing.T) {
	net := heavyLightNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := sre.NewVerifier(net, sre.Options{MaxFailures: -1, Context: ctx})
	if !errors.Is(err, sre.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, sre.ErrDeadline) {
		t.Error("cancellation must not read as a deadline")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("abort took %v, want well under one polling interval", d)
	}
}

// TestDeadlineExpiry arms an already-expired deadline; the run must
// abort with ErrDeadline (distinct from ErrCanceled) at the first poll.
func TestDeadlineExpiry(t *testing.T) {
	net := heavyLightNet(t)
	_, err := sre.NewVerifier(net, sre.Options{
		MaxFailures: -1,
		Timeout:     time.Nanosecond,
	})
	if !errors.Is(err, sre.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, sre.ErrCanceled) {
		t.Error("deadline expiry must not read as cancellation")
	}
	if stage := sre.ErrStage(err); stage == "" {
		t.Error("deadline error should carry the interrupted stage")
	}
}

// TestDeadlineOnQueries verifies MineSpecs honours the budget too.
func TestDeadlineOnQueries(t *testing.T) {
	net := heavyLightNet(t)
	_, err := sre.MineSpecs(net, 2, sre.Options{Timeout: time.Nanosecond})
	if !errors.Is(err, sre.ErrDeadline) {
		t.Fatalf("MineSpecs err = %v, want ErrDeadline", err)
	}
}
