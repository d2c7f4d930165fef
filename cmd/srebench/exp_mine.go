package main

import (
	"fmt"

	"sre/internal/analysis"
	"sre/internal/baselines"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/workload"
)

// workloadNet aliases the configuration network type for brevity.
type workloadNet = config.Network

// route0 aliases the prefix type for brevity in experiment plumbing.
type route0 = route.Prefix

// srcOptions builds engine options with the given pruning budget.
func srcOptions(pruneK int) src.Options { return withResilience(src.Options{PruneK: pruneK}) }

// fig7 reproduces Figure 7: running time to mine specifications, SRE's
// stratified miner vs. the Config2Spec-substitute (per-scenario
// enumeration).
func fig7(sc scale) {
	header("Figure 7 — specification mining time (SRE vs Config2Spec-substitute)")
	names := []workload.WANName{workload.Bics}
	if sc.paper {
		names = append(names, workload.Columbus, workload.USCarrier)
	}
	t := newTable("dataset", "kmax", "SRE(miner)", "specs", "Config2Spec(enum)", "agree")
	ct := newCellTimer()
	for _, name := range names {
		net := workload.WAN(name, workload.BGP)
		kMax := sc.maxK
		if !sc.paper {
			kMax = 2 // the enumeration baseline is cubic in scenarios
		}
		var specs *analysis.Specs
		sreT := ct.run("sre-"+string(name), func() {
			mn := &analysis.Miner{Net: net, KMax: kMax}
			s, err := mn.Mine()
			if err != nil {
				fmt.Printf("  miner error: %v\n", err)
				return
			}
			specs = s
		})
		var enum map[baselines.Pair]int
		c2sT := ct.run("c2s-"+string(name), func() {
			bf := &baselines.Batfish{Net: net}
			enum = bf.MineSpecs(kMax)
		})
		agree := "—"
		if specs != nil && enum != nil {
			ok, total := 0, 0
			for key, v := range specs.ReachTolerance {
				w := v
				if w > kMax {
					w = kMax
				}
				if enum[baselines.Pair{Src: key.Src, Prefix: key.Prefix}] == w {
					ok++
				}
				total++
			}
			agree = fmt.Sprintf("%d/%d", ok, total)
		}
		nSpecs := "—"
		if specs != nil {
			nSpecs = fmt.Sprint(len(specs.ReachTolerance))
		}
		t.add(string(name), fmt.Sprint(kMax), sreT, nSpecs, c2sT, agree)
	}
	t.print()
}

// fig9 reproduces Figure 9: time to compute link failure tolerance of
// reachability with and without route/prefix pruning. "RoutePrune" is
// the one-shot approach (single run at budget k); "+PrefixPrune" is the
// stratified approach; "NoPrune" disables route pruning entirely.
func fig9(sc scale) {
	header("Figure 9 — failure-tolerance computation: pruning effectiveness")
	names := []workload.WANName{workload.Bics}
	if sc.paper {
		names = append(names, workload.Columbus, workload.USCarrier)
	}
	for _, name := range names {
		net := workload.WAN(name, workload.BGP)
		fmt.Printf("\n%s\n", name)
		t := newTable("k", "RoutePrune(oneshot)", "RoutePrune+PrefixPrune(strat.)")
		ct := newCellTimer()
		for k := 0; k <= sc.maxK; k++ {
			rpT := ct.run("rp", func() { runOneShot(net, k, true) })
			bothT := ct.run("both", func() {
				mn := &analysis.Miner{Net: net, KMax: k}
				if _, err := mn.Mine(); err != nil {
					fmt.Printf("  stratified miner error: %v\n", err)
				}
			})
			t.add(fmt.Sprint(k), rpT, bothT)
		}
		t.print()
	}
	// Without route pruning even small WANs explode (Table 2's NoOpt
	// column / §8.6); demonstrate on a 12-router network.
	small := workload.SyntheticWAN("mini", 12, 18, workload.BGP, 3)
	fmt.Printf("\nmini WAN (12 routers, 18 links) — pruning vs none\n")
	t := newTable("k", "NoPrune(oneshot)", "RoutePrune(oneshot)")
	ct := newCellTimer()
	for k := 0; k <= sc.maxK; k++ {
		noneT := ct.run("none", func() { runOneShot(small, k, false) })
		rpT := ct.run("rp", func() { runOneShot(small, k, true) })
		t.add(fmt.Sprint(k), noneT, rpT)
	}
	t.print()
}

// runOneShot computes every pair's tolerance (clamped at budget k) from
// a single pipeline run: no stratification, hence no prefix pruning.
// With prune=false even route pruning is off (the full failure space is
// explored symbolically).
func runOneShot(net *workloadNet, k int, prune bool) {
	pk := -1
	if prune {
		pk = k
	}
	pipe, err := analysis.Run(net, srcOptions(pk))
	if err != nil {
		fmt.Printf("  one-shot error (k=%d, prune=%v): %v\n", k, prune, err)
		return
	}
	defer pipe.Release()
	for pair := range pipe.AllPairsReachable(0) {
		q := pipe.Query(pair.Src, pair.Prefix)
		q.Tolerance(q.Reach())
	}
}
