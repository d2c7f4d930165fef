package main

import (
	"fmt"

	"sre/internal/analysis"
	"sre/internal/baselines"
	"sre/internal/prob"
	"sre/internal/src"
	"sre/internal/workload"
)

// diffExp reproduces §8.3: apply the ten atomic changes to the Bics WAN
// and count which systems detect each change — DNA (k=0 only), SRE
// failure-tolerance differences (k=3), and SRE probability differences.
// The paper reports 5/10 for DNA, 7/10 for tolerance, 10/10 for
// probability.
func diffExp(sc scale) {
	header("§8.3 — differential analysis of 10 atomic changes (Bics, k=0 vs k=3)")
	base := workload.WAN(workload.Bics, workload.BGP)
	changes := workload.AtomicChanges(base)
	t := newTable("change", "DNA(k=0)", "SRE any-diff(k=3)", "SRE tol-diff", "SRE prob-diff")
	dnaCount, tolCount, probCount, anyCount := 0, 0, 0, 0
	model := prob.LinkModel{PDown: pLinkDown}
	before, err := analysis.Run(base, withResilience(src.Options{PruneK: 3}))
	if err != nil {
		fmt.Printf("  baseline pipeline failed: %v\n", err)
		return
	}
	defer before.Release()
	for _, ch := range changes {
		after := base.Clone()
		ch.Apply(after)

		dna := &baselines.DNA{Before: base, After: after}
		dnaDiffs := dna.Diff()
		dnaHit := len(dnaDiffs) > 0

		afterPipe, err := analysis.Run(after, withResilience(src.Options{PruneK: 3}))
		if err != nil {
			fmt.Printf("  %s: pipeline failed: %v\n", ch.Name, err)
			continue
		}
		w := afterPipe.LinkWeights(model)
		diffs, err := analysis.DiffReachability(before, afterPipe, &w)
		afterPipe.Release()
		if err != nil {
			fmt.Printf("  %s: diff failed: %v\n", ch.Name, err)
			continue
		}
		anyHit := len(diffs) > 0
		tolHit, probHit := false, false
		for _, d := range diffs {
			if d.ToleranceBefore != d.ToleranceAfter {
				tolHit = true
			}
			if d.ProbBefore != d.ProbAfter {
				probHit = true
			}
		}

		mark := func(b bool) string {
			if b {
				return "✓"
			}
			return "·"
		}
		t.add(ch.Name, mark(dnaHit), mark(anyHit), mark(tolHit), mark(probHit))
		if dnaHit {
			dnaCount++
		}
		if anyHit {
			anyCount++
		}
		if tolHit {
			tolCount++
		}
		if probHit {
			probCount++
		}
	}
	t.print()
	fmt.Printf("\n  detected: DNA %d/10, SRE-any %d/10, SRE-tolerance %d/10, SRE-probability %d/10\n",
		dnaCount, anyCount, tolCount, probCount)
	fmt.Println("  (paper: DNA 5/10, tolerance 7/10, probability 10/10)")
}
