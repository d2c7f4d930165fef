package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"sre"
	"sre/internal/workload"
)

// bddKernelExp measures the kernel under the link-variable order the
// topology computes (internal/order): the same verification and
// analysis at Parallelism 1 per dataset, with peak and final live node
// counts recorded as "order:auto" rows. That the order never moves an
// answer is pinned by TestVarOrderParity.
//
// With -order-baseline set, the experiment doubles as a regression
// gate: each dataset's peak must stay within 10% of the baseline file's
// order:auto peak node count.
func bddKernelExp(scale) {
	header("BDD kernel — peak/total nodes under the computed order, parallelism 1")
	t := newTable("dataset", "order", "time", "peak nodes", "total nodes")
	ct := newCellTimer()
	for _, w := range bddKernelWorkloads {
		var cell bddKernelResult
		ct.run("order:auto", func() {
			cell = bddKernelCell(w.arity, w.k)
		})
		outcome := "ok"
		if cell.err != nil {
			outcome = "error"
			fmt.Printf("  %s: %v\n", w.name, cell.err)
		}
		record(benchRow{Experiment: "bddkernel", Dataset: w.name,
			System: "order:auto", K: w.k, Seconds: cell.seconds, Parallelism: 1,
			PeakBDDNodes: cell.peakNodes, TotalBDDNodes: cell.liveNodes,
			CacheHitRatio: cell.hitRatio, GCRuns: cell.gcRuns, Outcome: outcome})
		t.addf("%s|%s|%.2fs|%d|%d", w.name, cell.order, cell.seconds,
			cell.peakNodes, cell.liveNodes)
		gateOrderPeaks(w.name, cell.peakNodes)
	}
	t.print()
}

// bddKernelWorkloads are the cells of the experiment.
var bddKernelWorkloads = []struct {
	name  string
	arity int
	k     int
}{
	{"FatTree(4) k=2 unconstrained", 4, 2},
	{"FatTree(6) k=1 unconstrained", 6, 1},
}

// gateOrderPeaks enforces the -order-baseline regression gate for one
// dataset.
func gateOrderPeaks(dataset string, autoPeak int) {
	if *orderBaseline == "" {
		return
	}
	base, err := loadBaselineRows(*orderBaseline)
	if err != nil {
		fmt.Printf("  GATE: cannot read -order-baseline: %v\n", err)
		gateFailed = true
		return
	}
	for _, r := range base {
		if r.Experiment == "bddkernel" && r.Dataset == dataset &&
			r.System == "order:auto" && r.PeakBDDNodes > 0 {
			if autoPeak > r.PeakBDDNodes+r.PeakBDDNodes/10 {
				fmt.Printf("  GATE: %s auto peak %d regresses >10%% vs baseline %d\n",
					dataset, autoPeak, r.PeakBDDNodes)
				gateFailed = true
			}
			return
		}
	}
	// A baseline without auto rows for this dataset gates nothing —
	// the first recording run bootstraps it.
}

// loadBaselineRows reads a committed BENCH_*.json row array.
func loadBaselineRows(path string) ([]benchRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// bddKernelResult is one measured kernel cell.
type bddKernelResult struct {
	seconds   float64
	order     string
	peakNodes int
	liveNodes int
	hitRatio  float64
	gcRuns    int
	err       error
}

// bddKernelCell runs pipeline construction plus the analysis sweep that
// leans on the kernel — forwarding classes for every source (SatCount
// and shortest witness paths per PFEC), failure tolerances, and
// property probabilities — unconstrained, so PeakNodes reflects the
// diagrams rather than a node limit.
func bddKernelCell(arity, k int) bddKernelResult {
	net := workload.FatTree(arity, workload.BGP)
	opts := sre.Options{MaxFailures: k, Parallelism: 1, Timeout: *deadline}
	start := time.Now()
	fail := func(err error) bddKernelResult {
		return bddKernelResult{seconds: time.Since(start).Seconds(), err: err}
	}
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		return fail(err)
	}
	defer v.Release()
	for _, src := range v.RouterNames() {
		if _, err := v.ForwardingClasses(src); err != nil {
			return fail(err)
		}
	}
	for _, src := range v.RouterNames() {
		if !strings.HasPrefix(src, "edge") {
			continue
		}
		tols, err := v.FailureTolerances(src)
		if err != nil {
			return fail(err)
		}
		for _, r := range tols {
			if r.Err == nil {
				// A failed probability is a per-prefix answer, not a
				// failed cell, exactly as a failed tolerance is.
				v.Probability(src, r.Prefix, sre.LinkFailures(0.001))
			}
		}
	}
	met := v.Metrics()
	res := bddKernelResult{
		seconds:   time.Since(start).Seconds(),
		order:     met.BDD.VarOrderMethod,
		peakNodes: met.BDD.PeakNodes,
		liveNodes: met.BDD.LiveNodes,
		hitRatio:  met.BDD.CacheHitRatio,
		gcRuns:    met.BDD.GCRuns,
	}
	if math.IsNaN(res.hitRatio) {
		res.hitRatio = 0
	}
	return res
}
