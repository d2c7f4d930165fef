package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"sre"
	"sre/internal/workload"
)

// bddKernelExp measures the one lever on BDD size the kernel offers —
// the static link-variable order — as a sweep that runs the same
// verification and analysis at Parallelism 1 per order and cross-checks
// an order-independent result signature: BDD canonicity guarantees the
// signatures match, and the check enforces it.
func bddKernelExp(scale) {
	bddOrderSweep()
}

// bddSweepWorkloads are the cells of the sweep.
var bddSweepWorkloads = []struct {
	name  string
	arity int
	k     int
}{
	{"FatTree(4) k=2 unconstrained", 4, 2},
	{"FatTree(6) k=1 unconstrained", 6, 1},
}

// bddOrderSweep measures the static variable order: the same
// verification and analysis sweep under every ordering method.
// Result signatures are cross-checked against declaration order —
// orders relocate variables, they must never move an answer — and peak
// and final live node counts are recorded per order.
//
// With -order-baseline set, the sweep doubles as a regression gate: the
// auto order must stay within 10% of the baseline file's auto peak node
// count per dataset. Peaks are not compared across orders within a run:
// where automatic collections land shapes the peak as much as the order
// does (the order claim itself is pinned on live nodes after a forced
// collection, by TestMindegShrinksLiveDiagram).
func bddOrderSweep() {
	header("BDD variable order — peak/total nodes per order, parallelism 1")
	orders := []string{"declaration", "mindeg", "auto"}
	t := newTable("dataset", "order", "time", "peak nodes", "total nodes", "identical")
	ct := newCellTimer()
	for _, w := range bddSweepWorkloads {
		var declSig string
		var declSec float64
		var autoPeak int
		for _, ord := range orders {
			var cell bddKernelResult
			ct.run("order:"+ord, func() {
				cell = bddKernelCell(w.arity, w.k, ord)
			})
			identical := cell.err == nil && (ord == "declaration" || cell.sig == declSig)
			speedup := 0.0
			switch {
			case ord == "declaration":
				declSig, declSec = cell.sig, cell.seconds
			case cell.err == nil && cell.seconds > 0:
				speedup = declSec / cell.seconds
			}
			if ord == "auto" {
				autoPeak = cell.peakNodes
			}
			outcome := "ok"
			if cell.err != nil {
				outcome = "error"
				fmt.Printf("  %s %s: %v\n", w.name, ord, cell.err)
			} else if !identical {
				outcome = "mismatch"
				gateFailed = true
				fmt.Printf("  %s %s: RESULT SIGNATURE DIVERGES FROM DECLARATION ORDER\n", w.name, ord)
			}
			record(benchRow{Experiment: "bddkernel", Dataset: w.name,
				System: "order:" + ord, K: w.k, Seconds: cell.seconds, Parallelism: 1,
				PeakBDDNodes: cell.peakNodes, TotalBDDNodes: cell.liveNodes,
				CacheHitRatio: cell.hitRatio, GCRuns: cell.gcRuns,
				Speedup: speedup, ResultsIdentical: identical, Outcome: outcome})
			t.addf("%s|%s|%.2fs|%d|%d|%v", w.name, ord, cell.seconds,
				cell.peakNodes, cell.liveNodes, identical)
		}
		gateOrderPeaks(w.name, autoPeak)
	}
	t.print()
}

// gateOrderPeaks enforces the -order-baseline regression gate for one
// dataset's sweep.
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
	sig       string
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
// diagrams rather than a node limit. Everything the signature hashes is
// deterministic at parallelism 1.
func bddKernelCell(arity, k int, varOrder string) bddKernelResult {
	net := workload.FatTree(arity, workload.BGP)
	opts := sre.Options{MaxFailures: k, Parallelism: 1, VarOrder: varOrder, Timeout: *deadline}
	start := time.Now()
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		return bddKernelResult{seconds: time.Since(start).Seconds(), err: err}
	}
	defer v.Release()
	var lines []string
	for _, src := range v.RouterNames() {
		classes, cerr := v.ForwardingClasses(src)
		if cerr != nil {
			return bddKernelResult{seconds: time.Since(start).Seconds(), err: cerr}
		}
		var pkts, scens float64
		minFail := 0
		for _, c := range classes {
			pkts += c.Packets
			scens += c.Scenarios
			minFail += c.MinFailures
		}
		lines = append(lines, fmt.Sprintf("classes:%s:%d pkts:%g scen:%g minfail:%d",
			src, len(classes), pkts, scens, minFail))
	}
	for _, src := range v.RouterNames() {
		if !strings.HasPrefix(src, "edge") {
			continue
		}
		tols, terr := v.FailureTolerances(src)
		if terr != nil {
			return bddKernelResult{seconds: time.Since(start).Seconds(), err: terr}
		}
		for _, r := range tols {
			if r.Err != nil {
				lines = append(lines, "tol:"+src+":"+r.Prefix+"=err")
				continue
			}
			lines = append(lines, fmt.Sprintf("tol:%s:%s=%d", src, r.Prefix, r.Value))
			p, perr := v.Probability(src, r.Prefix, sre.LinkFailures(0.001))
			if perr != nil {
				lines = append(lines, "prob:"+src+":"+r.Prefix+"=err")
				continue
			}
			lines = append(lines, fmt.Sprintf("prob:%s:%s=%.12g", src, r.Prefix, p))
		}
	}
	sec := time.Since(start).Seconds()
	sort.Strings(lines)
	met := v.Metrics()
	res := bddKernelResult{
		seconds:   sec,
		sig:       strings.Join(lines, ";"),
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
