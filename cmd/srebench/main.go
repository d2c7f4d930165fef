// Command srebench regenerates every table and figure of the paper's
// evaluation (§8) on the synthetic datasets, printing the same rows or
// series each one reports. Absolute numbers differ from the paper (the
// substrate is this reproduction, not the authors' testbed); the shapes
// — who wins, by what order of magnitude, where crossovers fall — are
// the reproduction target, recorded in EXPERIMENTS.md.
//
// Usage:
//
//	srebench -exp fig5            # one experiment
//	srebench -exp all             # everything
//	srebench -exp fig5 -scale paper -budget 300s
//
// Experiments: fig5 fig6 fig7 fig8 diff fig9 table2 fig11 table3
// fig13 fig14 parallel bddkernel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/src"
)

var (
	expFlag    = flag.String("exp", "all", "experiment to run (fig5, fig6, fig7, fig8, diff, fig9, table2, fig11, table3, fig13, fig14, parallel, bddkernel, all)")
	scaleFlag  = flag.String("scale", "small", "workload scale: small (CI-friendly) or paper (full sizes; hours)")
	budget     = flag.Duration("budget", 60*time.Second, "soft per-cell time budget; a system that exceeds it is skipped for larger parameters")
	seedFlag   = flag.Int64("seed", 1, "base seed for randomized selections")
	metricsDir = flag.String("metricsdir", "", "write BENCH_<exp>.json files with per-cell metrics into this directory")
	deadline   = flag.Duration("deadline", 0, "hard per-cell wall-clock deadline enforced inside the symbolic pipeline; an expired cell aborts with a deadline error instead of running away (0 = none). Unlike -budget, which skips future cells, -deadline interrupts a running one.")
	parallelN  = flag.Int("parallel", 4, "worker count for the parallel experiment's concurrent cells (its baseline always runs at 1)")

	// Regression-comparator flags (srebench -compare old new, or
	// srebench -compare -baseline <dir> new).
	compareFlag = flag.Bool("compare", false, "compare two measurement files (BENCH_*.json rows or sre -events-out logs) and report per-stage/per-cell regressions; exits 1 past -threshold, 2 on incomparable environments")
	baselineDir = flag.String("baseline", "", "directory holding baseline BENCH_<exp>.json files; with -compare and a single file argument, the old side is resolved here by experiment name")
	threshold   = flag.Float64("threshold", 1.25, "regression threshold for -compare: new/old wall-time ratio above this fails the comparison")
	topK        = flag.Int("topk", 10, "rows shown in the -compare delta table")
	minDelta    = flag.Duration("mindelta", 10*time.Millisecond, "absolute slowdown below this never fails -compare (noise floor)")
	allowEnvMis = flag.Bool("allow-env-mismatch", false, "downgrade -compare environment mismatches from a refusal (exit 2) to a warning")

	// Variable-order gate (bddkernel experiment): compare the auto
	// order's peak node counts against a committed baseline file.
	orderBaseline = flag.String("order-baseline", "", "path to a committed BENCH_bddkernel.json; the bddkernel experiment's order sweep then fails (exit 1) when the auto order's peak node count regresses more than 10% against the baseline's auto rows")
)

// withResilience arms the -deadline budget on engine options. Each call
// creates a fresh checker, so the deadline applies per measured cell.
func withResilience(o src.Options) src.Options {
	o.Interrupt = resil.NewSharedChecker(nil, *deadline).Fn()
	return o
}

// benchRow is one measured cell of an experiment, written to
// BENCH_<exp>.json when -metricsdir is given.
type benchRow struct {
	Experiment    string  `json:"experiment"`
	Dataset       string  `json:"dataset"`
	System        string  `json:"system,omitempty"`
	K             int     `json:"k"`
	Seconds       float64 `json:"seconds"`
	PeakBDDNodes  int     `json:"peak_bdd_nodes,omitempty"`
	TotalBDDNodes int     `json:"total_bdd_nodes,omitempty"`
	CacheHitRatio float64 `json:"cache_hit_ratio,omitempty"`
	GCRuns        int     `json:"gc_runs,omitempty"`
	// Parallelism/Cores/Speedup/ResultsIdentical are set by the
	// parallel experiment: the worker count of the cell, the CPUs the
	// process could actually use, wall-clock ratio against the
	// one-worker cell, and whether both runs returned identical
	// per-prefix results.
	Parallelism      int     `json:"parallelism,omitempty"`
	Cores            int     `json:"cores,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	ResultsIdentical bool    `json:"results_identical,omitempty"`
	Outcome          string  `json:"outcome"` // ok, bdd-limit, error, skipped
	// Env records the machine and toolchain of the measurement, so
	// `srebench -compare` can refuse apples-to-oranges diffs.
	Env *obs.EnvInfo `json:"env,omitempty"`
}

var (
	benchRows []benchRow
	benchEnv  *obs.EnvInfo
)

// record collects a measurement; a no-op unless -metricsdir is set.
func record(r benchRow) {
	if *metricsDir == "" {
		return
	}
	if benchEnv == nil {
		e := obs.Environment()
		benchEnv = &e
	}
	r.Env = benchEnv
	benchRows = append(benchRows, r)
}

// flushBench writes and clears the collected rows of one experiment.
func flushBench(exp string) {
	rows := benchRows
	benchRows = nil
	if *metricsDir == "" || len(rows) == 0 {
		return
	}
	path := filepath.Join(*metricsDir, "BENCH_"+exp+".json")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srebench:", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		fmt.Fprintln(os.Stderr, "srebench:", err)
	}
}

// scale holds the workload sizes per -scale setting.
type scale struct {
	paper       bool
	maxK        int
	fatTrees    []int // arities
	netDiceWANs int
	campusSnaps int
	campusVLANs int
	hoyanPrefix int
}

func getScale() scale {
	switch *scaleFlag {
	case "paper":
		return scale{paper: true, maxK: 3, fatTrees: []int{4, 8, 10, 16, 20}, netDiceWANs: 90, campusSnaps: 67, campusVLANs: 1000, hoyanPrefix: 10}
	default:
		return scale{maxK: 3, fatTrees: []int{4, 8}, netDiceWANs: 3, campusSnaps: 5, campusVLANs: 40, hoyanPrefix: 4}
	}
}

func main() {
	flag.Parse()
	if *compareFlag {
		os.Exit(runCompare(flag.Args()))
	}
	sc := getScale()
	exps := map[string]func(scale){
		"fig5":      fig5,
		"fig6":      fig6,
		"fig7":      fig7,
		"fig8":      fig8,
		"diff":      diffExp,
		"fig9":      fig9,
		"table2":    table2,
		"fig11":     fig11,
		"table3":    table3,
		"fig13":     fig13,
		"fig14":     fig14,
		"parallel":  parallelExp,
		"bddkernel": bddKernelExp,
	}
	order := []string{"fig5", "fig6", "fig7", "fig8", "diff", "fig9", "table2", "fig11", "table3", "fig13", "fig14", "parallel", "bddkernel"}
	if *expFlag == "all" {
		for _, name := range order {
			exps[name](sc)
			flushBench(name)
		}
		exitIfGateFailed()
		return
	}
	f, ok := exps[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; one of %s, all\n", *expFlag, strings.Join(order, ", "))
		os.Exit(2)
	}
	f(sc)
	flushBench(*expFlag)
	exitIfGateFailed()
}

// gateFailed is set by experiments that enforce a pass/fail criterion
// (the bddkernel order gate); main turns it into exit status 1 after
// all tables and metrics have been written.
var gateFailed bool

func exitIfGateFailed() {
	if gateFailed {
		fmt.Fprintln(os.Stderr, "srebench: gate failed")
		os.Exit(1)
	}
}

// header prints an experiment banner.
func header(title string) {
	fmt.Printf("\n════ %s ════\n", title)
}

// table is a simple aligned-column printer.
type table struct {
	cols []string
	rows [][]string
}

func newTable(cols ...string) *table { return &table{cols: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) print() {
	width := make([]int, len(t.cols))
	for i, c := range t.cols {
		width[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.cols)
	sep := make([]string, len(t.cols))
	for i := range sep {
		sep[i] = strings.Repeat("─", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// cellTimer tracks per-system soft budgets: once a system blows the
// budget, larger parameters are skipped ("—" cells), mirroring the
// paper's timeout handling.
type cellTimer struct {
	blown map[string]bool
}

func newCellTimer() *cellTimer { return &cellTimer{blown: make(map[string]bool)} }

// run executes f unless the system already blew its budget; it returns
// the formatted duration or a skip marker.
func (ct *cellTimer) run(system string, f func()) string {
	cell, _ := ct.runTimed(system, f)
	return cell
}

// runTimed is run exposing the raw duration (zero when skipped), for
// callers that also record machine-readable metrics.
func (ct *cellTimer) runTimed(system string, f func()) (string, time.Duration) {
	if ct.blown[system] {
		return "—", 0
	}
	start := time.Now()
	f()
	d := time.Since(start)
	if d > *budget {
		ct.blown[system] = true
	}
	return fmtDur(d), d
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d.Milliseconds()))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
