package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"sre"
	"sre/internal/workload"
)

// parallelExp measures what extra workers buy the per-prefix executor
// on multi-prefix fat trees. Each cell runs the same verification twice
// — Parallelism 1 and Parallelism -parallel — and cross-checks that
// both return identical per-prefix tolerances before reporting the
// wall-clock ratio. Both cells go through the one executor
// (analysis.Executor); the only thing that differs is the pool size,
// so the ratio is multi-core scaling and nothing else:
//
//   - node-limited resilient cells: every prefix is its own scoped task
//     at either setting and climbs the same ladder rungs; expect the
//     ratio to track the cores the host really has (≈1× when
//     num_cpu < parallelism — see the Cores column of
//     BENCH_parallel.json).
//   - unconstrained cells: at one worker the whole domain runs as one
//     combined task in one space, which shares route computation across
//     prefixes; the parallel cell pays for per-prefix spaces and must
//     win that back with cores.
func parallelExp(sc scale) {
	cores := runtime.GOMAXPROCS(0)
	header(fmt.Sprintf("Parallel — per-prefix scheduling, %d workers on %d core(s)", *parallelN, cores))
	type wl struct {
		name      string
		arity     int
		k         int
		nodeLimit int
		resilient bool
	}
	wls := []wl{
		{"FatTree(4) k=3 limit=80k resilient", 4, 3, 80000, true},
		{"FatTree(6) k=1 limit=150k resilient", 6, 1, 150000, true},
		{"FatTree(4) k=2 unconstrained", 4, 2, 0, false},
	}
	if sc.paper {
		wls = append(wls, wl{"FatTree(8) k=1 unconstrained", 8, 1, 0, false})
	}
	t := newTable("dataset", "parallel(1)", fmt.Sprintf("parallel(%d)", *parallelN), "speedup", "identical")
	ct := newCellTimer()
	for _, w := range wls {
		var seqSec, parSec float64
		var seqSig, parSig string
		var seqErr, parErr error
		ct.run("seq", func() {
			seqSec, seqSig, seqErr = parallelCell(w.arity, w.k, w.nodeLimit, w.resilient, 1)
		})
		ct.run("par", func() {
			parSec, parSig, parErr = parallelCell(w.arity, w.k, w.nodeLimit, w.resilient, *parallelN)
		})
		outcome := func(err error) string {
			if err != nil {
				return "error"
			}
			return "ok"
		}
		identical := seqErr == nil && parErr == nil && seqSig == parSig
		speedup := 0.0
		if seqErr == nil && parErr == nil && parSec > 0 {
			speedup = seqSec / parSec
		}
		record(benchRow{Experiment: "parallel", Dataset: w.name, System: "parallel-1",
			K: w.k, Seconds: seqSec, Parallelism: 1, Cores: cores, Outcome: outcome(seqErr)})
		record(benchRow{Experiment: "parallel", Dataset: w.name, System: fmt.Sprintf("parallel-%d", *parallelN),
			K: w.k, Seconds: parSec, Parallelism: *parallelN, Cores: cores,
			Speedup: speedup, ResultsIdentical: identical, Outcome: outcome(parErr)})
		if seqErr != nil {
			fmt.Printf("  %s parallel(1): %v\n", w.name, seqErr)
		}
		if parErr != nil {
			fmt.Printf("  %s parallel: %v\n", w.name, parErr)
		}
		t.addf("%s|%.2fs|%.2fs|%.2fx|%v", w.name, seqSec, parSec, speedup, identical)
	}
	t.print()
}

// parallelCell runs one verification at the given parallelism. The
// reported seconds cover pipeline construction — the phase the
// scheduler parallelizes. The all-prefix tolerance sweep that follows
// is identical per-pipeline work in both cells; it is kept outside the
// timer and condensed into an order-independent signature so the two
// runs can be cross-checked for identical results.
func parallelCell(arity, k, nodeLimit int, resilient bool, parallelism int) (float64, string, error) {
	net := workload.FatTree(arity, workload.BGP)
	opts := sre.Options{MaxFailures: k, Resilient: resilient,
		BDDNodeLimit: nodeLimit, Parallelism: parallelism, Timeout: *deadline}
	start := time.Now()
	v, err := sre.NewVerifier(net, opts)
	sec := time.Since(start).Seconds()
	if err != nil {
		return sec, "", err
	}
	defer v.Release()
	results, err := v.FailureTolerances("edge0-0")
	if err != nil {
		return sec, "", err
	}
	lines := make([]string, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			lines = append(lines, r.Prefix+"=err")
			continue
		}
		lines = append(lines, fmt.Sprintf("%s=%d", r.Prefix, r.Value))
	}
	sort.Strings(lines)
	return sec, strings.Join(lines, ";"), nil
}
