// Command bench is the repository's benchmark: config text in, verdicts
// out, on the workloads of workloads.go, with the metrics of metrics.go.
// BENCHMARK.json at the repository root declares it; README.md explains
// the metrics, the workloads and how to cite them.
//
//	go run ./bench -workload ft6_bgp_k1 -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	go run ./bench -workload ft6_bgp_k1 -seed 1 -seconds 10 -trace 1   # per-layer metrics + trace file
//	go run ./bench -seed 1                                            # every workload, both passes
//	go run ./bench -check-repeat                                      # two full sets, compared
//
// `bench worker` is the subprocess entry point of the fleet workload:
// coord.Run re-execs the running binary with that argument.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sre/internal/coord"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(coord.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only and print its result line (default: every workload, both passes, as a table)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: query order and the oracle's sampled scenarios")
	secs := fs.Int("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics from a traced pass")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for trace files and scratch stores")
	repeat := fs.Bool("check-repeat", false, "run two full sets and report, per metric and workload, both values, their ratio, and whether they agree")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric and workload tables declare it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := validateWorkloads(workloads); err != nil {
		return fail(err)
	}
	switch {
	case *manifest:
		if err := writeManifest(stdout); err != nil {
			return fail(err)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, *seed, time.Duration(*secs)*time.Second, *trace != 0, *out)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	default:
		sets := 1
		if *repeat {
			sets = 2
		}
		if err := runSets(sets, *seed, *secs, *out, stdout, stderr); err != nil {
			return fail(err)
		}
	}
	return 0
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(w workloadDef, seed int64, window time.Duration, traced bool, outDir string) (result, error) {
	scratch := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(scratch, w.Name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	e := &env{w: w, seed: seed, dir: dir}
	if traced {
		return e.tracedPass(window, outDir)
	}
	return e.endToEndPass(window)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
