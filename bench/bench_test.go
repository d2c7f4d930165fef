package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sre"
	"sre/internal/coord"
)

// TestMain lets the fleet workload re-exec the test binary as its
// worker, the way coord.Run re-execs `bench worker`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(coord.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestWorkloadTableValidates(t *testing.T) {
	if err := validateWorkloads(workloads); err != nil {
		t.Fatalf("the committed table is rejected: %v", err)
	}
	mutate := func(f func(ws []workloadDef)) []workloadDef {
		ws := append([]workloadDef(nil), workloads...)
		f(ws)
		return ws
	}
	bad := map[string][]workloadDef{
		"duplicate name":        mutate(func(ws []workloadDef) { ws[1].Name = ws[0].Name }),
		"name outside charset":  mutate(func(ws []workloadDef) { ws[0].Name = "ft6 bgp" }),
		"name starts with dash": mutate(func(ws []workloadDef) { ws[0].Name = "-ft6" }),
		"no expectation source": mutate(func(ws []workloadDef) { ws[0].Expect = nil }),
		"unknown expectation":   mutate(func(ws []workloadDef) { ws[0].Expect = []string{"guess"} }),
		"more lanes than CPUs":  mutate(func(ws []workloadDef) { ws[0].Opts.Parallelism = runtime.NumCPU() + 1 }),
		"more workers than CPUs": mutate(func(ws []workloadDef) {
			ws[0].Opts.Workers = runtime.NumCPU() + 1
		}),
		"unbounded budget": mutate(func(ws []workloadDef) { ws[0].Opts.MaxFailures = -1 }),
		"two-line reason":  mutate(func(ws []workloadDef) { ws[0].Why = "a\nb" }),
		"store in table":   mutate(func(ws []workloadDef) { ws[0].Opts.Store = &sre.Store{} }),
		"one workload":     workloads[:1],
	}
	for name, ws := range bad {
		if err := validateWorkloads(ws); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the Go tables: the
// file is `go run ./bench -manifest`, never edited by hand.
func TestManifestMatchesTables(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("BENCHMARK.json differs from the tables; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !validName(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is invalid or used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Unit == "" || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
				t.Errorf("metric %s: unit %q, better %q, bound %v", d.Name, d.Unit, d.Better, d.Bound)
			}
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || endToEnd[0].Name != "setup_s" {
		t.Errorf("%d per-layer and %d end-to-end metrics, first %s", len(perLayer), len(endToEnd), endToEnd[0].Name)
	}
}

// toy shrinks a workload to smoke-test size: same execution path and
// options, a network small enough for both passes to run in well under a
// second.
func (w workloadDef) toy() workloadDef {
	switch w.Gen.Kind {
	case "fattree":
		w.Gen.Arity = 4
	case "wan":
		w.Gen.Routers, w.Gen.Links = 8, 11
	case "campus":
		w.Gen.VLANs = 18
	}
	// The ladder workload keeps its budget and limit: it already runs on
	// FatTree(4), and at k=1 nothing would overflow.
	if w.Opts.MaxFailures > 1 && w.Opts.BDDNodeLimit == 0 {
		w.Opts.MaxFailures = 1
	}
	w.OracleDepth = 0
	w.WarmUps, w.MinIters = 0, 1
	return w
}

// checkMetrics asserts that res carries exactly the declared metrics,
// each with its unit.
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: emitted=%t unit %q, want unit %q", d.Name, ok, v.Unit, d.Unit)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestSmoke runs every workload at toy scale through both passes.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := full.toy()
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runWorkload(w, 1, 0, false, out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v", d.Name, res.Metrics[d.Name].Value)
				}
			}

			res, err = runWorkload(w, 1, 0, true, out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if share := res.Metrics["trace.attributed_share"].Value; share < 0.95 {
				t.Errorf("trace.attributed_share = %.3f, want >= 0.95", share)
			}
			if w.StoreMode == storeWarm && (res.Metrics["src.run_s"].Value != 0 || res.Metrics["store.hit_ratio"].Value != 1) {
				t.Errorf("warm store: src.run_s=%v hit_ratio=%v", res.Metrics["src.run_s"].Value, res.Metrics["store.hit_ratio"].Value)
			}
			checkTraceFile(t, filepath.Join(out, "trace_"+w.Name+".json"))
			if left, _ := filepath.Glob(filepath.Join(out, "tmp", "*")); len(left) > 0 {
				t.Errorf("scratch left behind: %v", left)
			}
		})
	}
}

// checkTraceFile asserts the trace parses as Chrome trace events whose
// parent links resolve and whose spans lie inside their parents.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	const slackUS = 2000 // synthetic spans are laid out from the program's own stopwatches
	byID := map[int]chromeEvent{}
	for _, ev := range ct.TraceEvents {
		byID[int(ev.Args["id"].(float64))] = ev
	}
	roots := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		parent := int(ev.Args["parent"].(float64))
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("span %s: phase %q duration %v", ev.Name, ev.Ph, ev.Dur)
		}
		if parent == 0 {
			roots[ev.Name] = true
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Fatalf("span %s names unknown parent %d", ev.Name, parent)
		}
		if ev.Ts < p.Ts-slackUS || ev.Ts+ev.Dur > p.Ts+p.Dur+slackUS {
			t.Errorf("span %s [%v, %v] lies outside its parent %s [%v, %v]", ev.Name, ev.Ts, ev.Ts+ev.Dur, p.Name, p.Ts, p.Ts+p.Dur)
		}
	}
	if !roots["iteration"] || !roots["extras"] {
		t.Errorf("roots %v, want iteration and extras", roots)
	}
	if cat := ct.TraceEvents[1].Cat; cat == "" || strings.Contains(cat, ".") {
		t.Errorf("span category %q is not a layer", cat)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "iteration")
	a := tr.begin(root, "src.run")
	time.Sleep(2 * time.Millisecond)
	tr.end(a)
	b := tr.begin(root, "analysis.prefix_task")
	time.Sleep(2 * time.Millisecond)
	tr.end(b)
	tr.synthetic(b, "src.run", 0, time.Millisecond)
	tr.end(root)
	byLayer, wall := tr.selfTimes()
	var sum time.Duration
	for _, d := range byLayer {
		sum += d
	}
	if sum != wall {
		t.Errorf("self times sum to %v, roots to %v", sum, wall)
	}
	if got := tr.total("src.run"); byLayer["src"] != got {
		t.Errorf("src self time %v, spans total %v", byLayer["src"], got)
	}
	if byLayer["analysis"] >= tr.spans[b-1].dur() {
		t.Errorf("analysis self time %v does not exclude its child", byLayer["analysis"])
	}
}

func TestReferenceRejectsWrongAnswers(t *testing.T) {
	w := workloads[0].toy()
	e := &env{w: w, seed: 1, dir: t.TempDir()}
	in, err := e.setUp()
	if err != nil {
		t.Fatal(err)
	}
	ref := in.ref
	// FatTree(4) at budget 1: every router reaches every prefix under any
	// single failure.
	for r := range ref.routers {
		for p := range ref.prefixes {
			if ref.tol[r][p] != 1 {
				t.Fatalf("%s → %s: reference %d, want 1", ref.routers[r], ref.prefixes[p], ref.tol[r][p])
			}
		}
	}
	if !ref.tolOK(0, 0, infinite, false) || !ref.tolOK(0, 0, 1, false) {
		t.Error("answers meaning \"tolerates the whole budget\" are rejected")
	}
	if ref.tolOK(0, 0, 0, false) || ref.tolOK(0, 0, -1, false) {
		t.Error("an under-reported tolerance passes as exact")
	}
	if !ref.tolOK(0, 0, 0, true) || ref.tolOK(0, 0, -1, true) {
		t.Error("a degraded prefix may under-report down to 0, not below")
	}
}
