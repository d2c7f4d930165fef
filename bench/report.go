package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchCommand is how the driver starts the benchmark from the root of a
// checkout; run.sh builds the package and hands its arguments on.
var benchCommand = []string{"bash", "bench/run.sh"}

// writeManifest prints BENCHMARK.json from the tables, so the file and
// the program cannot drift apart (the smoke test compares them).
func writeManifest(w io.Writer) error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundedEntry  `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{Command: benchCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}

// runChild runs one pass of one workload in a child process, so that
// peak RSS and GC counters belong to that workload alone, and returns
// the result line it printed last.
func runChild(w workloadDef, seed int64, secs, trace int, outDir string, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s -trace %d: %w", w.Name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s -trace %d: result line: %w", w.Name, trace, err)
	}
	return res, nil
}

// set is one full run of every workload through both passes.
type set map[string]map[string]value // workload → metric → value

// runSets runs n full sets one workload at a time (a workload may use
// every CPU itself), prints every metric by name with its unit, and for
// two sets the repeat report.
func runSets(n int, seed int64, secs int, outDir string, stdout, stderr io.Writer) error {
	var sets []set
	bad := 0
	for i := 0; i < n; i++ {
		s := set{}
		for _, w := range workloads {
			s[w.Name] = map[string]value{}
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(w, seed, secs, trace, outDir, stderr)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(stdout, "FAIL %s -trace %d: correct=%t, %d of %d operations failed\n",
						w.Name, trace, res.Correct, res.Failed, res.Attempted)
					bad++
				}
				for k, v := range res.Metrics {
					s[w.Name][k] = v
				}
			}
		}
		sets = append(sets, s)
	}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "\n%s — %s\n", w.Name, w.Why)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				v := sets[0][w.Name][d.Name]
				fmt.Fprintf(stdout, "  %-32s %16.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	if n == 2 {
		bad += repeatReport(sets[0], sets[1], stdout)
	}
	if bad > 0 {
		return fmt.Errorf("%d checks failed", bad)
	}
	return nil
}

// repeatReport compares two sets of one commit and seed: end-to-end
// metrics must agree within their bounds, and metrics declared Exact
// must repeat exactly. It returns the number of violations.
func repeatReport(a, b set, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "\nrepeat check: end-to-end metrics, set 1 vs set 2\n")
	fmt.Fprintf(w, "  %-24s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "set 1", "set 2", "ratio", "bound", "")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v1, v2 := a[wl.Name][d.Name].Value, b[wl.Name][d.Name].Value
			r := ratio(v2, v1)
			verdict := "inside"
			if math.Abs(r-1) > d.Bound {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Fprintf(w, "  %-24s %-16s %14.6g %14.6g %8.4f %6.2f  %s\n", wl.Name, d.Name, v1, v2, r, d.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\nrepeat check: which values repeated exactly (workloads that differ are listed)\n")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			var differ []string
			for _, wl := range workloads {
				if a[wl.Name][d.Name].Value != b[wl.Name][d.Name].Value {
					differ = append(differ, wl.Name)
				}
			}
			note := ""
			if d.Exact && len(differ) > 0 {
				note = "  DECLARED EXACT"
				bad++
			}
			fmt.Fprintf(w, "  %-32s exact=%-5t declared=%-5t %s%s\n", d.Name, len(differ) == 0, d.Exact, strings.Join(differ, " "), note)
		}
	}
	return bad
}
