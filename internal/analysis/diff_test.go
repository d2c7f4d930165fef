package analysis

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"sre/internal/prob"
	"sre/internal/src"
	"sre/internal/workload"
)

// formatDiffs renders every field of every Difference, one row a line.
// DiffBDD is rendered as its satisfying-assignment count: the handle
// depends on the after manager's history, the function does not.
func formatDiffs(after *Pipeline, diffs []Difference) string {
	var b strings.Builder
	m := after.Sp.M
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, d := range diffs {
		fmt.Fprintf(&b, "%s %s sat=%s paths=%t witness=%v tol=%d/%d prob=%s/%s\n",
			after.Net.Topology.Name(d.Src), d.Prefix,
			g(m.SatCount(d.DiffBDD, m.NumVars())), d.PathsChanged, d.WitnessDownLinks,
			d.ToleranceBefore, d.ToleranceAfter, g(d.ProbBefore), g(d.ProbAfter))
	}
	return b.String()
}

// bicsDiffs diffs the Bics WAN against the first n of its ten atomic
// changes at failure budget 1, calling DiffReachability reps times per
// change, and returns the rendered rows of each repetition.
func bicsDiffs(t *testing.T, n, reps int) [][]string {
	t.Helper()
	base := workload.WAN(workload.Bics, workload.BGP)
	opts := src.Options{PruneK: 1}
	before, err := Run(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Release()
	model := prob.LinkModel{PDown: 0.001}
	out := make([][]string, reps)
	for _, ch := range workload.AtomicChanges(base)[:n] {
		net := base.Clone()
		ch.Apply(net)
		after, err := Run(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			diffs, err := DiffReachability(before, after, &model)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], "# "+ch.Name+"\n"+formatDiffs(after, diffs))
		}
		after.Release()
	}
	return out
}

// TestDiffReachabilityDeterministic diffs the same pair of pipelines
// twice: the chosen waypoint and the witness links must not depend on
// map iteration order.
func TestDiffReachabilityDeterministic(t *testing.T) {
	runs := bicsDiffs(t, 1, 2)
	sameLines(t, strings.Join(runs[1], ""), strings.Join(runs[0], ""))
}

// TestDiffReachabilityGolden pins every Difference field on Bics k=1
// over the ten atomic changes.
func TestDiffReachabilityGolden(t *testing.T) {
	got := strings.Join(bicsDiffs(t, 10, 1)[0], "")
	want, err := os.ReadFile("testdata/diff_bics_k1.golden")
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, got, string(want))
}

// sameLines fails at the first line where got and want differ.
func sameLines(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
