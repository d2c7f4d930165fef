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
		w := after.LinkWeights(model)
		for i := range out {
			diffs, err := DiffReachability(before, after, &w)
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

// TestDiffMirrorsAndSelfIsEmpty checks the differential analysis
// against two metamorphic relations on Bics at k=1: a configuration
// diffed against itself shows no difference, and for each of the ten
// atomic changes diff(A, B) and diff(B, A) report the same (source,
// prefix) rows with the same PathsChanged, their before and after
// tolerances and probabilities swapped.
func TestDiffMirrorsAndSelfIsEmpty(t *testing.T) {
	base := workload.WAN(workload.Bics, workload.BGP)
	opts := src.Options{PruneK: 1}
	model := prob.LinkModel{PDown: 0.001}
	a, err := Run(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	wa := a.LinkWeights(model)
	if self, err := DiffReachability(a, a, &wa); err != nil || len(self) != 0 {
		t.Fatalf("diff(A, A): %d rows, %v; want none", len(self), err)
	}
	for _, ch := range workload.AtomicChanges(base) {
		net := base.Clone()
		ch.Apply(net)
		b, err := Run(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		wb := b.LinkWeights(model)
		ab, err := DiffReachability(a, b, &wb)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := DiffReachability(b, a, &wa)
		b.Release()
		if err != nil {
			t.Fatal(err)
		}
		mirrored := make(map[PairKey]Difference, len(ba))
		for _, d := range ba {
			mirrored[PairKey{Src: d.Src, Prefix: d.Prefix}] = d
		}
		if len(ab) != len(ba) {
			t.Errorf("%s: diff(A, B) has %d rows, diff(B, A) %d", ch.Name, len(ab), len(ba))
		}
		for _, d := range ab {
			m, ok := mirrored[PairKey{Src: d.Src, Prefix: d.Prefix}]
			switch {
			case !ok:
				t.Errorf("%s: (%d, %s) differs A→B but not B→A", ch.Name, d.Src, d.Prefix)
			case m.PathsChanged != d.PathsChanged ||
				m.ToleranceBefore != d.ToleranceAfter || m.ToleranceAfter != d.ToleranceBefore ||
				m.ProbBefore != d.ProbAfter || m.ProbAfter != d.ProbBefore:
				t.Errorf("%s: (%d, %s) is not mirrored:\n A→B paths=%t tol=%d/%d prob=%v/%v\n B→A paths=%t tol=%d/%d prob=%v/%v",
					ch.Name, d.Src, d.Prefix,
					d.PathsChanged, d.ToleranceBefore, d.ToleranceAfter, d.ProbBefore, d.ProbAfter,
					m.PathsChanged, m.ToleranceBefore, m.ToleranceAfter, m.ProbBefore, m.ProbAfter)
			}
		}
		t.Logf("%s: %d rows", ch.Name, len(ab))
	}
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
