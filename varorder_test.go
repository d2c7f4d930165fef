package sre_test

// Variable-order invariance through the public API. A variable order
// changes how BDDs are laid out, never what they mean: every order must
// report byte-identical results at every parallelism level and worker
// count, and a persistent cache written under one order must be a clean
// miss — not a corrupt decode — under another.

import (
	"reflect"
	"strings"
	"testing"

	"sre"
	"sre/internal/workload"
)

// fatTreeOrderRun is fatTreeRun with an explicit variable order and
// optional worker subprocesses.
func fatTreeOrderRun(t *testing.T, order string, parallelism, workers int) ([]sre.PrefixOutcome, int, []sre.PrefixResult) {
	t.Helper()
	net := workload.FatTree(4, workload.BGP)
	v, err := sre.NewVerifier(net, sre.Options{
		MaxFailures: 2, Resilient: true,
		Parallelism: parallelism, Workers: workers, VarOrder: order})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	outs := v.Outcomes()
	numPFECs := v.Metrics().NumPFECs
	sweep, err := v.FailureTolerances("edge0-0")
	if err != nil {
		t.Fatal(err)
	}
	return outs, numPFECs, sweep
}

// TestVarOrderParity pins the public contract: declaration, mindeg,
// and auto orders are observationally identical — same
// outcomes, PFEC counts, and tolerance sweeps — at parallelism 1, 2,
// and 8.
func TestVarOrderParity(t *testing.T) {
	baseOuts, basePFECs, baseSweep := fatTreeOrderRun(t, "declaration", 1, 0)
	if len(baseOuts) == 0 {
		t.Fatal("baseline reported no outcomes")
	}
	for _, order := range []string{"declaration", "mindeg", "auto"} {
		for _, par := range []int{1, 2, 8} {
			if order == "declaration" && par == 1 {
				continue // the baseline itself
			}
			name := order + "/par=" + itoa(par)
			outs, pfecs, sweep := fatTreeOrderRun(t, order, par, 0)
			if !reflect.DeepEqual(outs, baseOuts) {
				t.Errorf("%s: outcomes diverge\n got %+v\nwant %+v", name, outs, baseOuts)
			}
			if pfecs != basePFECs {
				t.Errorf("%s: NumPFECs = %d, want %d", name, pfecs, basePFECs)
			}
			if !reflect.DeepEqual(sweep, baseSweep) {
				t.Errorf("%s: tolerance sweep diverges", name)
			}
		}
	}
}

// TestVarOrderWorkersParity runs the fleet path: worker subprocesses
// receive the order through the init frame and must lay out their
// spaces identically to the coordinator (serialized BDDs cross the
// pipe; a layout mismatch would corrupt every result).
func TestVarOrderWorkersParity(t *testing.T) {
	baseOuts, basePFECs, baseSweep := fatTreeOrderRun(t, "declaration", 1, 0)
	outs, pfecs, sweep := fatTreeOrderRun(t, "mindeg", 0, 2)
	if !reflect.DeepEqual(outs, baseOuts) {
		t.Error("workers=2 mindeg: outcomes diverge")
	}
	if pfecs != basePFECs {
		t.Errorf("workers=2 mindeg: NumPFECs = %d, want %d", pfecs, basePFECs)
	}
	if !reflect.DeepEqual(sweep, baseSweep) {
		t.Error("workers=2 mindeg: tolerance sweep diverges")
	}
}

// TestVarOrderUnknownRejected: a bad order fails fast at construction
// with a diagnostic naming the valid set, not deep in the engine.
func TestVarOrderUnknownRejected(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	_, err := sre.NewVerifier(net, sre.Options{MaxFailures: 2, VarOrder: "sift"})
	if err == nil {
		t.Fatal("NewVerifier accepted unknown variable order")
	}
	if !strings.Contains(err.Error(), "sift") || !strings.Contains(err.Error(), "mindeg") {
		t.Errorf("error %q does not name the bad order and the valid set", err)
	}
}

// TestVarOrderCacheMiss pins the cache contract: a store warmed under
// declaration order is a clean, complete miss under mindeg — zero hits,
// zero quarantines (order changes keys, it never corrupts records) —
// and the recomputed results are identical.
func TestVarOrderCacheMiss(t *testing.T) {
	dir := t.TempDir()
	run := func(order string) ([]sre.PrefixOutcome, sre.StoreMetrics) {
		st, err := sre.OpenStore(dir, sre.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		net := workload.FatTree(4, workload.BGP)
		v, err := sre.NewVerifier(net, sre.Options{
			MaxFailures: 2, Resilient: true, Store: st, VarOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		return v.Outcomes(), st.Metrics()
	}

	coldOuts, coldM := run("declaration")
	if coldM.Puts == 0 {
		t.Fatalf("cold run published nothing: %+v", coldM)
	}

	// Same store, different order: every key must change.
	otherOuts, otherM := run("mindeg")
	if otherM.Hits != 0 {
		t.Errorf("order change replayed %d records written under another order", otherM.Hits)
	}
	if otherM.Quarantined != 0 {
		t.Errorf("order change quarantined %d records — keys must change, not decode", otherM.Quarantined)
	}
	if otherM.Puts == 0 {
		t.Errorf("mindeg run published nothing: %+v", otherM)
	}
	if !reflect.DeepEqual(otherOuts, coldOuts) {
		t.Error("mindeg recompute diverges from declaration results")
	}

	// Re-running under the original order still hits its own records.
	_, againM := run("declaration")
	if againM.Hits == 0 {
		t.Errorf("declaration rerun missed its own records: %+v", againM)
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return "10+"
}
