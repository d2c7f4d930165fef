package sre_test

// Multi-process verification through the public API. The coordinator
// re-execs the current binary as `<exe> worker`; under `go test` that
// binary is the test binary, so TestMain diverts worker children
// (marked by the SRE_COORD_WORKER environment variable the coordinator
// sets) into the worker protocol before the testing framework runs.

import (
	"os"
	"reflect"
	"testing"

	"sre"
	"sre/internal/coord"
	"sre/internal/workload"
)

func TestMain(m *testing.M) {
	if os.Getenv("SRE_COORD_WORKER") == "1" {
		os.Exit(coord.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// fatTreeWorkersRun is fatTreeRun with worker subprocesses instead of
// in-process parallelism, under faultPlan (the SRE_FAULT syntax, which
// the workers inherit; "" injects nothing).
func fatTreeWorkersRun(t *testing.T, base sre.Options, workers int, faultPlan string) ([]sre.PrefixOutcome, int, []sre.PrefixResult, bool) {
	t.Helper()
	net := workload.FatTree(4, workload.BGP)
	t.Setenv(coord.FaultEnv, faultPlan)
	base.Workers = workers
	v, err := sre.NewVerifier(net, base)
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
	return outs, numPFECs, sweep, v.CrashDegraded()
}

// TestWorkersDeterminism pins the fleet's public contract: a fault-free
// multi-process run at 1, 2, and 4 workers is indistinguishable from
// the one-worker in-process run — same outcomes, same PFEC count, same
// tolerances — and so is one whose workers climb the ladder (the two
// node-limited variants, at 2 workers: the rungs and the effective
// budget cross the wire).
func TestWorkersDeterminism(t *testing.T) {
	for _, v := range ft4Variants {
		t.Run(v.name, func(t *testing.T) {
			baseOuts, basePFECs, baseSweep := fatTreeRun(t, v.base, 1)
			if len(baseOuts) == 0 {
				t.Fatal("baseline reported no outcomes")
			}
			counts := []int{1, 2, 4}
			if v.base.BDDNodeLimit > 0 {
				counts = []int{2}
			}
			for _, w := range counts {
				outs, pfecs, sweep, crashDegraded := fatTreeWorkersRun(t, v.base, w, "")
				if !reflect.DeepEqual(outs, baseOuts) {
					t.Errorf("workers %d: outcomes diverge\n got %+v\nwant %+v", w, outs, baseOuts)
				}
				if pfecs != basePFECs {
					t.Errorf("workers %d: NumPFECs = %d, in-process %d", w, pfecs, basePFECs)
				}
				if !reflect.DeepEqual(sweep, baseSweep) {
					t.Errorf("workers %d: tolerance sweep diverges\n got %+v\nwant %+v", w, sweep, baseSweep)
				}
				if crashDegraded {
					t.Errorf("workers %d: CrashDegraded on a fault-free run", w)
				}
			}
		})
	}
}

// TestWorkersFaultedRunConverges injects crashes into distinct tasks:
// the retried attempts are fault-free, so results must converge to the
// in-process baseline, with only WorkerCrashes recording the faults.
func TestWorkersFaultedRunConverges(t *testing.T) {
	baseOuts, basePFECs, baseSweep := fatTreeRun(t, ft4Plain, 1)
	outs, pfecs, sweep, crashDegraded := fatTreeWorkersRun(t, ft4Plain, 2, "crash@0;kill@2;exit@5")
	crashes := 0
	for i := range outs {
		crashes += outs[i].WorkerCrashes
		outs[i].WorkerCrashes = 0
	}
	if crashes < 3 {
		t.Errorf("total WorkerCrashes = %d, want >= 3", crashes)
	}
	if crashDegraded {
		t.Error("CrashDegraded should be false: every retry converged before quarantine")
	}
	if !reflect.DeepEqual(outs, baseOuts) {
		t.Errorf("outcomes diverge after crash retries\n got %+v\nwant %+v", outs, baseOuts)
	}
	if pfecs != basePFECs {
		t.Errorf("NumPFECs = %d, in-process %d", pfecs, basePFECs)
	}
	if !reflect.DeepEqual(sweep, baseSweep) {
		t.Errorf("tolerance sweep diverges\n got %+v\nwant %+v", sweep, baseSweep)
	}
}

// TestWorkersCrashDegraded crashes one task on every attempt: the
// prefix must fall back to exact in-process verification and the
// verifier must report CrashDegraded (the `sre` CLI's exit 3).
func TestWorkersCrashDegraded(t *testing.T) {
	_, basePFECs, baseSweep := fatTreeRun(t, ft4Plain, 1)
	outs, pfecs, sweep, crashDegraded := fatTreeWorkersRun(t, ft4Plain, 2, "crash@1;crash@1#1;crash@1#2")
	if !crashDegraded {
		t.Fatal("CrashDegraded should be true after an exhausted attempt budget")
	}
	found := false
	for _, o := range outs {
		if len(o.Rungs) > 0 && o.Rungs[0] == sre.RungWorkerCrash {
			found = true
			if o.WorkerCrashes != 3 {
				t.Errorf("quarantined prefix WorkerCrashes = %d, want 3", o.WorkerCrashes)
			}
			if o.Err != nil {
				t.Errorf("quarantined prefix failed: %v", o.Err)
			}
		}
	}
	if !found {
		t.Error("no outcome carries the worker-crash rung")
	}
	// The fallback re-verified with the original options: queries exact.
	if pfecs != basePFECs {
		t.Errorf("NumPFECs = %d, in-process %d", pfecs, basePFECs)
	}
	for i := range sweep {
		// The sweep rows of the quarantined prefix carry its resilience
		// flags; values must still match the baseline.
		if sweep[i].Prefix != baseSweep[i].Prefix || sweep[i].Value != baseSweep[i].Value || (sweep[i].Err == nil) != (baseSweep[i].Err == nil) {
			t.Errorf("sweep row %d diverges: got %+v, want %+v", i, sweep[i], baseSweep[i])
		}
	}
}
