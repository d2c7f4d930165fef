package sre_test

import (
	"runtime"
	"testing"

	"sre"
	"sre/internal/workload"
)

// verifierAllocBudget caps the bytes NewVerifier allocates on Campus(40)
// k=2: 36.3 MB measured, plus 10 %. The node table and the memo tables
// grow by doubling, and SRC copies a route only when an advertisement
// set or a RIB keeps a new identity; growing the table by append and
// cloning every candidate and import read 45.7 MB.
const verifierAllocBudget = 40_000_000

func TestVerifierAllocBudget(t *testing.T) {
	net := workload.Campus(workload.CampusOptions{VLANs: 40, Snapshot: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 2, Parallelism: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if got := after.TotalAlloc - before.TotalAlloc; got > verifierAllocBudget {
		t.Errorf("NewVerifier allocated %d bytes on Campus(40) k=2, budget %d", got, verifierAllocBudget)
	}
}
