package sre_test

import (
	"reflect"
	"testing"

	"sre"
	"sre/internal/analysis"
	"sre/internal/src"
	"sre/internal/workload"
)

// TestVerifyLeavesNetworkUntouched pins that a parsed Network is
// read-only to a run. The network's text is what cache keys hash and
// what the fleet's init frame ships, and concurrent per-prefix engines
// share the one *Network — so a run that writes to it (as reading an
// unconfigured interface's OSPF cost once did) breaks the store, the
// fleet and the race detector at once. The store pass is there because
// CacheKey clones and slices the network.
func TestVerifyLeavesNetworkUntouched(t *testing.T) {
	ospf, err := sre.ParseNetwork(ospfTriangle)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		net  *sre.Network
	}{{"ospf-no-interfaces", ospf}, {"fattree4", workload.FatTree(4, workload.BGP)}} {
		t.Run(in.name, func(t *testing.T) {
			// The text, then every prefix's cache key.
			snapshot := func() []string {
				out := []string{sre.FormatNetwork(in.net)}
				for _, pfx := range in.net.AllPrefixes() {
					out = append(out, analysis.CacheKey(in.net, src.Options{PruneK: 2}, pfx, true, analysis.LadderOptions{}))
				}
				return out
			}
			before := snapshot()
			for _, withStore := range []bool{false, true} {
				opts := sre.Options{MaxFailures: 2, Parallelism: 8}
				if withStore {
					st, err := sre.OpenStore(t.TempDir(), sre.StoreOptions{})
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					opts.Store = st
				}
				v, err := sre.NewVerifier(in.net, opts)
				if err != nil {
					t.Fatal(err)
				}
				v.Release()
				if after := snapshot(); !reflect.DeepEqual(after, before) {
					t.Fatalf("NewVerifier (store=%v) changed the network:\n text before:\n%s\n text after:\n%s\n keys before %v\n keys after  %v",
						withStore, before[0], after[0], before[1:], after[1:])
				}
			}
		})
	}
}
