package sre

import "sre/internal/bdd"

// TwoPrefixFatTree is twoPrefixFatTree for the package's external tests.
var TwoPrefixFatTree = twoPrefixFatTree

// KernelWork sums the BDD work counters of every pipeline v holds: the
// operation-cache hits and misses, the unique-table hits, the peak node
// counts and the collections.
func KernelWork(v *Verifier) bdd.Stats {
	var sum bdd.Stats
	for _, pipe := range v.part.Groups {
		st := pipe.Sp.M.Statistics()
		sum.CacheHits += st.CacheHits
		sum.CacheMiss += st.CacheMiss
		sum.UniqueHits += st.UniqueHits
		sum.PeakNodes += st.PeakNodes
		sum.GCRuns += st.GCRuns
	}
	return sum
}
