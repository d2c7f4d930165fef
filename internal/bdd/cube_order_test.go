package bdd

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortedVarOrderWideShuffled pins CubeVars's sort on wide varsets
// (thousands of variables) in shuffled order, with duplicates: the cube
// must equal the one built from the sorted, duplicate-free list, and the
// caller's slice must be left as it was.
func TestSortedVarOrderWideShuffled(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const width = 2000
	m := New(Config{Vars: width})

	sorted := make([]int, width)
	for i := range sorted {
		sorted[i] = i
	}
	vars := append(slices.Clone(sorted), width/2, width/4)
	r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	shuffled := slices.Clone(vars)
	if m.CubeVars(vars) != m.CubeVars(sorted) {
		t.Fatal("CubeVars order-dependent")
	}
	if !slices.Equal(vars, shuffled) {
		t.Fatal("CubeVars reordered its argument")
	}
}
