package bdd

import (
	"math/rand"
	"testing"
)

// TestGCStress interleaves BDD construction, referencing, collection,
// and slot reuse while continuously validating the semantics of a set
// of protected functions against reference evaluators. It exercises the
// free-list and unique-table interplay that a long symbolic route
// computation produces.
func TestGCStress(t *testing.T) {
	const vars = 24
	m := newSized(Config{Vars: vars}, cacheStart, 64)
	r := rand.New(rand.NewSource(99))

	type protected struct {
		n    Node
		eval func([]bool) bool
	}
	var kept []protected
	checkAll := func(tag string) {
		for bits := 0; bits < 64; bits++ {
			a := make([]bool, vars)
			for i := range a {
				a[i] = r.Intn(2) == 0
			}
			for pi, p := range kept {
				got := m.Eval(p.n, func(v int) bool { return a[v] })
				if got != p.eval(a) {
					t.Fatalf("%s: protected function %d corrupted", tag, pi)
				}
			}
		}
	}

	for round := 0; round < 60; round++ {
		// Grow: build random functions, keep some.
		for i := 0; i < 20; i++ {
			n, eval := buildRandom(m, r, 5)
			if r.Intn(3) == 0 && len(kept) < 40 {
				m.Ref(n)
				kept = append(kept, protected{n, eval})
			}
		}
		// Shrink: drop a few protected functions.
		for len(kept) > 25 {
			idx := r.Intn(len(kept))
			m.Deref(kept[idx].n)
			kept = append(kept[:idx], kept[idx+1:]...)
		}
		if round%5 == 0 {
			m.GC()
			checkAll("after GC")
		}
		// Combine protected functions pairwise (creates nodes that may
		// reuse freed slots).
		if len(kept) >= 2 {
			a, b := kept[r.Intn(len(kept))], kept[r.Intn(len(kept))]
			n := m.Ref(m.And(a.n, b.n))
			ae, be := a.eval, b.eval
			kept = append(kept, protected{n, func(x []bool) bool { return ae(x) && be(x) }})
		}
	}
	checkAll("final")
	// Everything still canonical: x & !x == False after heavy churn.
	for v := 0; v < vars; v++ {
		if m.And(m.Var(v), m.NVar(v)) != False {
			t.Fatalf("canonicity broken for var %d", v)
		}
	}
}

// TestGCReusePreservesUniqueness forces collection and slot reuse, then
// verifies the unique table still hash-conses equal structures.
func TestGCReusePreservesUniqueness(t *testing.T) {
	m := newSized(Config{Vars: 16}, cacheStart, 32)
	r := rand.New(rand.NewSource(5))
	keep := m.Ref(m.AndN(m.Var(0), m.Var(1), m.Var(2)))
	for i := 0; i < 2000; i++ {
		buildRandom(m, r, 6)
		if i%100 == 99 {
			m.GC()
			again := m.AndN(m.Var(0), m.Var(1), m.Var(2))
			if again != keep {
				t.Fatalf("iteration %d: canonical node changed after GC", i)
			}
		}
	}
}

// TestGCStatisticsLiveNodes pins the Stats accounting: LiveNodes counts
// allocated slots minus the free list, so a collection reduces
// LiveNodes (freed slots move to the free list) while PeakNodes — the
// high-water mark Figure 11 reports — is unaffected.
func TestGCStatisticsLiveNodes(t *testing.T) {
	m := newSized(Config{Vars: 16}, cacheStart, 32)
	var roots []Node
	for v := 0; v < 15; v++ {
		roots = append(roots, m.Ref(m.And(m.Var(v), m.Var(v+1))))
	}
	before := m.Statistics()
	if before.FreeNodes != 0 {
		t.Fatalf("free list before GC = %d, want 0", before.FreeNodes)
	}
	if before.LiveNodes != m.Size() {
		t.Fatalf("LiveNodes %d != Size %d with an empty free list", before.LiveNodes, m.Size())
	}
	for _, n := range roots {
		m.Deref(n)
	}
	freed := m.GC()
	if freed == 0 {
		t.Fatal("expected the dereferenced conjunctions to be collected")
	}
	after := m.Statistics()
	if after.LiveNodes >= before.LiveNodes {
		t.Errorf("GC must reduce LiveNodes: %d -> %d", before.LiveNodes, after.LiveNodes)
	}
	if after.LiveNodes != before.LiveNodes-freed {
		t.Errorf("LiveNodes %d, want %d (before %d - freed %d): free-listed slots still counted",
			after.LiveNodes, before.LiveNodes-freed, before.LiveNodes, freed)
	}
	if after.FreeNodes != freed {
		t.Errorf("FreeNodes = %d, want %d", after.FreeNodes, freed)
	}
	if after.PeakNodes != before.PeakNodes {
		t.Errorf("GC must not change PeakNodes: %d -> %d", before.PeakNodes, after.PeakNodes)
	}
	if after.LiveNodes > after.PeakNodes {
		t.Errorf("LiveNodes %d exceeds PeakNodes %d", after.LiveNodes, after.PeakNodes)
	}
	// The invariant survives slot reuse and rehashing.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		buildRandom(m, r, 5)
	}
	s := m.Statistics()
	if s.LiveNodes != m.Size() && s.LiveNodes != len(m.lvl)-m.freeCnt {
		t.Errorf("LiveNodes %d inconsistent with table extent %d - free %d",
			s.LiveNodes, len(m.lvl), m.freeCnt)
	}
}

// TestMaybeGCThreshold verifies MaybeGC runs only above the threshold.
func TestMaybeGCThreshold(t *testing.T) {
	m := New(Config{Vars: 8})
	if m.MaybeGC(1<<30) != 0 {
		t.Error("below threshold: no collection expected")
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		buildRandom(m, r, 5)
	}
	if m.MaybeGC(4) == 0 {
		t.Error("above threshold: collection expected")
	}
	off := New(Config{Vars: 8, DisableGC: true})
	for i := 0; i < 200; i++ {
		buildRandom(off, r, 5)
	}
	if off.MaybeGC(4) != 0 {
		t.Error("DisableGC must suppress MaybeGC")
	}
}
