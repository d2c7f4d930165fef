package symbol

import (
	"testing"

	"sre/internal/bdd"
	"sre/internal/route"
	"sre/internal/topology"
)

func TestVariableLayout(t *testing.T) {
	s := NewSpace(5, bdd.Config{}, 3, nil)
	if s.M.NumVars() != HeaderBits+5+3 {
		t.Fatalf("vars = %d", s.M.NumVars())
	}
	if s.LinkVarIndex(0) != HeaderBits || s.LinkVarIndex(4) != HeaderBits+4 {
		t.Fatal("link variable layout")
	}
	if s.NodeVarIndex(0) != HeaderBits+5 {
		t.Fatal("node variable layout")
	}
	if got := s.LinkVars(); len(got) != 5 || got[0] != HeaderBits {
		t.Fatalf("LinkVars = %v", got)
	}
}

func TestPrefixEncoding(t *testing.T) {
	s := NewSpace(2, bdd.Config{}, 0, nil)
	p := s.Prefix(route.MustParsePrefix("128.0.0.0/1"))
	// Matches addresses with the top bit set.
	if !s.M.Eval(p, func(v int) bool { return v == 0 }) {
		t.Error("128/1 should match top-bit-set")
	}
	if s.M.Eval(p, func(v int) bool { return false }) {
		t.Error("128/1 should not match 0.0.0.0")
	}
	// Default route matches everything.
	if s.Prefix(route.MustParsePrefix("0.0.0.0/0")) != bdd.True {
		t.Error("0/0 should be True")
	}
	// Caching returns the identical node.
	if s.Prefix(route.MustParsePrefix("128.0.0.0/1")) != p {
		t.Error("prefix cache broken")
	}
	// Nested prefixes: /2 implies /1.
	q := s.Prefix(route.MustParsePrefix("192.0.0.0/2"))
	if s.M.And(q, p) != q {
		t.Error("192/2 ⊆ 128/1")
	}
}

// TestHostPrefixMatchesOneAddress checks that a /32 prefix cube
// matches exactly its own destination address.
func TestHostPrefixMatchesOneAddress(t *testing.T) {
	s := NewSpace(1, bdd.Config{}, 0, nil)
	const addr = 0xC0A80101 // 192.168.1.1
	c := s.Prefix(route.Prefix{Addr: addr, Len: 32})
	if !s.M.Eval(c, func(v int) bool { return addr&(1<<(31-v)) != 0 }) {
		t.Fatal("cube does not match its own address")
	}
	if got := s.M.SatCount(c, HeaderBits); got != 1 {
		t.Fatalf("host prefix cube should have exactly 1 assignment, got %v", got)
	}
}

func TestAtMostKLinkFailures(t *testing.T) {
	s := NewSpace(4, bdd.Config{}, 0, nil)
	f := s.AtMostKLinkFailures(1)
	// All up: ok. One down: ok. Two down: no.
	eval := func(down ...int) bool {
		return s.M.Eval(f, func(v int) bool {
			for _, d := range down {
				if v == s.LinkVarIndex(topology.LinkID(d)) {
					return false
				}
			}
			return true
		})
	}
	if !eval() || !eval(2) {
		t.Error("≤1 failures should satisfy")
	}
	if eval(1, 3) {
		t.Error("2 failures should violate k=1")
	}
	if s.AllLinksUp() != s.AtMostKLinkFailures(0) {
		t.Error("AllLinksUp should equal lf^0")
	}
}

func TestTopoAndHeaderProjection(t *testing.T) {
	s := NewSpace(3, bdd.Config{}, 0, nil)
	hdr := s.Prefix(route.MustParsePrefix("10.0.0.0/8"))
	link := s.M.Var(s.LinkVarIndex(1))
	f := s.M.And(hdr, link)
	if got := s.TopoOnly(f); got != link {
		t.Errorf("TopoOnly = node %d", got)
	}
	if got := s.HeaderOnly(f); got != hdr {
		t.Errorf("HeaderOnly = node %d", got)
	}
}

func TestLinkProbabilities(t *testing.T) {
	s := NewSpace(3, bdd.Config{}, 2, nil)
	p := s.LinkProbabilities(0.01)
	if len(p) != s.M.NumVars() {
		t.Fatal("length")
	}
	for i := 0; i < HeaderBits; i++ {
		if p[i] != 1 {
			t.Fatal("header vars must be deterministic")
		}
	}
	for _, v := range s.LinkVars() {
		if p[v] != 0.99 {
			t.Fatal("link prob")
		}
	}
	if p[s.NodeVarIndex(0)] != 1 {
		t.Fatal("node vars default to up")
	}
}

func TestPermutedVariableLayout(t *testing.T) {
	// perm[l] is the level offset of link l: link 0 → deepest slot.
	perm := []int{3, 1, 0, 2}
	s := NewSpace(4, bdd.Config{}, 2, perm)
	if s.M.NumVars() != HeaderBits+4+2 {
		t.Fatalf("vars = %d", s.M.NumVars())
	}
	for l, want := range perm {
		if got := s.LinkVarIndex(topology.LinkID(l)); got != HeaderBits+want {
			t.Errorf("LinkVarIndex(%d) = %d, want %d", l, got, HeaderBits+want)
		}
	}
	// LinkOfVar is the exact inverse over the link band and rejects
	// everything outside it.
	for l := 0; l < 4; l++ {
		got, ok := s.LinkOfVar(s.LinkVarIndex(topology.LinkID(l)))
		if !ok || got != topology.LinkID(l) {
			t.Errorf("LinkOfVar round-trip broke for link %d: %d, %t", l, got, ok)
		}
	}
	for _, v := range []int{0, HeaderBits - 1, HeaderBits + 4, HeaderBits + 5} {
		if _, ok := s.LinkOfVar(v); ok {
			t.Errorf("LinkOfVar(%d) accepted a non-link variable", v)
		}
	}
	// Node variables sit above the link band, unaffected by the perm.
	if s.NodeVarIndex(0) != HeaderBits+4 {
		t.Fatal("node variable layout under permutation")
	}
}

func TestPermutationSemanticInvariance(t *testing.T) {
	// Set-level constructs must be identical under any permutation of
	// the link band: the variable SET is unchanged, only names move.
	id := NewSpace(4, bdd.Config{}, 0, nil)
	pm := NewSpace(4, bdd.Config{}, 0, []int{2, 0, 3, 1})
	for k := 0; k <= 2; k++ {
		a := id.M.SatCount(id.AtMostKLinkFailures(k), id.M.NumVars())
		b := pm.M.SatCount(pm.AtMostKLinkFailures(k), pm.M.NumVars())
		if a != b {
			t.Errorf("AtMostK(%d) model count differs: %v vs %v", k, a, b)
		}
	}
	// A single link literal relocates but keeps its meaning: evaluating
	// "link 2 up" under a scenario gives the same answer in both spaces.
	down := map[topology.LinkID]bool{2: true}
	for _, s := range []*Space{id, pm} {
		f := s.M.Var(s.LinkVarIndex(2))
		got := s.M.Eval(f, func(v int) bool {
			l, isLink := s.LinkOfVar(v)
			return !(isLink && down[l])
		})
		if got {
			t.Error("link-2-up literal should be false when link 2 is down")
		}
	}
}

func TestNewSpaceRejectsBadPerm(t *testing.T) {
	for name, perm := range map[string][]int{
		"short":     {0, 1},
		"dup":       {0, 0, 1},
		"out-range": {0, 1, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSpace accepted invalid perm %v", name, perm)
				}
			}()
			NewSpace(3, bdd.Config{}, 0, perm)
		}()
	}
}
