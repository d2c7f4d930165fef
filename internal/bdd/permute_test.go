package bdd

import (
	"errors"
	"math/rand"
	"testing"

	"sre/internal/resil"
)

// permuteReference is f renamed the slow way, one Compose per variable:
// each cycle of to goes through spare (a variable to fixes and f does
// not mention), then each negated variable's image is substituted by
// its complement. It shares only Compose with Permute.
func permuteReference(m *Manager, f Node, to []int, neg []bool, spare int) Node {
	done := make([]bool, len(to))
	for v := range to {
		if done[v] || to[v] == v {
			continue
		}
		// The variable that moves to v's image is v, and so on around the
		// cycle: x_to[c] takes the place of x_c for each c on it.
		cycle := []int{v}
		for c := to[v]; c != v; c = to[c] {
			cycle = append(cycle, c)
		}
		for _, c := range cycle {
			done[c] = true
		}
		// x_c := x_to[c], last first, through the spare variable.
		last := cycle[len(cycle)-1]
		f = m.Compose(f, last, m.Var(spare))
		for i := len(cycle) - 2; i >= 0; i-- {
			f = m.Compose(f, cycle[i], m.Var(cycle[i+1]))
		}
		f = m.Compose(f, spare, m.Var(cycle[0]))
	}
	for v, flip := range neg {
		if flip {
			f = m.Compose(f, to[v], m.NVar(to[v]))
		}
	}
	return f
}

// ttPermuted is f's table read through the map: Permute(f)(a) = f(b)
// with b[v] = a[to[v]] ⊕ neg[v].
func ttPermuted(f tt, to []int, neg []bool) tt {
	return make(tt, len(f)).fill(func(a int) bool {
		b := 0
		for v, t := range to {
			bit := a>>t&1 == 1
			if neg != nil && neg[v] {
				bit = !bit
			}
			if bit {
				b |= 1 << v
			}
		}
		return f.get(b)
	})
}

// randomMap is a random permutation of the first n variables of a
// manager with vars variables (the rest fixed) and a random negation
// mask over them.
func randomMap(r *rand.Rand, n, vars int) ([]int, []bool) {
	to := make([]int, vars)
	for v := range to {
		to[v] = v
	}
	copy(to, r.Perm(n))
	neg := make([]bool, vars)
	for v := 0; v < n; v++ {
		neg[v] = r.Intn(3) == 0
	}
	return to, neg
}

// blockSwap swaps variables [0, n/2) with [n/2, n) and negates a random
// subset of them. On a function of the lower block alone it keeps the
// level order, so Permute builds every node with mk.
func blockSwap(r *rand.Rand, n, vars int) ([]int, []bool) {
	to := make([]int, vars)
	neg := make([]bool, vars)
	for v := range to {
		to[v] = v
	}
	for v := 0; v < n/2; v++ {
		to[v], to[v+n/2] = v+n/2, v
		neg[v] = r.Intn(2) == 0
	}
	return to, neg
}

// TestPermuteMatchesReference renames random diagrams of the
// truth-table harness through random permutations with negation masks,
// which break the level order, and through block swaps of a function
// of one block, which keep it: the result must be the composition
// reference's node and denote the table read through the map. All
// roots of one trial go through one Permute call, sharing its memo.
func TestPermuteMatchesReference(t *testing.T) {
	const n = 10 // permuted variables; variable n is the spare
	m := newTest(n + 2)
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 60; trial++ {
		var to []int
		var neg []bool
		var roots []Node
		var tables []tt
		if trial%2 == 0 {
			to, neg = randomMap(r, n, n+2)
		} else {
			to, neg = blockSwap(r, n, n+2)
		}
		for i := 0; i < 4; i++ {
			f, _ := buildRandom(m, r, 5)
			// The spare stays out of the roots, and a block swap's roots
			// are functions of the lower block.
			quantified := []int{n}
			if trial%2 == 1 {
				quantified = []int{5, 6, 7, 8, 9, 10, 11}
			}
			f = m.ExistsCube(f, m.CubeVars(quantified))
			roots = append(roots, m.Ref(f))
			tables = append(tables, ttOf(m, f))
		}
		got := m.Permute(roots, to, neg)
		for i, f := range roots {
			if want := permuteReference(m, f, to, neg, n); got[i] != want {
				t.Fatalf("trial %d root %d: Permute differs from the composition reference", trial, i)
			}
			if !ttOf(m, got[i]).equal(ttPermuted(tables[i], to, neg)) {
				t.Fatalf("trial %d root %d: Permute differs from the table read through the map", trial, i)
			}
			m.Deref(f)
		}
	}
}

// TestPermuteKeepsOrderWithMk checks that an order-keeping map builds
// the renamed diagram with mk alone: it touches no operation-cache
// entry, and a block swap of a function of one block has exactly as
// many nodes as the function.
func TestPermuteKeepsOrderWithMk(t *testing.T) {
	const n = 12
	m := newTest(n)
	r := rand.New(rand.NewSource(7))
	to, neg := blockSwap(r, n, n)
	for trial := 0; trial < 20; trial++ {
		f, _ := buildRandom(m, r, 6)
		f = m.ExistsCube(f, m.CubeVars([]int{6, 7, 8, 9, 10, 11}))
		before := m.Statistics()
		g := m.Permute([]Node{f}, to, neg)[0]
		after := m.Statistics()
		if after.CacheHits+after.CacheMiss != before.CacheHits+before.CacheMiss {
			t.Fatalf("trial %d: an order-keeping map used the operation cache", trial)
		}
		if m.NodeCount(g) != m.NodeCount(f) {
			t.Fatalf("trial %d: %d nodes renamed into %d", trial, m.NodeCount(f), m.NodeCount(g))
		}
	}
}

// interleaved is x0∧x1 ∨ x2∧x3 ∨ … over 2k variables, a chain of 2k
// nodes, and the map that pairs variable i with i+k instead: the
// renamed x0∧xk ∨ x1∧xk+1 ∨ … needs about 2^k nodes in this order.
func interleaved(m *Manager, k int) (Node, []int) {
	f := False
	to := make([]int, m.NumVars())
	for v := range to {
		to[v] = v
	}
	for i := 0; i < k; i++ {
		f = m.Or(f, m.And(m.Var(2*i), m.Var(2*i+1)))
		to[2*i], to[2*i+1] = i, i+k
	}
	return f, to
}

// TestPermuteRespectsLimits: a rename that needs more nodes than the
// limit allows throws ErrNodeLimit, and one under an interrupt hook that
// trips unwinds with the hook's error, like any other operation.
func TestPermuteRespectsLimits(t *testing.T) {
	const k = 12
	m := New(Config{Vars: 2 * k, NodeLimit: 1000, DisableGC: true})
	f, to := interleaved(m, k)
	err := func() (err error) {
		defer resil.Catch("bdd", &err)
		m.Permute([]Node{f}, to, nil)
		return nil
	}()
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("got %v, want ErrNodeLimit", err)
	}

	sentinel := errors.New("stop now")
	polls := 0
	m = New(Config{Vars: 2 * k, Interrupt: func() error {
		if polls++; polls > 1 {
			return sentinel
		}
		return nil
	}})
	f, to = interleaved(m, k)
	err = func() (err error) {
		defer resil.Catch("bdd", &err)
		m.Permute([]Node{f}, to, nil)
		return nil
	}()
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the interrupt sentinel", err)
	}
}

func TestPermuteRejectsBadMaps(t *testing.T) {
	m := newTest(4)
	for name, call := range map[string]func(){
		"short map":    func() { m.Permute([]Node{m.Var(0)}, []int{0, 1, 2}, nil) },
		"short mask":   func() { m.Permute([]Node{m.Var(0)}, []int{0, 1, 2, 3}, []bool{true}) },
		"out of range": func() { m.Permute([]Node{m.Var(0)}, []int{0, 1, 2, 4}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzPermute decodes bytes into a diagram over eight variables (a
// sequence of And/Or/Xor/Not steps over the variables), a permutation
// of the variables and a negation mask. Permute must match the
// composition reference and the table read through the map, and the
// inverse map must carry the result back to the diagram itself.
func FuzzPermute(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3, 4, 5, 6, 7, 0, 0, 1, 1, 2, 3})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 0xa5, 2, 0, 7, 0, 1, 6, 3, 2})
	f.Add([]byte{4, 5, 6, 7, 0, 1, 2, 3, 0x0f, 1, 0, 4, 1, 1, 5, 2, 2, 6, 0, 3, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8 // variable n is the reference's spare
		if len(data) < n+1 {
			return
		}
		m := newSized(Config{Vars: n + 1}, 4, 64)
		// The permutation: a stable sort of the variables by their byte.
		to := make([]int, n+1)
		for v := range to {
			to[v] = v
		}
		keys := data[:n]
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keys[to[j]] < keys[to[j-1]]; j-- {
				to[j], to[j-1] = to[j-1], to[j]
			}
		}
		neg := make([]bool, n+1)
		for v := 0; v < n; v++ {
			neg[v] = data[n]>>v&1 == 1
		}
		data = data[n+1:]
		g, gt := m.Var(0), ttVar(n+1, 0)
		for len(data) >= 2 {
			v := int(data[1]) % n
			x, xt := m.Var(v), ttVar(n+1, v)
			switch data[0] % 4 {
			case 0:
				g, gt = m.And(g, x), gt.and(xt)
			case 1:
				g, gt = m.Or(g, x), gt.or(xt)
			case 2:
				g, gt = m.Xor(g, x), gt.xor(xt)
			case 3:
				g, gt = m.Not(g), gt.not()
			}
			data = data[2:]
		}
		m.Ref(g)
		p := m.Permute([]Node{g}, to, neg)[0]
		if p != permuteReference(m, g, to, neg, n) {
			t.Fatal("Permute differs from the composition reference")
		}
		if !ttOf(m, p).equal(ttPermuted(gt, to, neg)) {
			t.Fatal("Permute differs from the table read through the map")
		}
		inv := make([]int, n+1)
		invNeg := make([]bool, n+1)
		for v, w := range to {
			inv[w] = v
			invNeg[w] = neg[v]
		}
		if back := m.Permute([]Node{p}, inv, invNeg)[0]; back != g {
			t.Fatal("the inverse map does not carry the result back")
		}
	})
}
