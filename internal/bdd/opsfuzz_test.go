package bdd

import "testing"

// FuzzKernelOps decodes bytes into a sequence of kernel operations over
// eight variables — the ones the engine runs: And, Or, Xor, Not, Ite,
// ExistsCube, Diff, Restrict, Ref and Deref — interleaved with forced
// MaybeGC(0) looks and GC() collections. ExistsCube quantifies over one
// of two positive cubes built and Ref'd once, the way symbol.Space
// keeps its header and non-header cubes. Every handle the sequence holds is Ref'd and
// carries its truth table (tt, which shares nothing with the kernel).
// Each result is compared to its table when it is made; after every
// collection each held handle must still denote its table and
// checkInvariants must pass, so a sweep that frees a live node, leaves
// a cache entry naming a recycled slot, or breaks the unique table is
// caught at the collection that did it. The manager starts with a
// 4-set operation cache, so a run crosses several ×4 growth steps at
// its MaybeGC(0) looks, and a growth that loses or misplaces an entry
// is caught there too.
func FuzzKernelOps(f *testing.F) {
	// Opcodes (the byte mod 12), each followed by its operand bytes:
	// 0 And a b, 1 Or a b, 2 Xor a b, 3 Not a, 4 Ite a b c,
	// 5 ExistsCube a c (c even: variables 0–3, odd: 4–7), 6 Diff a b,
	// 7 Restrict a v val, 8 Ref a, 9 Deref a, 10 MaybeGC(0), 11 GC().
	// Handles 0–7 start as the variables.
	f.Add([]byte{0, 0, 1, 9, 8, 11})                      // a conjunction dies and is swept
	f.Add([]byte{0, 0, 1, 8, 8, 9, 8, 11, 0, 0, 1, 11})   // a second Ref keeps it alive
	f.Add([]byte{4, 0, 1, 2, 6, 8, 3, 9, 9, 10})          // Ite, Diff, then a look
	f.Add([]byte{1, 2, 3, 5, 8, 4, 7, 8, 6, 1, 9, 8, 11}) // Or, ExistsCube, Restrict
	f.Add([]byte{2, 0, 1, 2, 8, 2, 2, 9, 9, 9, 8, 9, 8, 10, 2, 0, 1, 11, 3, 8, 11})
	f.Add([]byte{6, 0, 1, 5, 8, 1, 9, 8, 11, 6, 0, 1, 10}) // a Diff projected, dropped, swept and redone
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		m := newSized(Config{Vars: n}, 4, 64)
		type fn struct {
			n Node
			t tt
		}
		cubeVars := [2][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
		cubes := [2]Node{m.Ref(m.CubeVars(cubeVars[0])), m.Ref(m.CubeVars(cubeVars[1]))}
		var held []fn
		for v := 0; v < n; v++ {
			held = append(held, fn{m.Ref(m.Var(v)), ttVar(n, v)})
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pick := func() fn { return held[next()%len(held)] }
		step := 0
		push := func(r Node, want tt) {
			t.Helper()
			if !ttOf(m, r).equal(want) {
				t.Fatalf("step %d: result differs from the truth table", step)
			}
			held = append(held, fn{m.Ref(r), want})
			if len(held) > 64 {
				m.Deref(held[0].n)
				held = held[1:]
			}
		}
		collected := func(what string, safePoint bool) {
			t.Helper()
			if err := m.checkInvariants(safePoint); err != nil {
				t.Fatalf("step %d, after %s: %v", step, what, err)
			}
			for i, h := range held {
				if !ttOf(m, h.n).equal(h.t) {
					t.Fatalf("step %d, after %s: handle %d no longer denotes its function", step, what, i)
				}
			}
		}
		for ; len(data) > 0; step++ {
			switch next() % 12 {
			case 0:
				a, b := pick(), pick()
				push(m.And(a.n, b.n), a.t.and(b.t))
			case 1:
				a, b := pick(), pick()
				push(m.Or(a.n, b.n), a.t.or(b.t))
			case 2:
				a, b := pick(), pick()
				push(m.Xor(a.n, b.n), a.t.xor(b.t))
			case 3:
				a := pick()
				push(m.Not(a.n), a.t.not())
			case 4:
				a, b, c := pick(), pick(), pick()
				push(m.Ite(a.n, b.n, c.n), a.t.ite(b.t, c.t))
			case 5:
				a, c := pick(), next()%2
				push(m.ExistsCube(a.n, cubes[c]), a.t.exists(cubeVars[c]))
			case 6:
				a, b := pick(), pick()
				push(m.Diff(a.n, b.n), a.t.diff(b.t))
			case 7:
				a, v, val := pick(), next()%n, next()%2 == 1
				push(m.Restrict(a.n, v, val), a.t.restrict(v, val))
			case 8:
				// A second handle on the same node: dropping either one must
				// leave the node alive for the other.
				a := pick()
				push(a.n, a.t)
			case 9:
				if i := next() % len(held); len(held) > 1 {
					m.Deref(held[i].n)
					held = append(held[:i], held[i+1:]...)
				}
			case 10:
				m.gcAt = 0 // look now; the policy decides whether to sweep
				m.MaybeGC(0)
				collected("MaybeGC(0)", true)
			case 11:
				m.GC()
				collected("GC()", false)
			}
		}
		collected("the last step", false)
	})
}
