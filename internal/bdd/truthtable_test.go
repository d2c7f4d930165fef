package bdd

import (
	"math"
	"math/bits"
)

// tt is a Boolean function over n variables (6 ≤ n ≤ 14) as its truth
// table: bit a of the bitset is f(a), where bit v of the assignment
// index a is the value of variable v. Every operation is a word loop or
// a walk over all 2ⁿ assignments — no mk, no unique table, no operation
// cache, no variable order — so it shares nothing with Manager that
// could be wrong in both places at once. The kernel tests compare every
// Manager operation to it.
type tt []uint64

func (f tt) n() int            { return bits.TrailingZeros(uint(len(f))) + 6 }
func (f tt) get(a int) bool    { return f[a>>6]>>(a&63)&1 == 1 }
func (f tt) set(a int)         { f[a>>6] |= 1 << (a & 63) }
func (f tt) equal(g tt) bool   { return f.xor(g).count() == 0 }
func (f tt) and(g tt) tt       { return f.zip(g, func(x, y uint64) uint64 { return x & y }) }
func (f tt) or(g tt) tt        { return f.zip(g, func(x, y uint64) uint64 { return x | y }) }
func (f tt) xor(g tt) tt       { return f.zip(g, func(x, y uint64) uint64 { return x ^ y }) }
func (f tt) diff(g tt) tt      { return f.zip(g, func(x, y uint64) uint64 { return x &^ y }) }
func (f tt) not() tt           { return f.zip(f, func(x, _ uint64) uint64 { return ^x }) }
func (f tt) ite(g, h tt) tt    { return f.and(g).or(h.diff(f)) }
func ttConst(n int, v bool) tt { return tt(make([]uint64, 1<<(n-6))).fill(func(int) bool { return v }) }
func ttVar(n, v int) tt {
	return tt(make([]uint64, 1<<(n-6))).fill(func(a int) bool { return a>>v&1 == 1 })
}

// fill sets f(a) = at(a) for every assignment of a zeroed table.
func (f tt) fill(at func(a int) bool) tt {
	for a := 0; a < len(f)*64; a++ {
		if at(a) {
			f.set(a)
		}
	}
	return f
}

func (f tt) zip(g tt, op func(x, y uint64) uint64) tt {
	out := make(tt, len(f))
	for i := range f {
		out[i] = op(f[i], g[i])
	}
	return out
}

// restrict fixes variable v: the result ignores bit v of its argument.
func (f tt) restrict(v int, val bool) tt {
	return make(tt, len(f)).fill(func(a int) bool {
		if val {
			return f.get(a | 1<<v)
		}
		return f.get(a &^ (1 << v))
	})
}

func (f tt) exists(vars []int) tt {
	for _, v := range vars {
		f = f.restrict(v, false).or(f.restrict(v, true))
	}
	return f
}

// count is the number of satisfying assignments.
func (f tt) count() int {
	c := 0
	for _, w := range f {
		c += bits.OnesCount64(w)
	}
	return c
}

// probability sums, over satisfying assignments, the product of the
// per-variable probabilities (pTrue[v] when v is true, else 1-pTrue[v]).
func (f tt) probability(pTrue []float64) float64 {
	n, sum := f.n(), 0.0
	for a := 0; a < len(f)*64; a++ {
		if !f.get(a) {
			continue
		}
		w := 1.0
		for v := 0; v < n; v++ {
			if a>>v&1 == 1 {
				w *= pTrue[v]
			} else {
				w *= 1 - pTrue[v]
			}
		}
		sum += w
	}
	return sum
}

// minFalseVars is the fewest false variables in any assignment where f
// takes value target, or math.MaxInt32 when there is none — what
// ShortestPathToFalse/ShortestPathToTrue compute as dashed-edge paths.
func (f tt) minFalseVars(target bool) int {
	n, best := f.n(), math.MaxInt32
	for a := 0; a < len(f)*64; a++ {
		if zeros := n - bits.OnesCount(uint(a)); f.get(a) == target && zeros < best {
			best = zeros
		}
	}
	return best
}

// support lists the variables some assignment's value depends on.
func (f tt) support() []int {
	out := []int{}
	for v := 0; v < f.n(); v++ {
		if !f.restrict(v, false).equal(f.restrict(v, true)) {
			out = append(out, v)
		}
	}
	return out
}

// ttFrom tabulates a formula given as a Go closure over an assignment
// (what buildRandom returns next to the node it builds).
func ttFrom(n int, eval func([]bool) bool) tt {
	vals := make([]bool, n)
	return make(tt, 1<<(n-6)).fill(func(a int) bool {
		for v := range vals {
			vals[v] = a>>v&1 == 1
		}
		return eval(vals)
	})
}

// ttOf reads node f of m back as a truth table, one Eval per assignment.
func ttOf(m *Manager, f Node) tt {
	return make(tt, 1<<(m.NumVars()-6)).fill(func(a int) bool {
		return m.Eval(f, func(v int) bool { return a>>v&1 == 1 })
	})
}
