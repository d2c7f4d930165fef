package bdd

import (
	"math"
	"slices"
)

// Graph algorithms over BDDs. These implement the paper's §3.3 and §6
// reductions: failure tolerance is a shortest dashed-edge path to the
// False terminal (Theorem 1), and the probability of a property is a
// weighted sum over all paths to the True terminal (Theorem 2).

// ShortestPathToFalse returns the minimum number of dashed (low) edges on
// any root-to-False path of f. Variables skipped between levels cost
// nothing (they may keep their "up"/true assignment). If f has no path to
// False (f == True), it returns math.MaxInt32.
//
// With link variables meaning "link up", this is the minimum number of
// simultaneously failed links that falsifies f; per Theorem 1 the link
// failure tolerance of a property with topology BDD f is this value
// minus one.
func (m *Manager) ShortestPathToFalse(f Node) int {
	m.i32memo.begin(len(m.lvl))
	return int(m.shortestPathRec(f, False))
}

// ShortestPathToTrue returns the minimum number of dashed (low) edges on
// any root-to-True path of f, or math.MaxInt32 when f == False. It
// equals ShortestPathToFalse(Not(f)) without materializing the
// complement BDD: with link variables meaning "link up", it is the
// fewest failed links in any satisfying scenario of f.
func (m *Manager) ShortestPathToTrue(f Node) int {
	m.i32memo.begin(len(m.lvl))
	return int(m.shortestPathRec(f, True))
}

// shortestPathRec computes the min dashed-edge distance from n to the
// target terminal; the caller owns the current i32memo generation.
func (m *Manager) shortestPathRec(n, target Node) int32 {
	if n <= True {
		if n == target {
			return 0
		}
		return math.MaxInt32
	}
	if d, ok := m.i32memo.get(n); ok {
		return d
	}
	d := m.shortestPathRec(Node(m.hi[n]), target) // solid edge: cost 0
	if dl := m.shortestPathRec(Node(m.lo[n]), target); dl != math.MaxInt32 && dl+1 < d {
		d = dl + 1
	}
	m.i32memo.put(n, d)
	return d
}

// MinFalseWitness returns an assignment falsifying f with the minimum
// number of false variables, as the list of variables assigned false
// (all other variables are true). The second result is false when f is
// the True terminal (no falsifying assignment exists).
func (m *Manager) MinFalseWitness(f Node) ([]int, bool) {
	if f == True {
		return nil, false
	}
	m.witMemo.begin(len(m.lvl))
	m.minWitnessRec(f)
	var downVars []int
	for n := f; n > True; {
		st, _ := m.witMemo.get(n)
		if st.down {
			downVars = append(downVars, int(m.lvl[n]))
		}
		n = st.via
	}
	return downVars, true
}

func (m *Manager) minWitnessRec(n Node) int32 {
	switch n {
	case False:
		return 0
	case True:
		return math.MaxInt32
	}
	if st, ok := m.witMemo.get(n); ok {
		return st.dist
	}
	hiN, loN := Node(m.hi[n]), Node(m.lo[n])
	dh, dl := m.minWitnessRec(hiN), m.minWitnessRec(loN)
	st := witStep{dist: dh, via: hiN}
	if dl != math.MaxInt32 && dl+1 < dh {
		st = witStep{dist: dl + 1, via: loN, down: true}
	}
	m.witMemo.put(n, st)
	return st.dist
}

// Probability returns the probability that f evaluates to true when each
// variable v is independently true with probability pTrue[v]. Terminals
// contribute 1 (True) and 0 (False); a decision node's weight is the
// probability-weighted sum of its children; skipped variables need no
// correction because their two branch probabilities sum to one.
func (m *Manager) Probability(f Node, pTrue []float64) float64 {
	if len(pTrue) < m.vars {
		panic("bdd: Probability needs a probability per variable")
	}
	m.f64memo.begin(len(m.lvl))
	m.probP = pTrue
	w := m.probabilityRec(f)
	m.probP = nil
	return w
}

func (m *Manager) probabilityRec(n Node) float64 {
	switch n {
	case False:
		return 0
	case True:
		return 1
	}
	if w, ok := m.f64memo.get(n); ok {
		return w
	}
	p := m.probP[m.lvl[n]]
	w := p*m.probabilityRec(Node(m.hi[n])) + (1-p)*m.probabilityRec(Node(m.lo[n]))
	m.f64memo.put(n, w)
	return w
}

// SatCount returns the number of satisfying assignments of f over the
// variables [0, nvars). It is exact up to float64 precision.
func (m *Manager) SatCount(f Node, nvars int) float64 {
	m.f64memo.begin(len(m.lvl))
	return m.satCountRec(f) * math.Pow(2, float64(nvars))
}

// satCountRec returns the satisfying fraction of n; the caller owns the
// current f64memo generation.
func (m *Manager) satCountRec(n Node) float64 {
	switch n {
	case False:
		return 0
	case True:
		return 1
	}
	if w, ok := m.f64memo.get(n); ok {
		return w
	}
	w := 0.5*m.satCountRec(Node(m.hi[n])) + 0.5*m.satCountRec(Node(m.lo[n]))
	m.f64memo.put(n, w)
	return w
}

// AnySat returns one satisfying assignment of f as a map from variable to
// value; variables absent from the map are unconstrained. The second
// result is false when f is unsatisfiable.
func (m *Manager) AnySat(f Node) (map[int]bool, bool) {
	if f == False {
		return nil, false
	}
	out := make(map[int]bool)
	for f > True {
		v := int(m.lvl[f])
		if Node(m.hi[f]) != False {
			out[v] = true
			f = Node(m.hi[f])
		} else {
			out[v] = false
			f = Node(m.lo[f])
		}
	}
	return out, true
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Node, assignment func(v int) bool) bool {
	for f > True {
		if assignment(int(m.lvl[f])) {
			f = Node(m.hi[f])
		} else {
			f = Node(m.lo[f])
		}
	}
	return f == True
}

// AtMostKFalse returns the BDD that is true iff at most k of the given
// variables are false (the paper's filtering BDD lf^k of §7.1, encoding
// "at most k link failures"). Variables must be distinct; order does not
// matter. The diagram has O(len(vars)·k) nodes.
func (m *Manager) AtMostKFalse(vars []int, k int) Node {
	if k < 0 {
		return False
	}
	if k >= len(vars) {
		return True
	}
	// The rows build bottom-up, so construction follows the variable order.
	sorted := append([]int(nil), vars...)
	slices.Sort(sorted)
	// Build bottom-up over levels, for each budget 0..k.
	// f(i, j) = true iff among vars[i:], at most j are false.
	rows := make([]Node, k+1) // rows[j] = f(i, j), starts at i = len(vars)
	for j := range rows {
		rows[j] = True
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		next := make([]Node, k+1)
		for j := 0; j <= k; j++ {
			lo := False
			if j > 0 {
				lo = rows[j-1]
			}
			next[j] = m.mk(int32(sorted[i]), lo, rows[j])
		}
		rows = next
	}
	return rows[k]
}

// Decomposition is one (packet cube, topology sub-BDD) pair produced by
// SplitAtLevel: Assignment fixes the variables above the split level on
// one root-to-subgraph path, and Sub is the BDD hanging below.
type Decomposition struct {
	// Assignment of the upper variables along this path (variables not
	// present are unconstrained).
	Assignment map[int]bool
	// Sub is the sub-BDD over variables at or below the split level.
	Sub Node
}

// SplitAtLevel decomposes f into assignments of the variables with level
// < split and the distinct sub-BDDs they lead to. It implements the
// Extract function of Algorithm 2: with header variables ordered above
// link variables, splitting a property BDD at the first link level yields
// (packet, topology-BDD) pairs whose disjunction of (cube ∧ sub) equals f.
// Paths reaching the False terminal above the split are omitted; a path
// reaching True is reported with Sub == True.
//
// Cubes leading to the same sub-BDD are merged by the caller if desired
// (see GroupBySub).
func (m *Manager) SplitAtLevel(f Node, split int) []Decomposition {
	var out []Decomposition
	assign := make(map[int]bool)
	var rec func(Node)
	rec = func(n Node) {
		if n == False {
			return
		}
		if n == True || int(m.lvl[n]) >= split {
			cp := make(map[int]bool, len(assign))
			for k, v := range assign {
				cp[k] = v
			}
			out = append(out, Decomposition{Assignment: cp, Sub: n})
			return
		}
		v := int(m.lvl[n])
		assign[v] = false
		rec(Node(m.lo[n]))
		assign[v] = true
		rec(Node(m.hi[n]))
		delete(assign, v)
	}
	rec(f)
	return out
}

// GroupBySub merges decompositions that share the same sub-BDD, OR-ing
// their upper cubes into a single BDD per sub. The result maps each
// distinct sub-BDD to the set of upper assignments (as a BDD) leading to
// it. This turns SplitAtLevel output into the paper's (pkt_i, topo_i)
// tuples where pkt_i is a full packet-set BDD.
func (m *Manager) GroupBySub(decs []Decomposition) map[Node]Node {
	groups := make(map[Node]Node)
	var vars []int
	var values []bool
	for _, d := range decs {
		vars, values = vars[:0], values[:0]
		for v, val := range d.Assignment {
			vars = append(vars, v)
			values = append(values, val)
		}
		cube := m.Cube(vars, values)
		if cur, ok := groups[d.Sub]; ok {
			groups[d.Sub] = m.Or(cur, cube)
		} else {
			groups[d.Sub] = cube
		}
	}
	return groups
}
