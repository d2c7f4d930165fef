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
	m.i32memo.begin(m)
	return int(m.shortestPathRec(f, False))
}

// ShortestPathToTrue returns the minimum number of dashed (low) edges on
// any root-to-True path of f, or math.MaxInt32 when f == False. It
// equals ShortestPathToFalse(Not(f)) without materializing the
// complement BDD: with link variables meaning "link up", it is the
// fewest failed links in any satisfying scenario of f.
func (m *Manager) ShortestPathToTrue(f Node) int {
	m.i32memo.begin(m)
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
	d := m.shortestPathRec(Node(m.tab[n].hi), target) // solid edge: cost 0
	if dl := m.shortestPathRec(Node(m.tab[n].lo), target); dl != math.MaxInt32 && dl+1 < d {
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
	m.witMemo.begin(m)
	m.minWitnessRec(f)
	var downVars []int
	for n := f; n > True; {
		st, _ := m.witMemo.get(n)
		if st.down {
			downVars = append(downVars, int(m.tab[n].lvl))
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
	hiN, loN := Node(m.tab[n].hi), Node(m.tab[n].lo)
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
	m.f64memo.begin(m)
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
	p := m.probP[m.tab[n].lvl]
	w := p*m.probabilityRec(Node(m.tab[n].hi)) + (1-p)*m.probabilityRec(Node(m.tab[n].lo))
	m.f64memo.put(n, w)
	return w
}

// SatCount returns the number of satisfying assignments of f over the
// variables [0, nvars). It is exact up to float64 precision.
func (m *Manager) SatCount(f Node, nvars int) float64 {
	m.f64memo.begin(m)
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
	w := 0.5*m.satCountRec(Node(m.tab[n].hi)) + 0.5*m.satCountRec(Node(m.tab[n].lo))
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
		v := int(m.tab[f].lvl)
		if Node(m.tab[f].hi) != False {
			out[v] = true
			f = Node(m.tab[f].hi)
		} else {
			out[v] = false
			f = Node(m.tab[f].lo)
		}
	}
	return out, true
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Node, assignment func(v int) bool) bool {
	for f > True {
		if assignment(int(m.tab[f].lvl)) {
			f = Node(m.tab[f].hi)
		} else {
			f = Node(m.tab[f].lo)
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

// Split is one (upper, sub) pair of SplitBySub: Sub is a sub-BDD over
// the variables at or below the split level, and Upper is the set of
// assignments of the variables above it that lead to Sub.
type Split struct {
	Upper, Sub Node
}

// SplitBySub decomposes f at level split. It implements the Extract
// function of Algorithm 2: with header variables ordered above link
// variables, splitting a property BDD at the first link level yields
// (packet, topology-BDD) pairs. There is one pair per distinct sub-BDD
// s that f reaches at or below split (True included, False never), and
// its Upper is f with s replaced by True and every other sub by False.
// The uppers are pairwise disjoint and the disjunction of Upper ∧ Sub
// is f.
//
// One marked walk finds the subs; each Upper is then built with mk over
// the nodes above split, memoized per sub. Every node made belongs to a
// returned Upper, and the operation cache is not touched.
func (m *Manager) SplitBySub(f Node, split int) []Split {
	var out []Split
	m.i32memo.begin(m)
	m.subsRec(f, int32(split), &out)
	for i := range out {
		// The memo is keyed by f's nodes only, which exist before the
		// generation starts; the nodes mk makes are never looked up.
		m.i32memo.begin(m)
		out[i].Upper = m.upperRec(f, int32(split), out[i].Sub)
	}
	return out
}

// subsRec appends to out every distinct sub-BDD reachable from n at or
// below split; the caller owns the current i32memo generation.
func (m *Manager) subsRec(n Node, split int32, out *[]Split) {
	if n == False {
		return
	}
	if _, seen := m.i32memo.get(n); seen {
		return
	}
	m.i32memo.put(n, 0)
	if m.tab[n].lvl >= split { // terminals sit below every level
		*out = append(*out, Split{Sub: n})
		return
	}
	m.subsRec(Node(m.tab[n].lo), split, out)
	m.subsRec(Node(m.tab[n].hi), split, out)
}

// upperRec is n above split with sub replaced by True and every other
// sub by False; the caller owns the current i32memo generation.
func (m *Manager) upperRec(n Node, split int32, sub Node) Node {
	if n == sub {
		return True
	}
	if m.tab[n].lvl >= split {
		return False
	}
	if r, ok := m.i32memo.get(n); ok {
		return Node(r)
	}
	r := m.mk(m.tab[n].lvl, m.upperRec(Node(m.tab[n].lo), split, sub), m.upperRec(Node(m.tab[n].hi), split, sub))
	m.i32memo.put(n, int32(r))
	return r
}
