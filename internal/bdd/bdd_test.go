package bdd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sre/internal/resil"
)

func newTest(vars int) *Manager {
	return New(Config{Vars: vars})
}

func TestTerminals(t *testing.T) {
	m := newTest(4)
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("negation of terminals")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("and/or of terminals")
	}
	if !m.IsTerminal(True) || !m.IsTerminal(False) {
		t.Fatal("IsTerminal")
	}
	if m.IsTerminal(m.Var(0)) {
		t.Fatal("variable is not a terminal")
	}
}

func TestVarBasics(t *testing.T) {
	m := newTest(4)
	x := m.Var(0)
	if m.Var(0) != x {
		t.Fatal("hash consing: Var not canonical")
	}
	if m.Not(m.Not(x)) != x {
		t.Fatal("double negation")
	}
	if m.NVar(0) != m.Not(x) {
		t.Fatal("NVar vs Not(Var)")
	}
	if m.And(x, m.Not(x)) != False {
		t.Fatal("x & !x")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Fatal("x | !x")
	}
	if m.Xor(x, x) != False {
		t.Fatal("x ^ x")
	}
}

func TestOutOfRangeVarPanics(t *testing.T) {
	m := newTest(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range variable")
		}
	}()
	m.Var(2)
}

// buildRandom constructs a random boolean function over the manager's
// variables along with a reference evaluator.
func buildRandom(m *Manager, r *rand.Rand, depth int) (Node, func([]bool) bool) {
	if depth == 0 || r.Intn(4) == 0 {
		v := r.Intn(m.NumVars())
		if r.Intn(2) == 0 {
			return m.Var(v), func(a []bool) bool { return a[v] }
		}
		return m.NVar(v), func(a []bool) bool { return !a[v] }
	}
	l, lf := buildRandom(m, r, depth-1)
	rn, rf := buildRandom(m, r, depth-1)
	switch r.Intn(3) {
	case 0:
		return m.And(l, rn), func(a []bool) bool { return lf(a) && rf(a) }
	case 1:
		return m.Or(l, rn), func(a []bool) bool { return lf(a) || rf(a) }
	default:
		return m.Xor(l, rn), func(a []bool) bool { return lf(a) != rf(a) }
	}
}

func TestRandomFormulaAgainstTruthTable(t *testing.T) {
	const vars = 6
	m := newTest(vars)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n, eval := buildRandom(m, r, 4)
		for bits := 0; bits < 1<<vars; bits++ {
			a := make([]bool, vars)
			for i := range a {
				a[i] = bits>>i&1 == 1
			}
			want := eval(a)
			got := m.Eval(n, func(v int) bool { return a[v] })
			if got != want {
				t.Fatalf("trial %d bits %b: got %v want %v", trial, bits, got, want)
			}
		}
	}
}

func TestCanonicity(t *testing.T) {
	// Logically equal formulas must be the same node.
	m := newTest(5)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	l := m.And(a, m.Or(b, c))
	r2 := m.Or(m.And(a, b), m.And(a, c))
	if l != r2 {
		t.Fatal("distribution law broke canonicity")
	}
	dm1 := m.Not(m.And(a, b))
	dm2 := m.Or(m.Not(a), m.Not(b))
	if dm1 != dm2 {
		t.Fatal("De Morgan broke canonicity")
	}
}

func TestIte(t *testing.T) {
	m := newTest(6)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		f, _ := buildRandom(m, r, 3)
		g, _ := buildRandom(m, r, 3)
		h, _ := buildRandom(m, r, 3)
		want := m.Or(m.And(f, g), m.And(m.Not(f), h))
		if got := m.Ite(f, g, h); got != want {
			t.Fatalf("Ite mismatch on trial %d", trial)
		}
	}
}

func TestDiff(t *testing.T) {
	m := newTest(6)
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		f, _ := buildRandom(m, r, 3)
		g, _ := buildRandom(m, r, 3)
		if m.Diff(f, g) != m.And(f, m.Not(g)) {
			t.Fatalf("Diff mismatch on trial %d", trial)
		}
	}
}

func TestRestrict(t *testing.T) {
	m := newTest(4)
	a, b := m.Var(0), m.Var(1)
	f := m.Or(m.And(a, b), m.And(m.Not(a), m.Not(b)))
	if m.Restrict(f, 0, true) != b {
		t.Fatal("f|a=1 should be b")
	}
	if m.Restrict(f, 0, false) != m.Not(b) {
		t.Fatal("f|a=0 should be !b")
	}
	// Restricting a variable not in the support is the identity.
	if m.Restrict(f, 3, true) != f {
		t.Fatal("restrict of absent var changed function")
	}
}

func TestRestrictCube(t *testing.T) {
	m := newTest(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.And(m.Or(a, b), c)
	cube := m.And(a, m.Not(b))
	got := m.RestrictCube(f, cube)
	if got != c {
		t.Fatalf("RestrictCube: got %s", m.Format(got, nil))
	}
}

func TestExists(t *testing.T) {
	m := newTest(4)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	if m.Exists(f, 0) != b {
		t.Fatal("∃a.(a&b) = b")
	}
	if m.ExistsSet(f, []int{0, 1}) != True {
		t.Fatal("∃a,b.(a&b) = true")
	}
	g := m.Xor(a, b)
	if m.Exists(g, 1) != True {
		t.Fatal("∃b.(a^b) = true")
	}
}

func TestCompose(t *testing.T) {
	m := newTest(5)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(a, c)
	// a := a & b  (substitution whose expression contains the replaced var)
	got := m.Compose(f, 0, m.And(a, b))
	want := m.Or(m.And(a, b), c)
	if got != want {
		t.Fatalf("Compose: got %s want %s", m.Format(got, nil), m.Format(want, nil))
	}
}

func TestSupport(t *testing.T) {
	m := newTest(6)
	f := m.And(m.Var(1), m.Or(m.Var(3), m.NVar(5)))
	got := m.Support(f)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("support %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("support %v want %v", got, want)
		}
	}
}

func TestSatCount(t *testing.T) {
	m := newTest(4)
	a, b := m.Var(0), m.Var(1)
	if got := m.SatCount(m.And(a, b), 4); got != 4 {
		t.Fatalf("SatCount(a&b, 4 vars) = %v, want 4", got)
	}
	if got := m.SatCount(True, 4); got != 16 {
		t.Fatalf("SatCount(true) = %v", got)
	}
	if got := m.SatCount(False, 4); got != 0 {
		t.Fatalf("SatCount(false) = %v", got)
	}
	if got := m.SatCount(m.Xor(a, b), 2); got != 2 {
		t.Fatalf("SatCount(a^b, 2 vars) = %v", got)
	}
}

func TestAnySat(t *testing.T) {
	m := newTest(5)
	if _, ok := m.AnySat(False); ok {
		t.Fatal("AnySat(False) should fail")
	}
	f := m.And(m.Var(0), m.NVar(3))
	a, ok := m.AnySat(f)
	if !ok {
		t.Fatal("AnySat failed on satisfiable function")
	}
	full := func(v int) bool {
		val, bound := a[v]
		return bound && val
	}
	if !m.Eval(f, full) {
		t.Fatal("AnySat returned non-satisfying assignment")
	}
}

func TestAllSatCoversFunction(t *testing.T) {
	const vars = 5
	m := newTest(vars)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		f, _ := buildRandom(m, r, 3)
		// Rebuild f from its AllSat cubes and compare.
		rebuilt := False
		m.AllSat(f, func(a map[int]bool) bool {
			cube := True
			for v, val := range a {
				if val {
					cube = m.And(cube, m.Var(v))
				} else {
					cube = m.And(cube, m.NVar(v))
				}
			}
			rebuilt = m.Or(rebuilt, cube)
			return true
		})
		if rebuilt != f {
			t.Fatalf("AllSat cubes do not reconstruct f on trial %d", trial)
		}
	}
}

func TestShortestPathToFalse(t *testing.T) {
	m := newTest(4)
	if got := m.ShortestPathToFalse(True); got != math.MaxInt32 {
		t.Fatalf("True has no path to False, got %d", got)
	}
	if got := m.ShortestPathToFalse(False); got != 0 {
		t.Fatalf("False distance should be 0, got %d", got)
	}
	// f = a ∨ b: falsified only by a=0 and b=0 → two dashed edges.
	f := m.Or(m.Var(0), m.Var(1))
	if got := m.ShortestPathToFalse(f); got != 2 {
		t.Fatalf("a|b: got %d want 2", got)
	}
	// f = a ∧ b: one failed link falsifies.
	g := m.And(m.Var(0), m.Var(1))
	if got := m.ShortestPathToFalse(g); got != 1 {
		t.Fatalf("a&b: got %d want 1", got)
	}
	// Paper's Figure 1(c): lAC ∨ (lAB ∧ lBC) needs 2 failures.
	h := m.Or(m.Var(1), m.And(m.Var(0), m.Var(2)))
	if got := m.ShortestPathToFalse(h); got != 2 {
		t.Fatalf("figure 1(c): got %d want 2", got)
	}
}

func TestShortestPathMatchesBruteForce(t *testing.T) {
	const vars = 6
	m := newTest(vars)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		f, eval := buildRandom(m, r, 4)
		want := math.MaxInt32
		for bits := 0; bits < 1<<vars; bits++ {
			a := make([]bool, vars)
			zeros := 0
			for i := range a {
				a[i] = bits>>i&1 == 1
				if !a[i] {
					zeros++
				}
			}
			if !eval(a) && zeros < want {
				want = zeros
			}
		}
		if got := m.ShortestPathToFalse(f); got != want {
			t.Fatalf("trial %d: got %d want %d", trial, got, want)
		}
	}
}

func TestMinFalseWitness(t *testing.T) {
	m := newTest(6)
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		f, _ := buildRandom(m, r, 4)
		downVars, ok := m.MinFalseWitness(f)
		if f == True {
			if ok {
				t.Fatal("True should have no witness")
			}
			continue
		}
		if !ok {
			t.Fatal("expected witness")
		}
		want := m.ShortestPathToFalse(f)
		if len(downVars) != want {
			t.Fatalf("witness has %d false vars, shortest path is %d", len(downVars), want)
		}
		down := make(map[int]bool)
		for _, v := range downVars {
			down[v] = true
		}
		if m.Eval(f, func(v int) bool { return !down[v] }) {
			t.Fatal("witness does not falsify f")
		}
	}
}

func TestProbability(t *testing.T) {
	m := newTest(3)
	p := []float64{0.9, 0.9, 0.9}
	// Paper §3.3 example 2: lAC ∨ (lAB ∧ lBC) with p(up)=0.9 → 0.981.
	lAB, lAC, lBC := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(lAC, m.And(lAB, lBC))
	got := m.Probability(f, p)
	if math.Abs(got-0.981) > 1e-12 {
		t.Fatalf("probability: got %v want 0.981", got)
	}
	if m.Probability(True, p) != 1 || m.Probability(False, p) != 0 {
		t.Fatal("terminal probabilities")
	}
}

func TestProbabilityMatchesBruteForce(t *testing.T) {
	const vars = 6
	m := newTest(vars)
	r := rand.New(rand.NewSource(17))
	p := make([]float64, vars)
	for i := range p {
		p[i] = r.Float64()
	}
	for trial := 0; trial < 50; trial++ {
		f, eval := buildRandom(m, r, 4)
		want := 0.0
		for bits := 0; bits < 1<<vars; bits++ {
			a := make([]bool, vars)
			w := 1.0
			for i := range a {
				a[i] = bits>>i&1 == 1
				if a[i] {
					w *= p[i]
				} else {
					w *= 1 - p[i]
				}
			}
			if eval(a) {
				want += w
			}
		}
		if got := m.Probability(f, p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestAtMostKFalse(t *testing.T) {
	const vars = 5
	m := newTest(vars)
	all := []int{0, 1, 2, 3, 4}
	for k := -1; k <= vars+1; k++ {
		f := m.AtMostKFalse(all, k)
		for bits := 0; bits < 1<<vars; bits++ {
			zeros := 0
			for i := 0; i < vars; i++ {
				if bits>>i&1 == 0 {
					zeros++
				}
			}
			got := m.Eval(f, func(v int) bool { return bits>>v&1 == 1 })
			want := zeros <= k
			if got != want {
				t.Fatalf("k=%d bits=%05b: got %v want %v", k, bits, got, want)
			}
		}
	}
}

func TestAtMostKFalseSubset(t *testing.T) {
	m := newTest(6)
	subset := []int{1, 3, 5}
	f := m.AtMostKFalse(subset, 1)
	// Variables outside the subset must not appear.
	sup := m.Support(f)
	for _, v := range sup {
		if v != 1 && v != 3 && v != 5 {
			t.Fatalf("unexpected var %d in support", v)
		}
	}
	// 2 of the subset false → false.
	if m.Eval(f, func(v int) bool { return v == 5 }) {
		t.Fatal("two subset vars down should violate k=1")
	}
}

func TestExactlyKFalse(t *testing.T) {
	const vars = 4
	m := newTest(vars)
	all := []int{0, 1, 2, 3}
	for k := 0; k <= vars; k++ {
		f := m.ExactlyKFalse(all, k)
		if got, want := m.SatCount(f, vars), float64(binomial(vars, k)); got != want {
			t.Fatalf("k=%d: %v assignments, want %v", k, got, want)
		}
	}
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestSplitAtLevel(t *testing.T) {
	// Vars 0,1 are "header", vars 2,3 are "links".
	m := newTest(4)
	p1, p2 := m.Var(0), m.Var(1)
	l1, l2 := m.Var(2), m.Var(3)
	f := m.Or(m.And(p1, l1), m.And(m.And(m.Not(p1), p2), m.And(l1, l2)))
	decs := m.SplitAtLevel(f, 2)
	rebuilt := False
	for _, d := range decs {
		cube := True
		for v, val := range d.Assignment {
			if v >= 2 {
				t.Fatalf("assignment leaked link variable %d", v)
			}
			if val {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		for _, v := range m.Support(d.Sub) {
			if v < 2 {
				t.Fatalf("sub-BDD contains header variable %d", v)
			}
		}
		rebuilt = m.Or(rebuilt, m.And(cube, d.Sub))
	}
	if rebuilt != f {
		t.Fatal("decomposition does not reconstruct f")
	}
	groups := m.GroupBySub(decs)
	if len(groups) != 2 {
		t.Fatalf("expected 2 distinct topology BDDs, got %d", len(groups))
	}
	if pkts, ok := groups[l1]; !ok || pkts != p1 {
		t.Fatalf("expected packet BDD p1 for topo l1")
	}
}

func TestSplitAtLevelRandom(t *testing.T) {
	const vars = 6
	m := newTest(vars)
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		f, _ := buildRandom(m, r, 4)
		split := r.Intn(vars + 1)
		rebuilt := False
		for sub, upper := range m.GroupBySub(m.SplitAtLevel(f, split)) {
			rebuilt = m.Or(rebuilt, m.And(upper, sub))
		}
		if rebuilt != f {
			t.Fatalf("trial %d split %d: reconstruction failed", trial, split)
		}
	}
}

func TestGC(t *testing.T) {
	m := New(Config{Vars: 16, InitialNodes: 64})
	kept := m.Ref(m.And(m.Var(0), m.Var(1)))
	// Create garbage.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		buildRandom(m, r, 5)
	}
	before := m.Size()
	freed := m.GC()
	if freed == 0 {
		t.Fatal("expected some garbage to be collected")
	}
	if m.Size() >= before {
		t.Fatal("size did not shrink")
	}
	// The kept node must survive and still be correct.
	if !m.Eval(kept, func(v int) bool { return true }) {
		t.Fatal("kept node corrupted")
	}
	if m.Eval(kept, func(v int) bool { return v != 0 }) {
		t.Fatal("kept node semantics changed")
	}
	// Manager must still work after GC: canonical nodes are rebuilt equal.
	again := m.And(m.Var(0), m.Var(1))
	if again != kept {
		t.Fatal("hash consing broken after GC")
	}
}

func TestGCKeepsDescendants(t *testing.T) {
	m := New(Config{Vars: 8, InitialNodes: 64})
	f := m.Ref(m.AndN(m.Var(0), m.Var(1), m.Var(2), m.Var(3)))
	m.GC()
	// Descendants of f were not externally referenced but must survive.
	if m.ShortestPathToFalse(f) != 1 {
		t.Fatal("descendant structure corrupted by GC")
	}
	m.Deref(f)
	freed := m.GC()
	if freed == 0 {
		t.Fatal("deref'd chain should be collected")
	}
}

func TestNodeLimit(t *testing.T) {
	m := New(Config{Vars: 32, NodeLimit: 64, DisableGC: true})
	err := func() (err error) {
		defer resil.Catch("bdd", &err)
		f := True
		for i := 0; i < 32; i++ {
			f = m.Xor(f, m.Var(i))
		}
		// Force distinct structures until the limit trips.
		g := False
		for i := 0; i < 31; i++ {
			g = m.Or(g, m.And(m.Var(i), m.Var(i+1)))
		}
		_ = g
		return nil
	}()
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("expected ErrNodeLimit, got %v", err)
	}
}

func TestNodeCount(t *testing.T) {
	m := newTest(4)
	if m.NodeCount(True) != 0 || m.NodeCount(False) != 0 {
		t.Fatal("terminals have zero decision nodes")
	}
	if m.NodeCount(m.Var(0)) != 1 {
		t.Fatal("single variable has one node")
	}
}

// Property-based tests with testing/quick.

type formula struct {
	ops   []byte // 0=and 1=or 2=xor, applied left to right over literals
	lits  []int8 // variable index, negative means negated (1-based)
	seed  int64
	depth uint8
}

func TestQuickDeMorgan(t *testing.T) {
	m := newTest(8)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := buildRandom(m, r, 4)
		b, _ := buildRandom(m, r, 4)
		return m.Not(m.And(a, b)) == m.Or(m.Not(a), m.Not(b)) &&
			m.Not(m.Or(a, b)) == m.And(m.Not(a), m.Not(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAbsorption(t *testing.T) {
	m := newTest(8)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := buildRandom(m, r, 4)
		b, _ := buildRandom(m, r, 4)
		return m.And(a, m.Or(a, b)) == a && m.Or(a, m.And(a, b)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXorSelfInverse(t *testing.T) {
	m := newTest(8)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := buildRandom(m, r, 4)
		b, _ := buildRandom(m, r, 4)
		return m.Xor(m.Xor(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShannonExpansion(t *testing.T) {
	m := newTest(8)
	f := func(seed int64, vRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := buildRandom(m, r, 4)
		v := int(vRaw) % m.NumVars()
		return m.Ite(m.Var(v), m.Restrict(a, v, true), m.Restrict(a, v, false)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSatCountComplement(t *testing.T) {
	m := newTest(8)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := buildRandom(m, r, 4)
		n := m.NumVars()
		return m.SatCount(a, n)+m.SatCount(m.Not(a), n) == math.Pow(2, float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProbabilityComplement(t *testing.T) {
	m := newTest(8)
	p := make([]float64, 8)
	for i := range p {
		p[i] = 0.1 * float64(i+1)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := buildRandom(m, r, 4)
		return math.Abs(m.Probability(a, p)+m.Probability(m.Not(a), p)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatSmall(t *testing.T) {
	m := newTest(3)
	if m.Format(True, nil) != "true" || m.Format(False, nil) != "false" {
		t.Fatal("terminal formatting")
	}
	got := m.Format(m.Var(1), nil)
	if got != "x1" {
		t.Fatalf("Format(x1) = %q", got)
	}
}

func TestDot(t *testing.T) {
	m := newTest(3)
	s := m.Dot(m.Or(m.Var(0), m.Var(1)), nil)
	if len(s) == 0 || s[:7] != "digraph" {
		t.Fatalf("dot output malformed: %q", s)
	}
}

func BenchmarkAnd(b *testing.B) {
	m := New(Config{Vars: 64})
	r := rand.New(rand.NewSource(1))
	fs := make([]Node, 64)
	for i := range fs {
		fs[i], _ = buildRandom(m, r, 6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.And(fs[i%64], fs[(i+7)%64])
	}
}

func BenchmarkAtMostKFalse(b *testing.B) {
	m := New(Config{Vars: 256})
	vars := make([]int, 256)
	for i := range vars {
		vars[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AtMostKFalse(vars, 3)
	}
}
