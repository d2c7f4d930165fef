package bdd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildDense returns a structurally interesting BDD over [0, vars):
// pairs of adjacent variables joined alternately by OR/XOR, conjoined.
// Built identically on any manager, it yields the same function.
func buildDense(m *Manager, vars int) Node {
	f := True
	for v := 0; v+1 < vars; v += 2 {
		var pair Node
		if v%4 == 0 {
			pair = m.Or(m.Var(v), m.Var(v+1))
		} else {
			pair = m.Xor(m.Var(v), m.Var(v+1))
		}
		f = m.And(f, pair)
	}
	return f
}

func TestRestrictCacheKeyDisjoint(t *testing.T) {
	// Regression: Restrict once keyed the shared cache as (op, f, v,
	// value) packings that could collide with apply entries and with the
	// opposite polarity. The two polarities must produce distinct cached
	// results for the same (f, v), interleaved with apply traffic.
	m := newTest(8)
	f := buildDense(m, 8)
	for round := 0; round < 3; round++ {
		for v := 0; v < 8; v++ {
			rT := m.Restrict(f, v, true)
			rF := m.Restrict(f, v, false)
			// Recompute through a fresh manager as ground truth.
			chk := newTest(8)
			g := buildDense(chk, 8)
			if got, want := chk.NodeCount(chk.Restrict(g, v, true)), m.NodeCount(rT); got != want {
				t.Fatalf("Restrict(v=%d,true) diverged after caching: %d vs %d", v, want, got)
			}
			if got, want := chk.NodeCount(chk.Restrict(g, v, false)), m.NodeCount(rF); got != want {
				t.Fatalf("Restrict(v=%d,false) diverged after caching: %d vs %d", v, want, got)
			}
			// Generate colliding apply traffic with small node handles.
			m.And(m.Var(v), m.Var((v+1)%8))
		}
	}
	// Same level restricted with both polarities back-to-back must obey
	// Shannon: f = (¬v ∧ f|v=0) ∨ (v ∧ f|v=1).
	for v := 0; v < 8; v++ {
		lo, hi := m.Restrict(f, v, false), m.Restrict(f, v, true)
		if m.Ite(m.Var(v), hi, lo) != f {
			t.Fatalf("Shannon expansion broken at var %d", v)
		}
	}
}

// TestExistsCubeMatchesTruthTable quantifies random functions over
// random varsets of up to half the variables, and over one cube built
// once and kept referenced, as symbol.Space keeps its header cube.
func TestExistsCubeMatchesTruthTable(t *testing.T) {
	const n = 12
	r := rand.New(rand.NewSource(43))
	m := newTest(n)
	kept := []int{0, 2, 4, 6}
	keptCube := m.Ref(m.CubeVars(kept))
	for i := 0; i < 200; i++ {
		f, eval := buildRandom(m, r, 5)
		ft := ttFrom(n, eval)
		vars := r.Perm(n)[:1+r.Intn(6)]
		if !ttOf(m, m.ExistsCube(f, m.CubeVars(vars))).equal(ft.exists(vars)) {
			t.Fatalf("ExistsCube over %v differs from the truth table (iter %d)", vars, i)
		}
		if !ttOf(m, m.ExistsCube(f, keptCube)).equal(ft.exists(kept)) {
			t.Fatalf("ExistsCube over the kept cube differs from the truth table (iter %d)", i)
		}
	}
}

func TestSatProbesMatchMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	m := newTest(12)
	for i := 0; i < 300; i++ {
		f, _ := buildRandom(m, r, 4)
		g, _ := buildRandom(m, r, 4)
		if m.AndSat(f, g) != (m.And(f, g) != False) {
			t.Fatalf("AndSat mismatch (iter %d)", i)
		}
		if m.DiffSat(f, g) != (m.Diff(f, g) != False) {
			t.Fatalf("DiffSat mismatch (iter %d)", i)
		}
	}
}

func TestCubeMatchesLiteralConjunction(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	m := newTest(16)
	for i := 0; i < 200; i++ {
		nv := 1 + r.Intn(6)
		vars := make([]int, nv)
		values := make([]bool, nv)
		for j := range vars {
			vars[j] = r.Intn(16) // duplicates allowed on purpose
			values[j] = r.Intn(2) == 0
		}
		want := True
		for j := range vars {
			if values[j] {
				want = m.And(want, m.Var(vars[j]))
			} else {
				want = m.And(want, m.NVar(vars[j]))
			}
		}
		if got := m.Cube(vars, values); got != want {
			t.Fatalf("Cube mismatch (iter %d, vars %v values %v)", i, vars, values)
		}
	}
	if m.Cube([]int{3, 3}, []bool{true, false}) != False {
		t.Fatal("conflicting duplicate literals must give False")
	}
	if m.Cube(nil, nil) != True {
		t.Fatal("empty cube must be True")
	}
}

func TestShortestPathToTrueMatchesComplement(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	m := newTest(10)
	if m.ShortestPathToTrue(False) != math.MaxInt32 {
		t.Fatal("SPTT(False)")
	}
	if m.ShortestPathToTrue(True) != 0 {
		t.Fatal("SPTT(True)")
	}
	for i := 0; i < 200; i++ {
		f, _ := buildRandom(m, r, 4)
		if m.ShortestPathToTrue(f) != m.ShortestPathToFalse(m.Not(f)) {
			t.Fatalf("SPTT != SPTF∘Not (iter %d)", i)
		}
	}
}

// decisionNodes collects the decision nodes under f with a map-based
// walk of its own, independent of the manager's scratch memo tables.
func decisionNodes(m *Manager, f Node) map[Node]bool {
	seen := make(map[Node]bool)
	var walk func(Node)
	walk = func(n Node) {
		if n <= True || seen[n] {
			return
		}
		seen[n] = true
		walk(Node(m.lo[n]))
		walk(Node(m.hi[n]))
	}
	walk(f)
	return seen
}

// support lists, in ascending order, the variables f's diagram tests;
// in a reduced diagram these are exactly the variables f depends on.
func support(m *Manager, f Node) []int {
	var vars []int
	for n := range decisionNodes(m, f) {
		if v := int(m.lvl[n]); !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	slices.Sort(vars)
	return vars
}

// TestKernelMatchesTruthTable drives one random operation stream
// through the manager and through the truth-table oracle and compares
// every result semantically. The second input forces a collection
// between building the operands and using them, so results served from
// the liveness-swept operation cache are compared to truth too. The
// third calls MaybeGC there instead, with the next look moved to now:
// the mark-only path, the sweep path and (every third iteration, under
// a node limit the table has reached) the limit path all run, and each
// is asserted to have run. The kernel's invariants are checked after
// every collection. The manager starts with a 4-set operation cache, so
// the third input also crosses several ×4 growth steps between the
// operations it checks.
func TestKernelMatchesTruthTable(t *testing.T) {
	t.Run("static", func(t *testing.T) { kernelVsTruthTable(t, "static") })
	t.Run("gc", func(t *testing.T) { kernelVsTruthTable(t, "gc") })
	t.Run("maybegc", func(t *testing.T) { kernelVsTruthTable(t, "maybegc") })
}

func kernelVsTruthTable(t *testing.T, mode string) {
	const n = 12
	m := newSized(Config{Vars: n}, 4, initialNodes)
	r := rand.New(rand.NewSource(47))
	pv := make([]float64, n)
	for i := range pv {
		pv[i] = 0.25 + 0.05*float64(i%10)
	}
	// A window of Ref'd functions outlives each iteration: operands for
	// the binary operations, and — with their conjunctions in it — cache
	// entries whose operands and result all survive a collection.
	type fn struct {
		n Node
		t tt
	}
	var pool []fn
	keep := func(f Node, ft tt) { pool = append(pool, fn{m.Ref(f), ft}) }
	var markOnly, swept, limitSwept int
	for i := 0; i < 120; i++ {
		for ; len(pool) > 4; pool = pool[1:] {
			m.Deref(pool[0].n)
		}
		same := func(what string, got Node, want tt) {
			t.Helper()
			if !ttOf(m, got).equal(want) {
				t.Fatalf("%s differs from the truth table (iter %d)", what, i)
			}
		}
		f, eval := buildRandom(m, r, 5)
		ft := ttFrom(n, eval)
		keep(f, ft)
		g := pool[r.Intn(len(pool))]
		keep(m.And(f, g.n), ft.and(g.t))
		switch mode {
		case "gc":
			m.GC()
		case "maybegc":
			// Most iterations leave over a quarter of the table dead, so
			// the first look sweeps; a second look right after it finds
			// (almost) nothing dead — mark-only, unless under the limit.
			maybeGC(t, m, false, &markOnly, &swept, &limitSwept)
			if i%2 == 1 {
				maybeGC(t, m, i%4 == 1, &markOnly, &swept, &limitSwept)
			}
		}
		if err := m.checkInvariants(mode == "maybegc"); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		same("formula", f, ft)
		same("And", m.And(f, g.n), ft.and(g.t))
		same("Diff", m.Diff(f, g.n), ft.diff(g.t))

		vars := r.Perm(n)[:3]
		cube := m.CubeVars(vars)
		same("ExistsCube", m.ExistsCube(f, cube), ft.exists(vars))
		if got, want := m.AndSat(f, g.n), ft.and(g.t).count() != 0; got != want {
			t.Fatalf("AndSat = %v, want %v (iter %d)", got, want, i)
		}
		if got, want := m.DiffSat(f, g.n), ft.diff(g.t).count() != 0; got != want {
			t.Fatalf("DiffSat = %v, want %v (iter %d)", got, want, i)
		}

		v, val := vars[0], r.Intn(2) == 0
		same("Restrict", m.Restrict(f, v, val), ft.restrict(v, val))
		same("Compose", m.Compose(f, v, g.n), g.t.ite(ft.restrict(v, true), ft.restrict(v, false)))
		values := []bool{r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0}
		lits := ttConst(n, true)
		for j, cv := range vars {
			if lit := ttVar(n, cv); values[j] {
				lits = lits.and(lit)
			} else {
				lits = lits.diff(lit)
			}
		}
		same("Cube", m.Cube(vars, values), lits)
		nodes, all, any := make([]Node, len(pool)), ttConst(n, true), ttConst(n, false)
		for j, p := range pool {
			nodes[j], all, any = p.n, all.and(p.t), any.or(p.t)
		}
		same("AndN", m.AndN(nodes...), all)
		same("OrN", m.OrN(nodes...), any)

		if got, want := m.SatCount(f, n), float64(ft.count()); got != want {
			t.Fatalf("SatCount = %g, want %g (iter %d)", got, want, i)
		}
		if got, want := m.Probability(f, pv), ft.probability(pv); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Probability = %g, want %g (iter %d)", got, want, i)
		}
		if got, want := m.ShortestPathToFalse(f), ft.minFalseVars(false); got != want {
			t.Fatalf("ShortestPathToFalse = %d, want %d (iter %d)", got, want, i)
		}
		if got, want := m.ShortestPathToTrue(f), ft.minFalseVars(true); got != want {
			t.Fatalf("ShortestPathToTrue = %d, want %d (iter %d)", got, want, i)
		}
		if got, want := m.NodeCount(f), len(decisionNodes(m, f)); got != want {
			t.Fatalf("NodeCount = %d, want %d (iter %d)", got, want, i)
		}
		if got, want := support(m, f), ft.support(); !slices.Equal(got, want) {
			t.Fatalf("the diagram tests %v, f depends on %v (iter %d)", got, want, i)
		}
		// The witness must falsify f with as few false variables as any
		// falsifying assignment has.
		down, ok := m.MinFalseWitness(f)
		if want := ft.minFalseVars(false); ok != (want != math.MaxInt32) || (ok && len(down) != want) {
			t.Fatalf("MinFalseWitness = %v, %v; minimum is %d (iter %d)", down, ok, want, i)
		}
		if ok {
			a := 1<<n - 1
			for _, dv := range down {
				a &^= 1 << dv
			}
			if ft.get(a) {
				t.Fatalf("MinFalseWitness %v does not falsify f (iter %d)", down, i)
			}
		}
	}
	if st := m.Statistics(); mode != "static" && st.CacheRetained == 0 {
		t.Fatal("collections retained no cache entries")
	}
	if mode == "maybegc" && (markOnly == 0 || swept == 0 || limitSwept == 0) {
		t.Fatalf("paths run: %d mark-only, %d swept, %d swept only for the limit; want each > 0",
			markOnly, swept, limitSwept)
	}
	if grows := m.Statistics().CacheGrows; mode == "maybegc" && grows < 2 {
		t.Fatalf("the cache grew %d ×4 steps, want several", grows)
	}
}

// maybeGC moves m's next look to now and calls MaybeGC(0) — with the
// node limit lowered to the table size when underLimit — then checks
// the path it took against the dead share a separate mark measured,
// counts that path, and checks where the next look was moved to.
func maybeGC(t *testing.T, m *Manager, underLimit bool, markOnly, swept, limitSwept *int) {
	t.Helper()
	_, live := m.mark()
	nodes := m.nodes
	worthIt := (nodes-live)*gcYield >= nodes
	runs := m.stats.GCRuns
	m.gcAt = 0
	if underLimit {
		limit := m.limit
		m.limit = nodes // past ¾ of it: sweep whatever the yield
		m.MaybeGC(0)
		m.limit = limit
	} else {
		m.MaybeGC(0)
	}
	did := m.stats.GCRuns > runs
	switch {
	case underLimit && !did:
		t.Fatal("MaybeGC at the node limit did not sweep")
	case underLimit && !worthIt:
		*limitSwept++
	case underLimit:
	case did != worthIt:
		t.Fatalf("MaybeGC swept = %v with %d of %d nodes live", did, live, nodes)
	case did:
		*swept++
	default:
		*markOnly++
	}
	if want := max(gcFloor, gcGrowth*live); m.gcAt != want {
		t.Fatalf("next look at %d nodes, want %d", m.gcAt, want)
	}
}

func TestGCRetainsLiveCacheEntries(t *testing.T) {
	m := New(Config{Vars: 16})
	f := m.Ref(buildDense(m, 16))
	g := m.Ref(m.Or(m.Var(1), m.And(m.Var(3), m.NVar(5))))
	h := m.And(f, g) // cached with live operands
	m.Ref(h)
	// Garbage: a pile of BDDs no one references.
	for v := 0; v < 14; v++ {
		m.Xor(m.And(m.Var(v), f), m.Or(m.Var(v+1), g))
	}
	statsBefore := m.Statistics()
	m.GC()
	st := m.Statistics()
	if st.CacheRetained == 0 {
		t.Fatal("sweep retained nothing despite live operands")
	}
	if st.CacheInvalidated == 0 {
		t.Fatal("sweep invalidated nothing despite dead garbage")
	}
	if st.HitsAtLastGC != statsBefore.CacheHits || st.MissAtLastGC != statsBefore.CacheMiss {
		t.Fatal("GC hit/miss snapshot not taken")
	}
	// A retained entry must hit: And(f, g) again without any rebuild.
	miss := st.CacheMiss
	if m.And(f, g) != h {
		t.Fatal("retained result changed")
	}
	if m.Statistics().CacheMiss != miss {
		t.Fatal("And(f, g) missed the cache after GC — entry was not retained")
	}
	if m.Statistics().PostGCCacheHitRatio() == 0 {
		t.Fatal("post-GC hit ratio not observable")
	}
	// The swept cache must never resurrect dead handles: run a fresh
	// workload touching recycled slots and cross-check on a cold manager.
	res := m.AndN(m.Var(0), m.Var(7), m.Var(13))
	chk := New(Config{Vars: 16})
	if chk.NodeCount(chk.AndN(chk.Var(0), chk.Var(7), chk.Var(13))) != m.NodeCount(res) {
		t.Fatal("post-GC operations diverged")
	}
}

// --- allocation discipline ---

func TestAnalysesAllocationFree(t *testing.T) {
	m := newTest(24)
	f := buildDense(m, 24)
	pv := make([]float64, 24)
	for i := range pv {
		pv[i] = 0.9
	}
	m.SatCount(f, 24) // warm up: scratch arrays grow once
	m.Probability(f, pv)
	m.ShortestPathToFalse(f)
	cases := []struct {
		name string
		fn   func()
	}{
		{"SatCount", func() { m.SatCount(f, 24) }},
		{"Probability", func() { m.Probability(f, pv) }},
		{"ShortestPathToFalse", func() { m.ShortestPathToFalse(f) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per run in steady state; want 0", c.name, allocs)
		}
	}
}

// --- micro-benchmarks ---

func benchManager(b *testing.B, vars int) (*Manager, Node) {
	m := New(Config{Vars: vars})
	f := m.Ref(buildDense(m, vars))
	b.ReportAllocs()
	b.ResetTimer()
	return m, f
}

func BenchmarkApply(b *testing.B) {
	m, f := benchManager(b, 64)
	g := m.Ref(m.Or(m.Var(3), m.Xor(m.Var(17), m.Var(40))))
	for i := 0; i < b.N; i++ {
		m.And(f, g)
	}
}

func BenchmarkExistsCube(b *testing.B) {
	m, f := benchManager(b, 64)
	cube := m.Ref(m.CubeVars([]int{0, 7, 14, 21, 28, 35, 42, 49}))
	for i := 0; i < b.N; i++ {
		m.ExistsCube(f, cube)
	}
}

func BenchmarkSatCount(b *testing.B) {
	m, f := benchManager(b, 64)
	for i := 0; i < b.N; i++ {
		m.SatCount(f, 64)
	}
}

func BenchmarkProbability(b *testing.B) {
	m, f := benchManager(b, 64)
	pv := make([]float64, 64)
	for i := range pv {
		pv[i] = 0.99
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Probability(f, pv)
	}
}
