package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sre"
	"sre/internal/baselines"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/sim"
	"sre/internal/topology"
)

// infinite is the facade's "no explored failure combination breaks it".
// At a bounded budget k the engine reports k for the same fact whenever
// the pruned failure space, not the property, ends the search, so every
// answer of at least k reads "tolerates the whole budget" and is compared
// as k (clamp).
const infinite = sre.InfiniteTolerance

// oracleSamples is how many seeded scenarios, one failure deeper than
// the exhaustive depth, the oracle simulates per set-up. One concrete
// simulation of a 45-router network costs ~0.1 s, and set-up runs
// several times per run, so the sample stays small.
const oracleSamples = 3

// probTolerance is the absolute error allowed on a probability answer:
// the reference sums the same ≤k-failure scenarios in another order.
const probTolerance = 1e-9

// reference holds the expected answer of every (router, prefix) pair,
// computed without the engine under test.
type reference struct {
	budget   int
	routers  []string       // by RouterID
	prefixes []route.Prefix // net.AllPrefixes() order
	// tol is the exact answer FailureTolerance must give at this budget,
	// clamped: the size of the smallest disconnecting scenario minus one,
	// or budget when no scenario of at most budget failures disconnects.
	tol [][]int
	// prob is the exact Probability answer (mass of the ≤budget-failure
	// scenarios in which the pair stays connected); nil without PDown.
	prob [][]float64
	// lo and hi bound the TRUE tolerance from concrete simulation alone.
	lo, hi [][]int
}

func newMatrix(rows, cols, fill int) [][]int {
	m := make([][]int, rows)
	for i := range m {
		m[i] = make([]int, cols)
		for j := range m[i] {
			m[i][j] = fill
		}
	}
	return m
}

// buildReference computes the expectations w declares for net.
func buildReference(w workloadDef, net *config.Network, rng *rand.Rand) (*reference, error) {
	t := net.Topology
	ref := &reference{budget: w.Opts.MaxFailures, prefixes: net.AllPrefixes()}
	for r := 0; r < t.NumRouters(); r++ {
		ref.routers = append(ref.routers, t.Name(topology.RouterID(r)))
	}
	ref.lo = newMatrix(len(ref.routers), len(ref.prefixes), -1)
	ref.hi = newMatrix(len(ref.routers), len(ref.prefixes), infinite)
	for _, source := range w.Expect {
		switch source {
		case expectConnectivity:
			ref.connectivity(net, w.PDown)
		case expectOracle:
			if err := ref.oracle(net, w.OracleDepth, rng); err != nil {
				return nil, err
			}
		}
	}
	if ref.tol == nil {
		return nil, fmt.Errorf("workload %s: no source gives exact answers", w.Name)
	}
	// The two sources are independent models of the same network: if they
	// disagree the reference itself is wrong, and nothing may be measured.
	for r := range ref.routers {
		for p := range ref.prefixes {
			if !ref.withinOracle(r, p, ref.tol[r][p]) {
				return nil, fmt.Errorf("reference sources disagree at %s → %s: connectivity says %d, simulation bounds [%d, %d]",
					ref.routers[r], ref.prefixes[p], ref.tol[r][p], ref.lo[r][p], ref.hi[r][p])
			}
		}
	}
	return ref, nil
}

// connectivity fills tol (and prob) by enumerating every scenario of at
// most budget failed links and labelling the components of the surviving
// graph. On the generators' policy-free networks a router reaches a
// prefix exactly when it shares a component with one of its originators.
func (ref *reference) connectivity(net *config.Network, pDown float64) {
	t := net.Topology
	nR, nL := t.NumRouters(), t.NumLinks()
	// Prefixes with the same originators behave identically; the campus
	// has 200 prefixes over 9 originator pairs.
	var groups [][]topology.RouterID
	groupOf := make([]int, len(ref.prefixes))
	index := map[string]int{}
	for p, pfx := range ref.prefixes {
		origins := net.OriginsOf(pfx)
		key := fmt.Sprint(origins)
		g, ok := index[key]
		if !ok {
			g = len(groups)
			index[key] = g
			groups = append(groups, origins)
		}
		groupOf[p] = g
	}
	breakAt := newMatrix(nR, len(groups), math.MaxInt) // smallest disconnecting scenario
	var mass [][]float64
	if pDown > 0 {
		mass = make([][]float64, nR)
		for r := range mass {
			mass[r] = make([]float64, len(groups))
		}
	}
	parent := make([]int, nR)
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	down := make([]bool, nL)
	hasOrigin := make([]bool, nR)
	visit := func(failed int) {
		for i := range parent {
			parent[i] = i
		}
		for _, l := range t.Links() {
			if !down[l.ID] {
				parent[find(int(l.A))] = find(int(l.B))
			}
		}
		weight := 0.0
		if mass != nil {
			weight = math.Pow(pDown, float64(failed)) * math.Pow(1-pDown, float64(nL-failed))
		}
		for g, origins := range groups {
			for i := range hasOrigin {
				hasOrigin[i] = false
			}
			for _, o := range origins {
				hasOrigin[find(int(o))] = true
			}
			for r := 0; r < nR; r++ {
				switch {
				case !hasOrigin[find(r)]:
					if failed < breakAt[r][g] {
						breakAt[r][g] = failed
					}
				case mass != nil:
					mass[r][g] += weight
				}
			}
		}
	}
	var enumerate func(start, failed int)
	enumerate = func(start, failed int) {
		visit(failed)
		if failed == ref.budget {
			return
		}
		for l := start; l < nL; l++ {
			down[l] = true
			enumerate(l+1, failed+1)
			down[l] = false
		}
	}
	enumerate(0, 0)

	ref.tol = newMatrix(nR, len(ref.prefixes), ref.budget)
	if mass != nil {
		ref.prob = make([][]float64, nR)
	}
	for r := 0; r < nR; r++ {
		if mass != nil {
			ref.prob[r] = make([]float64, len(ref.prefixes))
		}
		for p := range ref.prefixes {
			g := groupOf[p]
			if breakAt[r][g] != math.MaxInt {
				ref.tol[r][p] = breakAt[r][g] - 1
			}
			if mass != nil {
				ref.prob[r][p] = mass[r][g]
				// An originator delivers locally under every scenario,
				// explored or not, and the engine knows it.
				if slices.Contains(groups[g], topology.RouterID(r)) {
					ref.prob[r][p] = 1
				}
			}
		}
	}
}

// oracle bounds the true tolerance of every pair by concrete simulation:
// baselines.Batfish over every scenario of at most depth failures, then
// oracleSamples seeded scenarios of depth+1 failures when the budget
// reaches that far.
func (ref *reference) oracle(net *config.Network, depth int, rng *rand.Rand) error {
	index := make(map[route.Prefix]int, len(ref.prefixes))
	for p, pfx := range ref.prefixes {
		index[pfx] = p
	}
	for j := 0; j <= depth && j <= ref.budget; j++ {
		b := &baselines.Batfish{Net: net}
		holds := b.AllPairsReachableUnderK(j)
		if b.Err != nil {
			return fmt.Errorf("oracle: %w", b.Err)
		}
		for pair, ok := range holds {
			r, p := int(pair.Src), index[pair.Prefix]
			if ok {
				ref.lo[r][p] = max(ref.lo[r][p], j)
			} else {
				ref.hi[r][p] = min(ref.hi[r][p], j-1)
			}
		}
	}
	deeper := depth + 1
	if deeper > ref.budget {
		return nil
	}
	origins := make([]map[topology.RouterID]bool, len(ref.prefixes))
	for p, pfx := range ref.prefixes {
		origins[p] = map[topology.RouterID]bool{}
		for _, o := range net.OriginsOf(pfx) {
			origins[p][o] = true
		}
	}
	nL := net.Topology.NumLinks()
	for s := 0; s < oracleSamples; s++ {
		var down []topology.LinkID
		for _, l := range rng.Perm(nL)[:deeper] {
			down = append(down, topology.LinkID(l))
		}
		res, err := sim.Simulate(net, sim.NewScenario(down...))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		for r := range ref.routers {
			for p, pfx := range ref.prefixes {
				if !origins[p][topology.RouterID(r)] && !res.Reachable(topology.RouterID(r), pfx.Addr, origins[p]) {
					ref.hi[r][p] = min(ref.hi[r][p], deeper-1)
				}
			}
		}
	}
	return nil
}

// clamp maps every "tolerates the whole budget" answer to budget.
func (ref *reference) clamp(answer int) int { return min(answer, ref.budget) }

// withinOracle reports whether a clamped answer is consistent with what
// simulation established about the true tolerance.
func (ref *reference) withinOracle(r, p, answer int) bool {
	if answer == ref.budget {
		return ref.hi[r][p] >= ref.budget
	}
	return ref.lo[r][p] <= answer && answer <= ref.hi[r][p]
}

// tolOK checks one tolerance answer. A prefix the ladder verified with
// weaker settings may under-report, never over-report.
func (ref *reference) tolOK(r, p, answer int, degraded bool) bool {
	answer = ref.clamp(answer)
	exact := ref.tol[r][p]
	if degraded {
		return answer <= exact && (answer >= 0 || exact < 0)
	}
	return answer == exact && ref.withinOracle(r, p, answer)
}

func (ref *reference) probOK(r, p int, answer float64) bool {
	return math.Abs(answer-ref.prob[r][p]) <= probTolerance
}

// Query kinds of a sweep.
const (
	queryTolerance = iota
	queryProbability
)

// query is one facade call of the sweep.
type query struct {
	r, p int
	kind int
}

// buildSweep lists every query of the workload in a seed-driven order.
func buildSweep(ref *reference, pDown float64, rng *rand.Rand) []query {
	var qs []query
	for r := range ref.routers {
		for p := range ref.prefixes {
			qs = append(qs, query{r, p, queryTolerance})
			if pDown > 0 {
				qs = append(qs, query{r, p, queryProbability})
			}
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// answerSet collects one sweep's answers in canonical (router, prefix)
// order, whatever order they were asked in.
type answerSet struct {
	tol  [][]int
	prob [][]float64
}

func newAnswerSet(ref *reference) *answerSet {
	a := &answerSet{tol: newMatrix(len(ref.routers), len(ref.prefixes), math.MinInt)}
	if ref.prob != nil {
		a.prob = make([][]float64, len(ref.routers))
		for r := range a.prob {
			a.prob[r] = make([]float64, len(ref.prefixes))
		}
	}
	return a
}

// digest identifies the answers; identical runs must produce identical
// digests.
func (a *answerSet) digest() string {
	h := sha256.New()
	for r := range a.tol {
		for p, k := range a.tol[r] {
			fmt.Fprintf(h, "%d %d %d", r, p, k)
			if a.prob != nil {
				fmt.Fprintf(h, " %.12g", a.prob[r][p])
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
