package analysis

import (
	"math"
	"testing"

	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
)

// Two disjoint 2-hop paths A→M1→D and A→M2→D. With independent link
// failures the paths fail independently; a shared-risk group covering
// one link of each path correlates them.
const riskNet = `
topology
  router A
  router M1
  router M2
  router D
  link A M1
  link M1 D
  link A M2
  link M2 D
end
router A
  ospf
  exit
end
router M1
  ospf
  exit
end
router M2
  ospf
  exit
end
router D
  ospf
    network 10.0.0.0/24
  exit
end
`

func TestProbabilityWithRisks(t *testing.T) {
	pipe := runPipe(t, riskNet, src.Options{PruneK: -1})
	topo := pipe.Net.Topology
	a := topo.MustRouter("A")
	q := pipe.Query(a, route.MustParsePrefix("10.0.0.0/24"))
	prop := q.Reach()

	const pl = 0.1
	model := prob.LinkModel{PDown: pl}
	base, _ := q.MinProbability(prop, pipe.LinkWeights(model))
	// Independent: P = 1 - (1 - q²)² with q = 0.9 per link →
	// P = 1 - (1-0.81)² = 0.9639.
	if math.Abs(base-0.9639) > 1e-9 {
		t.Fatalf("independent probability = %v, want 0.9639", base)
	}

	// A risk group with zero probability changes nothing.
	am1, _ := topo.LinkBetween(a, topo.MustRouter("M1"))
	am2, _ := topo.LinkBetween(a, topo.MustRouter("M2"))
	same := pipe.ProbabilityUnder(prop, pipe.RiskWeights(model,
		[]RiskGroup{{Links: []topology.LinkID{am1, am2}, PDown: 0}}))
	if len(same) != 1 || math.Abs(same[0].P-base) > 1e-9 {
		t.Errorf("zero-probability group changed the result: %v", same)
	}

	// A group that takes down one link of EACH path with probability g:
	// reach requires the group NOT to fire, so P = (1-g)·P_independent.
	const g = 0.05
	got := pipe.ProbabilityUnder(prop, pipe.RiskWeights(model,
		[]RiskGroup{{Links: []topology.LinkID{am1, am2}, PDown: g}}))
	want := (1 - g) * base
	if len(got) != 1 || math.Abs(got[0].P-want) > 1e-9 {
		t.Errorf("correlated probability = %v, want %v", got, want)
	}

	// A group covering only one path's link hurts less than covering
	// both paths.
	oneSide := pipe.ProbabilityUnder(prop, pipe.RiskWeights(model,
		[]RiskGroup{{Links: []topology.LinkID{am1}, PDown: g}}))
	if oneSide[0].P <= got[0].P {
		t.Errorf("single-path risk (%v) should hurt less than both-path risk (%v)",
			oneSide[0].P, got[0].P)
	}
}

func TestProbabilityWithRisksLimit(t *testing.T) {
	pipe := runPipe(t, riskNet, src.Options{PruneK: -1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too many risk groups")
		}
	}()
	groups := make([]RiskGroup, MaxRiskGroups+1)
	pipe.RiskWeights(prob.LinkModel{PDown: 0.1}, groups)
}
