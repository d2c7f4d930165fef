package baselines

import (
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/sim"
	"sre/internal/topology"
)

// NetDice is the probabilistic-exploration baseline: it computes the
// probability that a (source, prefix) pair is reachable under
// independent link failures by exploring failure scenarios in order of
// likelihood, exploiting the "cold link" observation — links off the
// current forwarding paths cannot change the outcome — and stopping when
// the unexplored probability mass falls below the imprecision bound.
// This mirrors the published NetDice algorithm's structure; like
// NetDice, it answers ONE pair per run, which is why SRE overtakes it on
// all-pairs workloads (Figure 8) while NetDice wins on single
// properties.
type NetDice struct {
	Net *config.Network
	// PLinkDown is the independent link failure probability.
	PLinkDown float64
	// Imprecision bounds the unexplored probability mass (default 1e-4).
	Imprecision float64
	// Explorations counts concrete simulations performed.
	Explorations int
	// Err records the first simulation failure (a non-convergent
	// control plane); when set, the exploration stopped early and the
	// reported lower bound covers only the scenario classes explored.
	Err error
}

// Reachability returns (lower bound, imprecision actually left) for the
// probability that src reaches pfx's origins.
func (nd *NetDice) Reachability(src topology.RouterID, pfx route.Prefix) (float64, float64) {
	if nd.Imprecision == 0 {
		nd.Imprecision = 1e-4
	}
	origins := make(map[topology.RouterID]bool)
	for _, o := range nd.Net.OriginsOf(pfx) {
		origins[o] = true
	}
	addr := pfx.Addr
	p := nd.PLinkDown
	total := 0.0
	leftover := 0.0

	// explore(down, upCond, weight): scenario class where links in
	// `down` failed, links in `upCond` are conditioned up, and all other
	// links are free; weight = probability of the conditioning.
	var explore func(down []topology.LinkID, up map[topology.LinkID]bool, weight float64)
	explore = func(down []topology.LinkID, up map[topology.LinkID]bool, weight float64) {
		if nd.Err != nil {
			return
		}
		if weight < nd.Imprecision {
			leftover += weight
			return
		}
		nd.Explorations++
		res, err := sim.Simulate(nd.Net, sim.NewScenario(down...))
		if err != nil {
			nd.Err = err
			return
		}
		hot, delivered := res.HotLinks(src, addr, origins)
		if !delivered {
			// Disconnection (or policy drop) under the optimistic
			// all-free-links-up scenario: failures only remove links,
			// so no extension of this class restores delivery for
			// shortest-path routing. Contributes zero.
			return
		}
		// The packet is delivered whenever all currently-free hot
		// links are up; cold links are irrelevant (NetDice's theorem).
		free := make([]topology.LinkID, 0, len(hot))
		for l := range hot {
			if !up[l] {
				free = append(free, l)
			}
		}
		// Deterministic order for reproducibility.
		for i := 1; i < len(free); i++ {
			for j := i; j > 0 && free[j] < free[j-1]; j-- {
				free[j], free[j-1] = free[j-1], free[j]
			}
		}
		wAllUp := weight
		for range free {
			wAllUp *= 1 - p
		}
		total += wAllUp
		// Branch: first free hot link down; first up and second down; …
		wPrefix := weight
		for i, l := range free {
			wBranch := wPrefix * p
			newDown := append(append([]topology.LinkID(nil), down...), l)
			newUp := make(map[topology.LinkID]bool, len(up)+i)
			for k := range up {
				newUp[k] = true
			}
			for _, prev := range free[:i] {
				newUp[prev] = true
			}
			explore(newDown, newUp, wBranch)
			wPrefix *= 1 - p
		}
	}
	explore(nil, map[topology.LinkID]bool{}, 1.0)
	return total, leftover
}

// AllReachability computes the probability for every (source, prefix)
// pair by running the single-pair algorithm per pair (the Figure 8
// "all" workload).
func (nd *NetDice) AllReachability() map[Pair]float64 {
	t := nd.Net.Topology
	out := make(map[Pair]float64)
	for _, pfx := range nd.Net.AllPrefixes() {
		origins := make(map[topology.RouterID]bool)
		for _, o := range nd.Net.OriginsOf(pfx) {
			origins[o] = true
		}
		for s := 0; s < t.NumRouters(); s++ {
			if origins[topology.RouterID(s)] {
				continue
			}
			pr, _ := nd.Reachability(topology.RouterID(s), pfx)
			out[Pair{topology.RouterID(s), pfx}] = pr
		}
	}
	return out
}

// ReachabilityWithNodes extends the exploration to independent node
// failures (probability PNodeDown each): node-failure combinations are
// enumerated outer-most in order of increasing size until their
// probability tail falls below the imprecision bound; each combination
// fails all incident links and the link-level exploration runs
// underneath. This mirrors how NetDice layers node failures over its
// link exploration.
func (nd *NetDice) ReachabilityWithNodes(src topology.RouterID, pfx route.Prefix, pNodeDown float64) (float64, float64) {
	if nd.Imprecision == 0 {
		nd.Imprecision = 1e-4
	}
	t := nd.Net.Topology
	n := t.NumRouters()
	total := 0.0
	leftover := 0.0
	// Enumerate node subsets by increasing size; stop when the binomial
	// tail is below the imprecision.
	maxNodes := 0
	for tail := 1.0; maxNodes <= n; maxNodes++ {
		tail = binomTail(n, maxNodes, pNodeDown)
		if tail < nd.Imprecision/2 {
			break
		}
	}
	var rec func(start int, downNodes []topology.RouterID, weight float64)
	rec = func(start int, downNodes []topology.RouterID, weight float64) {
		// Contribution of this exact node scenario: remaining nodes up.
		wHere := weight
		for i := start; i < n; i++ {
			wHere *= 1 - pNodeDown
		}
		if wHere >= nd.Imprecision/16 {
			srcDown := false
			for _, d := range downNodes {
				if d == src {
					srcDown = true
				}
			}
			if !srcDown {
				pLink, lo := nd.reachabilityWithDownNodes(src, pfx, downNodes)
				total += wHere * pLink
				leftover += wHere * lo
			}
		} else {
			leftover += wHere
		}
		if len(downNodes) >= maxNodes {
			return
		}
		for i := start; i < n; i++ {
			w := weight * pNodeDown
			for j := start; j < i; j++ {
				w *= 1 - pNodeDown
			}
			rec(i+1, append(downNodes, topology.RouterID(i)), w)
		}
	}
	rec(0, nil, 1.0)
	return total, leftover
}

// reachabilityWithDownNodes runs the link-level exploration with the
// links of the failed nodes forced down.
func (nd *NetDice) reachabilityWithDownNodes(src topology.RouterID, pfx route.Prefix, downNodes []topology.RouterID) (float64, float64) {
	t := nd.Net.Topology
	forced := make(map[topology.LinkID]bool)
	for _, node := range downNodes {
		for _, lid := range t.Router(node).Links {
			forced[lid] = true
		}
	}
	origins := make(map[topology.RouterID]bool)
	for _, o := range nd.Net.OriginsOf(pfx) {
		origins[o] = true
	}
	addr := pfx.Addr
	p := nd.PLinkDown
	total := 0.0
	leftover := 0.0
	baseDown := make([]topology.LinkID, 0, len(forced))
	for l := range forced {
		baseDown = append(baseDown, l)
	}
	var explore func(down []topology.LinkID, up map[topology.LinkID]bool, weight float64)
	explore = func(down []topology.LinkID, up map[topology.LinkID]bool, weight float64) {
		if nd.Err != nil {
			return
		}
		if weight < nd.Imprecision {
			leftover += weight
			return
		}
		nd.Explorations++
		res, err := sim.Simulate(nd.Net, sim.NewScenario(down...))
		if err != nil {
			nd.Err = err
			return
		}
		hot, delivered := res.HotLinks(src, addr, origins)
		if !delivered {
			return
		}
		free := make([]topology.LinkID, 0, len(hot))
		for l := range hot {
			if !up[l] {
				free = append(free, l)
			}
		}
		for i := 1; i < len(free); i++ {
			for j := i; j > 0 && free[j] < free[j-1]; j-- {
				free[j], free[j-1] = free[j-1], free[j]
			}
		}
		wAllUp := weight
		for range free {
			wAllUp *= 1 - p
		}
		total += wAllUp
		wPrefix := weight
		for i, l := range free {
			wBranch := wPrefix * p
			newDown := append(append([]topology.LinkID(nil), down...), l)
			newUp := make(map[topology.LinkID]bool, len(up)+i)
			for k := range up {
				newUp[k] = true
			}
			for _, prev := range free[:i] {
				newUp[prev] = true
			}
			explore(newDown, newUp, wBranch)
			wPrefix *= 1 - p
		}
	}
	explore(baseDown, map[topology.LinkID]bool{}, 1.0)
	return total, leftover
}

// binomTail returns P(X > k) for X ~ Binomial(n, p), small-n exact.
func binomTail(n, k int, p float64) float64 {
	if k >= n {
		return 0
	}
	cum := 0.0
	c := 1.0
	for m := 0; m <= k; m++ {
		if m > 0 {
			c = c * float64(n-m+1) / float64(m)
		}
		term := c
		for i := 0; i < m; i++ {
			term *= p
		}
		for i := 0; i < n-m; i++ {
			term *= 1 - p
		}
		cum += term
	}
	if cum > 1 {
		cum = 1
	}
	return 1 - cum
}

// WaypointProbability computes the probability that traffic from src to
// pfx traverses waypoint w, by restricting hot-path delivery to paths
// through w (Figure 14's workload).
func (nd *NetDice) WaypointProbability(src topology.RouterID, pfx route.Prefix, w topology.RouterID) (float64, float64) {
	if nd.Imprecision == 0 {
		nd.Imprecision = 1e-4
	}
	origins := make(map[topology.RouterID]bool)
	for _, o := range nd.Net.OriginsOf(pfx) {
		origins[o] = true
	}
	addr := pfx.Addr
	p := nd.PLinkDown
	total := 0.0
	leftover := 0.0
	var explore func(down []topology.LinkID, up map[topology.LinkID]bool, weight float64)
	explore = func(down []topology.LinkID, up map[topology.LinkID]bool, weight float64) {
		if nd.Err != nil {
			return
		}
		if weight < nd.Imprecision {
			leftover += weight
			return
		}
		nd.Explorations++
		res, err := sim.Simulate(nd.Net, sim.NewScenario(down...))
		if err != nil {
			nd.Err = err
			return
		}
		hot, delivered := res.HotLinks(src, addr, origins)
		if !delivered {
			return
		}
		// The waypoint holds, as in SRE, when some delivering ECMP
		// branch visits w: w is the source or an endpoint of a link of
		// the hot DAG, which holds exactly the delivering branches'
		// links (this baseline, like NetDice, evaluates path
		// properties per scenario).
		free := make([]topology.LinkID, 0, len(hot))
		for l := range hot {
			if !up[l] {
				free = append(free, l)
			}
		}
		for i := 1; i < len(free); i++ {
			for j := i; j > 0 && free[j] < free[j-1]; j-- {
				free[j], free[j-1] = free[j-1], free[j]
			}
		}
		if hotTraverses(nd.Net.Topology, hot, src, w) {
			wAllUp := weight
			for range free {
				wAllUp *= 1 - p
			}
			total += wAllUp
		}
		wPrefix := weight
		for i, l := range free {
			wBranch := wPrefix * p
			newDown := append(append([]topology.LinkID(nil), down...), l)
			newUp := make(map[topology.LinkID]bool, len(up)+i)
			for k := range up {
				newUp[k] = true
			}
			for _, prev := range free[:i] {
				newUp[prev] = true
			}
			explore(newDown, newUp, wBranch)
			wPrefix *= 1 - p
		}
	}
	explore(nil, map[topology.LinkID]bool{}, 1.0)
	return total, leftover
}

// hotTraverses reports whether a delivering branch from src visits w,
// given the links of every delivering branch (HotLinks).
func hotTraverses(t *topology.Topology, hot map[topology.LinkID]bool, src, w topology.RouterID) bool {
	if src == w {
		return true
	}
	for lid := range hot {
		if l := t.Link(lid); l.A == w || l.B == w {
			return true
		}
	}
	return false
}
