package baselines

import (
	"errors"
	"sort"
	"time"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/topology"
)

// Hoyan is the SAT/DNF topology-condition baseline of §8.6 (Table 3):
// Hoyan encodes each route's topology condition as a SAT formula kept in
// disjunctive normal form so that partially impossible routes can be
// pruned term by term. Negating and conjoining conditions during route
// ranking makes the formulas explode with the failure budget k —
// "topology condition explosion" — which this substitute measures by
// running a DNF-condition symbolic route computation for one prefix and
// reporting the peak formula length, running time, and timeouts.
type Hoyan struct {
	Net *config.Network
	// PruneK is the failure budget: terms requiring more than PruneK
	// failed links are pruned (Hoyan's route pruning).
	PruneK int
	// TermLimit aborts the computation when any condition exceeds this
	// many terms (default 200000).
	TermLimit int
	// Timeout aborts on wall-clock time (default 60s).
	Timeout time.Duration
}

// ErrTimeout is reported when the DNF computation exceeds its term
// limit or deadline — Table 3's "timeout" entries.
var ErrTimeout = errors.New("baselines: topology-condition explosion (timeout)")

// term is a conjunction of link literals: links in up must be up, links
// in down must be down. Both slices are sorted and disjoint.
type term struct {
	up, down []topology.LinkID
}

func (t term) clone() term {
	return term{up: append([]topology.LinkID(nil), t.up...), down: append([]topology.LinkID(nil), t.down...)}
}

// size is the literal count of the term.
func (t term) size() int { return len(t.up) + len(t.down) }

// dnf is a disjunction of terms. An empty dnf is False; a dnf holding
// one empty term is True.
type dnf []term

func insertSortedLink(s []topology.LinkID, l topology.LinkID) ([]topology.LinkID, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= l })
	if i < len(s) && s[i] == l {
		return s, true
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = l
	return s, false
}

func containsLink(s []topology.LinkID, l topology.LinkID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= l })
	return i < len(s) && s[i] == l
}

// andLit conjoins a single literal onto every term, dropping
// contradictions and terms exceeding the failure budget.
func (d dnf) andLit(l topology.LinkID, up bool, pruneK int) dnf {
	out := make(dnf, 0, len(d))
	for _, t := range d {
		if up {
			if containsLink(t.down, l) {
				continue
			}
			nt := t.clone()
			nt.up, _ = insertSortedLink(nt.up, l)
			out = append(out, nt)
		} else {
			if containsLink(t.up, l) {
				continue
			}
			nt := t.clone()
			nt.down, _ = insertSortedLink(nt.down, l)
			if pruneK >= 0 && len(nt.down) > pruneK {
				continue
			}
			out = append(out, nt)
		}
	}
	return out
}

// or concatenates (with naive subsumption on exact duplicates).
func (d dnf) or(e dnf) dnf {
	out := append(append(dnf{}, d...), e...)
	return out.dedupe()
}

func (t term) key() string {
	b := make([]byte, 0, 4*(len(t.up)+len(t.down)))
	for _, l := range t.up {
		b = append(b, byte('u'), byte(l>>8), byte(l))
	}
	for _, l := range t.down {
		b = append(b, byte('d'), byte(l>>8), byte(l))
	}
	return string(b)
}

func (d dnf) dedupe() dnf {
	seen := make(map[string]bool, len(d))
	out := d[:0:0]
	for _, t := range d {
		k := t.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// and computes the conjunction by cross product — the expensive
// operation that drives the explosion. One product can outlast the
// whole budget, so the deadline is polled once per term of d.
func (d dnf) and(e dnf, pruneK int, limit int, deadline time.Time) (dnf, error) {
	var out dnf
	for _, t1 := range d {
		if time.Now().After(deadline) {
			return nil, ErrTimeout
		}
		for _, t2 := range e {
			nt := t1.clone()
			ok := true
			for _, l := range t2.up {
				if containsLink(nt.down, l) {
					ok = false
					break
				}
				nt.up, _ = insertSortedLink(nt.up, l)
			}
			if !ok {
				continue
			}
			for _, l := range t2.down {
				if containsLink(nt.up, l) {
					ok = false
					break
				}
				nt.down, _ = insertSortedLink(nt.down, l)
			}
			if !ok {
				continue
			}
			if pruneK >= 0 && len(nt.down) > pruneK {
				continue
			}
			out = append(out, nt)
			if len(out) > limit {
				return nil, ErrTimeout
			}
		}
	}
	return out.dedupe(), nil
}

// not negates the DNF (De Morgan plus distribution), the other driver
// of the explosion.
func (d dnf) not(pruneK int, limit int, deadline time.Time) (dnf, error) {
	// ¬(t1 ∨ t2 ∨ …) = ¬t1 ∧ ¬t2 ∧ …, where ¬term is a small DNF of
	// its negated literals.
	result := dnf{term{}} // True
	for _, t := range d {
		var neg dnf
		for _, l := range t.up {
			neg = append(neg, term{down: []topology.LinkID{l}})
		}
		for _, l := range t.down {
			neg = append(neg, term{up: []topology.LinkID{l}})
		}
		var err error
		result, err = result.and(neg, pruneK, limit, deadline)
		if err != nil {
			return nil, err
		}
	}
	return result, nil
}

// length is the total literal count — the "TC Length" column of Table 3.
func (d dnf) length() int {
	n := 0
	for _, t := range d {
		n += t.size()
	}
	return n
}

// Result of a DNF route computation for one prefix.
type HoyanResult struct {
	// PeakTCLength is the largest topology-condition length observed.
	PeakTCLength int
	// Elapsed is the computation time.
	Elapsed time.Duration
	// TimedOut reports whether the computation aborted.
	TimedOut bool
}

// ComputePrefix runs symbolic route computation for one destination
// prefix with DNF-encoded topology conditions, mirroring what the BDD
// engine does for the same prefix: routes propagate hop by hop, ranked
// by path length, and each route's installed condition negates the
// imported conditions of all better routes (equation 1 of the paper).
func (h *Hoyan) ComputePrefix(pfx route.Prefix) HoyanResult {
	if h.TermLimit == 0 {
		h.TermLimit = 200000
	}
	if h.Timeout == 0 {
		h.Timeout = 60 * time.Second
	}
	start := time.Now()
	deadline := start.Add(h.Timeout)
	t := h.Net.Topology
	n := t.NumRouters()

	// Per router: routes keyed by (next hop, path length); condition is
	// the imported DNF.
	type dnfRoute struct {
		nextHop topology.RouterID
		via     topology.LinkID
		pathLen int
		tcIn    dnf
		tcRib   dnf
	}
	ribs := make([][]*dnfRoute, n)
	res := HoyanResult{}
	observe := func(d dnf) {
		if l := d.length(); l > res.PeakTCLength {
			res.PeakTCLength = l
		}
	}
	origins := h.Net.OriginsOf(pfx)
	if len(origins) == 0 {
		res.Elapsed = time.Since(start)
		return res
	}
	queue := []topology.RouterID{}
	queued := make([]bool, n)
	push := func(r topology.RouterID) {
		if !queued[r] {
			queued[r] = true
			queue = append(queue, r)
		}
	}
	isOrigin := make([]bool, n)
	for _, o := range origins {
		isOrigin[o] = true
		push(o)
	}
	fail := func() HoyanResult {
		res.TimedOut = true
		res.Elapsed = time.Since(start)
		return res
	}
	for iter := 0; len(queue) > 0; iter++ {
		if iter > 2000*n {
			return fail()
		}
		if time.Now().After(deadline) {
			return fail()
		}
		r := queue[0]
		queue = queue[1:]
		queued[r] = false
		// Recompute installed conditions, ranked by path length, with
		// negation of better routes (the explosion driver).
		rib := ribs[r]
		sort.SliceStable(rib, func(i, j int) bool {
			if rib[i].pathLen != rib[j].pathLen {
				return rib[i].pathLen < rib[j].pathLen
			}
			return rib[i].nextHop < rib[j].nextHop
		})
		matchedNeg := dnf{term{}} // ¬(nothing) = True
		changed := false
		if isOrigin[r] {
			matchedNeg = dnf{} // origin's own route always wins: ¬True
		}
		for _, rt := range rib {
			var err error
			tcRib, err := rt.tcIn.and(matchedNeg, h.PruneK, h.TermLimit, deadline)
			if err != nil {
				return fail()
			}
			observe(tcRib)
			if !sameDNF(rt.tcRib, tcRib) {
				rt.tcRib = tcRib
				changed = true
			}
			neg, err := rt.tcIn.not(h.PruneK, h.TermLimit, deadline)
			if err != nil {
				return fail()
			}
			matchedNeg, err = matchedNeg.and(neg, h.PruneK, h.TermLimit, deadline)
			if err != nil {
				return fail()
			}
			observe(matchedNeg)
		}
		if !changed && !isOrigin[r] {
			continue
		}
		// Export to neighbors.
		for _, lid := range t.Router(r).Links {
			nbr := t.Link(lid).Other(r)
			// Advertised condition: union of installed routes (or True
			// at the origin), conjoined with the link.
			var advTC dnf
			advLen := 0
			if isOrigin[r] {
				advTC = dnf{term{}}
			} else {
				for _, rt := range ribs[r] {
					if len(rt.tcRib) == 0 || rt.nextHop == nbr {
						continue // split horizon towards the next hop
					}
					advTC = advTC.or(rt.tcRib)
					if rt.pathLen+1 > advLen {
						advLen = rt.pathLen
					}
				}
			}
			if len(advTC) == 0 {
				continue
			}
			advTC = advTC.andLit(lid, true, h.PruneK)
			if len(advTC) == 0 {
				continue
			}
			if advTC.length() > h.TermLimit {
				return fail()
			}
			// Merge into neighbor's rib.
			minLen := advLen + 1
			found := false
			for _, rt := range ribs[nbr] {
				if rt.nextHop == r && rt.via == lid {
					found = true
					if !sameDNF(rt.tcIn, advTC) || rt.pathLen != minLen {
						rt.tcIn = advTC
						rt.pathLen = minLen
						push(nbr)
					}
				}
			}
			if !found && !isOrigin[nbr] {
				ribs[nbr] = append(ribs[nbr], &dnfRoute{nextHop: r, via: lid, pathLen: minLen, tcIn: advTC})
				push(nbr)
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

func sameDNF(a, b dnf) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make(map[string]int, len(a))
	for _, t := range a {
		keys[t.key()]++
	}
	for _, t := range b {
		keys[t.key()]--
	}
	for _, v := range keys {
		if v != 0 {
			return false
		}
	}
	return true
}
