package sre

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/symmetry"
	"sre/internal/topology"
	"sre/internal/workload"
)

// answers is everything sameAnswers compares, read from one verifier.
type answers struct {
	numPFECs    int
	tolerances  []string            // FailureTolerances per source, printed
	classes     [][]ForwardingClass // ForwardingClasses per source
	pairs       []string            // every pair question and its answer, printed
	probability []float64           // Probability per pair
}

// collect asks v every pair question — FailureTolerance,
// WaypointTolerance and WaypointOnlyTolerance (through one waypoint per
// pair), IsolationTolerance, LoadBalancedPaths and Probability — plus
// FailureTolerances and ForwardingClasses per source and NumPFECs.
func collect(t *testing.T, v *Verifier) answers {
	t.Helper()
	a := answers{numPFECs: v.NumPFECs()}
	routers := v.RouterNames()
	model := LinkFailures(1e-3)
	for i, s := range routers {
		tols, err := v.FailureTolerances(s)
		if err != nil {
			t.Fatal(err)
		}
		a.tolerances = append(a.tolerances, fmt.Sprint(tols))
		classes, err := v.ForwardingClasses(s)
		if err != nil {
			t.Fatal(err)
		}
		a.classes = append(a.classes, classes)
		for j, r := range tols {
			p, w := r.Prefix, routers[(i+j+1)%len(routers)]
			k, err := v.FailureTolerance(s, p)
			kw, errw := v.WaypointTolerance(s, p, w)
			ko, erro := v.WaypointOnlyTolerance(s, p, w)
			ki, erri := v.IsolationTolerance(s, p)
			n, errn := v.LoadBalancedPaths(s, p)
			pr, errp := v.Probability(s, p, model)
			a.pairs = append(a.pairs, fmt.Sprintf("%s → %s via %s: tolerance %d %v, waypoint %d %v, waypoint-only %d %v, isolation %d %v, paths %d %v, probability error %v",
				s, p, w, k, err, kw, errw, ko, erro, ki, erri, n, errn, errp))
			a.probability = append(a.probability, pr)
		}
	}
	return a
}

// imaged reports whether v answered some prefix through its orbit.
func imaged(v *Verifier) bool {
	for _, o := range v.outcomes {
		if _, ok := v.part.Image(o.Prefix); ok {
			return true
		}
	}
	return false
}

// sameAnswers reports every difference between want and got.
func sameAnswers(t *testing.T, want, got answers) {
	t.Helper()
	if want.numPFECs != got.numPFECs {
		t.Errorf("NumPFECs: %d, want %d", got.numPFECs, want.numPFECs)
	}
	for i := range want.tolerances {
		if want.tolerances[i] != got.tolerances[i] {
			t.Errorf("FailureTolerances:\n got  %v\n want %v", got.tolerances[i], want.tolerances[i])
		}
		if !reflect.DeepEqual(want.classes[i], got.classes[i]) {
			t.Errorf("ForwardingClasses: %d classes, want %d:\n got  %v\n want %v",
				len(got.classes[i]), len(want.classes[i]), got.classes[i], want.classes[i])
		}
	}
	for i := range want.pairs {
		if want.pairs[i] != got.pairs[i] {
			t.Errorf("got  %s\nwant %s", got.pairs[i], want.pairs[i])
		}
		if math.Abs(want.probability[i]-got.probability[i]) > 1e-12 {
			t.Errorf("%s: probability %.15f, want %.15f", want.pairs[i], got.probability[i], want.probability[i])
		}
	}
}

// twoPrefixFatTree is FatTree(arity) with every edge router originating
// a second /24 (10.1.i.0/24 next to 10.0.i.0/24): two orbits whose
// members share routers, and so share forwarding classes.
func twoPrefixFatTree(arity int) *Network {
	net := workload.FatTree(arity, workload.BGP)
	for _, rc := range net.Routers {
		if rc.BGP != nil && len(rc.BGP.Networks) == 1 {
			p := rc.BGP.Networks[0]
			rc.BGP.Networks = append(rc.BGP.Networks, route.Prefix{Addr: p.Addr | 1<<16, Len: p.Len})
		}
	}
	return net
}

// aggregatedFatTree is FatTree(arity) with every aggregation and core
// router aggregating 10.0.0.0/16, which covers every edge prefix: each
// representative's task domain holds the aggregate's other
// contributors, the members of its own orbit.
func aggregatedFatTree(arity int) *Network {
	net := workload.FatTree(arity, workload.BGP)
	for _, rc := range net.Routers {
		if rc.BGP != nil && len(rc.BGP.Networks) == 0 {
			rc.BGP.Aggregates = append(rc.BGP.Aggregates, route.MustParsePrefix("10.0.0.0/16"))
		}
	}
	return net
}

// TestOrbitRunsMatchFullRuns verifies fat trees one prefix per orbit
// through the facade and compares every answer with the run that
// verifies every prefix at the same P, at P=1 (one combined space) and
// P=2 (one scoped space per prefix), with no store, a cold one and a
// warm one. Every run must have answered some prefix through its orbit,
// each representative in a scoped space of its own; the cold store must
// have been given a record for every prefix, and the warm run must read
// one per orbit.
func TestOrbitRunsMatchFullRuns(t *testing.T) {
	type input struct {
		name string
		net  *Network
		k    int
	}
	inputs := []input{
		{"fattree4-k0", workload.FatTree(4, workload.BGP), 0},
		{"fattree4-k1", workload.FatTree(4, workload.BGP), 1},
		{"fattree4-k2", workload.FatTree(4, workload.BGP), 2},
		{"fattree4-ospf-k1", workload.FatTree(4, workload.OSPF), 1},
		{"fattree4-two-prefixes-k1", twoPrefixFatTree(4), 1},
		{"fattree4-aggregate-k1", aggregatedFatTree(4), 1},
		{"fattree6-k1", workload.FatTree(6, workload.BGP), 1},
	}
	// The two largest take half a minute, ten times that under the race
	// detector; the plain test run keeps them.
	if !testing.Short() && !raceDetector {
		inputs = append(inputs,
			input{"fattree6-k2", workload.FatTree(6, workload.BGP), 2},
			input{"fattree8-k1", workload.FatTree(8, workload.BGP), 1})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			prefixes := len(in.net.AllPrefixes())
			reps := prefixes
			for _, o := range symmetry.Find(in.net).All() {
				reps -= len(o) - 1
			}
			reference := map[int]answers{}
			for _, par := range []int{1, 2} {
				want, err := newVerifier(in.net, Options{MaxFailures: in.k, Parallelism: par}, false)
				if err != nil {
					t.Fatal(err)
				}
				reference[par] = collect(t, want)
				want.Release()
			}
			for _, par := range []int{1, 2} {
				dir := t.TempDir()
				for _, store := range []string{"none", "cold", "warm"} {
					opts := Options{MaxFailures: in.k, Parallelism: par}
					if store != "none" {
						st, err := OpenStore(dir, StoreOptions{})
						if err != nil {
							t.Fatal(err)
						}
						opts.Store = st
					}
					got, err := NewVerifier(in.net, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !imaged(got) {
						t.Errorf("P=%d, %s store: no prefix answered through its orbit", par, store)
					}
					for _, pipe := range got.part.Groups {
						if pipe.Scope == nil {
							t.Errorf("P=%d, %s store: a representative verified in an unscoped space", par, store)
						}
					}
					t.Logf("P=%d, %s store", par, store)
					sameAnswers(t, reference[par], collect(t, got))
					got.Release()
					if opts.Store == nil {
						continue
					}
					m := opts.Store.Metrics()
					if store == "cold" && (m.Puts != int64(prefixes) || m.PutErrors != 0) {
						t.Errorf("P=%d, cold store: %+v, want %d puts", par, m, prefixes)
					}
					if store == "warm" && (m.Hits != int64(reps) || m.Misses != 0 || m.Puts != 0) {
						t.Errorf("P=%d, warm store: %+v, want %d hits (one per orbit), no misses or puts", par, m, reps)
					}
					opts.Store.Close()
				}
			}
		})
	}
}

// TestOrbitFilledStoreServesFullRuns fills a cold store from an orbit
// run — at P=1, at P=2 and on two worker subprocesses — and then reads
// it with a run that uses no orbits, which looks up every prefix's own
// record: the member records the orbit run made by renaming must all be
// there (every prefix hits, none misses) and answer exactly as the run
// without a store, verified in one combined space at P=1. Every record
// must pass Store.Verify. Then one edge router originates one more /24,
// which breaks its orbit: every old prefix's key is unchanged and still
// hits, and the answers are a cold full run's.
func TestOrbitFilledStoreServesFullRuns(t *testing.T) {
	type input struct {
		name string
		net  *Network
		k    int
	}
	inputs := []input{
		{"fattree4-k0", workload.FatTree(4, workload.BGP), 0},
		{"fattree4-k1", workload.FatTree(4, workload.BGP), 1},
		{"fattree4-k2", workload.FatTree(4, workload.BGP), 2},
		{"fattree4-ospf-k1", workload.FatTree(4, workload.OSPF), 1},
		{"fattree6-k1", workload.FatTree(6, workload.BGP), 1},
	}
	fills := []struct {
		name string
		opts Options
	}{
		{"P=1", Options{Parallelism: 1}},
		{"P=2", Options{Parallelism: 2}},
		{"workers=2", Options{Workers: 2}},
	}
	run := func(t *testing.T, net *Network, opts Options, orbits bool, dir string) (answers, StoreMetrics, bool) {
		t.Helper()
		var st *Store
		if dir != "" {
			var err error
			if st, err = OpenStore(dir, StoreOptions{}); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			opts.Store = st
		}
		v, err := newVerifier(net, opts, orbits)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		a := collect(t, v)
		var m StoreMetrics
		if st != nil {
			m = st.Metrics()
		}
		return a, m, imaged(v)
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			prefixes := int64(len(in.net.AllPrefixes()))
			want, _, _ := run(t, in.net, Options{MaxFailures: in.k, Parallelism: 1}, false, "")
			var filled string
			for _, fill := range fills {
				dir := t.TempDir()
				opts := fill.opts
				opts.MaxFailures = in.k
				// A fleet's workers publish the representatives' records from
				// their own store handles, so only Verify below counts them.
				if _, m, imaged := run(t, in.net, opts, true, dir); !imaged || m.PutErrors != 0 {
					t.Fatalf("%s fill: imaged %v, store %+v; want orbits and no put error", fill.name, imaged, m)
				}
				got, m, _ := run(t, in.net, Options{MaxFailures: in.k, Parallelism: 2}, false, dir)
				if m.Hits != prefixes || m.Misses != 0 || m.Quarantined != 0 {
					t.Errorf("%s fill, full run: store %+v, want %d hits and no miss", fill.name, m, prefixes)
				}
				sameAnswers(t, want, got)
				st, err := OpenStore(dir, StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if rep, err := st.Verify(); err != nil || rep.Checked != int(prefixes) || rep.OK != rep.Checked {
					t.Errorf("%s fill: Store.Verify %+v, %v; want %d records, all ok", fill.name, rep, err, prefixes)
				}
				st.Close()
				filled = dir
			}

			edited := in.net.Clone()
			edge, _ := edited.Topology.RouterByName("edge0-0")
			extra := route.MustParsePrefix("10.200.0.0/24")
			if rc := edited.Routers[edge]; rc.BGP != nil {
				rc.BGP.Networks = append(rc.BGP.Networks, extra)
			} else {
				rc.OSPF.Networks = append(rc.OSPF.Networks, extra)
			}
			want, _, _ = run(t, edited, Options{MaxFailures: in.k, Parallelism: 1}, false, "")
			got, m, _ := run(t, edited, Options{MaxFailures: in.k, Parallelism: 2}, false, filled)
			if m.Hits != prefixes || m.Misses != 1 {
				t.Errorf("after the edit: store %+v, want %d hits and the new prefix's miss", m, prefixes)
			}
			sameAnswers(t, want, got)
		})
	}
}

// TestLadderKeepsOrbitsOff: the rung a prefix lands on depends on its
// node counts under the variable order, which a renaming does not
// preserve, so a resilient run must verify every member of an orbit
// itself (RenamingInvariant's ladder term). FatTree(4) k=3 is one orbit
// of 8 prefixes; at a 31 000-node limit half of them verify at the
// requested budget and half overflow it and verify at a halved one.
// Answering the members through one representative would give them
// all its rungs and tolerances.
func TestLadderKeepsOrbitsOff(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	opts := Options{MaxFailures: 3, BDDNodeLimit: 31000, Resilient: true, Parallelism: 1}
	run := func(orbits bool) ([]PrefixOutcome, []PrefixResult) {
		v, err := newVerifier(net, opts, orbits)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		sweep, err := v.FailureTolerances("edge0-0")
		if err != nil {
			t.Fatal(err)
		}
		return v.Outcomes(), sweep
	}
	wantOuts, wantSweep := run(false)
	degraded := 0
	for _, o := range wantOuts {
		if o.Degraded {
			degraded++
		}
	}
	if len(wantOuts) != 8 || degraded != 4 {
		t.Fatalf("fixture drifted: %d of %d prefixes degraded, want 4 of 8", degraded, len(wantOuts))
	}
	gotOuts, gotSweep := run(true)
	if !reflect.DeepEqual(gotOuts, wantOuts) {
		t.Errorf("outcomes diverge from the run without orbits\n got %+v\nwant %+v", gotOuts, wantOuts)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Errorf("tolerance sweep diverges from the run without orbits\n got %+v\nwant %+v", gotSweep, wantSweep)
	}
}

// TestOrbitsRespectWhatBreaksSymmetry perturbs FatTree(4) where a
// renaming would have to notice: an extra link, an ACL naming
// 10.0.0.0/23 on every core interface, a route map matching a community
// that names an AS number, and one changed OSPF cost. The prefixes a
// perturbation sets apart must stay apart, the run must answer exactly
// what verifying every prefix answers, and where no orbit is left it
// must do that run's work.
func TestOrbitsRespectWhatBreaksSymmetry(t *testing.T) {
	edge := func(net *Network, a, b string) topology.LinkID {
		l, ok := net.Topology.LinkBetween(net.Topology.MustRouter(a), net.Topology.MustRouter(b))
		if !ok {
			t.Fatalf("no link %s %s", a, b)
		}
		return l
	}
	extraLink := func() *Network {
		text := FormatNetwork(workload.FatTree(4, workload.BGP))
		net, err := ParseNetwork(replaceOnce(t, text, "end\n", "  link edge0-0 agg1-0\nend\n"))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	acl := func() *Network {
		net := workload.FatTree(4, workload.BGP)
		for _, name := range []string{"core0", "core1", "core2", "core3"} {
			id := net.Topology.MustRouter(name)
			for _, l := range net.Topology.Router(id).Links {
				net.Router(id).Interface(l).ACLIn = &config.ACL{Entries: []config.ACLEntry{
					{Action: config.Deny, Prefix: route.MustParsePrefix("10.0.0.0/23")},
					{Action: config.Permit, Any: true}}}
			}
		}
		return net
	}
	community := func() *Network {
		net := workload.FatTree(4, workload.BGP)
		rc := net.RouterByName("edge0-0")
		rc.RouteMaps["AS64516"] = &config.RouteMap{Clauses: []*config.Clause{
			{Seq: 10, Action: config.Deny, MatchCommunity: 64516<<16 | 100},
			{Seq: 20, Action: config.Permit}}}
		rc.BGP.ImportPolicy["agg0-0"] = "AS64516"
		return net
	}
	cost := func() *Network {
		net := workload.FatTree(4, workload.OSPF)
		net.RouterByName("edge0-0").Interface(edge(net, "edge0-0", "agg0-0")).OSPFCost = 5
		return net
	}
	inside := route.MustParsePrefix("10.0.0.0/23")
	own := route.MustParsePrefix("10.0.0.0/24")
	for _, c := range []struct {
		name string
		net  *Network
		// apart reports whether a perturbation sets p and q apart.
		apart func(p, q route.Prefix) bool
	}{
		{"extra-link", extraLink(), func(p, q route.Prefix) bool { return p == own || q == own }},
		{"acl-10.0.0.0/23", acl(), func(p, q route.Prefix) bool { return inside.Covers(p) != inside.Covers(q) }},
		{"community-names-as", community(), func(p, q route.Prefix) bool { return true }},
		{"ospf-cost", cost(), func(p, q route.Prefix) bool { return p == own || q == own }},
	} {
		t.Run(c.name, func(t *testing.T) {
			orbits := symmetry.Find(c.net)
			for _, orbit := range orbits.All() {
				for _, p := range orbit {
					if c.apart(orbit[0], p) {
						t.Errorf("orbit %v holds %s and %s, which the perturbation sets apart", orbit, orbit[0], p)
					}
				}
				for _, p := range orbit {
					if err := symmetry.Check(c.net, orbits.Carry(orbit[0], p)); err != nil {
						t.Errorf("carry %s → %s: %v", orbit[0], p, err)
					}
				}
			}
			opts := Options{MaxFailures: 1, Parallelism: 1}
			want, err := newVerifier(c.net, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			defer want.Release()
			got, err := NewVerifier(c.net, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Release()
			sameAnswers(t, collect(t, want), collect(t, got))
			if orbits.Len() == 0 {
				w, g := want.Metrics(), got.Metrics()
				if w.RoutesImported != g.RoutesImported || w.Activations != g.Activations {
					t.Errorf("no orbit, yet %d imports and %d activations against %d and %d",
						g.RoutesImported, g.Activations, w.RoutesImported, w.Activations)
				}
			}
		})
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	t.Fatalf("%q not found", old)
	return s
}

// podNetwork builds a random network of two or three identical pods
// around shared core routers: the pods share one random template of
// internal links, uplinks, originated prefixes (none, one or two per
// router), OSPF costs and ACLs covering every pod's prefixes, so a
// symmetry maps any pod onto any other. With perturb, one random change
// breaks some of that symmetry.
func podNetwork(rng *rand.Rand, perturb bool) *Network {
	pods, size, cores := 2+rng.Intn(2), 1+rng.Intn(3), 1+rng.Intn(2)
	ospf := rng.Intn(2) == 1
	topo := topology.NewTopology()
	for c := range cores {
		topo.AddRouter(fmt.Sprintf("core%d", c))
	}
	router := func(p, j int) topology.RouterID { return topology.RouterID(cores + p*size + j) }
	for p := range pods {
		for j := range size {
			topo.AddRouter(fmt.Sprintf("pod%d-%d", p, j))
		}
	}
	type link struct{ a, b, cost int } // a, b < 0: core -a-1
	var template []link
	for a := range size {
		for b := a + 1; b < size; b++ {
			if rng.Intn(2) == 0 {
				template = append(template, link{a, b, 1 + rng.Intn(3)})
			}
		}
		for c := range cores {
			if rng.Intn(2) == 0 || (a == 0 && c == 0) {
				template = append(template, link{a, -c - 1, 1 + rng.Intn(3)})
			}
		}
	}
	at := func(p, x int) topology.RouterID {
		if x < 0 {
			return topology.RouterID(-x - 1)
		}
		return router(p, x)
	}
	for p := range pods {
		for _, l := range template {
			topo.AddLink(at(p, l.a), at(p, l.b))
		}
	}
	if perturb && rng.Intn(3) == 0 {
		if _, dup := topo.LinkBetween(router(0, 0), router(1, size-1)); !dup {
			topo.AddLink(router(0, 0), router(1, size-1))
		}
	}
	net := config.NewNetwork(topo)
	counts := make([]int, size)
	for j := range counts {
		counts[j] = rng.Intn(3)
	}
	acl := rng.Intn(3) == 0
	for r, rc := range net.Routers {
		if ospf {
			rc.OSPF = &config.OSPF{}
		} else {
			rc.BGP = &config.BGP{ASN: uint32(64512 + r), ImportPolicy: map[string]string{}, ExportPolicy: map[string]string{}}
		}
	}
	for p := range pods {
		for j := range size {
			rc := net.Router(router(p, j))
			var prefixes []route.Prefix
			for k := range counts[j] {
				prefixes = append(prefixes, route.Prefix{Addr: 10<<24 | uint32(k)<<16 | uint32(p*size+j)<<8, Len: 24})
			}
			if ospf {
				rc.OSPF.Networks = prefixes
			} else {
				rc.BGP.Networks = prefixes
			}
		}
		for i, l := range template {
			lid := topology.LinkID(p*len(template) + i)
			if ospf {
				net.Router(at(p, l.a)).Interface(lid).OSPFCost = l.cost
			}
			if acl && l.b < 0 {
				net.Router(at(p, l.b)).Interface(lid).ACLIn = &config.ACL{Entries: []config.ACLEntry{
					{Action: config.Deny, Prefix: route.Prefix{Addr: 10<<24 | 1<<16, Len: 16}},
					{Action: config.Permit, Any: true}}}
			}
		}
	}
	if perturb {
		switch rng.Intn(3) {
		case 0:
			rc := net.Router(router(1, 0))
			rc.Interface(topo.Router(router(1, 0)).Links[0]).OSPFCost = 7
		case 1:
			rc := net.Router(topology.RouterID(0))
			rc.Interface(topo.Router(0).Links[0]).ACLOut = &config.ACL{Entries: []config.ACLEntry{
				{Action: config.Deny, Prefix: route.Prefix{Addr: 10 << 24, Len: 24}},
				{Action: config.Permit, Any: true}}}
		}
	}
	return net
}

// TestOrbitRunsMatchOnRandomPods compares orbit runs with full runs on
// random pod networks, symmetric and perturbed, BGP and OSPF, at P=1
// and P=2: routers with several prefixes, paths shared by several
// orbits' members, ACLs and lopsided costs all go through the same
// comparison as the fat trees.
func TestOrbitRunsMatchOnRandomPods(t *testing.T) {
	withOrbits := 0
	for seed := range int64(40) {
		rng := rand.New(rand.NewSource(seed))
		net := podNetwork(rng, seed%2 == 1)
		if len(net.AllPrefixes()) == 0 {
			continue
		}
		for _, par := range []int{1, 2} {
			opts := Options{MaxFailures: 1, Parallelism: par}
			want, err := newVerifier(net, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewVerifier(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			if imaged(got) {
				withOrbits++
			}
			sameAnswers(t, collect(t, want), collect(t, got))
			want.Release()
			got.Release()
			if t.Failed() {
				t.Fatalf("seed %d, P=%d:\n%s", seed, par, FormatNetwork(net))
			}
		}
	}
	if withOrbits < 20 {
		t.Errorf("only %d runs answered through orbits", withOrbits)
	}
}
