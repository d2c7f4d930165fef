package route

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("128.0.0.0/1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != 0x80000000 || p.Len != 1 {
		t.Fatalf("parsed %+v", p)
	}
	// Host bits below the mask are cleared.
	p, err = ParsePrefix("10.1.2.3/8")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != 10<<24 {
		t.Fatalf("host bits not cleared: %x", p.Addr)
	}
	if p.String() != "10.0.0.0/8" {
		t.Fatalf("String: %s", p)
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0/8", "256.0.0.0/8", "10.0.0.0/33", "10.0.0.0/-1", "x.0.0.0/8",
		"10.0.0.0x/8", "10.0.0.0/8x", "+10.0.0.0/8", " 10.0.0.0/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

// FuzzParsePrefix checks that ParsePrefix never panics and that every
// prefix it accepts prints back to text that parses to the same prefix.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{"10.1.2.3/8", "0.0.0.0/0", "255.255.255.255/32", "10.0.0.0/8x", "1.2.3/4", "/", "300.1.1.1/8"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if p.Len < 0 || p.Len > 32 || p.Addr&^MaskOf(p.Len) != 0 {
			t.Fatalf("ParsePrefix(%q) = %+v: length out of range or host bits set", s, p)
		}
		q, err := ParsePrefix(p.String())
		if err != nil || q != p {
			t.Fatalf("ParsePrefix(%q) = %v, which reparses as %v, %v", s, p, q, err)
		}
	})
}

func TestMustParsePrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParsePrefix("bogus")
}

func TestPrefixContainsCovers(t *testing.T) {
	p8 := MustParsePrefix("10.0.0.0/8")
	p16 := MustParsePrefix("10.1.0.0/16")
	other := MustParsePrefix("11.0.0.0/8")
	all := MustParsePrefix("0.0.0.0/0")
	if !p8.Contains(0x0A010203) || p8.Contains(0x0B000000) {
		t.Error("Contains")
	}
	if !p8.Covers(p16) || p16.Covers(p8) || p8.Covers(other) {
		t.Error("Covers")
	}
	if !all.Covers(p8) || !all.Contains(0xFFFFFFFF) {
		t.Error("default route should cover everything")
	}
	if !p8.Overlaps(p16) || !p16.Overlaps(p8) || p8.Overlaps(other) {
		t.Error("Overlaps")
	}
}

func TestMaskOf(t *testing.T) {
	if MaskOf(0) != 0 || MaskOf(32) != 0xFFFFFFFF || MaskOf(8) != 0xFF000000 {
		t.Fatal("MaskOf")
	}
	if MaskOf(-3) != 0 {
		t.Fatal("negative mask")
	}
}

func TestAdminDistanceOrdering(t *testing.T) {
	// connected < static < eBGP < OSPF < iBGP
	order := []Protocol{Connected, Static, EBGP, OSPF, IBGP}
	for i := 1; i < len(order); i++ {
		if order[i-1].AdminDistance() >= order[i].AdminDistance() {
			t.Errorf("%v should beat %v", order[i-1], order[i])
		}
	}
}

func TestCompareBGP(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	base := func() *Route {
		r := NewLocal(p, EBGP, 1)
		r.ASPath = []uint32{1, 2}
		return r
	}
	hi := base()
	hi.LocalPref = 200
	if Compare(hi, base()) >= 0 {
		t.Error("higher local-pref should win")
	}
	short := base()
	short.ASPath = []uint32{1}
	if Compare(short, base()) >= 0 {
		t.Error("shorter AS path should win")
	}
	lowMED := base()
	lowMED.MED = -1
	if Compare(lowMED, base()) >= 0 {
		t.Error("lower MED should win")
	}
	if Compare(base(), base()) != 0 {
		t.Error("identical routes should tie (ECMP)")
	}
}

func TestCompareOSPF(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	a := NewLocal(p, OSPF, 1)
	a.Cost = 5
	b := NewLocal(p, OSPF, 2)
	b.Cost = 7
	if Compare(a, b) >= 0 {
		t.Error("lower cost should win")
	}
	b.Cost = 5
	if Compare(a, b) != 0 {
		t.Error("equal cost should tie")
	}
}

func TestCompareCrossProtocol(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	st := NewLocal(p, Static, 1)
	bgp := NewLocal(p, EBGP, 1)
	ospf := NewLocal(p, OSPF, 1)
	if Compare(st, bgp) >= 0 || Compare(bgp, ospf) >= 0 {
		t.Error("admin distance ordering broken")
	}
}

func TestSameRouteDistinguishesASPaths(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	a := NewLocal(p, EBGP, 1)
	a.ASPath = []uint32{1, 2}
	b := a.Clone()
	if !SameRoute(a, b) {
		t.Fatal("clones should be the same route")
	}
	b.ASPath = []uint32{1, 3}
	if SameRoute(a, b) {
		t.Fatal("different AS paths are different routes")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	a := NewLocal(p, EBGP, 1)
	a.ASPath = []uint32{1}
	a.Communities = []uint64{100}
	b := a.Clone()
	b.ASPath[0] = 99
	b.Communities[0] = 999
	if a.ASPath[0] != 1 || a.Communities[0] != 100 {
		t.Fatal("Clone shares slices")
	}
}

func TestHasCommunityContainsAS(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	r := NewLocal(p, EBGP, 1)
	r.ASPath = []uint32{65001, 65002}
	r.Communities = []uint64{7}
	if !r.ContainsAS(65001) || r.ContainsAS(65999) {
		t.Error("ContainsAS")
	}
	if !r.HasCommunity(7) || r.HasCommunity(8) {
		t.Error("HasCommunity")
	}
}

func TestQuickPrefixRoundTrip(t *testing.T) {
	f := func(addr uint32, lenRaw uint8) bool {
		l := int(lenRaw) % 33
		p := Prefix{Addr: addr & MaskOf(l), Len: l}
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoversTransitive(t *testing.T) {
	f := func(addr uint32, l1, l2, l3 uint8) bool {
		a := Prefix{Len: int(l1) % 33}
		a.Addr = addr & MaskOf(a.Len)
		b := Prefix{Len: int(l2) % 33}
		b.Addr = addr & MaskOf(b.Len)
		c := Prefix{Len: int(l3) % 33}
		c.Addr = addr & MaskOf(c.Len)
		if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// oldKey is how route identity was defined before it became a value:
// the rendering SameRoute and the advertisement maps compared as text.
// It stays here as the oracle the field-wise definition is pinned to,
// with the communities rendered since they became identity.
func oldKey(r *Route) string {
	agg := 0
	if r.Aggregate {
		agg = 1
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d|%v|%d|%d|%d|%d|%v", r.Prefix, r.Protocol, r.NextHop, r.EgressLink,
		r.LocalPref, r.ASPath, r.MED, r.Cost, r.OriginatorID, agg, r.Communities)
}

// randomRoute draws every field from a small range, so that two
// independent draws collide on most fields and sometimes on all.
func randomRoute(rng *rand.Rand) *Route {
	r := &Route{
		Prefix:       Prefix{Addr: uint32(rng.Intn(2)) << 24, Len: 8 + 8*rng.Intn(2)},
		Protocol:     Protocol(rng.Intn(5)),
		NextHop:      rng.Intn(2) - 1,
		EgressLink:   rng.Intn(2) - 1,
		LocalPref:    100 + 100*rng.Intn(2),
		MED:          rng.Intn(2),
		OriginatorID: rng.Intn(2),
		Cost:         rng.Intn(2),
		Hops:         rng.Intn(3),
		Aggregate:    rng.Intn(4) == 0,
	}
	switch n := rng.Intn(4); n {
	case 0: // nil path
	case 1:
		r.ASPath = []uint32{}
	default:
		for i := 0; i < n-1; i++ {
			r.ASPath = append(r.ASPath, uint32(1+rng.Intn(2)))
		}
	}
	if rng.Intn(2) == 0 {
		r.Communities = []uint64{uint64(rng.Intn(3))}
	}
	return r
}

// mutations each change exactly one identity field.
var mutations = []func(*Route){
	func(r *Route) { r.Prefix.Addr ^= 1 << 31 },
	func(r *Route) { r.Prefix.Len++ },
	func(r *Route) { r.Protocol = (r.Protocol + 1) % 5 },
	func(r *Route) { r.NextHop++ },
	func(r *Route) { r.EgressLink++ },
	func(r *Route) { r.LocalPref++ },
	func(r *Route) { r.MED++ },
	func(r *Route) { r.Cost++ },
	func(r *Route) { r.OriginatorID++ },
	func(r *Route) { r.Aggregate = !r.Aggregate },
	func(r *Route) { r.ASPath = append(r.ASPath, 7) },
	func(r *Route) { r.ASPath = []uint32{9, 9, 9, 9} },
	func(r *Route) { // nil ↔ empty is no change; dropping a real path is one
		if r.ASPath == nil {
			r.ASPath = []uint32{}
		} else {
			r.ASPath = nil
		}
	},
	func(r *Route) { r.Communities = append(r.Communities, 7) },
	func(r *Route) { // nil ↔ empty is no change, as for the AS path
		if r.Communities == nil {
			r.Communities = []uint64{}
		} else {
			r.Communities = nil
		}
	},
}

// TestSameRouteMatchesOldRendering pins the field-wise identity to the
// text it replaced: same verdict on every pair, and equal routes hash
// equally.
func TestSameRouteMatchesOldRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	same, differ := 0, 0
	check := func(a, b *Route) {
		t.Helper()
		want := oldKey(a) == oldKey(b)
		if got := SameRoute(a, b); got != want || SameRoute(b, a) != want {
			t.Fatalf("SameRoute = %v, old rendering says %v\n a %+v\n b %+v", got, want, *a, *b)
		}
		if want {
			same++
			if a.identityHash() != b.identityHash() {
				t.Fatalf("same route, different hash\n a %+v\n b %+v", *a, *b)
			}
		} else {
			differ++
		}
	}
	for i := 0; i < 12000; i++ {
		a := randomRoute(rng)
		check(a, randomRoute(rng))
		b := a.Clone()
		mutations[i%len(mutations)](b)
		check(a, b)
		// A clone differing only in what is not identity.
		c := a.Clone()
		c.Hops = a.Hops + 1
		check(a, c)
	}
	if same < 1000 || differ < 1000 {
		t.Fatalf("unbalanced sample: %d same, %d different pairs", same, differ)
	}
}

// TestIdentityExcludesCarriedAttributes states today's semantics: the
// hop count rides on a route without being part of which route it is,
// so a re-advertisement that changes only it refreshes the route
// already held. Communities are identity (see
// SameRoute): TestSameRouteMatchesOldRendering mutates them.
func TestIdentityExcludesCarriedAttributes(t *testing.T) {
	base := NewLocal(MustParsePrefix("10.0.0.0/8"), EBGP, 1)
	base.ASPath = []uint32{1, 2}
	for _, tc := range []struct {
		name   string
		change func(*Route)
	}{
		{"Hops", func(r *Route) { r.Hops = 9 }},
	} {
		b := base.Clone()
		tc.change(b)
		if !SameRoute(base, b) || base.identityHash() != b.identityHash() {
			t.Errorf("%s is not identity, yet changing it made a different route", tc.name)
		}
	}
}

func distinctRoutes(n int) []*Route {
	out := make([]*Route, n)
	for i := range out {
		out[i] = NewLocal(MustParsePrefix("10.0.0.0/8"), EBGP, 1)
		out[i].ASPath = []uint32{uint32(i), 65000}
	}
	return out
}

func TestSetKeepsInsertionOrder(t *testing.T) {
	var nilSet *Set[int]
	if nilSet.Get(distinctRoutes(1)[0]) != nil || nilSet.Entries() != nil {
		t.Fatal("a nil set is an empty set")
	}
	routes := distinctRoutes(300)
	var s Set[int]
	for i, r := range routes {
		if _, added := s.Add(r, i); !added {
			t.Fatalf("route %d reported present", i)
		}
		// Adding the same identity again keeps the first route and value.
		if e, added := s.Add(r.Clone(), -1); added || e.Route != r || e.Value != i {
			t.Fatalf("re-adding route %d: added=%v entry=%+v", i, added, e)
		}
	}
	if n := len(s.Entries()); n != len(routes) {
		t.Fatalf("%d entries, want %d", n, len(routes))
	}
	for i, e := range s.Entries() {
		if e.Route != routes[i] || e.Value != i {
			t.Fatalf("entry %d is not the %dth route added", i, i)
		}
		if got := s.Get(routes[i].Clone()); got == nil || got.Value != i {
			t.Fatalf("Get(route %d) = %+v", i, got)
		}
	}
	if s.Get(distinctRoutes(301)[300]) != nil {
		t.Fatal("Get found a route never added")
	}
	s.Get(routes[0]).Value = 77
	if s.Entries()[0].Value != 77 {
		t.Fatal("values are updated in place")
	}
}

// TestSetCollisions gives every route the same hash: SameRoute alone
// must tell them apart.
func TestSetCollisions(t *testing.T) {
	routes := distinctRoutes(40)
	var s Set[int]
	for i, r := range routes {
		if _, added := s.add(r, 1, i); !added {
			t.Fatalf("route %d taken for a colliding one", i)
		}
		for j := 0; j <= i; j++ {
			if e := s.find(routes[j], 1); e == nil || e.Value != j {
				t.Fatalf("after %d adds: find(route %d) = %+v", i+1, j, e)
			}
		}
		if i+1 < len(routes) && s.find(routes[i+1], 1) != nil {
			t.Fatalf("found route %d before it was added", i+1)
		}
	}
}

func TestIdentityDoesNotAllocate(t *testing.T) {
	routes := distinctRoutes(64)
	a, b := routes[3], routes[3].Clone()
	if n := testing.AllocsPerRun(100, func() { SameRoute(a, b) }); n != 0 {
		t.Errorf("SameRoute allocates %v times", n)
	}
	var s Set[int]
	for i, r := range routes {
		s.Add(r, i)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Get(b)
		s.Add(b, 0)
	}); n != 0 {
		t.Errorf("lookup and re-insert of a present route allocates %v times", n)
	}
}

var sinkBool bool

func BenchmarkSameRoute(b *testing.B) {
	x := NewLocal(MustParsePrefix("10.0.0.0/8"), EBGP, 1)
	x.ASPath = []uint32{65001, 65002, 65003, 65004}
	same, other := x.Clone(), x.Clone()
	other.ASPath[3] = 65005 // the last field compared
	b.Run("same", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkBool = SameRoute(x, same)
		}
	})
	b.Run("differs-last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkBool = SameRoute(x, other)
		}
	})
	b.Run("differs-first", func(b *testing.B) {
		o := x.Clone()
		o.NextHop = 7
		for i := 0; i < b.N; i++ {
			sinkBool = SameRoute(x, o)
		}
	})
}
