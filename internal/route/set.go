package route

import "slices"

// Set is an insertion-ordered map from logical routes to values: two
// routes are the same key exactly when SameRoute says so. Lookup scans
// the entries comparing the stored 64-bit hash first and SameRoute on a
// match — a hash alone is never identity — and iteration follows
// insertion order, never the hash. The zero value and a nil *Set are
// empty sets; entries cannot be removed.
//
// The scan is the whole lookup on purpose: one set holds the routes of
// one prefix on one session (at most 33 on FatTree(6) k=1, 7 on the
// 200-VLAN campus), and an open-addressing index beside it measured no
// faster even on 948-entry sets (FatTree(4) with pruning off).
type Set[V any] struct {
	entries []Entry[V]
}

// Entry is one route of a Set with its value. Route is the route first
// added under this identity.
type Entry[V any] struct {
	Route *Route
	Value V
	hash  uint64
}

// Entries returns the entries in insertion order. The slice is the
// set's own: values may be updated in place, and it is valid until the
// next Add.
func (s *Set[V]) Entries() []Entry[V] {
	if s == nil {
		return nil
	}
	return s.entries
}

// Get returns the entry holding the same route as rt, or nil. The
// pointer is valid until the next Add.
func (s *Set[V]) Get(rt *Route) *Entry[V] {
	if s == nil || len(s.entries) == 0 {
		return nil
	}
	return s.find(rt, rt.identityHash())
}

// Add inserts rt with value v unless the set already holds the same
// route; it returns that route's entry and whether it was added now.
func (s *Set[V]) Add(rt *Route, v V) (*Entry[V], bool) {
	return s.add(rt, rt.identityHash(), v)
}

// AddCopy is Add for a route the caller goes on using: only when rt's
// identity is new does the set keep a route, and then it is a copy of
// *rt. rt may therefore be a stack value rebuilt for the next candidate,
// and a candidate that merges into an entry allocates nothing. The copy
// shares rt's AS path and communities, which are never written in
// place (see Route).
func (s *Set[V]) AddCopy(rt *Route, v V) (*Entry[V], bool) {
	h := rt.identityHash()
	if e := s.find(rt, h); e != nil {
		return e, false
	}
	cp := *rt
	return s.push(&cp, h, v), true
}

// Grow makes room for n more entries, so that adding them allocates at
// most once.
func (s *Set[V]) Grow(n int) { s.entries = slices.Grow(s.entries, n) }

func (s *Set[V]) add(rt *Route, h uint64, v V) (*Entry[V], bool) {
	if e := s.find(rt, h); e != nil {
		return e, false
	}
	return s.push(rt, h, v), true
}

func (s *Set[V]) push(rt *Route, h uint64, v V) *Entry[V] {
	s.entries = append(s.entries, Entry[V]{Route: rt, Value: v, hash: h})
	return &s.entries[len(s.entries)-1]
}

func (s *Set[V]) find(rt *Route, h uint64) *Entry[V] {
	for i := range s.entries {
		if e := &s.entries[i]; e.hash == h && SameRoute(e.Route, rt) {
			return e
		}
	}
	return nil
}
