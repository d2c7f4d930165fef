// Package route defines concrete routing protocol routes and the
// decision procedure that ranks them: administrative distance across
// protocols first, then protocol-specific preference (BGP best-path
// selection, OSPF cost). Symbolic route computation attaches topology
// conditions to these concrete routes (§4.1 of the paper: a symbolic
// route is a (route, tc) pair).
package route

import (
	"fmt"
	"slices"
	"strings"
)

// Protocol identifies the routing protocol that produced a route.
type Protocol uint8

// Supported protocols, matching the paper's implementation (§8:
// "Currently, SRE supports OSPF, BGP, and static route").
const (
	Connected Protocol = iota
	Static
	EBGP
	IBGP
	OSPF
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case Connected:
		return "connected"
	case Static:
		return "static"
	case EBGP:
		return "ebgp"
	case IBGP:
		return "ibgp"
	case OSPF:
		return "ospf"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// AdminDistance returns the default administrative distance (Cisco
// conventions): lower is preferred when ranking routes for the same
// prefix across protocols.
func (p Protocol) AdminDistance() int {
	switch p {
	case Connected:
		return 0
	case Static:
		return 1
	case EBGP:
		return 20
	case OSPF:
		return 110
	case IBGP:
		return 200
	default:
		return 255
	}
}

// Prefix is an IPv4 prefix in host byte order.
type Prefix struct {
	Addr uint32 // network address; bits below Len are zero
	Len  int    // prefix length, 0..32
}

// MustParsePrefix parses "a.b.c.d/len", panicking on malformed input.
// Intended for literals in tests and generators.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len": exactly four decimal octets (each
// at most 255), one '/', and a decimal length from 0 to 32, with nothing
// before, between or after them. Host bits below the mask are cleared.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("route: prefix %q missing /len", s)
	}
	var addr uint32
	rest := s[:slash]
	for i := range 4 {
		if i > 0 {
			if rest == "" || rest[0] != '.' {
				return Prefix{}, fmt.Errorf("route: bad address in %q", s)
			}
			rest = rest[1:]
		}
		v, n := decimal(rest, 255)
		if n < 0 {
			return Prefix{}, fmt.Errorf("route: octet out of range in %q", s)
		}
		if n == 0 {
			return Prefix{}, fmt.Errorf("route: bad address in %q", s)
		}
		addr = addr<<8 | uint32(v)
		rest = rest[n:]
	}
	if rest != "" {
		return Prefix{}, fmt.Errorf("route: bad address in %q", s)
	}
	l, n := decimal(s[slash+1:], 32)
	if n < 0 {
		return Prefix{}, fmt.Errorf("route: length out of range in %q", s)
	}
	if n == 0 || n != len(s)-slash-1 {
		return Prefix{}, fmt.Errorf("route: bad length in %q", s)
	}
	return Prefix{Addr: addr & MaskOf(l), Len: l}, nil
}

// decimal reads the leading decimal digits of s as a number at most
// limit. It returns the number and how many digits it read: 0 when s
// does not start with a digit, -1 when the number exceeds limit.
func decimal(s string, limit int) (v, n int) {
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		if v = v*10 + int(s[n]-'0'); v > limit {
			return 0, -1
		}
		n++
	}
	return v, n
}

// MaskOf returns the network mask with the top len bits set.
func MaskOf(len int) uint32 {
	if len <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - len)
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr uint32) bool {
	return addr&MaskOf(p.Len) == p.Addr
}

// Covers reports whether p covers q (q is equal to or more specific
// than p).
func (p Prefix) Covers(q Prefix) bool {
	return q.Len >= p.Len && q.Addr&MaskOf(p.Len) == p.Addr
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		p.Addr>>24, p.Addr>>16&0xff, p.Addr>>8&0xff, p.Addr&0xff, p.Len)
}

// Route is a concrete protocol route: the data carried by one RIB entry,
// without its topology condition (which the src package attaches). Its
// AS path and communities are never written in place: every change
// (Clone, a route-map action, a prepend) makes new slices, so copies of
// a route may share them.
type Route struct {
	Prefix   Prefix
	Protocol Protocol
	// NextHop is the router ID of the next hop (-1 for locally
	// originated/connected routes).
	NextHop int
	// EgressLink is the link used to reach the next hop (-1 if local).
	EgressLink int

	// BGP attributes.
	LocalPref    int      // higher preferred; default 100
	ASPath       []uint32 // sequence of AS numbers, nearest first
	MED          int      // lower preferred
	Communities  []uint64
	OriginatorID int // router ID of the origin, used as final tiebreak

	// OSPF attribute.
	Cost int // accumulated path cost; lower preferred

	// Hops counts propagation hops; the engine drops routes exceeding
	// its hop bound to guarantee termination (no best route under any
	// failure scenario traverses a non-simple path).
	Hops int

	// Aggregate marks a locally generated BGP aggregate route.
	Aggregate bool
}

// NewLocal returns a locally originated route for p on the given
// protocol (Connected or the protocol that redistributes it).
func NewLocal(p Prefix, proto Protocol, origin int) *Route {
	return &Route{
		Prefix:       p,
		Protocol:     proto,
		NextHop:      -1,
		EgressLink:   -1,
		LocalPref:    100,
		OriginatorID: origin,
	}
}

// Clone returns a deep copy of r.
func (r *Route) Clone() *Route {
	cp := *r
	cp.ASPath = append([]uint32(nil), r.ASPath...)
	cp.Communities = append([]uint64(nil), r.Communities...)
	return &cp
}

// HasCommunity reports whether the route carries community c.
func (r *Route) HasCommunity(c uint64) bool {
	for _, v := range r.Communities {
		if v == c {
			return true
		}
	}
	return false
}

// ContainsAS reports whether the AS path contains asn (BGP loop
// prevention).
func (r *Route) ContainsAS(asn uint32) bool {
	for _, v := range r.ASPath {
		if v == asn {
			return true
		}
	}
	return false
}

// Compare ranks two routes for the same prefix: negative if a is
// preferred over b, positive if b is preferred, zero if they tie (an
// ECMP group). The order follows standard router behaviour:
//
//  1. lower administrative distance (protocol preference, which also
//     puts eBGP over OSPF over iBGP);
//  2. BGP: higher local-pref, shorter AS path, lower MED;
//  3. OSPF: lower cost.
//
// Compare never breaks a tie: routes it ranks equal form one ECMP tier,
// kept in Tiebreak order inside it, and with ECMP off the first route
// of a tier wins.
func Compare(a, b *Route) int {
	if d := a.Protocol.AdminDistance() - b.Protocol.AdminDistance(); d != 0 {
		return d
	}
	switch a.Protocol {
	case EBGP, IBGP:
		if d := b.LocalPref - a.LocalPref; d != 0 {
			return d
		}
		if d := len(a.ASPath) - len(b.ASPath); d != 0 {
			return d
		}
		if d := a.MED - b.MED; d != 0 {
			return d
		}
	case OSPF:
		if d := a.Cost - b.Cost; d != 0 {
			return d
		}
	}
	return 0
}

// Tiebreak orders routes deterministically inside an equal-priority
// group: by next hop, then egress link. Used to keep symbolic RIBs
// stable across runs.
func Tiebreak(a, b *Route) int {
	if d := a.NextHop - b.NextHop; d != 0 {
		return d
	}
	return a.EgressLink - b.EgressLink
}

// SameRoute reports whether two routes are the same logical route — the
// test Algorithm 1 uses to detect a re-advertisement that only updates
// the topology condition. Identity is prefix, protocol, next hop, egress
// link, local-pref, MED, cost, originator, the aggregate flag and the
// communities and the AS path (both element-wise). Merging routes that
// differ only in their AS path would break the AS-path loop check
// downstream. Communities are identity because a route-map downstream
// may match them: two routes that differ only there, merged into one
// advertisement, would carry one route's communities under the other's
// condition. Hops are deliberately not identity: a re-advertisement
// refreshes them on the route already held.
func SameRoute(a, b *Route) bool {
	return a.Prefix == b.Prefix && a.Protocol == b.Protocol &&
		a.NextHop == b.NextHop && a.EgressLink == b.EgressLink &&
		a.LocalPref == b.LocalPref && a.MED == b.MED && a.Cost == b.Cost &&
		a.OriginatorID == b.OriginatorID && a.Aggregate == b.Aggregate &&
		slices.Equal(a.Communities, b.Communities) && slices.Equal(a.ASPath, b.ASPath)
}

// identityHash hashes exactly the fields SameRoute compares, so routes
// that are the same hash the same. It is unseeded: equal inputs hash
// equally in every process.
func (r *Route) identityHash() uint64 {
	h := uint64(14695981039346656037)
	h = mix(h, uint64(r.Prefix.Addr)<<8|uint64(r.Prefix.Len))
	h = mix(h, uint64(r.Protocol))
	h = mix(h, uint64(r.NextHop))
	h = mix(h, uint64(r.EgressLink))
	h = mix(h, uint64(r.LocalPref))
	h = mix(h, uint64(r.MED))
	h = mix(h, uint64(r.Cost))
	h = mix(h, uint64(r.OriginatorID))
	if r.Aggregate {
		h = mix(h, 1)
	}
	for _, c := range r.Communities {
		h = mix(h, c)
	}
	for _, as := range r.ASPath {
		h = mix(h, uint64(as))
	}
	return h
}

// mix folds v into h (FNV-1a's step over a whole word, with a final
// shift so the high bits reach the low ones a table index uses).
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 1099511628211
	return h ^ h>>29
}

// String formats the route for debugging.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s nh=%d", r.Prefix, r.Protocol, r.NextHop)
	switch r.Protocol {
	case EBGP, IBGP:
		fmt.Fprintf(&b, " lp=%d aspath=%v", r.LocalPref, r.ASPath)
	case OSPF:
		fmt.Fprintf(&b, " cost=%d", r.Cost)
	}
	return b.String()
}
