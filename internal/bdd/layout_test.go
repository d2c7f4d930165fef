package bdd

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestRecordSizes pins the memory layout of the kernel's two hot
// tables: a node record and an operation-cache entry are 16 bytes each,
// so four records, or one 2-way set, fit in a 64-byte cache line and a
// probe reads one line. Both hold with a 32-bit int too (GOARCH=386).
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 16 {
		t.Errorf("node record is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(cacheEntry{}); got != 16 {
		t.Errorf("op-cache entry is %d bytes, want 16", got)
	}
}

// TestCacheKeyRoundTrip: every op code and every first operand a node
// limit allows come back out of the packed key unchanged, and no key is
// the empty entry's zero.
func TestCacheKeyRoundTrip(t *testing.T) {
	for op := opAnd; op <= opDiffSat; op++ {
		for _, f := range []Node{False, True, 2, MaxNodeLimit / 2, MaxNodeLimit - 1} {
			e := cacheEntry{key: cacheKey(op, f)}
			if e.key == 0 || e.op() != op || e.f() != f {
				t.Errorf("cacheKey(%d, %d) = %#x decodes to op %d, f %d", op, f, e.key, e.op(), e.f())
			}
		}
	}
	if opDiffSat >= 1<<opBits {
		t.Errorf("op code %d does not fit in %d bits", opDiffSat, opBits)
	}
}

// TestNodeLimitRange: a limit from 0 (the default) to MaxNodeLimit is
// accepted; any other is refused by CheckNodeLimit, with the range in
// the message, and New panics on it as on a negative variable count.
func TestNodeLimitRange(t *testing.T) {
	if MaxNodeLimit != 1<<27 || DefaultNodeLimit > MaxNodeLimit {
		t.Fatalf("MaxNodeLimit %d, DefaultNodeLimit %d; want 2^27 and the default within it", MaxNodeLimit, DefaultNodeLimit)
	}
	for _, n := range []int{0, 1, 20000, DefaultNodeLimit, MaxNodeLimit} {
		if err := CheckNodeLimit(n); err != nil {
			t.Errorf("CheckNodeLimit(%d): %v", n, err)
		}
		New(Config{Vars: 2, NodeLimit: n})
	}
	for _, n := range []int{-1, math.MinInt32, MaxNodeLimit + 1, math.MaxInt32} {
		err := CheckNodeLimit(n)
		if err == nil || !strings.Contains(err.Error(), "[0, 134217728]") {
			t.Errorf("CheckNodeLimit(%d) = %v, want an error naming [0, 134217728]", n, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with node limit %d did not panic", n)
				}
			}()
			New(Config{Vars: 2, NodeLimit: n})
		}()
	}
}
