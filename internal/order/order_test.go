package order

import (
	"reflect"
	"testing"

	"sre/internal/topology"
	"sre/internal/workload"
)

func validPerm(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for l, v := range perm {
		if v < 0 || v >= n {
			t.Fatalf("perm[%d] = %d out of range [0,%d)", l, v, n)
		}
		if seen[v] {
			t.Fatalf("perm[%d] = %d assigned twice", l, v)
		}
		seen[v] = true
	}
}

func TestPermValidity(t *testing.T) {
	topos := map[string]*topology.Topology{
		"fattree4": workload.FatTree(4, workload.OSPF).Topology,
		"fattree6": workload.FatTree(6, workload.OSPF).Topology,
		"wan":      workload.SyntheticWAN("wan", 24, 40, workload.OSPF, 7).Topology,
	}
	for _, topo := range topos {
		validPerm(t, tierPerm(topo), topo.NumLinks())
	}
}

func TestDeterminism(t *testing.T) {
	for name, topo := range map[string]*topology.Topology{
		"fattree4": workload.FatTree(4, workload.OSPF).Topology,
		"wan":      workload.SyntheticWAN("wan", 24, 40, workload.OSPF, 7).Topology,
	} {
		if a, b := Compute(topo), Compute(topo); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two computes differ", name)
		}
	}
}

// TestAutoResolution pins Compute's two regimes: banded hierarchies
// (fat trees) take the tiered mindeg order, everything else keeps the
// declaration layout.
func TestAutoResolution(t *testing.T) {
	for _, k := range []int{4, 6} {
		topo := workload.FatTree(k, workload.OSPF).Topology
		if o := Compute(topo); o.Name != "mindeg" || o.Perm == nil {
			t.Errorf("fattree%d: computed %q, want mindeg (banded hierarchy)", k, o.Name)
		}
	}
	nonBanded := map[string]*topology.Topology{
		"wan24": workload.SyntheticWAN("wan", 24, 40, workload.OSPF, 7).Topology,
		"wan30": workload.SyntheticWAN("wan", 30, 55, workload.OSPF, 11).Topology,
	}
	for name, topo := range nonBanded {
		if o := Compute(topo); o.Name != "declaration" || o.Perm != nil {
			t.Errorf("%s: computed %q, want declaration", name, o.Name)
		}
	}
}

// TestTieredOrderStructure pins the shape that measurably cuts peak
// BDD nodes on fat trees: every pod-fabric link (min endpoint degree
// k/2) sorts strictly below every core uplink (min degree k), and
// mindeg keeps declaration order within each band.
func TestTieredOrderStructure(t *testing.T) {
	for _, k := range []int{4, 6} {
		topo := workload.FatTree(k, workload.OSPF).Topology
		n := topo.NumLinks()
		perm := Compute(topo).Perm
		for i := 0; i < n; i++ {
			l := topo.Link(topology.LinkID(i))
			da, db := len(topo.Router(l.A).Links), len(topo.Router(l.B).Links)
			isFabric := da == k/2 || db == k/2 // one endpoint is an edge router
			if isFabric != (perm[i] < n/2) {
				t.Fatalf("fattree%d: link %d (fabric=%v) at level %d of %d",
					k, i, isFabric, perm[i], n)
			}
		}
		// Within a band, mindeg preserves declaration order.
		prev := -1
		for i := 0; i < n; i++ {
			if perm[i] < n/2 { // fabric band, in LinkID order
				if perm[i] < prev {
					t.Fatalf("fattree%d: mindeg reordered links within the fabric band", k)
				}
				prev = perm[i]
			}
		}
	}
}
