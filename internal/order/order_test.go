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
	for name, topo := range topos {
		o := Compute(topo, MinDeg)
		if o.Method != MinDeg {
			t.Errorf("%s: resolved method %q", name, o.Method)
		}
		validPerm(t, o.Perm, topo.NumLinks())
	}
}

func TestDeterminism(t *testing.T) {
	topo := workload.FatTree(4, workload.OSPF).Topology
	for _, m := range []Method{Auto, Declaration, MinDeg} {
		a, b := Compute(topo, m), Compute(topo, m)
		if a.Method != b.Method || !reflect.DeepEqual(a.Perm, b.Perm) {
			t.Errorf("%s: two computes differ", m)
		}
	}
}

func TestNormalize(t *testing.T) {
	for in, want := range map[string]Method{
		"": Auto, "auto": Auto, "declaration": Declaration, "mindeg": MinDeg,
	} {
		got, err := Normalize(in)
		if err != nil || got != want {
			t.Errorf("Normalize(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"sift", "bfs"} {
		if _, err := Normalize(in); err == nil {
			t.Errorf("Normalize accepted unknown method %q", in)
		}
	}
}

// TestAutoResolution pins Auto's two regimes: banded hierarchies (fat
// trees) take the tiered mindeg order, everything else keeps the seed
// layout.
func TestAutoResolution(t *testing.T) {
	for _, k := range []int{4, 6} {
		topo := workload.FatTree(k, workload.OSPF).Topology
		auto := Compute(topo, Auto)
		if auto.Method != MinDeg {
			t.Errorf("fattree%d: auto resolved to %q, want mindeg (banded hierarchy)", k, auto.Method)
		}
	}
	nonBanded := map[string]*topology.Topology{
		"wan24": workload.SyntheticWAN("wan", 24, 40, workload.OSPF, 7).Topology,
		"wan30": workload.SyntheticWAN("wan", 30, 55, workload.OSPF, 11).Topology,
	}
	for name, topo := range nonBanded {
		if auto := Compute(topo, Auto); auto.Method != Declaration || auto.Perm != nil {
			t.Errorf("%s: auto resolved to %q, want declaration", name, auto.Method)
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
		perm := Compute(topo, MinDeg).Perm
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

func TestIDResolved(t *testing.T) {
	topo := workload.FatTree(4, workload.OSPF).Topology
	if id := Compute(topo, Auto).ID(); id == "auto" || id == "" {
		t.Errorf("Auto ID not resolved: %q", id)
	}
	if id := Compute(topo, Declaration).ID(); id != "declaration" {
		t.Errorf("Declaration ID = %q", id)
	}
}
