package sre_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sre"
	"sre/internal/workload"
)

func TestForwardingClasses(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	classes, err := v.ForwardingClasses("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("no forwarding classes from A")
	}
	// The primary class: direct A→C for 128/2 with all relevant links
	// up (MinFailures 0), covering a quarter of the address space...
	// 128/2 = 2^30 addresses.
	var direct *sre.ForwardingClass
	for i := range classes {
		c := &classes[i]
		if len(c.Path) == 2 && c.Path[0] == "A" && c.Path[1] == "C" && c.Delivered {
			direct = c
		}
	}
	if direct == nil {
		t.Fatal("missing direct A→C class")
	}
	if direct.MinFailures != 0 {
		t.Errorf("direct path min failures = %d, want 0", direct.MinFailures)
	}
	if math.Abs(direct.Packets-math.Pow(2, 30)) > 1 {
		t.Errorf("direct path packets = %g, want 2^30 (the 128/2 owned space)", direct.Packets)
	}
	// Backup class via B requires at least one failure for 128/2, but
	// 192/2 uses it from zero failures — combined class MinFailures 0.
	for _, c := range classes {
		if len(c.Path) == 3 && c.Delivered && c.MinFailures > 1 {
			t.Errorf("3-hop class should activate within one failure: %v", c)
		}
	}
	if s := classes[0].String(); s == "" {
		t.Error("String should render")
	}
	if _, err := v.ForwardingClasses("nope"); err == nil {
		t.Error("unknown router must error")
	}
}

func TestRouterNames(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: 0})
	defer v.Release()
	names := v.RouterNames()
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Fatalf("RouterNames = %v", names)
	}
}

// TestClassesSameAtEverySetting pins one definition of a forwarding
// class (Definition 1: the tuples that traverse one path): NumPFECs and
// every ForwardingClasses field from every router read the same at P=1,
// P=2 and P=8, with a cold and a warm store, on two worker subprocesses
// and resilient (no prefix overflows). The inputs have nested prefixes
// (the quickstart network), prefixes that share paths (Campus(40), and
// a fat tree whose edge routers originate two prefixes each, answered
// through symmetry orbits) and OSPF (a WAN).
func TestClassesSameAtEverySetting(t *testing.T) {
	golden, err := sre.ParseNetwork(goldenNetwork)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		net  *sre.Network
	}{
		{"quickstart", golden},
		{"campus40", workload.Campus(workload.CampusOptions{VLANs: 40})},
		{"fattree4-two-prefixes", sre.TwoPrefixFatTree(4)},
		{"wan-ospf", workload.SyntheticWAN("classes", 16, 24, workload.OSPF, 23)},
	}
	classes := func(t *testing.T, net *sre.Network, opts sre.Options) (int, [][]sre.ForwardingClass) {
		t.Helper()
		opts.MaxFailures = 1
		v, err := sre.NewVerifier(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		var out [][]sre.ForwardingClass
		for _, r := range v.RouterNames() {
			c, err := v.ForwardingClasses(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
		return v.NumPFECs(), out
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			wantN, want := classes(t, in.net, sre.Options{Parallelism: 1})
			dir := t.TempDir()
			for _, setting := range []struct {
				name string
				opts sre.Options
			}{
				{"P=2", sre.Options{Parallelism: 2}},
				{"P=8", sre.Options{Parallelism: 8}},
				{"cold store", sre.Options{Parallelism: 1}},
				{"warm store", sre.Options{Parallelism: 1}},
				{"workers=2", sre.Options{Workers: 2}},
				{"resilient", sre.Options{Parallelism: 1, Resilient: true}},
			} {
				var st *sre.Store
				if setting.name == "cold store" || setting.name == "warm store" {
					if st, err = sre.OpenStore(dir, sre.StoreOptions{}); err != nil {
						t.Fatal(err)
					}
					setting.opts.Store = st
				}
				gotN, got := classes(t, in.net, setting.opts)
				if st != nil {
					if m := st.Metrics(); setting.name == "warm store" && (m.Hits == 0 || m.Misses != 0) {
						t.Errorf("warm store: %+v, want hits and no miss", m)
					}
					st.Close()
				}
				if gotN != wantN {
					t.Errorf("%s: NumPFECs %d, want %d (P=1)", setting.name, gotN, wantN)
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s, router %d: forwarding classes differ from P=1:\n got  %v\n want %v",
							setting.name, i, fmt.Sprint(got[i]), fmt.Sprint(want[i]))
					}
				}
			}
		})
	}
}
