package sre_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"sre"
	"sre/internal/workload"
)

// TestMetricsReport checks the typed report and its JSON schema: stage
// durations, PFEC count, BDD peak nodes, cache hit ratio, and GC runs
// must all be present (the acceptance contract of the -metrics flag).
func TestMetricsReport(t *testing.T) {
	tel := sre.NewTelemetry()
	v := verifier(t, sre.Options{MaxFailures: -1, Telemetry: tel})
	defer v.Release()

	m := v.Metrics()
	if m.SRCSeconds <= 0 || m.SPFSeconds <= 0 {
		t.Errorf("stage durations must be positive: src %v, spf %v", m.SRCSeconds, m.SPFSeconds)
	}
	if m.NumPFECs == 0 || m.NumPFECs != v.NumPFECs() {
		t.Errorf("NumPFECs = %d, verifier reports %d", m.NumPFECs, v.NumPFECs())
	}
	if m.NumRouters != 3 || m.NumLinks != 3 {
		t.Errorf("topology size %d routers / %d links, want 3/3", m.NumRouters, m.NumLinks)
	}
	if m.BDD.PeakNodes <= 0 || m.BDD.LiveNodes > m.BDD.PeakNodes {
		t.Errorf("implausible BDD stats: %+v", m.BDD)
	}
	if m.BDD.CacheHitRatio < 0 || m.BDD.CacheHitRatio > 1 {
		t.Errorf("cache hit ratio %v out of [0,1]", m.BDD.CacheHitRatio)
	}
	if m.Telemetry == nil {
		t.Fatal("telemetry was enabled; report must embed the snapshot")
	}
	if m.Telemetry.Counters["src.activations"] != int64(m.Activations) {
		t.Errorf("telemetry counter src.activations = %d, engine stats %d",
			m.Telemetry.Counters["src.activations"], m.Activations)
	}
	if got := m.Telemetry.Gauges["bdd.peak_nodes"]; got != float64(m.BDD.PeakNodes) {
		t.Errorf("bdd.peak_nodes gauge = %v, stats %d", got, m.BDD.PeakNodes)
	}

	var buf bytes.Buffer
	if err := v.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SRCSeconds float64 `json:"src_seconds"`
		SPFSeconds float64 `json:"spf_seconds"`
		NumPFECs   int     `json:"num_pfecs"`
		BDD        struct {
			PeakNodes     int     `json:"peak_nodes"`
			CacheHitRatio float64 `json:"cache_hit_ratio"`
			GCRuns        int     `json:"gc_runs"`
		} `json:"bdd"`
		Telemetry map[string]json.RawMessage `json:"telemetry"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	if decoded.SRCSeconds != m.SRCSeconds || decoded.NumPFECs != m.NumPFECs ||
		decoded.BDD.PeakNodes != m.BDD.PeakNodes {
		t.Errorf("JSON round trip mismatch: %+v vs %+v", decoded, m)
	}
	if decoded.Telemetry == nil {
		t.Error("telemetry section missing from JSON")
	}
}

// TestMetricsDisabledTelemetry checks the report is complete without a
// telemetry registry and omits the snapshot section.
func TestMetricsDisabledTelemetry(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	m := v.Metrics()
	if m.Telemetry != nil {
		t.Error("telemetry section must be absent when disabled")
	}
	if m.SRCSeconds <= 0 || m.NumPFECs == 0 || m.BDD.PeakNodes == 0 {
		t.Errorf("base metrics must not depend on telemetry: %+v", m)
	}
}

// TestMetricsMonotoneAcrossRuns shares one registry across two runs:
// counters must accumulate, never reset, and peaks only grow.
func TestMetricsMonotoneAcrossRuns(t *testing.T) {
	tel := sre.NewTelemetry()
	v1 := verifier(t, sre.Options{MaxFailures: -1, Telemetry: tel})
	first := v1.Metrics().Telemetry
	v1.Release()
	v2 := verifier(t, sre.Options{MaxFailures: -1, Telemetry: tel})
	defer v2.Release()
	second := v2.Metrics().Telemetry
	for name, val := range first.Counters {
		if second.Counters[name] < val {
			t.Errorf("counter %s decreased across runs: %d -> %d", name, val, second.Counters[name])
		}
	}
	if second.Counters["src.activations"] <= first.Counters["src.activations"] {
		t.Error("second run must add activations")
	}
	if second.Gauges["bdd.peak_nodes"] < first.Gauges["bdd.peak_nodes"] {
		t.Errorf("peak gauge decreased: %v -> %v",
			first.Gauges["bdd.peak_nodes"], second.Gauges["bdd.peak_nodes"])
	}
}

// TestProgressEvents routes progress into a callback and checks the
// stages report with sane totals.
func TestProgressEvents(t *testing.T) {
	// Sinks must be safe for concurrent use: prefixes run on a pool.
	var mu sync.Mutex
	var events []sre.ProgressEvent
	v := verifier(t, sre.Options{MaxFailures: -1,
		Progress: sre.ProgressFunc(func(e sre.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, e)
		})})
	defer v.Release()
	sawSPFFinal := false
	for _, e := range events {
		if e.Stage == "spf" {
			if e.Total != 3 {
				t.Errorf("spf total = %d, want 3 routers", e.Total)
			}
			if e.Final && e.Done == e.Total {
				sawSPFFinal = true
			}
		}
	}
	if !sawSPFFinal {
		t.Errorf("no final spf event among %d events", len(events))
	}
}

// isolatedNet has B originate a prefix that an inbound ACL makes
// unreachable from A under EVERY failure scenario: the reach property
// BDD is empty, which is not the same thing as probability 0.
const isolatedNet = `
topology
  router A
  router B
  link A B
end
router A
  bgp 65001
end
router B
  bgp 65002
    network 10.0.0.0/24
  interface A
    acl-in deny 10.0.0.0/24
    acl-in permit any
end
`

// TestProbabilityNoPFECs pins the empty-result contract: a property
// satisfied by no (packet, failure) tuple returns ErrNoPFECs instead of
// silently reporting probability 0, while a genuine probability of 0
// (tuples exist, their scenarios have no mass) returns 0 with nil
// error.
func TestProbabilityNoPFECs(t *testing.T) {
	net, err := sre.ParseNetwork(isolatedNet)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	p, err := v.Probability("A", "10.0.0.0/24", sre.LinkFailures(0.001))
	if !errors.Is(err, sre.ErrNoPFECs) {
		t.Fatalf("want ErrNoPFECs for an empty property, got p=%v err=%v", p, err)
	}
	if _, err := v.WaypointProbability("A", "10.0.0.0/24", "B", sre.LinkFailures(0.001)); !errors.Is(err, sre.ErrNoPFECs) {
		t.Errorf("waypoint probability: want ErrNoPFECs, got %v", err)
	}

	// Genuine zero: the figure-1 pair is reachable (tuples exist), but
	// with every link down with certainty no scenario delivers.
	v2 := verifier(t, sre.Options{MaxFailures: -1})
	defer v2.Release()
	p, err = v2.Probability("A", "192.0.0.0/2", sre.LinkFailures(1.0))
	if err != nil {
		t.Fatalf("probability 0 must not be an error: %v", err)
	}
	if p != 0 {
		t.Errorf("probability = %v, want exactly 0", p)
	}
}

// TestProbabilityCountsUndeliveredHeaders asks about a prefix half of
// whose headers D's inbound ACL drops under every scenario. Probability
// is taken over the prefix's header universe like tolerance: the dropped
// half is delivered with probability 0, so the minimum is 0 and a
// probability requirement fails, as tolerance reads -1. A minimum over
// the covered headers alone would read 0.9 (the one link up) and let
// the requirement hold.
func TestProbabilityCountsUndeliveredHeaders(t *testing.T) {
	net, err := sre.ParseNetwork(`
topology
  router S
  router D
  link S D
end
router S
  ospf
  exit
end
router D
  ospf
    network 10.0.0.0/24
  exit
  interface S
    acl-in deny 10.0.0.0/25
    acl-in permit any
  exit
end
`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if k, err := v.FailureTolerance("S", "10.0.0.0/24"); err != nil || k != -1 {
		t.Fatalf("tolerance = %d, %v; want -1", k, err)
	}
	if p, err := v.Probability("S", "10.0.0.0/24", sre.LinkFailures(0.1)); err != nil || p != 0 {
		t.Errorf("probability = %v, %v; want 0", p, err)
	}
	reqs, err := sre.ParseRequirementsString("probability S 10.0.0.0/24 >=0.5 plink=0.1\n")
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := v.CheckRequirements(reqs); ok || res[0].Holds {
		t.Errorf("requirement holds (got %s), want it to fail", res[0].Got)
	}
}

// BenchmarkTelemetryOverhead compares the full pipeline on the smallest
// fat tree with telemetry disabled and enabled. The disabled
// configuration must stay within a few percent of a build without the
// instrumentation (nil-handle no-ops; see obs.TestNilTelemetryAllocs
// for the allocation-free guarantee); compare the two sub-benchmarks
// with benchstat to measure the enabled cost.
func BenchmarkTelemetryOverhead(b *testing.B) {
	net := workload.FatTree(4, workload.BGP)
	run := func(b *testing.B, opts sre.Options) {
		for i := 0; i < b.N; i++ {
			v, err := sre.NewVerifier(net, opts)
			if err != nil {
				b.Fatal(err)
			}
			v.Release()
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, sre.Options{MaxFailures: 1})
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, sre.Options{MaxFailures: 1, Telemetry: sre.NewTelemetry()})
	})
}

// TestQueriesDoNotGrowCache pins where the BDD operation caches grow:
// at the safe points of verification and at the end of a decode, never
// inside a query. After NewVerifier on FatTree(4) k=2 — in one space,
// per prefix, and decoded from a warm store — a full FailureTolerances
// sweep must leave every manager's set count as it was; a manager's
// set count only grows, so the summed growth steps stand for all of
// them. The FatTree(4) k=2 sweeps stay inside their managers' sizes
// whatever the rule; the k=3 per-prefix run and the FatTree(6) k=1 warm
// store (the benchmark's ft6_store_warm) are the inputs whose queries
// take tables past a growth step, so a cache grown inside an operation
// fails there. It would put the reallocation, and the Go collection it
// brings, in the query time.
func TestQueriesDoNotGrowCache(t *testing.T) {
	root := t.TempDir()
	for _, tc := range []struct {
		name   string
		arity  int
		opts   sre.Options
		store  string // a store directory shared by the cases naming it
		warmed bool   // an earlier case filled the store
	}{
		{"ft4-k2/combined", 4, sre.Options{MaxFailures: 2, Parallelism: 1}, "", false},
		{"ft4-k2/per-prefix", 4, sre.Options{MaxFailures: 2, Parallelism: 2}, "", false},
		{"ft4-k2/store-cold", 4, sre.Options{MaxFailures: 2, Parallelism: 2}, "ft4", false},
		{"ft4-k2/store-warm", 4, sre.Options{MaxFailures: 2, Parallelism: 2}, "ft4", true},
		{"ft4-k3/per-prefix", 4, sre.Options{MaxFailures: 3, Parallelism: 2}, "", false},
		{"ft6-k1/store-cold", 6, sre.Options{MaxFailures: 1, Parallelism: 2}, "ft6", false},
		{"ft6-k1/store-warm", 6, sre.Options{MaxFailures: 1, Parallelism: 2}, "ft6", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			var st *sre.Store
			if tc.store != "" {
				var err error
				if st, err = sre.OpenStore(filepath.Join(root, tc.store), sre.StoreOptions{}); err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts.Store = st
			}
			v, err := sre.NewVerifier(workload.FatTree(tc.arity, workload.BGP), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Release()
			if tc.warmed && (st.Metrics().Hits == 0 || st.Metrics().Misses != 0) {
				t.Fatalf("the warm run did not decode every prefix from the store: %+v", st.Metrics())
			}
			before := v.Metrics().BDD.CacheGrows
			if before == 0 {
				t.Fatal("verification never grew an operation cache")
			}
			for _, src := range v.RouterNames() {
				if _, err := v.FailureTolerances(src); err != nil {
					t.Fatal(err)
				}
			}
			if after := v.Metrics().BDD.CacheGrows; after != before {
				t.Errorf("the query sweep grew operation caches: %d growth steps before, %d after", before, after)
			}
		})
	}
}
