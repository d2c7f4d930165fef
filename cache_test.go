package sre_test

// Persistent result cache through the public API. The acceptance bar
// for Options.Store is byte-identity: a warm, cold, or deliberately
// poisoned cache must never change what a run reports — only how fast
// it reports it (and, after corruption, the quarantine counters).

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sre"
	"sre/internal/workload"
)

// fatTreeCacheRun is cacheRun over a fresh 4-ary fat tree.
func fatTreeCacheRun(t *testing.T, base sre.Options, dir string, parallelism, workers int) ([]sre.PrefixOutcome, int, []sre.PrefixResult, sre.StoreMetrics) {
	t.Helper()
	return cacheRun(t, workload.FatTree(4, workload.BGP), "edge0-0", base, dir, parallelism, workers)
}

// cacheRun is verifyRun with a result store attached, at the given
// in-process parallelism and worker count. It opens a fresh store
// handle on dir so each run reports its own traffic metrics.
func cacheRun(t *testing.T, net *sre.Network, src string, base sre.Options, dir string, parallelism, workers int) ([]sre.PrefixOutcome, int, []sre.PrefixResult, sre.StoreMetrics) {
	t.Helper()
	st, err := sre.OpenStore(dir, sre.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base.Parallelism, base.Workers, base.Store = parallelism, workers, st
	outs, numPFECs, sweep := verifyRun(t, net, src, base)
	return outs, numPFECs, sweep, st.Metrics()
}

// TestCacheDeterminism pins the cache's public contract: cold and warm
// cached runs — one worker, parallel, and multi-process, with and
// without prefixes that verify on a ladder rung — are indistinguishable
// from a cache-less run. The cached runs of an input share one
// *Network, so the warm runs hit only if the runs before them left it
// (its text, and so its keys) as they found it; the OSPF input is the
// one a run used to write interface defaults into.
func TestCacheDeterminism(t *testing.T) {
	type input struct {
		name string
		base sre.Options
		net  func() *sre.Network
		src  string
	}
	var inputs []input
	for _, v := range ft4Variants {
		inputs = append(inputs, input{v.name, v.base, func() *sre.Network { return workload.FatTree(4, workload.BGP) }, "edge0-0"})
	}
	inputs = append(inputs, input{"ospf-no-interfaces", ft4Plain, func() *sre.Network {
		net, err := sre.ParseNetwork(ospfTriangle)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}, "A"})
	for _, v := range inputs {
		t.Run(v.name, func(t *testing.T) {
			base := v.base
			base.Parallelism = 1
			baseOuts, basePFECs, baseSweep := verifyRun(t, v.net(), v.src, base)
			if len(baseOuts) == 0 {
				t.Fatal("baseline reported no outcomes")
			}
			net := v.net()
			dir := t.TempDir()

			outs, pfecs, sweep, m := cacheRun(t, net, v.src, v.base, dir, 1, 0)
			if !reflect.DeepEqual(outs, baseOuts) || pfecs != basePFECs || !reflect.DeepEqual(sweep, baseSweep) {
				t.Fatalf("cold cached run diverges from cache-less run")
			}
			if m.Puts == 0 {
				t.Fatalf("cold run published nothing: %+v", m)
			}
			if m.Hits != 0 {
				t.Fatalf("cold run hit a fresh store: %+v", m)
			}

			cases := []struct {
				name                 string
				parallelism, workers int
			}{
				{"warm/parallel=1", 1, 0},
				{"warm/parallel=2", 2, 0},
				{"warm/workers=1", 0, 1},
				{"warm/workers=2", 0, 2},
			}
			for _, tc := range cases {
				outs, pfecs, sweep, m := cacheRun(t, net, v.src, v.base, dir, tc.parallelism, tc.workers)
				if !reflect.DeepEqual(outs, baseOuts) {
					t.Errorf("%s: outcomes diverge\n got %+v\nwant %+v", tc.name, outs, baseOuts)
				}
				if pfecs != basePFECs {
					t.Errorf("%s: NumPFECs = %d, want %d", tc.name, pfecs, basePFECs)
				}
				if !reflect.DeepEqual(sweep, baseSweep) {
					t.Errorf("%s: tolerance sweep diverges", tc.name)
				}
				if m.Hits == 0 || m.Misses != 0 {
					t.Errorf("%s: warm run on the same network must be all hits: %+v", tc.name, m)
				}
				if m.Quarantined != 0 {
					t.Errorf("%s: clean store quarantined records: %+v", tc.name, m)
				}
			}
		})
	}
}

// TestQueryHeadroomSameWithStore: near a node limit a query answers or
// overflows by what its pipeline's manager already holds. A pipeline
// read from a store holds its PFECs and nothing else, so one built
// in-process must too — its engine's and forwarder's conditions
// released and its manager collected before it is delivered. At these
// eight FatTree(4) cells a query on an in-process pipeline used to
// overflow where the warm run, over the same options, answered.
func TestQueryHeadroomSameWithStore(t *testing.T) {
	for _, c := range []struct {
		k      int
		limits []int
	}{{2, []int{2500, 3750, 11500}}, {3, []int{2500, 31000, 31750, 32250, 32500}}} {
		for _, limit := range c.limits {
			t.Run(fmt.Sprintf("k%d/limit%d", c.k, limit), func(t *testing.T) {
				opts := sre.Options{MaxFailures: c.k, BDDNodeLimit: limit, Resilient: true}
				baseOuts, basePFECs, baseSweep := fatTreeRun(t, opts, 1)
				dir := t.TempDir()
				for _, run := range []string{"cold", "warm"} {
					outs, pfecs, sweep, m := fatTreeCacheRun(t, opts, dir, 1, 0)
					if run == "warm" && (m.Hits == 0 || m.Misses != 0) {
						t.Fatalf("warm run: %+v, want all hits", m)
					}
					if !reflect.DeepEqual(outs, baseOuts) || pfecs != basePFECs {
						t.Errorf("%s run: outcomes or PFEC count diverge from the run without a store", run)
					}
					if !reflect.DeepEqual(sweep, baseSweep) {
						t.Errorf("%s run: tolerance sweep diverges\n got %+v\nwant %+v", run, sweep, baseSweep)
					}
				}
			})
		}
	}
}

// storeRecords lists every record file under dir's objects tree in
// path order.
func storeRecords(t *testing.T, dir string) []string {
	t.Helper()
	var recs []string
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".rec" {
			recs = append(recs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(recs)
	return recs
}

// TestCachePoisonedSelfHeals is the acceptance scenario: truncate,
// bit-flip, and half-rename records in a populated store, then run
// against it. The run must succeed with results identical to a cold
// cache-less run, and the corruption must show up as quarantined
// records in the metrics — never as wrong answers.
func TestCachePoisonedSelfHeals(t *testing.T) {
	baseOuts, basePFECs, baseSweep := fatTreeRun(t, ft4Plain, 1)
	dir := t.TempDir()
	fatTreeCacheRun(t, ft4Plain, dir, 2, 0) // populate

	recs := storeRecords(t, dir)
	if len(recs) < 3 {
		t.Fatalf("need at least 3 records to poison, have %d", len(recs))
	}
	// Torn write: the record ends mid-payload.
	fi, err := os.Stat(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(recs[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Bit flip: one payload byte differs, checksum catches it.
	buf, err := os.ReadFile(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(recs[1], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Half-renamed publication: a crash left a temp beside the objects
	// and an empty record under the real name.
	if err := os.WriteFile(filepath.Join(filepath.Dir(recs[2]), ".tmp-99999-1"), buf[:len(buf)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recs[2], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                 string
		parallelism, workers int
	}{
		{"poisoned/parallel=2", 2, 0},
		{"poisoned/workers=2", 0, 2},
	} {
		outs, pfecs, sweep, m := fatTreeCacheRun(t, ft4Plain, dir, tc.parallelism, tc.workers)
		if !reflect.DeepEqual(outs, baseOuts) {
			t.Errorf("%s: outcomes diverge after corruption\n got %+v\nwant %+v", tc.name, outs, baseOuts)
		}
		if pfecs != basePFECs {
			t.Errorf("%s: NumPFECs = %d, want %d", tc.name, pfecs, basePFECs)
		}
		if !reflect.DeepEqual(sweep, baseSweep) {
			t.Errorf("%s: tolerance sweep diverges after corruption", tc.name)
		}
		if tc.workers == 0 && m.Quarantined == 0 {
			t.Errorf("%s: no quarantined records reported: %+v", tc.name, m)
		}
		// The first poisoned pass quarantines and republishes; later
		// passes must find a fully healed store.
		baseOuts2, _, _, m2 := fatTreeCacheRun(t, ft4Plain, dir, tc.parallelism, tc.workers)
		if !reflect.DeepEqual(baseOuts2, baseOuts) {
			t.Errorf("%s: healed store diverges", tc.name)
		}
		if m2.Quarantined != 0 {
			t.Errorf("%s: corruption survived the healing pass: %+v", tc.name, m2)
		}

		// Re-poison for the next scheduling mode.
		recs = storeRecords(t, dir)
		if len(recs) > 0 {
			if err := os.Truncate(recs[0], 3); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The quarantine directory holds the corpses for post-mortems.
	st, err := sre.OpenStore(dir, sre.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuarantinedFiles == 0 {
		t.Errorf("quarantine directory is empty after poisoning: %+v", stats)
	}
}

// TestCacheOptionsInvalidate pins that a warm cache never replays
// results for different verification options: changing the failure
// budget must recompute, not hit.
func TestCacheOptionsInvalidate(t *testing.T) {
	dir := t.TempDir()
	fatTreeCacheRun(t, ft4Plain, dir, 2, 0) // populate at MaxFailures 2

	st, err := sre.OpenStore(dir, sre.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	net := workload.FatTree(4, workload.BGP)
	v, err := sre.NewVerifier(net, sre.Options{
		MaxFailures: 1, Resilient: true, Parallelism: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if m := st.Metrics(); m.Hits != 0 {
		t.Fatalf("run with different options hit stale records: %+v", m)
	}
}

// TestOldStoreMisses runs against a store written under older key
// formats: testdata/store_v3, store_v4, store_v5, store_v6_fleet and
// store_v7_fleet each hold the two records `sre -cache-dir` published
// for goldenNetwork at -k 2 at the last commit of that format (v3: BDD2
// blobs; v4: records that could carry two pipelines per prefix; v5:
// options bytes that carried the variable order, the hop bound and the
// activation cap; v6: fixed-width BDD3 blobs and PFECs as JSON
// objects, written by two fleet workers; v7: options bytes that carried
// "abstract", written by two fleet workers). The keys change with the
// format, so the old records are never opened: every prefix misses,
// nothing is quarantined, and the mixed directory passes fsck.
func TestOldStoreMisses(t *testing.T) {
	dir := t.TempDir()
	for _, fixture := range []string{"store_v3", "store_v4", "store_v5", "store_v6_fleet", "store_v7_fleet"} {
		copyStoreFixture(t, fixture, dir)
	}
	net, err := sre.ParseNetwork(goldenNetwork)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sre.OpenStore(dir, sre.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if m := st.Metrics(); m.Hits != 0 || m.Misses != 2 || m.Puts != 2 || m.Quarantined != 0 {
		t.Errorf("run over a v3+v4+v5+v6+v7 store: %+v, want 0 hits, 2 misses, 2 puts, 0 quarantined", m)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 12 || rep.OK != 12 || rep.Quarantined != 0 {
		t.Errorf("fsck over the mixed store: %+v, want 12 records, all ok", rep)
	}
}

// copyStoreFixture copies the two records of testdata/<fixture> into
// the store directory dir.
func copyStoreFixture(t *testing.T, fixture, dir string) {
	t.Helper()
	fixture = filepath.Join("testdata", fixture)
	recs := storeRecords(t, fixture)
	if len(recs) != 2 {
		t.Fatalf("fixture %s holds %d records, want 2", fixture, len(recs))
	}
	for _, rec := range recs {
		data, err := os.ReadFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, strings.TrimPrefix(rec, fixture))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV8FleetRecordsStillHit replays testdata/store_v8_fleet: the two
// records `sre -config golden.txt -k 2 -workers 2 -cache-dir ... pfecs`
// published for goldenNetwork under format v8 (BDD4 blobs, packed PFEC
// tables, options bytes without "abstract"), each carrying its worker's
// telemetry shard. Both must hit, nothing may be quarantined, the
// shards' counters must merge into the run's registry, and the answers
// must equal a cold run's.
func TestV8FleetRecordsStillHit(t *testing.T) {
	dir := t.TempDir()
	copyStoreFixture(t, "store_v8_fleet", dir)
	net, err := sre.ParseNetwork(goldenNetwork)
	if err != nil {
		t.Fatal(err)
	}
	coldOuts, coldPFECs, coldSweep := verifyRun(t, net, "A", sre.Options{MaxFailures: 2})
	tel := sre.NewTelemetry()
	outs, pfecs, sweep, m := cacheRun(t, net, "A", sre.Options{MaxFailures: 2, Telemetry: tel}, dir, 1, 0)
	if m.Hits != 2 || m.Misses != 0 || m.Quarantined != 0 {
		t.Errorf("run over the v8 fleet store: %+v, want 2 hits, 0 misses, 0 quarantined", m)
	}
	if got := tel.Snapshot().Counters["src.activations"]; got <= 0 {
		t.Errorf("merged src.activations = %d, want the worker shards' counts", got)
	}
	if !reflect.DeepEqual(outs, coldOuts) || pfecs != coldPFECs || !reflect.DeepEqual(sweep, coldSweep) {
		t.Errorf("warm run diverges from a cold run:\n got %+v %d %+v\nwant %+v %d %+v",
			outs, pfecs, sweep, coldOuts, coldPFECs, coldSweep)
	}
}

// TestWarmHitsRecordDecodeEvents: a warm run records one "decode"
// flight-recorder event per store hit, attributed to the hit's prefix,
// carrying the payload size and the BDD nodes the decode created; the
// cold run before it records none.
func TestWarmHitsRecordDecodeEvents(t *testing.T) {
	dir := t.TempDir()
	run := func() (map[string]sre.TraceEvent, sre.StoreMetrics) {
		base := ft4Plain
		base.Recorder = sre.NewFlightRecorder(0)
		_, _, _, m := fatTreeCacheRun(t, base, dir, 1, 0)
		decodes := map[string]sre.TraceEvent{}
		for _, e := range base.Recorder.Events() {
			if e.Stage != "decode" {
				continue
			}
			if _, dup := decodes[e.Prefix]; dup {
				t.Errorf("two decode events for %s", e.Prefix)
			}
			decodes[e.Prefix] = e
		}
		return decodes, m
	}
	if cold, m := run(); len(cold) != 0 || m.Hits != 0 {
		t.Fatalf("cold run: %d decode events, %d hits; want none", len(cold), m.Hits)
	}
	warm, m := run()
	if m.Hits == 0 || int64(len(warm)) != m.Hits {
		t.Fatalf("warm run: %d decode events for %d hits", len(warm), m.Hits)
	}
	for pfx, e := range warm {
		if e.Wall <= 0 || e.Count <= 0 || e.Nodes <= 0 || e.Outcome != "ok" {
			t.Errorf("decode event for %s: %+v, want wall, payload bytes and nodes", pfx, e)
		}
	}
}
