package analysis

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
	"sre/internal/workload"
)

// prefixPipelines runs the tasks of prefixes the way the executor's
// first attempt does: one pipeline scoped to the prefix, over its task
// domain, at failure budget k.
func prefixPipelines(tb testing.TB, net *config.Network, k int, prefixes ...route.Prefix) []*Pipeline {
	tb.Helper()
	var pipes []*Pipeline
	for _, pfx := range prefixes {
		p, err := RunScoped(net, src.Options{PruneK: k, Prefixes: taskDomain(net, pfx)}, pfx)
		if err != nil {
			tb.Fatalf("prefix %s: %v", pfx, err)
		}
		pipes = append(pipes, p)
	}
	return pipes
}

// decodedNodes is the number of nodes a decode created in sp, a
// manager that started with only the two terminals.
func decodedNodes(sp *symbol.Space) int { return sp.M.Statistics().LiveNodes - 2 }

// TestWireSizeBudget pins the size of the store records of FatTree(4)
// BGP k=2, one per prefix as the executor publishes them: 240 284 bytes
// when the compact pipeline codec went in (901 566 with fixed-width BDD
// words and JSON PFEC objects), plus 3 % for the timings the records
// carry.
func TestWireSizeBudget(t *testing.T) {
	const budget = 240284 * 103 / 100
	net := workload.FatTree(4, workload.BGP)
	pipes := prefixPipelines(t, net, 2, net.AllPrefixes()...)
	total := 0
	for _, p := range pipes {
		rec, err := NewCacheRecord(net, *p.Scope, []*Pipeline{p}, PrefixOutcome{EffectivePruneK: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		total += len(payload)
		p.Release()
	}
	t.Logf("%d records, %d bytes", len(pipes), total)
	if total > budget {
		t.Errorf("FatTree(4) k=2 records take %d bytes, budget %d", total, budget)
	}
}

// tinyWire is a one-predicate wire pipeline over figure1: a two-node
// BDD blob whose root is owned by router 0's only PFEC, a delivered
// one-hop path. The table is the caller's.
func tinyWire(t *testing.T) (*config.Network, []byte) {
	t.Helper()
	net := mustNet(t, figure1)
	sp := NewRunSpace(net, src.Options{})
	var blob bytes.Buffer
	if err := sp.M.Write(&blob, sp.M.And(sp.M.Var(3), sp.M.Var(5))); err != nil {
		t.Fatal(err)
	}
	return net, blob.Bytes()
}

// table packs varints into a PFEC table.
func table(words ...uint64) []byte {
	var out []byte
	for _, w := range words {
		out = binary.AppendUvarint(out, w)
	}
	return out
}

// TestDecodePipelineRejectsMalformed: every malformed PFEC table is an
// error, never a panic, and leaves the decoding space's reference
// counts as they were — a collection afterwards frees every node the
// BDD blob created.
func TestDecodePipelineRejectsMalformed(t *testing.T) {
	net, blob := tinyWire(t)
	n := uint64(net.Topology.NumRouters())
	const delivered1 = 1<<2 | 1 // a one-hop delivered path
	good := table(1, delivered1, 0, 0, 0)
	if n != 3 {
		t.Fatalf("figure1 has %d routers, the tables below assume 3", n)
	}
	sp := NewRunSpace(net, src.Options{})
	p, err := decodePipeline(net, sp, WirePipeline{PFECs: good, BDD: blob}, nil)
	if err != nil {
		t.Fatalf("well-formed table: %v", err)
	}
	if pf := p.PFECs(0); len(pf) != 1 || !pf[0].Delivered || pf[0].Looped || len(pf[0].Path) != 1 {
		t.Fatalf("well-formed table decoded to %+v", pf)
	}
	if sp.M.GC(); decodedNodes(sp) != 2 {
		t.Fatalf("a decoded pipeline keeps %d nodes, want its 2", decodedNodes(sp))
	}

	cut := table(1, 200) // a path head whose last byte promises another
	cut = append(cut[:len(cut)-1], cut[len(cut)-1]|0x80)
	cases := []struct {
		name  string
		table []byte
	}{
		{"count over the predicates left", table(2, delivered1, 0, delivered1, 1, 0, 0)},
		{"path over the bytes left", table(1, 100<<2, 0, 0, 0)},
		{"router out of range", table(1, delivered1, n, 0, 0)},
		{"zero-length path", table(1, 0, 0, 0)},
		{"trailing bytes", append(table(1, delivered1, 0, 0, 0), 0)},
		{"fewer PFECs than predicates", table(0, 0, 0)},
		{"table ends before the last router", table(1, delivered1, 0, 0)},
		{"varint cut mid-byte", cut},
		{"varint overflowing 64 bits", append(table(1), bytes.Repeat([]byte{0xff}, 11)...)},
		{"empty table", nil},
	}
	for _, c := range cases {
		sp := NewRunSpace(net, src.Options{})
		p, err := decodePipeline(net, sp, WirePipeline{PFECs: c.table, BDD: blob}, nil)
		if err == nil {
			t.Errorf("%s: decoded %v without error", c.name, p.PFECs(0))
			continue
		}
		if sp.M.GC(); decodedNodes(sp) != 0 {
			t.Errorf("%s: %d nodes survive a collection after the rejected decode", c.name, decodedNodes(sp))
		}
	}
}

// FuzzDecodePipelines feeds decodePipeline arbitrary PFEC tables and
// BDD blobs, seeded with real FatTree(4) records at k=0 and k=1 (a
// k=2 blob is 19 KB, too slow to minimize). It must be total: an error
// or a pipeline whose paths are in range, never a panic. Either way the
// references balance: a rejected record leaves nothing referenced, and
// a decoded one frees every node on Release.
func FuzzDecodePipelines(f *testing.F) {
	net := workload.FatTree(4, workload.BGP)
	pfx := net.AllPrefixes()[0]
	for k := 0; k <= 1; k++ {
		pipes := prefixPipelines(f, net, k, pfx)
		wps, err := EncodePipelines(pipes, net)
		if err != nil {
			f.Fatal(err)
		}
		pipes[0].Release()
		seed := wps[0]
		f.Add(seed.PFECs, seed.BDD)
		f.Add(seed.PFECs[:len(seed.PFECs)/2], seed.BDD)
		f.Add(seed.PFECs, seed.BDD[:len(seed.BDD)/2])
	}
	f.Add([]byte{}, []byte("BDD4"))
	scope := pfx.String()
	n := net.Topology.NumRouters()
	f.Fuzz(func(t *testing.T, pfecs, blob []byte) {
		sp := NewRunSpace(net, src.Options{BDDNodeLimit: 1 << 16})
		p, err := decodePipeline(net, sp, WirePipeline{Scope: scope, PFECs: pfecs, BDD: blob}, nil)
		if err == nil {
			for r := 0; r < n; r++ {
				for _, pf := range p.PFECs(topology.RouterID(r)) {
					if len(pf.Path) == 0 {
						t.Fatal("decoded an empty path")
					}
					for _, h := range pf.Path {
						if int(h) < 0 || int(h) >= n {
							t.Fatalf("decoded router %d of %d", h, n)
						}
					}
				}
			}
			p.Release()
		}
		if sp.M.GC(); decodedNodes(sp) != 0 {
			t.Fatalf("%d nodes stay referenced (decode error %v)", decodedNodes(sp), err)
		}
	})
}

// BenchmarkPipelineCodec encodes and decodes the 18 per-prefix
// pipelines of FatTree(6) BGP k=1 — the records a warm store replays on
// the standing workload — built once outside the timer.
func BenchmarkPipelineCodec(b *testing.B) {
	net := workload.FatTree(6, workload.BGP)
	pipes := prefixPipelines(b, net, 1, net.AllPrefixes()...)
	defer func() {
		for _, p := range pipes {
			p.Release()
		}
	}()
	opts := src.Options{PruneK: 1}
	b.ReportAllocs()
	b.ResetTimer()
	wire, nodes := 0, 0
	for i := 0; i < b.N; i++ {
		for _, p := range pipes {
			wps, err := EncodePipelines([]*Pipeline{p}, net)
			if err != nil {
				b.Fatal(err)
			}
			got, err := DecodePipelines(net, opts, wps, nil)
			if err != nil {
				b.Fatal(err)
			}
			for j, q := range got {
				wire += len(wps[j].PFECs) + len(wps[j].BDD)
				nodes += decodedNodes(q.Sp)
				q.Release()
			}
		}
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
