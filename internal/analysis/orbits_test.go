package analysis

import (
	"fmt"
	"reflect"
	"testing"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/store"
	"sre/internal/symmetry"
	"sre/internal/topology"
	"sre/internal/workload"
)

// pfecsByPath indexes a pipeline's PFECs by source router, path and
// flags.
func pfecsByPath(p *Pipeline) map[string]bdd.Node {
	out := map[string]bdd.Node{}
	for s := range p.Net.Topology.NumRouters() {
		for _, pf := range p.PFECs(topology.RouterID(s)) {
			out[fmt.Sprint(s, pf.Path, pf.Delivered, pf.Looped)] = pf.Pred
		}
	}
	return out
}

// TestMemberRecordsMatchTheirOwnRuns builds every member's record from
// its representative's scoped pipeline and compares it with the record
// of the member's own scoped run: the same prefix, scope and outcome,
// and, decoded into one space, the same PFECs from every source router
// — same paths and flags, node for node the same predicates.
func TestMemberRecordsMatchTheirOwnRuns(t *testing.T) {
	for _, in := range []struct {
		name string
		net  *config.Network
		k    int
	}{
		{"fattree4-bgp-k1", workload.FatTree(4, workload.BGP), 1},
		{"fattree4-ospf-k2", workload.FatTree(4, workload.OSPF), 2},
	} {
		t.Run(in.name, func(t *testing.T) {
			orbits := symmetry.Find(in.net)
			if orbits.Len() == 0 {
				t.Fatal("no orbit")
			}
			for _, orbit := range orbits.All() {
				rep := orbit[0]
				pipe := prefixPipelines(t, in.net, in.k, rep)[0]
				for _, m := range orbit[1:] {
					got, err := memberRecord(in.net, pipe, rep, m, orbits.Carry(rep, m), PrefixOutcome{Prefix: rep, EffectivePruneK: in.k})
					if err != nil {
						t.Fatal(err)
					}
					pipe.Sp.M.GC()
					own := prefixPipelines(t, in.net, in.k, m)[0]
					want, err := NewCacheRecord(in.net, m, []*Pipeline{own}, PrefixOutcome{Prefix: m, EffectivePruneK: in.k}, nil)
					own.Release()
					if err != nil {
						t.Fatal(err)
					}
					if got.Prefix != want.Prefix || got.Pipes[0].Scope != want.Pipes[0].Scope || !reflect.DeepEqual(got.Outcome, want.Outcome) {
						t.Fatalf("%s: record of %s %s %+v, want %s %s %+v", m, got.Prefix, got.Pipes[0].Scope, got.Outcome,
							want.Prefix, want.Pipes[0].Scope, want.Outcome)
					}
					sp := newRunSpace(in.net, src.Options{PruneK: in.k})
					gp, err := decodePipeline(in.net, sp, got.Pipes[0], nil)
					if err != nil {
						t.Fatal(err)
					}
					wp, err := decodePipeline(in.net, sp, want.Pipes[0], nil)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := pfecsByPath(gp), pfecsByPath(wp); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: the renamed record's %d PFECs differ from the member's own %d", m, len(g), len(w))
					}
				}
				pipe.Release()
			}
		})
	}
}

// TestVarRenamingFollowsTheCarry: for every member of FatTree(4)'s
// orbit, VarRenaming is a bijection of the variables that moves link
// l's variable to that of the link joining the carry's images of l's
// endpoints, router r's node variable to that of its image, and leaves
// the header and shared-risk variables where they are.
func TestVarRenamingFollowsTheCarry(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	tp := net.Topology
	sp := newRunSpace(net, src.Options{})
	orbits := symmetry.Find(net)
	orbit := orbits.All()[0]
	for _, m := range orbit[1:] {
		perm := orbits.Carry(orbit[0], m)
		to := VarRenaming(sp, tp, perm)
		want := make([]int, len(to))
		for v := range want {
			want[v] = v
		}
		for _, l := range tp.Links() {
			img, ok := tp.LinkBetween(perm[l.A], perm[l.B])
			if !ok {
				t.Fatalf("%s: link %d has no image", m, l.ID)
			}
			want[sp.LinkVarIndex(l.ID)] = sp.LinkVarIndex(img)
		}
		for r := range tp.NumRouters() {
			want[sp.NodeVarIndex(topology.RouterID(r))] = sp.NodeVarIndex(perm[r])
		}
		if !reflect.DeepEqual(to, want) {
			t.Fatalf("%s: VarRenaming %v, want %v", m, to, want)
		}
		seen := map[int]bool{}
		for _, v := range to {
			seen[v] = true
		}
		if len(seen) != len(to) {
			t.Fatalf("%s: VarRenaming is not a bijection", m)
		}
	}
}

// TestMemberRecordThatCannotBeBuiltIsAFailedPut: a representative whose
// manager has no room left to rename its pipeline publishes no member
// record, counts each as a failed Put, and leaves the representative's
// own pipeline intact.
func TestMemberRecordThatCannotBeBuiltIsAFailedPut(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	orbits := symmetry.Find(net)
	orbit := orbits.All()[0]
	rep := orbit[0]
	opts := src.Options{PruneK: 1}
	own := prefixPipelines(t, net, 1, rep)[0]
	rec, err := NewCacheRecord(net, rep, []*Pipeline{own}, PrefixOutcome{Prefix: rep, EffectivePruneK: 1}, nil)
	own.Release()
	if err != nil {
		t.Fatal(err)
	}
	// A space whose table is full once the record is decoded into it.
	probe := newRunSpace(net, opts)
	if _, err := decodePipeline(net, probe, rec.Pipes[0], nil); err != nil {
		t.Fatal(err)
	}
	opts.BDDNodeLimit = probe.M.Size() + 8
	pipe, err := decodePipeline(net, newRunSpace(net, opts), rec.Pipes[0], nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := Executor{Net: net, Opts: opts, Cache: &ResultCache{S: st}, Orbits: orbits}
	images := map[route.Prefix]Image{}
	for _, m := range orbit[1:] {
		images[m] = Image{Rep: rep, Perm: orbits.Carry(rep, m)}
	}
	x.publishMembers(rep, images, []*Pipeline{pipe}, PrefixOutcome{Prefix: rep, EffectivePruneK: 1})
	if m := st.Metrics(); m.Puts != 0 || m.PutErrors != int64(len(orbit)-1) {
		t.Fatalf("store after publishing %d members: %+v, want %d put errors", len(orbit)-1, m, len(orbit)-1)
	}
	again, err := EncodePipelines([]*Pipeline{pipe}, net)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].SRCNanos, again[0].SPFNanos = rec.Pipes[0].SRCNanos, rec.Pipes[0].SPFNanos; !reflect.DeepEqual(again[0], rec.Pipes[0]) {
		t.Fatal("the representative's pipeline encodes differently after the failed publication")
	}
}

// BenchmarkPermute renames the PFEC predicates of one FatTree(6) BGP
// k=1 prefix's scoped pipeline onto each other member of its orbit in
// turn, one Permute per member followed by the collection that frees
// it, as a store run's member records are made. nodes/op counts the
// nodes each rename allocates, its Ite steps' included.
func BenchmarkPermute(b *testing.B) {
	net := workload.FatTree(6, workload.BGP)
	orbits := symmetry.Find(net)
	orbit := orbits.All()[0]
	rep := orbit[0]
	pipe := prefixPipelines(b, net, 1, rep)[0]
	defer pipe.Release()
	sp := pipe.Sp
	var roots []bdd.Node
	for s := range net.Topology.NumRouters() {
		for _, pf := range pipe.PFECs(topology.RouterID(s)) {
			roots = append(roots, pf.Pred)
		}
	}
	type member struct {
		to  []int
		neg []bool
	}
	var members []member
	for _, m := range orbit[1:] {
		neg := make([]bool, sp.M.NumVars())
		for i := range rep.Len {
			neg[i] = (rep.Addr^m.Addr)&(1<<(31-i)) != 0
		}
		members = append(members, member{VarRenaming(sp, net.Topology, orbits.Carry(rep, m)), neg})
	}
	sp.M.GC()
	made := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := members[i%len(members)]
		before := sp.M.Size()
		sp.M.Permute(roots, m.to, m.neg)
		made += sp.M.Size() - before
		sp.M.GC()
	}
	b.ReportMetric(float64(made)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(len(roots)), "preds/op")
}
