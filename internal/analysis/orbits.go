package analysis

import (
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/spf"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/symmetry"
	"sre/internal/topology"
)

// RenamingInvariant reports whether a run with these options answers
// the same about a network and about any renaming of it, so its
// prefixes may be verified one per symmetry orbit. Three settings break
// that:
//   - the ladder: the rung a prefix lands on depends on its node counts,
//     which depend on the variable order, and a renaming does not
//     preserve the order, so members of one orbit can land on different
//     rungs (FatTree(4) k=3 at a 31 000-node limit splits its one orbit
//     4/4 between the requested budget and a halved one);
//   - NoECMP keeps the first route of each tier in route.Tiebreak order,
//     which orders by next-hop router ID;
//   - IBGPFullMesh derives loopback prefixes from router IDs.
func RenamingInvariant(opts src.Options, ladder bool) bool {
	return !ladder && !opts.NoECMP && !opts.IBGPFullMesh
}

// Image says how a prefix that a run did not verify is answered: by the
// pipeline of Rep, the smallest prefix of its orbit in the domain. Perm
// carries Rep to the prefix (σ(Rep) is the prefix), so router s asking
// about the prefix is router Inv[s] asking about Rep, and a path of
// Rep's pipeline is the prefix's path with every router r read as
// Perm[r].
type Image struct {
	Rep       route.Prefix
	Perm, Inv symmetry.Perm
}

// OrbitsApply reports whether the run would use Orbits: under options
// renaming cannot change (RenamingInvariant). With a cache the run still
// keeps one record per prefix, each holding that prefix's own pipeline:
// a representative it computes publishes its members' records too,
// renamed from its own pipeline (publishMembers), so a reader of any
// one prefix's record — a warm run after an edit that breaks the
// symmetry, or a walk of the store outside the executor — finds it.
func (x *Executor) OrbitsApply() bool {
	return RenamingInvariant(x.Opts, x.Ladder)
}

// representatives splits domain into the prefixes the run verifies and
// the images of the others. Without orbits, or where they do not apply
// (OrbitsApply), every prefix is its own representative.
func (x *Executor) representatives(domain []route.Prefix) ([]route.Prefix, map[route.Prefix]Image) {
	if x.Orbits.Len() == 0 || !x.OrbitsApply() {
		return domain, nil
	}
	in := make(map[route.Prefix]bool, len(domain))
	for _, p := range domain {
		in[p] = true
	}
	var reps []route.Prefix
	images := map[route.Prefix]Image{}
	for _, p := range sortedPrefixList(domain) {
		rep := p
		for _, m := range x.Orbits.Orbit(p) { // sorted: the first one in the domain
			if in[m] {
				rep = m
				break
			}
		}
		if rep == p {
			reps = append(reps, p)
		} else {
			images[p] = Image{Rep: rep}
		}
	}
	if len(images) == 0 {
		return domain, nil
	}
	for p, img := range images {
		img.Perm = x.Orbits.Carry(img.Rep, p)
		img.Inv = img.Perm.Inverse()
		images[p] = img
	}
	return reps, images
}

// VarRenaming is the variable map (bdd.Manager.Permute) that carries a
// pipeline laid out in sp through perm, an automorphism of t: the
// variable of link l goes to that of the link joining perm's images of
// l's endpoints, router r's node variable to perm[r]'s, and the header
// and shared-risk variables stay.
func VarRenaming(sp *symbol.Space, t *topology.Topology, perm symmetry.Perm) []int {
	to := make([]int, sp.M.NumVars())
	for v := range to {
		to[v] = v
	}
	for _, l := range t.Links() {
		img, _ := t.LinkBetween(perm[l.A], perm[l.B])
		to[sp.LinkVarIndex(l.ID)] = sp.LinkVarIndex(img)
	}
	for r := range t.NumRouters() {
		to[sp.NodeVarIndex(topology.RouterID(r))] = sp.NodeVarIndex(perm[r])
	}
	return to
}

// publishMembers stores the record of every member that images answers
// through rep, once rep's task finished in this run, in prefix order:
// the member's scoped pipeline is rep's renamed (memberRecord), so its
// record holds what verifying the member would. Each member's nodes are
// collected before the next is built. A record that cannot be built (a
// node-table overflow, an encode error) counts as a failed publication;
// the member is still answered through its image. An interruption
// stops the publication; the run notices it at its next poll.
func (x *Executor) publishMembers(rep route.Prefix, images map[route.Prefix]Image, pipes []*Pipeline, out PrefixOutcome) {
	if len(pipes) != 1 || !storable(out.Err != nil, out.Rungs) {
		return
	}
	var members []route.Prefix
	for m, img := range images {
		if img.Rep == rep {
			members = append(members, m)
		}
	}
	pipe := pipes[0]
	for _, m := range sortedPrefixList(members) {
		rec, err := memberRecord(x.Net, pipe, rep, m, images[m].Perm, out)
		pipe.Sp.M.GC()
		switch {
		case err == nil:
			x.Cache.Put(CacheKey(x.Net, x.Opts, m, x.Ladder, x.Lad), rec)
		case resil.Interruption(err):
			return
		default:
			x.Cache.S.CountPutError()
		}
	}
}

// memberRecord is the record of member m = σ(rep), built from rep's
// scoped pipeline pipe in one Permute over its PFEC predicates: link
// and node variables renamed through perm (VarRenaming), and destination
// bit i < rep.Len negated where rep and m differ. The finder accepts
// only disjoint equal-length block swaps and a scoped pipeline's
// predicates lie inside its prefix, so the negation carries rep's
// headers onto m's exactly. PFEC paths are renamed through perm and
// listed under the renamed source. The renamed predicates are left
// unreferenced, for the caller's next collection.
func memberRecord(net *config.Network, pipe *Pipeline, rep, m route.Prefix, perm symmetry.Perm, out PrefixOutcome) (rec CacheRecord, err error) {
	defer resil.Catch("permute", &err)
	sp := pipe.Sp
	neg := make([]bool, sp.M.NumVars())
	for i := range rep.Len {
		neg[i] = (rep.Addr^m.Addr)&(1<<(31-i)) != 0
	}
	n := net.Topology.NumRouters()
	var roots []bdd.Node
	hops := 0
	for r := range n {
		for _, pf := range pipe.PFECs(topology.RouterID(r)) {
			roots = append(roots, pf.Pred)
			hops += len(pf.Path)
		}
	}
	preds := sp.M.Permute(roots, VarRenaming(sp, net.Topology, perm), neg)
	slab := make([]spf.PFEC, len(preds))
	path := make([]topology.RouterID, 0, hops)
	pfecs := make([][]*spf.PFEC, n)
	i := 0
	for r := range n {
		list := make([]*spf.PFEC, len(pipe.PFECs(topology.RouterID(r))))
		for j, pf := range pipe.PFECs(topology.RouterID(r)) {
			start := len(path)
			for _, h := range pf.Path {
				path = append(path, perm[h])
			}
			slab[i] = spf.PFEC{Path: path[start:len(path):len(path)], Pred: preds[i],
				Delivered: pf.Delivered, Looped: pf.Looped}
			list[j] = &slab[i]
			i++
		}
		pfecs[perm[r]] = list
	}
	img := &Pipeline{Net: net, Sp: sp, Scope: &m, pfecs: pfecs, SRCTime: pipe.SRCTime, SPFTime: pipe.SPFTime}
	out.Prefix = m
	return NewCacheRecord(net, m, []*Pipeline{img}, out, nil)
}
