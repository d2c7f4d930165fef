package analysis

import (
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/symmetry"
)

// RenamingInvariant reports whether a run with these options answers
// the same about a network and about any renaming of it, so its
// prefixes may be verified one per symmetry orbit. Four settings break
// that:
//   - Abstract (and the ladder, whose first rung is Abstract) hashes AS
//     numbers into each route's path bloom, so a renaming of the AS
//     numbers changes which loop checks collide;
//   - NoECMP keeps the first route of each tier in route.Tiebreak order,
//     which orders by next-hop router ID;
//   - IBGPFullMesh derives loopback prefixes from router IDs.
func RenamingInvariant(opts src.Options, ladder bool) bool {
	return !opts.Abstract && !ladder && !opts.NoECMP && !opts.IBGPFullMesh
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
// renaming cannot change (RenamingInvariant) and without a cache. A
// cache keeps one record per prefix, holding that prefix's own
// pipeline, and readers outside the executor (the benchmark's walk of a
// warm store) read it for every prefix.
func (x *Executor) OrbitsApply() bool {
	return RenamingInvariant(x.Opts, x.Ladder) && x.Cache == nil
}

// representatives splits domain into the prefixes the run verifies and
// the images of the others. Without orbits, or where they do not apply
// (OrbitsApply), every prefix is its own representative. A member that
// the representatives' task domain computes anyway (an overlapping or
// aggregated prefix) is verified itself.
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
	for changed := true; changed; {
		changed = false
		for _, p := range taskDomain(x.Net, reps...) {
			if _, ok := images[p]; ok {
				delete(images, p)
				reps = append(reps, p)
				changed = true
			}
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
	return sortedPrefixList(reps), images
}
