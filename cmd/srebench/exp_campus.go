package main

import (
	"fmt"
	"sort"
	"time"

	"sre/internal/analysis"
	"sre/internal/src"
	"sre/internal/topology"
	"sre/internal/workload"
)

// fig13 reproduces Figure 13 + §8.7: all-pairs reachability on the
// campus backbone across configuration snapshots, reporting the
// SRC / SPF / FPA stage time distribution, and the failure tolerance of
// core-to-VLAN reachability (the paper finds 1).
func fig13(sc scale) {
	header("Figure 13 — campus backbone: stage time distribution over snapshots")
	var srcTimes, spfTimes, fpaTimes []time.Duration
	tolCounts := map[int]int{}
	for snap := 0; snap < sc.campusSnaps; snap++ {
		net := workload.Campus(workload.CampusOptions{VLANs: sc.campusVLANs, Snapshot: snap})
		pipe, err := analysis.Run(net, withResilience(src.Options{PruneK: 2}))
		if err != nil {
			fmt.Printf("  snapshot %d failed: %v\n", snap, err)
			continue
		}
		fpaStart := time.Now()
		pipe.AllPairsReachable(2)
		// §8.7 second experiment: tolerance from each core router to
		// each access VLAN.
		c1 := net.Topology.MustRouter("C1")
		c2 := net.Topology.MustRouter("C2")
		for _, pfx := range net.AllPrefixes() {
			for _, core := range []topology.RouterID{c1, c2} {
				q := pipe.Query(core, pfx)
				k := q.Tolerance(q.Reach())
				if k > 2 {
					k = 2 // clamp at explored budget
				}
				tolCounts[k]++
			}
		}
		fpa := time.Since(fpaStart)
		srcTimes = append(srcTimes, pipe.SRCTime)
		spfTimes = append(spfTimes, pipe.SPFTime)
		fpaTimes = append(fpaTimes, fpa)
		st := pipe.Sp.M.Statistics()
		ds := fmt.Sprintf("campus-snap%d", snap)
		record(benchRow{Experiment: "fig13", Dataset: ds, System: "src", K: 2,
			Seconds: pipe.SRCTime.Seconds(), PeakBDDNodes: st.PeakNodes,
			CacheHitRatio: st.CacheHitRatio(), GCRuns: st.GCRuns, Outcome: "ok"})
		record(benchRow{Experiment: "fig13", Dataset: ds, System: "spf", K: 2,
			Seconds: pipe.SPFTime.Seconds(), Outcome: "ok"})
		record(benchRow{Experiment: "fig13", Dataset: ds, System: "fpa", K: 2,
			Seconds: fpa.Seconds(), Outcome: "ok"})
		pipe.Release()
	}
	t := newTable("stage", "min", "median", "max")
	t.add(statRow("SRC", srcTimes)...)
	t.add(statRow("SPF", spfTimes)...)
	t.add(statRow("FPA", fpaTimes)...)
	t.print()
	fmt.Printf("\n  core→VLAN failure-tolerance distribution: %v\n", tolCounts)
	fmt.Println("  (paper: tolerance 1 — reachable under any single failure, breakable by pair failures)")
}

func statRow(name string, ds []time.Duration) []string {
	if len(ds) == 0 {
		return []string{name, "—", "—", "—"}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return []string{name, fmtDur(ds[0]), fmtDur(ds[len(ds)/2]), fmtDur(ds[len(ds)-1])}
}
