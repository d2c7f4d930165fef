package sre_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"sre"
	"sre/internal/workload"
)

// TestTraceExportMatchesMetrics is the end-to-end contract of the
// flight recorder: a fat-tree run with a recorder produces a Chrome
// trace whose per-worker "src"+"spf" span durations sum to the stage
// wall time reported by Verifier.Metrics (within 5%), with one named
// track per scheduler worker.
func TestTraceExportMatchesMetrics(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	rec := sre.NewFlightRecorder(0)
	v, err := sre.NewVerifier(net, sre.Options{
		MaxFailures: 2, Parallelism: 4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	m := v.Metrics()

	var buf bytes.Buffer
	env := sre.Environment()
	env.Parallelism = 4
	if err := rec.WriteChromeTrace(&buf, env); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Dur  float64                `json:"dur"` // microseconds
			TID  int32                  `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		OtherData sre.EnvInfo `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.OtherData != env {
		t.Errorf("trace otherData = %+v, want the run environment %+v", trace.OtherData, env)
	}

	var srcUs, spfUs float64
	workers := map[int32]bool{}
	tracks := 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" {
			tracks++
			continue
		}
		workers[e.TID] = true
		switch e.Name {
		case "src":
			srcUs += e.Dur
		case "spf":
			spfUs += e.Dur
		}
	}
	if tracks != len(workers) {
		t.Errorf("%d thread_name tracks for %d distinct workers", tracks, len(workers))
	}
	if len(workers) < 2 {
		t.Errorf("expected spans on multiple worker tracks at parallelism 4, got %v", workers)
	}

	wantUs := (m.SRCSeconds + m.SPFSeconds) * 1e6
	gotUs := srcUs + spfUs
	if wantUs <= 0 {
		t.Fatalf("metrics report zero stage time: %+v", m)
	}
	if rel := math.Abs(gotUs-wantUs) / wantUs; rel > 0.05 {
		t.Errorf("trace src+spf spans sum to %.0fµs, metrics report %.0fµs (%.1f%% off, want <5%%)",
			gotUs, wantUs, 100*rel)
	}
}

// TestEventLogExport: the NDJSON export of the same run parses back
// with matching environment and covers every pipeline stage the run
// exercised.
func TestEventLogExport(t *testing.T) {
	net := workload.FatTree(4, workload.BGP)
	for _, c := range []struct {
		name   string
		run    func(rec *sre.FlightRecorder) error
		stages []string
	}{
		{"verify", func(rec *sre.FlightRecorder) error {
			v, err := sre.NewVerifier(net, sre.Options{
				MaxFailures: 1, Parallelism: 2, Recorder: rec})
			if err == nil {
				v.Release()
			}
			return err
		}, []string{"src", "spf", "task", "prefix"}},
		{"mine", func(rec *sre.FlightRecorder) error {
			_, err := sre.MineSpecs(net, 2, sre.Options{Recorder: rec})
			return err
		}, []string{"stratum", "src", "spf"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := sre.NewFlightRecorder(0)
			if err := c.run(rec); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			env := sre.Environment()
			if err := rec.WriteEventLog(&buf, env); err != nil {
				t.Fatal(err)
			}
			hdr, events, err := sre.ReadEventLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Env != env {
				t.Errorf("event log env = %+v, want %+v", hdr.Env, env)
			}
			if hdr.Events != len(events) || len(events) == 0 {
				t.Fatalf("header says %d events, log holds %d", hdr.Events, len(events))
			}
			stages := map[string]bool{}
			for _, e := range events {
				stages[e.Stage] = true
			}
			for _, want := range c.stages {
				if !stages[want] {
					t.Errorf("event log is missing stage %q (got %v)", want, stages)
				}
			}
		})
	}
}
