package analysis

import (
	"errors"
	"testing"

	"sre/internal/route"
	"sre/internal/src"
)

// liveAfterGC is the node count p's manager keeps alive: what the
// space caches plus whatever the pipeline still references.
func liveAfterGC(p *Pipeline) int {
	p.Sp.M.GC()
	return p.Sp.M.Statistics().LiveNodes
}

// TestExecutorReleasesCollectedOnAbort pins the abort contract: when
// the second task of a two-worker run fails, the pipelines the first
// one already delivered are released, not dropped with their
// references held. The dispatcher seam is where a caller still holds
// the pipelines of an aborted run, so the run goes through it; the
// release itself is the executor's, shared with the in-process pool.
func TestExecutorReleasesCollectedOnAbort(t *testing.T) {
	net := mustNet(t, figure1)
	opts := src.Options{PruneK: 2}

	var delivered []*Pipeline
	var first Task
	boom := errors.New("second task failed")
	x := Executor{Net: net, Opts: opts, Workers: 2,
		Dispatch: func(tasks []Task, done func(route.Prefix, []*Pipeline, PrefixOutcome)) error {
			if len(tasks) != 2 {
				t.Errorf("dispatched %d tasks, want 2", len(tasks))
			}
			first = tasks[0]
			pipes, out, err := RunPrefixTask(net, opts, first.Prefix, false, LadderOptions{})
			if err != nil {
				return err
			}
			delivered = pipes
			done(first.Prefix, pipes, out)
			return boom
		}}
	pt, err := x.Run(net.AllPrefixes())
	if !errors.Is(err, boom) || pt != nil {
		t.Fatalf("Run = %v, %v; want nil and the dispatcher's error", pt, err)
	}
	if len(delivered) != 1 {
		t.Fatalf("first task delivered %d pipelines, want 1", len(delivered))
	}

	// The same task again, released by hand, is the reference.
	twin, _, err := RunPrefixTask(net, opts, first.Prefix, false, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held := liveAfterGC(twin[0])
	twin[0].Release()
	released := liveAfterGC(twin[0])
	if held <= released {
		t.Fatalf("fixture cannot tell held (%d nodes) from released (%d)", held, released)
	}
	if got := liveAfterGC(delivered[0]); got != released {
		t.Errorf("aborted run left %d live nodes in a collected pipeline, want %d (released; %d = still held)", got, released, held)
	}
}
