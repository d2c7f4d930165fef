// Package coord implements fault-tolerant multi-process verification: a
// coordinator that partitions the prefix space across N `sre worker`
// subprocesses and supervises them — heartbeats, crash detection
// (process exit, decode failure, heartbeat loss), bounded retries with
// exponential backoff and worker respawn, and a poisoned-prefix
// quarantine that falls back to in-process resilient execution after
// repeated failures.
//
// The process boundary is the robustness boundary: a worker can OOM,
// panic past a firewall, wedge, or corrupt its output stream, and the
// run degrades gracefully instead of dying — the same contract the
// in-process resilient runtime gives for BDD overflows, extended across
// fork/exec.
//
// Workers run exactly the per-prefix task chain an in-process parallel
// run schedules (analysis.RunPrefixTask over a one-worker pool), so
// coordinator results are byte-identical to Options.Parallelism runs at
// any worker count; a golden test pins this at W=1/2/4, including runs
// where injected faults force retries.
package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"sre/internal/analysis"
	"sre/internal/store"
)

// Wire protocol: every frame on the worker's stdin/stdout pipes is one
// store record (store.EncodeRecord: magic, version, length, payload,
// crc64) whose payload is one JSON frame object — the framing the
// result store keeps on disk, so a flipped byte fails the checksum on a
// pipe exactly as it does in a file.
//
//	coordinator → worker: init, task, shutdown
//	worker → coordinator: hello, heartbeat, result, error
//
// The decoder is total: any byte stream yields a frame or an error,
// never a panic and never an allocation proportional to a declared
// length that was not actually received (FuzzDecodeFrame pins this).

// Frame type discriminators.
const (
	frameInit      = "init"
	frameTask      = "task"
	frameShutdown  = "shutdown"
	frameHello     = "hello"
	frameHeartbeat = "heartbeat"
	frameResult    = "result"
	frameError     = "error"
)

// frame is the single envelope every message travels in; Type selects
// which payload pointer is set.
type frame struct {
	Type   string              `json:"type"`
	Init   *initMsg            `json:"init,omitempty"`
	Task   *taskMsg            `json:"task,omitempty"`
	Hello  *helloMsg           `json:"hello,omitempty"`
	Result *taskResult         `json:"result,omitempty"`
	Err    *analysis.WireError `json:"err,omitempty"`
}

// initMsg configures a worker for the run: the network (the textual
// config format, a tested fixed point of Parse∘Format), the options
// that shape results, and — when the run carries a persistent result
// cache — the store directory the worker publishes to.
type initMsg struct {
	Network string `json:"network"`
	// Opts is src.Options.Encode() of the coordinator's options, byte
	// for byte: the same encoding analysis.CacheKey hashes, so a worker
	// cannot run under options its keys do not name.
	Opts json.RawMessage `json:"opts"`
	// Ladder tells the worker to escalate overflowing tasks
	// (Options.Resilient).
	Ladder   bool   `json:"ladder,omitempty"`
	CacheDir string `json:"cache_dir,omitempty"`
}

// taskMsg assigns one prefix task. Seq is the task's index in the
// coordinator's cost-ordered dispatch sequence — stable across runs, so
// fault plans keyed by Seq are deterministic regardless of which worker
// draws the task. Attempt counts prior failed attempts.
type taskMsg struct {
	Seq     int    `json:"seq"`
	Attempt int    `json:"attempt"`
	Prefix  string `json:"prefix"`
	// CacheKey is the prefix's persistent-store content address; the
	// worker publishes the computed result under it. Empty disables
	// publication.
	CacheKey string `json:"cache_key,omitempty"`
}

type helloMsg struct {
	PID int `json:"pid"`
}

// taskResult carries one finished prefix back: the record the worker
// also publishes to the store (outcome, serialized pipelines, per-task
// telemetry shard), tagged with the task it answers.
type taskResult struct {
	Seq int `json:"seq"`
	analysis.CacheRecord
}

// frameWriter serializes frames onto one pipe. The mutex lets the
// worker's heartbeat goroutine interleave with result writes without
// tearing frames.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) write(f *frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return fw.writeRecord(payload)
}

// writeRecord frames payload as one store record, in a single write.
func (fw *frameWriter) writeRecord(payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	_, err := fw.w.Write(store.EncodeRecord(payload))
	return err
}

// readFrame decodes one frame from r. A stream that ends cleanly
// between frames returns io.EOF; a torn, oversized or checksum-failing
// record returns the store's typed error, and a record whose payload is
// not a typed frame object a decode error.
func readFrame(r io.Reader) (*frame, error) {
	payload, err := store.ReadRecord(r, 0)
	if err != nil {
		return nil, err
	}
	f := &frame{}
	if err := json.Unmarshal(payload, f); err != nil {
		return nil, fmt.Errorf("coord: bad frame: %w", err)
	}
	if f.Type == "" {
		return nil, fmt.Errorf("coord: frame missing type")
	}
	return f, nil
}
