// Package coord implements fault-tolerant multi-process verification: a
// coordinator that partitions the prefix space across N `sre worker`
// subprocesses and supervises them — per-task deadlines, heartbeats,
// crash detection (process exit, decode failure, heartbeat loss),
// bounded retries with exponential backoff and worker respawn, and a
// poisoned-prefix quarantine that falls back to in-process resilient
// execution after repeated failures.
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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"sre/internal/analysis"
	"sre/internal/obs"
)

// Wire protocol: length-prefixed NDJSON frames over the worker's
// stdin/stdout pipes. Each frame is a 4-byte little-endian payload
// length followed by one JSON object terminated by '\n' (the newline is
// part of the payload, so a pipe captured raw is still line-readable).
//
//	coordinator → worker: init, task, shutdown
//	worker → coordinator: hello, heartbeat, result, error
//
// The decoder is total: any byte stream yields a frame or an error,
// never a panic and never an allocation proportional to a declared
// length that was not actually received (FuzzDecodeFrame pins this).

// maxFramePayload bounds a frame's declared payload length when
// Options.MaxFrameBytes is zero. Serialized BDDs for one prefix task
// are megabytes at the extreme; a declared length beyond this is a
// corrupt stream, not a big result.
const maxFramePayload = 1 << 30

// FrameSizeError reports a frame whose declared payload length exceeds
// the configured maximum — a corrupt length prefix from the reader's
// point of view, typed so callers tuning MaxFrameBytes can tell it from
// other stream corruption.
type FrameSizeError struct {
	Declared int64
	Max      int64
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("coord: frame declares %d payload bytes, max %d", e.Declared, e.Max)
}

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
// that shape results, the fleet's own transport settings, and — when the
// run carries a persistent result cache — the store directory the worker
// should consult and publish to.
type initMsg struct {
	Network string `json:"network"`
	// Opts is src.Options.Encode() of the coordinator's options, byte
	// for byte: the same encoding analysis.CacheKey hashes, so a worker
	// cannot run under options its keys do not name.
	Opts json.RawMessage `json:"opts"`
	// Ladder tells the worker to escalate overflowing tasks
	// (Options.Resilient).
	Ladder        bool   `json:"ladder,omitempty"`
	HeartbeatMS   int    `json:"heartbeat_ms,omitempty"`
	MaxFrameBytes int64  `json:"max_frame_bytes,omitempty"`
	CacheDir      string `json:"cache_dir,omitempty"`
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
	// worker consults the shared store under it on a first attempt and
	// publishes the computed result back. Empty disables caching.
	CacheKey string `json:"cache_key,omitempty"`
}

type helloMsg struct {
	PID int `json:"pid"`
}

// taskResult carries one finished prefix back: the outcome, the
// serialized pipelines, and the worker's per-task telemetry shard.
type taskResult struct {
	Seq       int                     `json:"seq"`
	Prefix    string                  `json:"prefix"`
	Outcome   analysis.WireOutcome    `json:"outcome"`
	Pipes     []analysis.WirePipeline `json:"pipes,omitempty"`
	Telemetry *obs.Wire               `json:"telemetry,omitempty"`
}

// The wire forms of outcomes, pipelines, and errors are defined in
// internal/analysis (wire.go): the persistent result store shares them
// as its record payload, so one codec serves both the pipe and the disk.

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
	payload = append(payload, '\n')
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = fw.w.Write(payload)
	return err
}

// readFrame decodes one frame from r under the default size cap.
func readFrame(r io.Reader) (*frame, error) {
	return readFrameLimit(r, 0)
}

// readFrameLimit decodes one frame from r, bounding the declared
// payload length by max (0 = maxFramePayload). It is total over
// arbitrary byte streams: torn length prefixes, truncated payloads,
// oversized declared lengths, and invalid JSON all return errors. The
// payload is read incrementally (never pre-allocated at the declared
// length), so a hostile length field cannot balloon memory.
func readFrameLimit(r io.Reader, max int64) (*frame, error) {
	if max <= 0 {
		max = maxFramePayload
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("coord: frame length 0 out of range")
	}
	if int64(n) > max {
		return nil, &FrameSizeError{Declared: int64(n), Max: max}
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	f := &frame{}
	if err := json.Unmarshal(buf.Bytes(), f); err != nil {
		return nil, fmt.Errorf("coord: bad frame: %w", err)
	}
	if f.Type == "" {
		return nil, fmt.Errorf("coord: frame missing type")
	}
	return f, nil
}
