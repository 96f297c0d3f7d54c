// The crash-safe persistence layer: an append-only JSONL journal plus an
// atomically-replaced checkpoint.
//
// Every queue state transition appends one journal record before the
// transition is acknowledged. The full queue state is periodically
// folded into checkpoint.json (temp-file + rename, so the checkpoint is
// always either the old or the new complete state), after which the
// journal restarts empty. Recovery therefore reads the checkpoint, then
// replays the journal over it; a torn final record — the signature of a
// crash mid-append — is detected and discarded, never misparsed.
//
// The recovery rules encode the farm's durability contract:
//
//   - a job with an "enqueue" but no "done" or "fail" record is re-queued
//     (pending again, attempt count preserved) — crashes lose no jobs;
//   - a job whose last record is "start" was in flight when the process
//     died: it is re-queued, not marked failed, and runs again — the
//     farm's only re-run;
//   - a job with a "done" record is complete and is never re-run — its
//     result bytes are in the content-addressed cache;
//   - a job with a "fail" record stays failed, with the attempt count
//     and error the record carries. What older farms wrote for their
//     retry ladder — "quarantine" records and the "backoff" and
//     "quarantined" checkpoint states — loads as failed, and the crash
//     fingerprint they recorded ("fp" on records and events,
//     "fingerprint" on checkpointed jobs) is ignored.
package farm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// record is one journal line.
type record struct {
	Op         string `json:"op"` // enqueue|start|done|fail
	ID         uint64 `json:"id"`
	TS         int64  `json:"ts,omitempty"`         // unix ns, lifecycle event timestamp
	TraceID    string `json:"trace_id,omitempty"`   // enqueue: minted trace identity
	Spec       *Spec  `json:"spec,omitempty"`       // enqueue
	Key        string `json:"key,omitempty"`        // enqueue: cache key
	Attempt    int    `json:"attempt,omitempty"`    // start/fail
	Err        string `json:"err,omitempty"`        // fail (truncated)
	ResultHash string `json:"result,omitempty"`     // done: sha256 of result bytes
	FromCache  bool   `json:"from_cache,omitempty"` // done: served without executing
}

// checkpointDoc is the atomically-replaced full-state snapshot.
type checkpointDoc struct {
	NextID uint64 `json:"next_id"`
	Jobs   []*Job `json:"jobs"`
}

// journal owns the two files. All methods are called with the farm mutex
// held; the journal itself adds no locking.
type journal struct {
	dir  string
	f    *os.File
	w    *bufio.Writer // buffers f; reset onto the new file at a checkpoint
	enc  *json.Encoder // encodes records into w
	sync bool          // fsync each append (off in tests for speed)

	appends int // records since the last checkpoint
}

func journalPath(dir string) string    { return filepath.Join(dir, "journal.jsonl") }
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// openJournal opens dir's journal for appending, creating it if absent.
func openJournal(dir string, sync bool) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	w := bufio.NewWriter(f)
	return &journal{dir: dir, f: f, w: w, enc: json.NewEncoder(w), sync: sync}, nil
}

// append durably records one state transition. The record is on disk (or
// at least in the OS page cache, when sync is off) before append returns,
// so the in-memory transition it describes can safely be acknowledged.
func (j *journal) append(rec *record) error {
	if j.f == nil {
		return fmt.Errorf("farm: journal closed")
	}
	// Encode writes the record and its newline straight into w, the same
	// bytes json.Marshal gives plus the line end.
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("farm: journal: %w", err)
		}
	}
	j.appends++
	return nil
}

// checkpoint atomically replaces the checkpoint with the given state and
// restarts the journal empty. If the process dies between the rename and
// the truncation, recovery replays journal records that are already
// folded into the checkpoint — every record's effect is idempotent under
// replay (set-state, not increment), so the double-application is safe.
func (j *journal) checkpoint(nextID uint64, jobs map[uint64]*Job) error {
	doc := checkpointDoc{NextID: nextID}
	for _, id := range slices.Sorted(maps.Keys(jobs)) {
		doc.Jobs = append(doc.Jobs, jobs[id])
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		return fmt.Errorf("farm: checkpoint: %w", err)
	}
	// With sync on, the checkpoint must be on disk before the journal it
	// replaces is truncated, or a power loss could leave neither.
	if err := replaceFile(checkpointPath(j.dir), append(data, '\n'), j.sync); err != nil {
		return fmt.Errorf("farm: checkpoint: %w", err)
	}
	// Restart the journal: the checkpoint now carries everything.
	if j.f != nil {
		j.w.Flush()
		j.f.Close()
	}
	f, err := os.OpenFile(journalPath(j.dir), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("farm: checkpoint: %w", err)
	}
	j.w.Reset(f)
	j.f, j.appends = f, 0
	return nil
}

// close flushes and closes the journal file. Appends after close fail,
// which is exactly the crash-simulation semantics Farm.Kill wants.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	j.w.Flush()
	err := j.f.Close()
	j.f = nil
	return err
}

// recoverState loads the checkpoint (if any) and replays the journal
// over it, returning the reconstructed job table and next job id. Jobs
// that were running when the process died come back pending.
func recoverState(dir string) (map[uint64]*Job, uint64, error) {
	jobs := make(map[uint64]*Job)
	var nextID uint64 = 1

	if data, err := os.ReadFile(checkpointPath(dir)); err == nil {
		var doc checkpointDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, 0, fmt.Errorf("farm: corrupt checkpoint: %w", err)
		}
		nextID = doc.NextID
		for _, job := range doc.Jobs {
			jobs[job.ID] = job
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("farm: checkpoint: %w", err)
	}

	data, err := os.ReadFile(journalPath(dir))
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("farm: journal: %w", err)
	}
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // torn final record from a crash mid-append: discard
		}
		line := data[:nl]
		data = data[nl+1:]
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A corrupt interior line means everything after it is
			// suspect; stop replaying rather than guess.
			break
		}
		applyRecord(jobs, &rec)
		if rec.ID >= nextID {
			nextID = rec.ID + 1
		}
	}

	// Crash recovery proper: a running job was in flight when the process
	// died and re-enters the queue. "backoff" and "quarantined" are
	// checkpoint states of older farms, which retried a failure; here a
	// failure is final.
	for _, job := range jobs {
		switch job.State {
		case StateRunning:
			job.State = StatePending
		case "backoff", "quarantined":
			job.State = StateFailed
		}
	}
	return jobs, nextID, nil
}

// applyRecord folds one journal record into the job table. Records set
// state rather than increment it, so replaying a record whose effect is
// already in the checkpoint is harmless; the event history dedups on
// exact (timestamp, type, attempt) matches for the same reason (records
// between a checkpoint rename and the journal truncation replay twice).
func applyRecord(jobs map[uint64]*Job, rec *record) {
	switch rec.Op {
	case "enqueue":
		// An enqueue replayed over a checkpointed job must not erase the
		// job's accumulated event history (the pre-fix bug: jobs/{id}/events
		// went silent after a restart whose checkpoint horizon had passed
		// the enqueue record). Rebuild state but keep existing events.
		var events []JobEvent
		if prev := jobs[rec.ID]; prev != nil {
			events = prev.Events
		}
		traceID := rec.TraceID
		if traceID == "" {
			traceID = TraceIDFor(rec.ID, rec.Key) // pre-tracing journals
		}
		jobs[rec.ID] = &Job{
			ID:      rec.ID,
			Spec:    rec.Spec,
			Key:     rec.Key,
			State:   StatePending,
			TraceID: traceID,
			Events:  events,
		}
	case "start":
		if job := jobs[rec.ID]; job != nil {
			job.State = StateRunning
			job.Attempts = rec.Attempt
		}
	case "done":
		if job := jobs[rec.ID]; job != nil {
			job.State = StateDone
			job.ResultHash = rec.ResultHash
			job.FromCache = rec.FromCache
			job.Error = ""
		}
	case "fail", "quarantine": // older farms wrote "quarantine", without an attempt
		if job := jobs[rec.ID]; job != nil {
			job.State = StateFailed
			if rec.Attempt != 0 {
				job.Attempts = rec.Attempt
			}
			job.Error = rec.Err
		}
	}
	if job := jobs[rec.ID]; job != nil && rec.TS != 0 {
		job.appendEvent(rec)
	}
}
