// Job-lifecycle tracing: every journaled state transition doubles as a
// timestamped event on the job, forming a span history from HTTP
// admission to terminal state. Events ride inside the Job record, so the
// checkpoint folds them automatically — a restarted farm serves the same
// event history the dead process would have (the satellite-6 fix: span
// records older than the checkpoint horizon survive, because the horizon
// folds them into the job rather than dropping them).
//
// Wall-clock timestamps here are operational metadata only: they flow to
// the events endpoint, never into result bytes, so the determinism
// contract is untouched (the byte-identity tests run with event
// recording always on — it cannot be turned off).
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// JobEvent is one recorded lifecycle transition.
type JobEvent struct {
	TS        int64  `json:"ts"` // unix nanoseconds, wall clock
	Type      string `json:"type"`
	Attempt   int    `json:"attempt,omitempty"`
	Err       string `json:"err,omitempty"`
	FromCache bool   `json:"from_cache,omitempty"`
}

// TraceIDFor mints a job's trace identity: deterministic in the job id
// and its content key, so a resubmission of the same spec under a new id
// gets a distinct trace while recovery reconstructs the original one
// byte-for-byte.
func TraceIDFor(id uint64, key string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d\x00%s", id, key)))
	return hex.EncodeToString(h[:8])
}

// eventFromRecord projects a journal record onto its lifecycle event.
func eventFromRecord(rec *record) JobEvent {
	return JobEvent{
		TS:        rec.TS,
		Type:      rec.Op,
		Attempt:   rec.Attempt,
		Err:       rec.Err,
		FromCache: rec.FromCache,
	}
}

// appendEvent adds a record's event to the job, skipping exact
// duplicates: journal replay over a checkpoint that already folded the
// record must not double-count (records between the checkpoint rename
// and the journal truncation replay twice by design).
func (j *Job) appendEvent(rec *record) {
	ev := eventFromRecord(rec)
	for i := len(j.Events) - 1; i >= 0; i-- {
		if j.Events[i] == ev {
			return
		}
		if j.Events[i].TS < ev.TS {
			break // events are appended in time order; no older duplicate exists
		}
	}
	j.Events = append(j.Events, ev)
}

// record journals a state transition and mirrors it onto the job's event
// history. Called with the farm mutex held. The timestamp is operational
// metadata (see package comment); it is minted here so the journal, the
// in-memory job and a post-recovery job all carry the same instant.
func (f *Farm) record(job *Job, rec *record) {
	rec.TS = time.Now().UnixNano()
	job.appendEvent(rec)
	f.append(rec)
}
