package farm

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJournalLines(t *testing.T, dir string, lines string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	jobs, nextID, err := recoverState(t.TempDir())
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	if len(jobs) != 0 || nextID != 1 {
		t.Fatalf("got %d jobs nextID=%d, want 0 jobs nextID=1", len(jobs), nextID)
	}
}

func TestRecoverDiscardsTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	// Two complete records, then a crash mid-append: no trailing newline,
	// truncated JSON. The torn record must be discarded, not misparsed.
	writeJournalLines(t, dir,
		`{"op":"enqueue","id":1,"key":"k1","spec":{"kind":"sim","sim":{"core_kind":"virec","workload":"vecadd"}}}`+"\n"+
			`{"op":"start","id":1,"attempt":1}`+"\n"+
			`{"op":"done","id":1,"result":"abc`)
	jobs, nextID, err := recoverState(dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	job := jobs[1]
	if job == nil {
		t.Fatal("job 1 lost")
	}
	// The "done" never committed: the job was still running at the crash,
	// so it recovers as pending with its attempt preserved.
	if job.State != StatePending {
		t.Fatalf("state = %s, want pending (torn done record must not count)", job.State)
	}
	if job.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", job.Attempts)
	}
	if nextID != 2 {
		t.Fatalf("nextID = %d, want 2", nextID)
	}
}

// TestRestartAfterTornRecordKeepsNewJobs: the generation that restarts
// after a torn final record must not append onto the torn bytes. If it
// did, its first record would share their line, recovery would stop
// there, and a second crash would lose every job acknowledged since the
// restart and hand out their ids again.
func TestRestartAfterTornRecordKeepsNewJobs(t *testing.T) {
	opt := testOptions(t)
	spec, err := json.Marshal(testSpec(0xa0))
	if err != nil {
		t.Fatal(err)
	}
	writeJournalLines(t, opt.Dir,
		`{"op":"enqueue","id":1,"key":"k1","spec":`+string(spec)+`}`+"\n"+
			`{"op":"start","id":1,"attempt":1}`+"\n"+
			`{"op":"done","id":1,"result":"abc`)
	f := openFarm(t, opt)
	job, err := f.Submit(testSpec(0xa1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitDone(t, f, job.ID); got.State != StateDone {
		t.Fatalf("job %d: state %s, want done", job.ID, got.State)
	}
	f.Kill()

	jobs, nextID, err := recoverState(opt.Dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	if got := jobs[job.ID]; got == nil || got.State != StateDone {
		t.Fatalf("job %d acknowledged after the restart = %+v, want done", job.ID, got)
	}
	if nextID != job.ID+1 {
		t.Fatalf("nextID = %d, want %d", nextID, job.ID+1)
	}
}

func TestRecoverStopsAtCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		`{"op":"enqueue","id":1,"key":"k1"}`+"\n"+
			`#### not json ####`+"\n"+
			`{"op":"done","id":1,"result":"deadbeef"}`+"\n")
	jobs, _, err := recoverState(dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	// Everything after the corruption is suspect: the done record must
	// not be applied, and the job re-queues (re-running is always safe;
	// trusting bytes after corruption is not).
	if job := jobs[1]; job == nil || job.State != StatePending {
		t.Fatalf("job 1 = %+v, want recovered as pending", job)
	}
}

func TestRecoverMapsInFlightStatesToPending(t *testing.T) {
	dir := t.TempDir()
	// Jobs 4–7 hold what only an older farm, one that retried failures,
	// wrote: the terminal flag, a quarantine record, and a checkpoint
	// holding the backoff and quarantined states.
	checkpoint := `{"next_id": 8, "jobs": [
 {"id": 6, "key": "k6", "state": "backoff", "attempts": 1, "error": "flaky", "fingerprint": "flaky @ g"},
 {"id": 7, "key": "k7", "state": "quarantined", "attempts": 2, "error": "bad", "fingerprint": "bad @ h"}
]}`
	if err := os.WriteFile(checkpointPath(dir), []byte(checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournalLines(t, dir,
		`{"op":"enqueue","id":1,"key":"k1"}`+"\n"+
			`{"op":"start","id":1,"attempt":1}`+"\n"+
			`{"op":"enqueue","id":2,"key":"k2"}`+"\n"+
			`{"op":"start","id":2,"attempt":1}`+"\n"+
			`{"op":"fail","id":2,"attempt":1,"err":"boom","fp":"boom @ f"}`+"\n"+
			`{"op":"enqueue","id":3,"key":"k3"}`+"\n"+
			`{"op":"start","id":3,"attempt":1}`+"\n"+
			`{"op":"done","id":3,"result":"cafe"}`+"\n"+
			`{"op":"enqueue","id":4,"key":"k4"}`+"\n"+
			`{"op":"start","id":4,"attempt":2}`+"\n"+
			`{"op":"fail","id":4,"attempt":2,"err":"boom","fp":"boom @ f","terminal":true}`+"\n"+
			`{"op":"enqueue","id":5,"key":"k5"}`+"\n"+
			`{"op":"start","id":5,"attempt":2}`+"\n"+
			`{"op":"quarantine","id":5,"err":"crash","fp":"crash @ e"}`+"\n")
	jobs, nextID, err := recoverState(dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	if nextID != 8 {
		t.Fatalf("nextID = %d, want 8", nextID)
	}
	type want struct {
		state    JobState
		attempts int
		err      string
	}
	wants := map[uint64]want{
		1: {StatePending, 1, ""},     // was running: re-queued
		2: {StateFailed, 1, "boom"},  // a fail record is final
		3: {StateDone, 1, ""},        // completed: never re-run
		4: {StateFailed, 2, "boom"},  // the old "terminal" flag changes nothing
		5: {StateFailed, 2, "crash"}, // quarantine record: attempts from its start
		6: {StateFailed, 1, "flaky"}, // checkpointed backoff
		7: {StateFailed, 2, "bad"},   // checkpointed quarantined
	}
	for id, w := range wants {
		job := jobs[id]
		if job == nil {
			t.Fatalf("job %d lost", id)
		}
		got := want{job.State, job.Attempts, job.Error}
		if got != w {
			t.Errorf("job %d = %+v, want %+v", id, got, w)
		}
	}

	// Open folds the recovered table into a checkpoint that holds only
	// the states this farm knows.
	f, err := Open(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	f.Kill()
	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != len(wants) {
		t.Fatalf("checkpoint holds %d jobs, want %d", len(doc.Jobs), len(wants))
	}
	for _, job := range doc.Jobs {
		if job.State != wants[job.ID].state {
			t.Errorf("checkpointed job %d: state %s, want %s", job.ID, job.State, wants[job.ID].state)
		}
	}
}

// TestOlderFingerprintedJournalLoads: farms before this one recorded a
// crash fingerprint on every fail record and event ("fp") and on every
// failed job ("fingerprint"). Such a directory still loads, with the
// fingerprints dropped, and a fail record replayed over the checkpoint
// that already folded it still adds no duplicate event.
func TestOlderFingerprintedJournalLoads(t *testing.T) {
	dir := t.TempDir()
	checkpoint := `{"next_id": 3, "jobs": [
 {"id": 1, "key": "k1", "state": "failed", "attempts": 1, "error": "boom", "fingerprint": "boom @ f",
  "events": [{"ts": 1, "type": "enqueue"}, {"ts": 2, "type": "start", "attempt": 1},
             {"ts": 3, "type": "fail", "attempt": 1, "err": "boom", "fp": "boom @ f"}]}
]}`
	if err := os.WriteFile(checkpointPath(dir), []byte(checkpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournalLines(t, dir,
		`{"op":"fail","id":1,"ts":3,"attempt":1,"err":"boom","fp":"boom @ f"}`+"\n"+
			`{"op":"enqueue","id":2,"ts":4,"key":"k2"}`+"\n"+
			`{"op":"start","id":2,"ts":5,"attempt":1}`+"\n"+
			`{"op":"fail","id":2,"ts":6,"attempt":1,"err":"crash","fp":"crash @ e"}`+"\n")
	f, err := Open(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for id, wantErr := range map[uint64]string{1: "boom", 2: "crash"} {
		job, err := f.Status(id)
		if err != nil || job.State != StateFailed || job.Attempts != 1 || job.Error != wantErr {
			t.Fatalf("job %d = %+v, want failed after 1 attempt with error %q", id, job, wantErr)
		}
		if got := strings.Join(eventTypes(job), " "); got != "enqueue start fail" {
			t.Fatalf("job %d events = %s, want enqueue start fail", id, got)
		}
		if fail := job.Events[2]; fail.Attempt != 1 || fail.Err != wantErr {
			t.Fatalf("job %d fail event = %+v", id, fail)
		}
	}
	f.Kill()
	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"fp"`)) || bytes.Contains(data, []byte(`"fingerprint"`)) {
		t.Fatalf("the re-folded checkpoint still carries fingerprints:\n%s", data)
	}
}

func TestCheckpointThenReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, false)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	jobs := map[uint64]*Job{
		1: {ID: 1, Key: "k1", State: StateDone, ResultHash: "aa"},
		2: {ID: 2, Key: "k2", State: StatePending},
	}
	j.append(&record{Op: "enqueue", ID: 1, Key: "k1"})
	j.append(&record{Op: "done", ID: 1, ResultHash: "aa"})
	j.append(&record{Op: "enqueue", ID: 2, Key: "k2"})
	if err := j.checkpoint(3, jobs); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint records land in the restarted (empty) journal and
	// must replay on top of the checkpointed state.
	j.append(&record{Op: "start", ID: 2, Attempt: 1})
	j.append(&record{Op: "enqueue", ID: 3, Key: "k3"})
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, nextID, err := recoverState(dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	if nextID != 4 {
		t.Fatalf("nextID = %d, want 4", nextID)
	}
	if got[1] == nil || got[1].State != StateDone || got[1].ResultHash != "aa" {
		t.Fatalf("job 1 = %+v, want done from checkpoint", got[1])
	}
	if got[2] == nil || got[2].State != StatePending || got[2].Attempts != 1 {
		t.Fatalf("job 2 = %+v, want pending (journaled start over checkpoint)", got[2])
	}
	if got[3] == nil || got[3].State != StatePending {
		t.Fatalf("job 3 = %+v, want pending from post-checkpoint journal", got[3])
	}
}

func TestCheckpointIsAtomic(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, false)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer j.close()
	if err := j.checkpoint(2, map[uint64]*Job{1: {ID: 1, Key: "k", State: StateDone}}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// No .tmp residue: the temp file was renamed into place.
	if tmps, err := filepath.Glob(filepath.Join(dir, "tmp-*")); err != nil || len(tmps) > 0 {
		t.Fatalf("checkpoint temp files left behind: %v (glob err %v)", tmps, err)
	}
	jobs, _, err := recoverState(dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	if jobs[1] == nil || jobs[1].State != StateDone {
		t.Fatalf("job 1 = %+v, want done", jobs[1])
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	payload := []byte(`{"cycles": 42}` + "\n")
	if err := c.Put("abc123", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := c.Get("abc123")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q ok=%v, want the stored payload", got, ok)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Reopening the same directory sees the same entries (that is the
	// whole point: the cache outlives the process).
	c2, err := OpenCache(c.dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, ok := c2.Get("abc123"); !ok || string(got) != string(payload) {
		t.Fatalf("reopened Get = %q ok=%v", got, ok)
	}
}
