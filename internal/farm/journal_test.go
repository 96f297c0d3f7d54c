package farm

import (
	"encoding/json"
	"os"
	"path/filepath"
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
			`{"op":"fail","id":4,"attempt":2,"err":"boom","fp":"boom @ f","terminal":true}`+"\n")
	jobs, nextID, err := recoverState(dir)
	if err != nil {
		t.Fatalf("recoverState: %v", err)
	}
	if nextID != 5 {
		t.Fatalf("nextID = %d, want 5", nextID)
	}
	want := map[uint64]JobState{
		1: StatePending, // was running: re-queued
		2: StatePending, // was in backoff: its timer died with the process
		3: StateDone,    // completed: never re-run
		4: StateFailed,  // terminal: stays failed
	}
	for id, state := range want {
		job := jobs[id]
		if job == nil {
			t.Fatalf("job %d lost", id)
		}
		if job.State != state {
			t.Errorf("job %d: state %s, want %s", id, job.State, state)
		}
	}
	// The retry ladder context survives: job 2's attempt count and
	// fingerprint carry into the next generation.
	if jobs[2].Attempts != 1 || jobs[2].Fingerprint == "" {
		t.Errorf("job 2 lost retry context: %+v", jobs[2])
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
