package farm

import (
	"context"
	"strings"
	"testing"
	"time"
)

// eventTypes extracts the ordered type sequence of a job's events.
func eventTypes(j *Job) []string {
	out := make([]string, len(j.Events))
	for i, ev := range j.Events {
		out[i] = ev.Type
	}
	return out
}

func TestJobLifecycleEventsRecorded(t *testing.T) {
	f := openFarm(t, testOptions(t))
	job, err := f.Submit(testSpec(0xe0))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.TraceID == "" {
		t.Fatal("submitted job has no trace id")
	}
	if want := TraceIDFor(job.ID, job.Key); job.TraceID != want {
		t.Fatalf("trace id %q, want deterministic %q", job.TraceID, want)
	}
	got := waitDone(t, f, job.ID)
	types := eventTypes(got)
	if len(types) != 3 || types[0] != "enqueue" || types[1] != "start" || types[2] != "done" {
		t.Fatalf("event sequence = %v, want [enqueue start done]", types)
	}
	for i := 1; i < len(got.Events); i++ {
		if got.Events[i].TS < got.Events[i-1].TS {
			t.Fatalf("events out of time order: %v", got.Events)
		}
	}
}

func TestJobEventsRecordRetries(t *testing.T) {
	opt := testOptions(t)
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		if attempt == 1 {
			panic("injected first-attempt crash")
		}
		return next()
	}
	f := openFarm(t, opt)
	job, err := f.Submit(testSpec(0xe1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitDone(t, f, job.ID)
	if got.State != StateDone {
		t.Fatalf("state = %s, want done", got.State)
	}
	types := eventTypes(got)
	want := []string{"enqueue", "start", "fail", "start", "done"}
	if strings.Join(types, " ") != strings.Join(want, " ") {
		t.Fatalf("event sequence = %v, want %v", types, want)
	}
	var fail JobEvent
	for _, ev := range got.Events {
		if ev.Type == "fail" {
			fail = ev
		}
	}
	if fail.Fingerprint == "" || !strings.Contains(fail.Err, "injected") {
		t.Fatalf("fail event lacks fingerprint/error: %+v", fail)
	}
}

// TestJobEventsSurviveCheckpointHorizon is the satellite-6 fix: with a
// checkpoint after every append, every journal record is folded (and the
// journal truncated) almost immediately — the pre-fix behaviour lost any
// event older than the horizon on restart. Events must instead ride in
// the checkpointed job and come back complete.
func TestJobEventsSurviveCheckpointHorizon(t *testing.T) {
	opt := testOptions(t)
	opt.CheckpointEvery = 1
	f := openFarm(t, opt)
	job, err := f.Submit(testSpec(0xe2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitDone(t, f, job.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s, want done", done.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	f2 := openFarm(t, opt)
	got, err := f2.Status(job.ID)
	if err != nil {
		t.Fatalf("Status after restart: %v", err)
	}
	if got.TraceID != done.TraceID {
		t.Fatalf("trace id changed across restart: %q → %q", done.TraceID, got.TraceID)
	}
	a, b := eventTypes(done), eventTypes(got)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("events after restart = %v, want %v", b, a)
	}
	for i := range done.Events {
		if done.Events[i] != got.Events[i] {
			t.Fatalf("event %d changed across restart: %+v vs %+v", i, done.Events[i], got.Events[i])
		}
	}
}

// TestApplyRecordReplayDedup: a record folded into the checkpoint and
// then replayed from the journal (the rename/truncate race window) must
// not duplicate its event.
func TestApplyRecordReplayDedup(t *testing.T) {
	jobs := make(map[uint64]*Job)
	enq := &record{Op: "enqueue", ID: 1, Key: "k", TS: 100, TraceID: "t"}
	start := &record{Op: "start", ID: 1, Attempt: 1, TS: 200}
	applyRecord(jobs, enq)
	applyRecord(jobs, start)
	applyRecord(jobs, start) // replayed
	job := jobs[1]
	if len(job.Events) != 2 {
		t.Fatalf("replayed record duplicated events: %v", job.Events)
	}
	// An enqueue replay over existing state keeps accumulated history.
	applyRecord(jobs, enq)
	if len(jobs[1].Events) != 2 {
		t.Fatalf("enqueue replay reset events: %v", jobs[1].Events)
	}
}
