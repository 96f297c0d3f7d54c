package farm

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// execCounter counts completed executions per job key across farm
// generations, to prove completed jobs are never re-run.
type execCounter struct {
	mu    sync.Mutex
	byKey map[string]int
}

func newExecCounter() *execCounter {
	return &execCounter{byKey: make(map[string]int)}
}

func (c *execCounter) wrap(inner func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error)) func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
	return func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		out, err := inner(job, attempt, next)
		if err == nil {
			c.mu.Lock()
			c.byKey[job.Key]++
			c.mu.Unlock()
		}
		return out, err
	}
}

func (c *execCounter) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKey[key]
}

// TestCrashMidJobLosesNothingAndRepeatsNothing is the crash/restart
// acceptance test: kill the farm while workers are mid-job, restart it
// against the same journal, and verify that (a) no job is lost, (b) no
// job runs to completion twice, and (c) every result byte-matches a
// clean serial run.
func TestCrashMidJobLosesNothingAndRepeatsNothing(t *testing.T) {
	const fastJobs = 2 // complete before the crash
	const hungJobs = 2 // in flight at the crash
	specs := make([]*Spec, 0, fastJobs+hungJobs)
	for seed := uint64(0xc0); seed < 0xc0+fastJobs+hungJobs; seed++ {
		specs = append(specs, testSpec(seed))
	}

	// The reference: a clean serial run of every spec, no farm involved.
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		out, err := Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("inline Execute(%s): %v", spec.Summary(), err)
		}
		want[i] = out
	}

	counter := newExecCounter()
	opt := testOptions(t)
	opt.Workers = hungJobs

	// Generation 1: the first fastJobs specs run through; the rest signal
	// arrival and hang. When the crash releases them they error out
	// instead of producing a result — a SIGKILLed simulation never
	// completes its in-flight work.
	started := make(chan uint64, hungJobs)
	block := make(chan struct{})
	opt.ExecWrap = counter.wrap(func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		if job.ID > fastJobs {
			started <- job.ID
			<-block
			return nil, errors.New("process crashed mid-execution")
		}
		return next()
	})
	f1, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	f1.Start()

	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		if jobs[i], err = f1.Submit(spec); err != nil {
			t.Fatalf("Submit(%s): %v", spec.Summary(), err)
		}
	}
	// The fast jobs complete; the hung jobs are claimed and stuck.
	for i := 0; i < fastJobs; i++ {
		if got := waitDone(t, f1, jobs[i].ID); got.State != StateDone {
			t.Fatalf("job %d: state %s (error %q)", jobs[i].ID, got.State, got.Error)
		}
	}
	for i := 0; i < hungJobs; i++ {
		<-started
	}

	// Crash. No drain, no checkpoint; the journal's last word on the hung
	// jobs is "start".
	f1.Kill()
	close(block) // release the zombie goroutines; their results are discarded

	// Generation 2: same directory, no injection.
	opt2 := opt
	opt2.ExecWrap = counter.wrap(func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		return next()
	})
	f2, err := Open(opt2)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	t.Cleanup(f2.Kill)

	// (a) Recovery found every job: the completed ones done, the in-flight
	// ones re-queued as pending with their attempt recorded.
	for i, job := range jobs {
		got, err := f2.Status(job.ID)
		if err != nil {
			t.Fatalf("job %d lost in the crash: %v", job.ID, err)
		}
		if i < fastJobs && got.State != StateDone {
			t.Fatalf("completed job %d recovered as %s, want done", job.ID, got.State)
		}
		if i >= fastJobs {
			if got.State != StatePending {
				t.Fatalf("in-flight job %d recovered as %s, want pending", job.ID, got.State)
			}
			if got.Attempts != 1 {
				t.Fatalf("in-flight job %d recovered with attempts=%d, want 1", job.ID, got.Attempts)
			}
		}
	}

	f2.Start()
	for _, job := range jobs {
		if got := waitDone(t, f2, job.ID); got.State != StateDone {
			t.Fatalf("job %d after restart: state %s (error %q)", job.ID, got.State, got.Error)
		}
	}

	// (b) No job ran to completion twice: the pre-crash jobs completed
	// once in generation 1 and were never re-executed; the in-flight jobs
	// completed exactly once, in generation 2.
	for i, job := range jobs {
		if n := counter.count(job.Key); n != 1 {
			t.Errorf("job %d (spec %d) completed %d executions, want exactly 1", job.ID, i, n)
		}
	}
	st1, st2 := f1.StatsSnapshot(), f2.StatsSnapshot()
	if total := st1.Completed + st2.Completed; total != uint64(len(specs)) {
		t.Errorf("completions across generations = %d+%d, want %d", st1.Completed, st2.Completed, len(specs))
	}

	// (c) Bytes match the clean serial run.
	for i, job := range jobs {
		out, err := f2.Result(job.ID)
		if err != nil {
			t.Fatalf("Result(job %d): %v", job.ID, err)
		}
		if !bytes.Equal(out, want[i]) {
			t.Errorf("job %d: post-crash bytes differ from clean serial run (%d vs %d bytes)",
				job.ID, len(out), len(want[i]))
		}
	}
}
